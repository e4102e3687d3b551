"""Starmie benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the program and the benchmark (perfbench/build.py), runs one workload
in a fresh JVM and prints its result object as the last line of stdout.
Exits non-zero without a result when the build, the run or the result's
shape fails. Run from the root of a checkout; see perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

WORKLOADS = ("santos-small", "santos-large-ingest")
JVM_OPTS = ["-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", "-XX:-TieredCompilation", "-Xss8m"]
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=build.ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def run(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> dict:
    """Build, run one workload, return the parsed result (env block under 'env')."""
    digest = build.build()
    trace_file = build.OUT / "traces" / f"{workload}-seed{seed}.tsv"
    cmd = [build.java(), *JVM_OPTS, "-cp", build.classpath(), "repro.perfbench.Main",
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--trace-file", str(trace_file),
           "--git-sha", git_sha(), "--source-sha", digest]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.Popen(cmd, cwd=build.ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"benchmark JVM timed out after {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark JVM exited with {proc.returncode}")
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise RuntimeError("benchmark JVM printed no result")
    env = json.loads(lines[-2])["env"]
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise RuntimeError(f"result keys {sorted(result)}")
    return {"env": env, **result}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    try:
        res = run(args.workload, args.seed, args.seconds, args.trace)
    except (build.BuildError, RuntimeError, ValueError, KeyError,
            subprocess.TimeoutExpired, OSError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    env = res.pop("env")
    print(json.dumps({"env": env}))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark: every workload, end to end, in seconds.

    python3 perfbench/selftest.py

Runs each workload on a tiny lake with a few training steps, untraced and
traced, and asserts that the result names exactly the metrics (and units)
of BENCHMARK.json, that every value is finite, and that no operation
failed. Then checks that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and perfbench/.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402
import run  # noqa: E402


def check(res: dict, spec: list, label: str) -> None:
    metrics = res["metrics"]
    want = {m["name"]: m["unit"] for m in spec}
    assert set(metrics) == set(want), \
        f"{label}: metrics differ: {sorted(set(metrics) ^ set(want))}"
    for name, m in metrics.items():
        assert m["unit"] == want[name], f"{label}: {name} unit {m['unit']} != {want[name]}"
        v = m["value"]
        assert isinstance(v, (int, float)) and math.isfinite(v), f"{label}: {name} = {v}"
    assert res["correct"] is True, f"{label}: correct is {res['correct']}"
    assert res["failed"] == 0 and res["attempted"] > 0, \
        f"{label}: {res['failed']} of {res['attempted']} failed"


def bare_directory_fails() -> None:
    bare = build.OUT / "selftest-bare"
    if bare.exists():
        shutil.rmtree(bare)
    bare.mkdir(parents=True)
    shutil.copy(build.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(build.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "santos-small",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
        assert proc.returncode != 0, "run.py succeeded without the program sources"
        assert '"metrics"' not in proc.stdout, "run.py printed a result without the program"
    finally:
        shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((build.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert tuple(names) == run.WORKLOADS, f"BENCHMARK.json workloads {names}"
    for w in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{w} trace={trace}"
            check(run.run(w, seed=7, seconds=1, trace=trace, tiny=True), spec[key], label)
            print(f"ok  {label}")
    bare_directory_fails()
    print("ok  bare directory exits non-zero without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())

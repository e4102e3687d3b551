"""Build file of the benchmark: compiles the program and the benchmark sources.

The program is the repo's `src/main/scala` tree; the benchmark's own
Scala sources are `perfbench/src`. Both are compiled together with the Scala compiler that
ships in the Spark distribution (the same jars the sbt build puts on its
classpath), into `.bench_build/perfbench/classes`. A stamp of the sources
makes later calls a no-op until a source file changes.

    python3 perfbench/build.py          # build, print the classpath
"""

import hashlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIRS = [ROOT / "src" / "main" / "scala", ROOT / "perfbench" / "src"]
OUT = ROOT / ".bench_build" / "perfbench"
CLASSES = OUT / "classes"
STAMP = OUT / "stamp"


class BuildError(Exception):
    pass


def spark_jars() -> Path:
    """Directory of the Spark/Scala jars: $SPARK_HOME/jars, else the
    `unmanagedBase` that the root build.sbt names."""
    home = os.environ.get("SPARK_HOME")
    if home and (Path(home) / "jars").is_dir():
        return Path(home) / "jars"
    sbt = ROOT / "build.sbt"
    if sbt.is_file():
        m = re.search(r'unmanagedBase\s*:=\s*file\("([^"]+)"\)', sbt.read_text())
        if m and Path(m.group(1)).is_dir():
            return Path(m.group(1))
    raise BuildError("no Spark jars: set SPARK_HOME")


def java() -> str:
    home = os.environ.get("JAVA_HOME")
    exe = Path(home) / "bin" / "java" if home else None
    if exe and exe.is_file():
        return str(exe)
    found = shutil.which("java")
    if not found:
        raise BuildError("no java on PATH")
    return found


def sources() -> list:
    main = SOURCE_DIRS[0]
    if not main.is_dir():
        raise BuildError(f"program sources missing: {main.relative_to(ROOT)}")
    files = sorted(p for d in SOURCE_DIRS if d.is_dir() for p in d.rglob("*.scala"))
    if not files:
        raise BuildError("no Scala sources")
    return files


def source_digest(files) -> str:
    h = hashlib.sha256()
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def classpath() -> str:
    return os.pathsep.join([str(CLASSES), str(spark_jars() / "*")])


def build() -> str:
    """Compile if the sources changed; return the source digest."""
    files = sources()
    digest = source_digest(files)
    if STAMP.is_file() and STAMP.read_text().strip() == digest and CLASSES.is_dir():
        return digest
    if CLASSES.exists():
        shutil.rmtree(CLASSES)
    CLASSES.mkdir(parents=True)
    jars = str(spark_jars() / "*")
    cmd = [java(), "-Xss8m", "-Xmx2g", "-cp", jars, "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-classpath", jars, "-d", str(CLASSES)]
    cmd += [str(p) for p in files]
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT, text=True, timeout=850)
    if res.returncode != 0:
        sys.stderr.write(res.stdout)
        raise BuildError(f"scalac exited with {res.returncode}")
    STAMP.write_text(digest + "\n")
    return digest


if __name__ == "__main__":
    try:
        build()
    except (BuildError, subprocess.TimeoutExpired) as e:
        sys.exit(f"build failed: {e}")
    print(classpath())

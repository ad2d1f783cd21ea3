"""Build file of the benchmark: compiles the program (src/main/scala) and
the harness (perfbench/harness) with the Scala compiler that ships with
the Spark distribution the program is built against, into
.bench_build/classes. A build is skipped when its sources are unchanged.
The Scala version, the DuckDB JDBC version and the JVM module opens are
read from build.sbt.

    python3 perfbench/build.py
"""

import hashlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
CLASSES = BUILD / "classes"
STAMP = BUILD / "classes.stamp"
SBT = (ROOT / "build.sbt").read_text() if (ROOT / "build.sbt").is_file() else ""


def sbt_setting(pattern: str) -> str:
    if not SBT:
        raise SystemExit(f"build: no build.sbt in {ROOT}; run from a checkout of the program")
    m = re.search(pattern, SBT)
    if not m:
        raise SystemExit(f"build: build.sbt has no match for {pattern}")
    return m.group(1)


SCALA_VERSION = sbt_setting(r'scalaVersion\s*:=\s*"([^"]+)"')
DUCKDB_JAR = "duckdb_jdbc-" + sbt_setting(r'"duckdb_jdbc"\s*%\s*"([^"]+)"') + ".jar"
# The module opens the program's forked JVMs get (spark-submit's set).
JVM_OPENS = list(dict.fromkeys(re.findall(r'"(--add-opens=[^"]+)"', SBT)))


def spark_jars() -> Path:
    """The Spark jars directory: $SPARK_HOME/jars, else the one build.sbt names."""
    if os.environ.get("SPARK_HOME"):
        jars = Path(os.environ["SPARK_HOME"]) / "jars"
    else:
        jars = Path(sbt_setting(r'unmanagedBase\s*:=\s*file\("([^"]+)"\)'))
    if not (jars / f"scala-compiler-{SCALA_VERSION}.jar").is_file():
        raise SystemExit(f"build: no scala-compiler-{SCALA_VERSION}.jar in {jars}")
    return jars


def duckdb_jar() -> Path:
    """The DuckDB JDBC jar from the local coursier cache."""
    cache = Path(os.environ.get("COURSIER_CACHE", Path.home() / ".cache" / "coursier"))
    for p in sorted(cache.rglob(DUCKDB_JAR)):
        return p
    raise SystemExit(f"build: {DUCKDB_JAR} not found under {cache}")


def sources() -> list:
    program = sorted((ROOT / "src" / "main" / "scala").rglob("*.scala"))
    if not program:
        raise SystemExit("build: no program sources under src/main/scala")
    return program + sorted((ROOT / "perfbench" / "harness").glob("*.scala"))


def classpath() -> list:
    return sorted(str(p) for p in spark_jars().glob("*.jar")) + [str(duckdb_jar())]


def java() -> str:
    home = os.environ.get("JAVA_HOME")
    return str(Path(home) / "bin" / "java") if home else "java"


def jvm_command(flags: list, main_class: str, args: list) -> list:
    """A JVM with `flags` running `main_class` on the benchmark's runtime
    classpath, building first if needed."""
    return [java(), *flags, "-XX:-UsePerfData", *JVM_OPENS, "-cp", os.pathsep.join(build()),
            main_class, *args]


def build() -> list:
    """Compile if needed; return the runtime classpath."""
    cp = classpath()
    srcs = sources()
    h = hashlib.sha256()
    for p in srcs:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    h.update("\n".join(cp).encode())
    stamp = h.hexdigest()
    if not (STAMP.is_file() and STAMP.read_text() == stamp and CLASSES.is_dir()):
        shutil.rmtree(CLASSES, ignore_errors=True)
        CLASSES.mkdir(parents=True)
        jars = Path(cp[0]).parent
        compiler = [str(jars / f"scala-{n}-{SCALA_VERSION}.jar") for n in ("compiler", "library", "reflect")]
        cmd = [java(), "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", os.pathsep.join(compiler),
               "scala.tools.nsc.Main", "-nowarn", "-classpath", os.pathsep.join(cp),
               "-d", str(CLASSES)] + [str(p) for p in srcs]
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            raise SystemExit(f"build: scalac failed with code {r.returncode}")
        STAMP.write_text(stamp)
    return [str(CLASSES)] + cp


if __name__ == "__main__":
    build()

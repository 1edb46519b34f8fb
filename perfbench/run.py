#!/usr/bin/env python3
"""Build and run the repository's benchmark (perfbench).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library and the perfbench binary (CMake, Release) under the directory named
by $CARGO_TARGET_DIR, default .bench_build; later runs only rebuild what
changed. The binary's output is passed through: a provenance line, one line
per metric with its unit and sample count, any failures, and as the last
line one JSON object with the keys correct, attempted, failed and metrics.
A full report with sample counts is written under <build dir>/results/.

Exits non-zero, printing no result, when the library sources are missing or
the build fails; exits with the binary's code otherwise.
"""

import hashlib
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_revision():
    """git revision when the checkout is a repository, else a content hash
    of the library and benchmark sources (what the binary was built from)."""
    try:
        rev = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        steps = [["cmake", "--build", build_dir, "-j", jobs]]
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                             "-DCMAKE_BUILD_TYPE=Release"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build step failed: {' '.join(step)}")


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "system", "admin.h")):
        fail("library sources (src/) not found next to perfbench/")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(os.path.join(ROOT, target)), "perfbench")
    build(build_dir)

    args = list(argv)
    name = {"--workload": "run", "--seed": "0", "--trace": "0"}
    for i, flag in enumerate(args[:-1]):
        if flag in name:
            name[flag] = args[i + 1]
    results = os.path.join(os.path.dirname(build_dir), "results")
    os.makedirs(results, exist_ok=True)
    stem = re.sub(r"[^A-Za-z0-9_.-]", "_",
                  f"{name['--workload']}-seed{name['--seed']}-trace{name['--trace']}")
    report = os.path.join(results, stem + ".json")
    cmd = [os.path.join(build_dir, "perfbench"), *args,
           "--out", report, "--rev", source_revision()]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload sim-fio --seed 1 --seconds 16 --trace 0

Run from the repository root. The Go build cache, the binary and anything
else the toolchain writes go under the build directory (CARGO_TARGET_DIR if
set, else .bench_build), so a run writes nothing outside the checkout. The
arguments are passed to the benchmark binary unchanged; see README.md.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def revision(env):
    """The git commit, or a hash of the source tree when there is no git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for path in sorted(ROOT.rglob("*")):
        rel = path.relative_to(ROOT)
        if rel.parts[0].startswith(".") or not path.is_file():
            continue
        if path.suffix not in (".go", ".mod", ".json", ".py"):
            continue
        h.update(str(rel).encode() + b"\0" + path.read_bytes() + b"\0")
    return "tree-" + h.hexdigest()[:16]


def main():
    build = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build.is_absolute():
        build = ROOT / build
    build.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": str(build / "gocache"),
        "GOPATH": str(build / "gopath"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "XDG_CONFIG_HOME": str(build / "config"),
    })
    binary = build / "perfbench"
    out = subprocess.run(["go", "build", "-o", str(binary), "."], cwd=BENCH, env=env,
                         capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write("perfbench: build failed\n" + out.stdout + out.stderr)
        return 1
    env["PERFBENCH_REV"] = revision(env)
    sys.stdout.flush()
    os.execve(str(binary), [str(binary)] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds pcmd_ledger from this checkout and runs it.

    python3 bench/ledger/run.py --workload W --seed S --seconds T --trace 0|1

Configures bench/ledger as its own CMake project in .bench_build at the
repository root (Release), builds the pcmd_ledger target (a no-op when it
is up to date), then replaces itself with the binary and passes every
argument through. Build output goes to stderr, so the last line on stdout
is the ledger's result. Exits non-zero, printing no result, when the build
fails.
"""

import os
import subprocess
import sys
from pathlib import Path


def run(command):
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        print(f"run.py: {' '.join(command)} exited {result.returncode}",
              file=sys.stderr)
        sys.exit(result.returncode if result.returncode > 0 else 1)


def main():
    here = Path(__file__).resolve().parent
    build = here.parents[1] / ".bench_build"
    run(["cmake", "-S", str(here), "-B", str(build),
         "-DCMAKE_BUILD_TYPE=Release"])
    run(["cmake", "--build", str(build), "--target", "pcmd_ledger",
         "-j", str(min(os.cpu_count() or 1, 4))])
    binary = build / "pcmd_ledger"
    os.execv(binary, [str(binary), *sys.argv[1:]])


if __name__ == "__main__":
    main()

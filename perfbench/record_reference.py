"""Record the reference outputs the ``exact`` checks compare against.

Run from the repository root, at a commit whose outputs are trusted::

    python3 perfbench/record_reference.py

It runs the ``exact`` workload's commands and the ``pstar`` commands whose
minimizers the sample checks use, and writes ``perfbench/reference.json``.
Re-record only when a change is meant to alter these exact outputs.
"""

from __future__ import annotations

import json
import subprocess
import sys

import workloads as wl
from run import ENV, ROOT


def cli_output(argv) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "treegibbs.cli", *argv], cwd=ROOT, env=ENV,
        capture_output=True, text=True, check=True,
    )
    return proc.stdout


def main() -> int:
    pstar = {}
    for key, argv in wl.PSTAR_ARGV.items():
        line = next(ln for ln in cli_output(argv).splitlines() if ln.startswith("pstar = "))
        pstar[key] = [float(v) for v in line[len("pstar = "):].split()]
    tables = {key: cli_output(argv) for key, argv in wl.EXACT_ARGV.items()}
    with open(wl.REFERENCE_PATH, "w", encoding="ascii") as fh:
        json.dump({"pstar": pstar, "tables": tables}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare the command-line output of two source trees of treegibbs.

    python tools/compare_outputs.py BASE_SRC HEAD_SRC

BASE_SRC and HEAD_SRC are the ``src`` directories of the two trees.  Every
command of the benchmark's ``EXACT_ARGV``, ``PSTAR_ARGV`` and
``ORACLE_ARGV`` (``perfbench/workloads.py``, imported and not modified),
the gated ``sample-labeled`` command (``SAMPLE_SPECS``, ``SAMPLE_N``) and a
rare-class ``sample`` that draws over the profile lattice's row cut, both
at seed 1, runs as ``python -m treegibbs.cli ARGV`` under each tree.  The
script prints, as markdown, the commands whose stdout, stderr or exit code
differ, and exits 1 if any does.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def commands() -> list[tuple[str, ...]]:
    kind, bound, samples, _ = workloads.SAMPLE_SPECS["sample-labeled"]
    return [
        *workloads.EXACT_ARGV.values(),
        *workloads.PSTAR_ARGV.values(),
        *workloads.ORACLE_ARGV,
        ("sample", "--kind", kind, "--bound", str(bound), "--n", str(workloads.SAMPLE_N),
         "--samples", str(samples), "--seed", "1"),
        # degrees 2 and 4 at weight e^-30, which odd N needs: the cut draw
        ("sample", "--kind", "labeled", "--bound", "5", "--beta", "30", "--energy",
         "0,1,0,1,0", "--n", "1001", "--samples", "20", "--seed", "1"),
    ]


def run(src: Path, *args: str) -> subprocess.CompletedProcess:
    """``python *args`` with ``src`` alone on PYTHONPATH, output captured."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, check=False)


def check_import(src: Path) -> None:
    """Exit unless ``import treegibbs`` under ``src`` loads that tree's
    package, not an installed one."""
    found = run(src, "-c", "import treegibbs; print(treegibbs.__file__)").stdout.decode()
    if not Path(found.strip()).resolve().is_relative_to(src):
        sys.exit(f"treegibbs under {src} is imported from {found.strip() or 'nowhere'}")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    base, head = (Path(a).resolve() for a in argv)
    for src in (base, head):
        check_import(src)
    argvs, differ = commands(), []
    for args in argvs:
        old, new = (run(src, "-m", "treegibbs.cli", *args) for src in (base, head))
        fields = [
            name
            for name, a, b in (
                ("stdout", old.stdout, new.stdout),
                ("stderr", old.stderr, new.stderr),
                ("exit code", old.returncode, new.returncode),
            )
            if a != b
        ]
        if fields:
            differ.append(f"- `{' '.join(args)}`: {', '.join(fields)}")
    print(f"### Command output against the base ({len(argvs)} commands)\n")
    print("\n".join(differ) if differ else "No command's stdout, stderr or exit code differs.")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Workloads: the CLI invocations one operation runs, and how each is checked.

Why these workloads:

* ``sample-labeled`` spends ~85% of its time in per-tree Python objects
  (``LabeledTree``, ``prufer_decode``, ``degrees``, ``to_text``) and ~1.5% in
  ``build_dp``: an array-level tree path moves it, a ln Z change does not.
* ``sample-plane`` has no tree objects: its time is the backward-sampling
  kernel, the shuffle plus cycle-lemma rotation, and inline row formatting,
  so a sampler or formatting change shows here.  It is defined and runnable
  but not listed in BENCHMARK.json: on a 2-core VM its operations vary by
  ~16% (CV) with the machine's speed, and the run-to-run spread of its
  median (0.16-0.21) stays above a third of the 0.25 bound at any run
  length the benchmark's time budget allows.
* ``exact`` draws nothing: ln Z (labeled D=3 up to N=4000), the profile
  lattice (plane D=4, 3.6M profiles at N=800) and the rate grid plus LLN
  tail (labeled D=4).  ln Z, lattice and rate-infimum changes show here and
  not in the sampling workloads.  ``lln`` for plane D=4 or labeled D>=5 is
  left out: it is refused (exit 3) at the seed commit, so it would only
  time a failure.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

SAMPLE_N = 1000


@dataclass(frozen=True)
class Invocation:
    """One CLI command (arguments after ``python -m treegibbs.cli``, without
    ``--out``) and the checker for the text it writes."""

    key: str
    argv: tuple[str, ...]
    check: Callable[[str], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    items_per_op: int  # trees written per operation, or table rows for exact
    invocations: Callable[[int], list[Invocation]]  # op seed -> commands


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="ascii") as fh:
        return json.load(fh)


def op_seeds(seed: int):
    """Endless stream of per-operation sampling seeds derived from ``seed``."""
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(63)


# Statistical bound on l1_distance_to_pstar at N=1000: the exact finite-N
# bias |E[chi/N] - p*|_1 plus 6 standard errors of the sample mean per class,
# both from the exact chi law (labeled D=3: 0.0022 + 6 * 0.00070;
# plane D=3: 0.00083 + 6 * 0.00041), rounded up.
L1_BOUND = {"labeled": 0.0065, "plane": 0.0034}

SAMPLE_SPECS = {
    "sample-labeled": ("labeled", 3, 2000, checks.check_labeled_sample),
    "sample-plane": ("plane", 3, 10000, checks.check_plane_sample),
}


def _sample_invocations(name: str, reference: dict, seed: int) -> list[Invocation]:
    kind, bound, samples, checker = SAMPLE_SPECS[name]
    argv = ("sample", "--kind", kind, "--bound", str(bound), "--n", str(SAMPLE_N),
            "--samples", str(samples), "--seed", str(seed))
    check = partial(
        checker, n=SAMPLE_N, bound=bound, samples=samples,
        pstar=reference["pstar"][f"{kind}-{bound}"], l1_bound=L1_BOUND[kind],
    )
    return [Invocation(name, argv, check)]


EXACT_ARGV = {
    "ldp-labeled-d3": ("ldp-table", "--kind", "labeled", "--bound", "3",
                       "--n-list", "1000,2000,4000", "--eps", "0.05"),
    "ldp-plane-d4": ("ldp-table", "--kind", "plane", "--bound", "4", "--beta", "1",
                     "--energy", "0,0,0,1,2", "--n-list", "200,400,800", "--eps", "0.05"),
    "lln-labeled-d4": ("lln", "--kind", "labeled", "--bound", "4",
                       "--n-list", "500,1000,2000", "--delta", "0.1"),
}
EXACT_ROWS = 9  # three N values per invocation


def _exact_invocations(reference: dict, _seed: int) -> list[Invocation]:
    return [
        Invocation(key, argv, partial(checks.check_table, reference=reference["tables"][key]))
        for key, argv in EXACT_ARGV.items()
    ]


#: Set-up operation: import numpy, scipy and treegibbs, parse, solve p* (2 ms).
SETUP_ARGV = ("pstar", "--kind", "labeled", "--bound", "3")
PSTAR_ARGV = {
    "labeled-3": SETUP_ARGV,
    "plane-3": ("pstar", "--kind", "plane", "--bound", "3"),
    "plane-4": ("pstar", "--kind", "plane", "--bound", "4"),
}

#: Enumeration oracles, run once per benchmark invocation, untimed.
ORACLE_ARGV = (
    ("oracle-check", "--kind", "labeled", "--bound", "3", "--beta", "1",
     "--energy", "0,0,1", "--n", "7"),
    ("oracle-check", "--kind", "plane", "--bound", "3", "--beta", "1",
     "--energy", "0,0,0,1", "--n", "10"),
)

#: Scaling sweep (traced run only, not gated): ``sample`` with a fixed number
#: of trees at each N, reporting build_dp time and table bytes per point.
SWEEP_N = (1000, 2000, 4000, 8000)
SWEEP_TREES = 20
SWEEP_SERIES = {"labeled-d3": ("labeled", 3), "plane-d4": ("plane", 4)}


def sweep_argv(series: str, n: int, seed: int) -> tuple[str, ...]:
    kind, bound = SWEEP_SERIES[series]
    return ("sample", "--kind", kind, "--bound", str(bound), "--n", str(n),
            "--samples", str(SWEEP_TREES), "--seed", str(seed))


def workloads(reference: dict) -> dict[str, Workload]:
    return {
        "sample-labeled": Workload(
            "sample-labeled",
            "labeled D=3, N=1000, 2000 trees: per-tree object path (Prufer decode, "
            "LabeledTree, degrees, to_text); ln Z is ~1.5%",
            SAMPLE_SPECS["sample-labeled"][2],
            partial(_sample_invocations, "sample-labeled", reference),
        ),
        "sample-plane": Workload(
            "sample-plane",
            "plane D=3, N=1000, 10000 trees (~20 MB): backward sampling, shuffle and "
            "cycle-lemma rotation, row formatting; no tree objects",
            SAMPLE_SPECS["sample-plane"][2],
            partial(_sample_invocations, "sample-plane", reference),
        ),
        "exact": Workload(
            "exact",
            "ldp-table labeled D=3 and plane D=4, lln labeled D=4: ln Z, profile "
            "lattice, rate grid and LLN tail; no sampling",
            EXACT_ROWS,
            partial(_exact_invocations, reference),
        ),
    }

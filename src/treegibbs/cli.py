"""Batch command-line front end.

Subcommands::

    treegibbs pstar        --kind labeled --bound 3 --beta 0
    treegibbs sample       --kind plane --bound 2 --n 4 --samples 1000 --seed 7
    treegibbs ldp-table    --kind labeled --bound 3 --n-list 100,200,400 --eps 0.05
    treegibbs lln          --kind labeled --bound 3 --n-list 250,500 --delta 0.1
    treegibbs oracle-check --kind labeled --bound 3 --beta 1 --energy 0,0,1 --n 4

Each option is one row of ``OPTIONS`` (config key -> flag, ``RunConfig``
field, parser, help), read by ``make_parser`` and by ``load_config_file``
for a ``--config PATH`` file of ``key = value`` lines, where lists are
written ``c = [v1, v2, ...]``.  Flags win over file values; ``RunConfig``
checks the merged values and the ``EnsembleSpec`` checks itself.  All
randomized output is reproducible from (config, seed): sampling is sharded
into blocks of ``SAMPLE_CELLS // max(N, n_classes)`` trees (at least one),
n_classes being the number of degree classes, with one RNG stream per block
index, so the trees of a shorter run are a prefix of those of a longer one.
A block's kept (trees, n_classes) int64 profiles hold at most 32 MB, or
one tree's worth once N or n_classes passes ``SAMPLE_CELLS``; the proposals
behind them are drawn in int64 chunks of ``partition.LATTICE_BYTES``.  The
rest is made one row group at a time (``treegen.group_rows``), and
``treegen.WRITE_BLOCK_BYTES`` bounds in bytes all that a group holds, from
its class rows to its text; the class totals of the summary are the sums of
the profiles.  ``sample`` prints labeled trees as the sorted edge lists of
their words under the Foata-Fuchs-type word -> tree map
(``treegen.word_edges``; D. Foata & A. Fuchs, J. Combin. Theory 8, 1970),
and encodes the text of both kinds with table-driven gathers
(``treegen.write_sample``, one call per command).

Exit codes: 0 success, 2 configuration error (among them an energy table
whose profile log weights overflow at the requested N), 3 infeasible or
oversize request (no tree at this size, or an ``oracle-check`` tree
enumeration past its cap), 4 verification failure; an error exits with the
``exit_code`` of its class (``errors``).  No command materializes the
profile lattice or the rate grid: ``sample``, ``ldp-table`` and ``lln``
stream both and fold or draw only the profiles that carry mass
(``partition``), ``lln`` takes its ``inf_I`` column from the rate grid of
``rate.grid_inf_rate``, and ``oracle-check`` reads the law of chi at each
profile of the enumerated trees (``partition.log_prob_profile``) against
one ln Z_N, which walks no lattice (``partition.log_partition_value``).
Those trees, arrays of edges or child counts (``treegen``'s enumerators),
are tallied by profile in one pass, and a profile's log weight is ln(its
tree count) - beta (profile . c).

``entry()`` freezes the heap that import left (``gc.freeze``) before
``main()``, so no full collection, at exit either, walks it: about 30 ms a
process.  ``main()`` must not: tests and perfbench's tracer call it in one
long process, where a freeze would pin every call's garbage.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .combinatorics import log_sum
from .ensembles import EnsembleSpec, Kind
from .errors import TreeGibbsError
from .ldp import convergence_table, lln_tail
from .partition import (
    check_log_weights,
    log_partition_value,
    log_prob_profile,
    profile_log_weights,
    rng_stream,
)
from .rate import grid_inf_rate, solve_pstar
from .treegen import (
    enumerate_labeled_trees,
    enumerate_plane_trees,
    row_counts,
    sample_plane_child_counts,
    sample_prufer_codes,
    write_sample,
)

#: Cells (trees times the larger of N and the class count) drawn per RNG
#: block by ``sample``.
SAMPLE_CELLS = 2**22

ORACLE_TOL = 1e-9


class ConfigError(TreeGibbsError, ValueError):
    """Bad option value, missing option or unreadable file (exit 2)."""


def fmt(x: float) -> str:
    """Floating-point rendering used for every numeric output field."""
    return f"{x + 0.0:.12g}"  # -0.0 + 0.0 is 0.0


def _list_of(item):
    """Parser of a list written ``1,2,3``, ``1 2 3`` or ``[1, 2, 3]``."""

    def parse(raw: str) -> list:
        return [item(v) for v in raw.replace("[", " ").replace("]", " ").replace(",", " ").split()]

    parse.__name__ = f"{item.__name__} list"
    return parse


#: config key -> (flag, RunConfig field, parser, help)
OPTIONS = {
    "kind": ("--kind", "kind", Kind, "ensemble kind: labeled or plane"),
    "bound": ("--bound", "bound", int, "degree/branching bound D"),
    "beta": ("--beta", "beta", float, "inverse temperature"),
    "c": ("--energy", "c", _list_of(float), "energy table, e.g. '0,0,1' or '[0,0,1]'"),
    "n": ("--n", "n", int, "vertex count N"),
    "n-list": ("--n-list", "n_list", _list_of(int), "list of N values"),
    "eps": ("--eps", "eps", float, "l1 ball radius"),
    "delta": ("--delta", "delta", float, "l1 tail radius"),
    "samples": ("--samples", "samples", int, "number of sampled trees"),
    "seed": ("--seed", "seed", int, "64-bit RNG seed"),
    "out": ("--out", "out", str, "output path (default stdout)"),
}


@dataclass(frozen=True)
class RunConfig:
    """One request: the merged option values, checked on construction."""

    kind: Kind | None = None
    bound: int | None = None
    beta: float = 0.0
    c: list[float] | None = None
    n: int | None = None
    n_list: list[int] | None = None
    eps: float = 0.05
    delta: float = 0.1
    samples: int = 1
    seed: int = 0
    out: str | None = None

    def __post_init__(self) -> None:
        if self.n_list is not None and any(
            b <= a for a, b in zip(self.n_list, self.n_list[1:])
        ):
            raise ConfigError("n-list must be strictly increasing")
        if min([self.n or 0, *(self.n_list or ())]) < 0:
            raise ConfigError("vertex counts must be >= 0")
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be a 64-bit unsigned integer")

    def spec(self) -> EnsembleSpec:
        """The ensemble, refused (``BadEnergyTable``) when its profile log
        weights overflow at the largest N of the request
        (``partition.check_log_weights``)."""
        if self.kind is None:
            raise ConfigError("missing ensemble kind (--kind)")
        if self.bound is None:
            raise ConfigError("missing degree bound (--bound)")
        make = EnsembleSpec.labeled if self.kind is Kind.LABELED else EnsembleSpec.plane
        spec = make(self.bound, self.beta, self.c)
        check_log_weights(spec, max([self.n or 0, *(self.n_list or ())]))
        return spec

    def require_n(self) -> int:
        if self.n is None:
            raise ConfigError("missing vertex count (--n)")
        return self.n

    def require_n_list(self) -> list[int]:
        if self.n_list:
            return self.n_list
        if self.n is not None:
            return [self.n]
        raise ConfigError("missing N list (--n-list)")


def load_config_file(path: str) -> dict:
    """RunConfig field values from the ``key = value`` lines of a file."""
    values = {}
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        _, field, parse, _ = OPTIONS[key]
        try:
            values[field] = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """The config file's values, overridden by every flag given."""
    values = load_config_file(args.config) if args.config else {}
    for _, field, _, _ in OPTIONS.values():
        if getattr(args, field) is not None:
            values[field] = getattr(args, field)
    return RunConfig(**values)


def make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value configuration file")
    for flag, field, parse, help_text in OPTIONS.values():
        common.add_argument(flag, dest=field, type=parse, help=help_text)

    parser = argparse.ArgumentParser(
        prog="treegibbs",
        description="Gibbs ensembles of degree-bounded random trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("pstar", parents=[common], help="rate-function minimizer")
    sub.add_parser("sample", parents=[common], help="draw trees exactly")
    sub.add_parser("ldp-table", parents=[common], help="finite-N rate table at p*")
    sub.add_parser("lln", parents=[common], help="exact tail probabilities")
    sub.add_parser(
        "oracle-check", parents=[common], help="enumeration equivalence suites"
    )
    return parser


# ---------------------------------------------------------------------------
# commands


def cmd_pstar(cfg: RunConfig, out) -> int:
    spec = cfg.spec()
    ctx = solve_pstar(spec)
    out.write(f"kind = {spec.kind.value}\n")
    out.write(f"bound = {spec.D}\n")
    out.write(f"beta = {fmt(spec.beta)}\n")
    out.write("pstar = " + " ".join(fmt(v) for v in ctx.pstar) + "\n")
    out.write(f"J_star = {fmt(ctx.Jstar)}\n")
    out.write(f"boundary = {'true' if ctx.boundary else 'false'}\n")
    if ctx.tilt_x is not None:
        out.write(f"tilt_x = {fmt(ctx.tilt_x)}\n")
        out.write(f"stationarity_residual = {fmt(ctx.stationarity_residual)}\n")
    return 0


def cmd_sample(cfg: RunConfig, out) -> int:
    spec = cfg.spec()
    N = cfg.require_n()
    ctx = solve_pstar(spec)
    block = max(1, SAMPLE_CELLS // max(N, spec.n_classes))
    draw = sample_prufer_codes if spec.kind is Kind.LABELED else sample_plane_child_counts
    groups = chain.from_iterable(
        draw(spec, N, min(block, cfg.samples - start), rng_stream(cfg.seed, index))
        for index, start in enumerate(range(0, cfg.samples, block))
    )
    class_totals = write_sample(spec, groups, out)

    freq = class_totals / float(cfg.samples * N)
    out.write("# summary\n")
    out.write("class,frequency,pstar\n")
    for k, f, p in zip(spec.classes(), freq, ctx.pstar):
        out.write(f"{k},{fmt(f)},{fmt(p)}\n")
    dist = float(np.abs(freq - ctx.pstar).sum())
    out.write(f"# l1_distance_to_pstar = {fmt(dist)}\n")
    return 0


def cmd_ldp_table(cfg: RunConfig, out) -> int:
    spec = cfg.spec()
    ctx = solve_pstar(spec)
    rows = convergence_table(spec, cfg.require_n_list(), ctx.pstar, cfg.eps, ctx=ctx)
    out.write("N,eps,log_prob,rate,I,gap\n")
    for row in rows:
        out.write(
            f"{row.N},{fmt(row.eps)},{fmt(row.log_prob)},{fmt(row.rate)},"
            f"{fmt(row.rate_limit)},{fmt(row.gap)}\n"
        )
    return 0


def cmd_lln(cfg: RunConfig, out) -> int:
    spec = cfg.spec()
    ctx = solve_pstar(spec)
    inf_rate = grid_inf_rate(ctx, cfg.delta)
    rows = []
    for N in cfg.require_n_list():
        tail = lln_tail(spec, N, cfg.delta, ctx=ctx)
        emp = float("inf") if tail == 0.0 else -math.log(tail) / N
        rows.append(f"{N},{fmt(cfg.delta)},{fmt(tail)},{fmt(emp)},{fmt(inf_rate)}\n")
    out.write("N,delta,tail_prob,empirical_rate,inf_I\n")
    out.writelines(rows)
    return 0


def cmd_oracle_check(cfg: RunConfig, out) -> int:
    spec = cfg.spec()
    N = cfg.require_n()
    # the classes of every enumerated tree: its degrees, counted from its
    # edge ends (labeled), or its child counts (plane); never empty: the
    # path fits every valid D
    if spec.kind is Kind.LABELED:
        edges = enumerate_labeled_trees(N)
        classes = row_counts(edges.reshape(edges.shape[0], -1), N + 1)[:, 1:]
        classes = classes[classes.max(axis=1) <= spec.D]
    else:
        classes = enumerate_plane_trees(N, spec.D)
    # per profile: its tree count, and the log of its trees' summed weight,
    # which no beta underflows
    profiles, counts = np.unique(
        row_counts(classes - spec.k_min, spec.n_classes), axis=0, return_counts=True
    )
    log_weights = np.log(counts) - spec.beta * (profiles @ spec.energies())

    # tree counts per profile: the profile log weights at beta = 0
    counting = replace(spec, beta=0.0)
    log_counts = profile_log_weights(counting, N, profiles)
    suites = [("profile-counts", float(np.abs(log_counts - np.log(counts)).max()))]

    log_z = log_sum(log_weights)
    log_z_exact = log_partition_value(spec, N)
    suites.append(("partition", abs(log_z_exact - log_z)))

    # the law of chi, one enumerated profile at a time against the one ln Z;
    # its total over them must be 1, which also catches mass on a profile
    # the trees miss and a deviation spread too thin to show in any one
    law = np.array([math.exp(log_prob_profile(spec, N, chi, log_z_exact)) for chi in profiles])
    dev_law = float(np.abs(np.exp(log_weights - log_z) - law).max())
    suites.append(("chi-law", max(dev_law, abs(math.fsum(law) - 1.0))))

    failed = False
    for name, dev in suites:
        status = "PASS" if dev <= ORACLE_TOL else "FAIL"
        failed = failed or status == "FAIL"
        out.write(f"{name} max_deviation={fmt(dev)} {status}\n")
    out.write("oracle-check " + ("FAIL\n" if failed else "OK\n"))
    return 4 if failed else 0


_COMMANDS = {
    "pstar": cmd_pstar,
    "sample": cmd_sample,
    "ldp-table": cmd_ldp_table,
    "lln": cmd_lln,
    "oracle-check": cmd_oracle_check,
}


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = build_run_config(args)
        command = _COMMANDS[args.command]
        if not cfg.out:
            return command(cfg, sys.stdout)
        try:
            out = open(cfg.out, "w", encoding="ascii", newline="\n")
        except OSError as exc:
            raise ConfigError(f"cannot open output: {exc}") from exc
        with out:
            return command(cfg, out)
    except (TreeGibbsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


def entry() -> None:
    """``main()`` in a process of its own (console script, ``python -m``).
    The freeze keeps the import-time heap out of every full collection,
    exit's too; in ``main()`` it would pin the garbage of in-process calls."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""Batch command-line front end.

Subcommands::

    treegibbs pstar        --kind labeled --bound 3 --beta 0
    treegibbs sample       --kind plane --bound 2 --n 4 --samples 1000 --seed 7
    treegibbs ldp-table    --kind labeled --bound 3 --n-list 100,200,400 --eps 0.05
    treegibbs lln          --kind labeled --bound 3 --n-list 250,500 --delta 0.1
    treegibbs oracle-check --kind labeled --bound 3 --beta 1 --energy 0,0,1 --n 4

Configuration may also come from a plain-text file (``--config PATH``) with
one ``key = value`` per line; energy tables are written ``c = [v1, v2, ...]``
and lists like ``n-list`` the same way.  Flags win over file values.  All
randomized output is reproducible from (config, seed): sampling is sharded
into blocks of ``SAMPLE_CELLS // max(N, n_classes)`` trees (at least one),
n_classes being the number of degree classes, with one RNG stream per block
index, so the trees of a shorter run are a prefix of those of a longer one.
Each (trees, N) or (trees, n_classes) int64 array of a block holds at most
32 MB, or one tree's worth once N or n_classes passes ``SAMPLE_CELLS``.
``sample`` prints labeled trees as the sorted edge lists of their words
under the Foata-Fuchs-type word -> tree map (``treegen.word_edges``; D. Foata
& A. Fuchs, J. Combin. Theory 8, 1970), decoded a sub-block at a time, and
encodes the text of both kinds with one table-driven gather per sub-block
(``treegen.write_sample``), whose working arrays are bounded in bytes by
``treegen.WRITE_BLOCK_BYTES``.

Exit codes: 0 success, 2 configuration error, 3 infeasible or oversize
request, 4 verification failure.  ``ldp-table`` and the tail sums of ``lln``
stream the profile lattice, so they are never refused for its size; their
time grows like the lattice, N^(D-2) for labeled and N^(D-1) for plane
trees.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .ensembles import EnsembleSpec, Kind, validate_spec
from .errors import (
    BadEnergyTable,
    BoundTooSmall,
    KindMismatch,
    LatticeTooLarge,
    NoFeasibleTree,
    OffManifold,
    SizeOverflow,
    TooLarge,
    TreeGibbsError,
)
from .ldp import convergence_table, lln_tail
from .partition import exact_chi_law, log_partition_value, profile_log_weights, rng_stream
from .rate import j_values, manifold_grid, solve_pstar
from .treegen import (
    MAX_ENUM_LABELED,
    MAX_ENUM_PLANE,
    chi_of,
    energy_of,
    enumerate_labeled_trees,
    enumerate_plane_trees,
    sample_plane_child_counts,
    sample_prufer_codes,
    write_sample,
)

#: Cells (trees times the larger of N and the class count) drawn per RNG
#: block by ``sample``.
SAMPLE_CELLS = 2**22

ORACLE_TOL = 1e-9


class ConfigError(ValueError):
    pass


def fmt(x: float) -> str:
    """Floating-point rendering used for every numeric output field."""
    return f"{x:.12g}"


@dataclass
class RunConfig:
    kind: str | None = None
    bound: int | None = None
    beta: float = 0.0
    c: list[float] | None = None
    n: int | None = None
    n_list: list[int] | None = None
    eps: float = 0.05
    delta: float = 0.1
    samples: int = 1
    seed: int = 0
    resolution: int = 1000
    out: str | None = None

    def spec(self) -> EnsembleSpec:
        if self.kind not in ("labeled", "plane"):
            raise ConfigError("kind must be 'labeled' or 'plane'")
        if self.bound is None:
            raise ConfigError("missing degree bound (--bound)")
        kind = Kind(self.kind)
        n_classes = self.bound - kind.k_min + 1
        c = tuple(self.c) if self.c is not None else (0.0,) * n_classes
        return validate_spec(EnsembleSpec(kind, self.bound, self.beta, c))

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


def _parse_scalar(key: str, raw: str):
    raw = raw.strip()
    if key in ("bound", "n", "samples", "seed", "resolution"):
        return int(raw)
    if key in ("beta", "eps", "delta"):
        return float(raw)
    if key in ("c", "n-list"):
        inner = raw.strip()
        if inner.startswith("[") and inner.endswith("]"):
            inner = inner[1:-1]
        parts = [v for v in inner.replace(",", " ").split() if v]
        if key == "c":
            return [float(v) for v in parts]
        return [int(v) for v in parts]
    return raw


_CONFIG_KEYS = {
    "kind": "kind",
    "bound": "bound",
    "beta": "beta",
    "c": "c",
    "n": "n",
    "n-list": "n_list",
    "eps": "eps",
    "delta": "delta",
    "samples": "samples",
    "seed": "seed",
    "resolution": "resolution",
    "out": "out",
}


def load_config_file(path: str) -> dict:
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
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[_CONFIG_KEYS[key]] = _parse_scalar(key, raw)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def build_run_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        for key, value in load_config_file(args.config).items():
            setattr(cfg, key, value)
    overrides = {
        "kind": args.kind,
        "bound": args.bound,
        "beta": args.beta,
        "c": args.energy,
        "n": args.n,
        "n_list": args.n_list,
        "eps": args.eps,
        "delta": args.delta,
        "samples": args.samples,
        "seed": args.seed,
        "out": args.out,
    }
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    if cfg.n_list is not None and any(
        b <= a for a, b in zip(cfg.n_list, cfg.n_list[1:])
    ):
        raise ConfigError("n-list must be strictly increasing")
    if cfg.samples < 1:
        raise ConfigError("samples must be >= 1")
    if not 0 <= cfg.seed < 2**64:
        raise ConfigError("seed must be a 64-bit unsigned integer")
    return cfg


def _float_list(raw: str) -> list[float]:
    return [float(v) for v in raw.replace("[", "").replace("]", "").replace(",", " ").split()]


def _int_list(raw: str) -> list[int]:
    return [int(v) for v in raw.replace("[", "").replace("]", "").replace(",", " ").split()]


def make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value configuration file")
    common.add_argument("--kind", choices=("labeled", "plane"))
    common.add_argument("--bound", type=int, help="degree/branching bound D")
    common.add_argument("--beta", type=float, help="inverse temperature")
    common.add_argument(
        "--energy", type=_float_list, help="energy table, e.g. '0,0,1' or '[0,0,1]'"
    )
    common.add_argument("--n", type=int, help="vertex count N")
    common.add_argument("--n-list", dest="n_list", type=_int_list, help="list of N values")
    common.add_argument("--eps", type=float, help="l1 ball radius")
    common.add_argument("--delta", type=float, help="l1 tail radius")
    common.add_argument("--samples", type=int, help="number of sampled trees")
    common.add_argument("--seed", type=int, help="64-bit RNG seed")
    common.add_argument("--out", help="output path (default stdout)")

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
    out.write("pstar = " + " ".join(fmt(v) for v in ctx.pstar.p) + "\n")
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
    class_totals = np.zeros(spec.n_classes, dtype=np.int64)
    for index, start in enumerate(range(0, cfg.samples, block)):
        count = min(block, cfg.samples - start)
        rng = rng_stream(cfg.seed, index)
        if spec.kind is Kind.LABELED:
            rows = sample_prufer_codes(spec, N, count, rng)
        else:
            rows = sample_plane_child_counts(spec, N, count, rng)
        class_totals += write_sample(spec, rows, out)

    freq = class_totals / float(cfg.samples * N)
    out.write("# summary\n")
    out.write("class,frequency,pstar\n")
    for k, f, p in zip(spec.classes(), freq, ctx.pstar.p):
        out.write(f"{k},{fmt(f)},{fmt(p)}\n")
    dist = float(np.abs(freq - ctx.pstar.p).sum())
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


def _grid_inf_rate(ctx, resolution: int, delta: float) -> float:
    """inf I over the grid points of M farther than ``delta`` (l1) from p*.

    A function of its own so that the grid is freed before the tail loop.
    """
    spec = ctx.spec
    grid = manifold_grid(spec, resolution)
    rate_grid = j_values(spec, grid) - ctx.Jstar
    dist = np.abs(grid - ctx.pstar.p[None, :]).sum(axis=1)
    outside = dist > delta
    return float(rate_grid[outside].min()) if outside.any() else float("inf")


def cmd_lln(cfg: RunConfig, out) -> int:
    spec = cfg.spec()
    ctx = solve_pstar(spec)
    inf_rate = _grid_inf_rate(ctx, cfg.resolution, cfg.delta)
    out.write("N,delta,tail_prob,empirical_rate,inf_I\n")
    for N in cfg.require_n_list():
        tail = lln_tail(spec, N, cfg.delta, ctx=ctx)
        emp = float("inf") if tail == 0.0 else -math.log(tail) / N
        out.write(f"{N},{fmt(cfg.delta)},{fmt(tail)},{fmt(emp)},{fmt(inf_rate)}\n")
    return 0


def cmd_oracle_check(cfg: RunConfig, out) -> int:
    spec = cfg.spec()
    N = cfg.require_n()
    limit = MAX_ENUM_LABELED if spec.kind is Kind.LABELED else MAX_ENUM_PLANE
    if N > limit:
        raise TooLarge(f"oracle-check supports N <= {limit} for {spec.kind.value}")

    if spec.kind is Kind.LABELED:
        trees = list(enumerate_labeled_trees(N))
    else:
        trees = list(enumerate_plane_trees(N, spec.D))
    # never empty: the path fits every valid D
    trees = [t for t in trees if _max_class(t, spec) <= spec.D]

    profile_counts: dict[tuple[int, ...], int] = {}
    weights: dict[tuple[int, ...], float] = {}
    for tree in trees:
        chi = chi_of(tree, spec).counts
        profile_counts[chi] = profile_counts.get(chi, 0) + 1
        weights[chi] = weights.get(chi, 0.0) + math.exp(
            -spec.beta * energy_of(tree, spec)
        )

    law = exact_chi_law(spec, N)
    law_map = law.as_dict()

    # tree counts per profile: the profile log weights at beta = 0
    counting = replace(spec, beta=0.0)
    log_counts = profile_log_weights(counting, N, np.array(list(profile_counts)))
    dev_counts = float(np.abs(log_counts - np.log(list(profile_counts.values()))).max())
    suites = [("profile-counts", dev_counts)]

    z_enum = sum(weights.values())
    z_dp = log_partition_value(spec, N)
    suites.append(("partition", abs(z_dp - math.log(z_enum))))

    dev_law = 0.0
    for chi, weight in weights.items():
        dev_law = max(dev_law, abs(weight / z_enum - law_map.get(chi, 0.0)))
    extra = set(law_map) - set(weights)
    for chi in extra:
        dev_law = max(dev_law, law_map[chi])
    suites.append(("chi-law", dev_law))

    failed = False
    for name, dev in suites:
        status = "PASS" if dev <= ORACLE_TOL else "FAIL"
        failed = failed or status == "FAIL"
        out.write(f"{name} max_deviation={fmt(dev)} {status}\n")
    out.write("oracle-check " + ("FAIL\n" if failed else "OK\n"))
    return 4 if failed else 0


def _max_class(tree, spec: EnsembleSpec) -> int:
    if spec.kind is Kind.LABELED:
        return int(tree.degrees().max())
    return max(tree.child_counts)


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
        if cfg.out:
            with open(cfg.out, "w", encoding="ascii", newline="\n") as out:
                return command(cfg, out)
        return command(cfg, sys.stdout)
    except (ConfigError, BoundTooSmall, BadEnergyTable, KindMismatch, OffManifold) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NoFeasibleTree, SizeOverflow, LatticeTooLarge, TooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TreeGibbsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

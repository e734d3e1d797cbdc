"""treegibbs benchmark: CLI workloads timed in fresh processes, plus a traced run.

Usage, from the repository root::

    python3 perfbench/run.py --workload sample-labeled --seed 1 --seconds 40 --trace 0

Each operation runs the real CLI (``python -m treegibbs.cli``) in a fresh
process, one at a time, so no ``lru_cache`` carries over between
operations.  Operations repeat until their summed wall time reaches
``--seconds``.  Outputs are checked after each operation, outside the timed
region; a failed operation is counted in ``failed`` and left out of the
timings.  The run also times set-up (a fresh ``pstar``) several times and
runs the enumeration oracles once, untimed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
operation untraced and then traced (``tracer.py``) with the same seed, until
the pairs' summed wall time reaches ``--seconds``; it requires byte-identical
outputs and reports per-layer self times and counters (medians over
operations), the tracing overhead, and a scaling sweep in N.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Results and provenance are also written to
``.perfbench-results/`` at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads as wl

ROOT = wl.HERE.parent
WORK_DIR = ROOT / ".perfbench-work"
RESULTS_DIR = ROOT / ".perfbench-results"

#: Fresh ``pstar`` processes per run; set-up time is their median.
SETUP_RUNS = 7
#: A command still running after this long is killed and counted as failed.
INVOCATION_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_catalog() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for layer in tracer.LAYERS:
        for stat in layer.stats:
            out.append((f"{layer.name}.{stat}", *tracer.STAT_UNITS[stat]))
    out.append(("cli.out.bytes", "B", "lower"))
    out.append(("trace.overhead_s", "s", "lower"))
    for series in wl.SWEEP_SERIES:
        for n in wl.SWEEP_N:
            base = f"sweep.{series}.n{n}"
            out.append((f"{base}.wall_s", "s", "lower"))
            out.append((f"{base}.build_dp.self_s", "s", "lower"))
            out.append((f"{base}.build_dp.bytes_computed", "B", "lower"))
    out.append(("sweep.refused_points", "count", "lower"))
    return out


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


ENV = child_env()


@dataclass
class Run:
    """One child process: wall time, its own peak RSS, exit code."""

    wall: float
    rss_mb: float
    code: int
    stderr: str


def spawn(cmd: list[str]) -> Run:
    """Run ``cmd`` through ``launch.py``, which times it and reads its peak RSS."""
    report = WORK_DIR / "launch.json"
    report.unlink(missing_ok=True)
    with open(WORK_DIR / "stderr.txt", "w+b") as err:
        launcher = subprocess.Popen(
            [sys.executable, "-I", "-S", str(wl.HERE / "launch.py"), str(report), *cmd],
            cwd=ROOT, env=ENV, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=err, start_new_session=True,
        )
        try:
            launcher.wait(timeout=INVOCATION_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(launcher.pid, signal.SIGKILL)  # the launcher and the command
            launcher.wait()
            return Run(0.0, 0.0, -signal.SIGKILL, f"timed out after {INVOCATION_TIMEOUT_S} s")
        err.seek(0)
        message = err.read()[-2000:].decode("ascii", "replace")
    if launcher.returncode != 0:
        return Run(0.0, 0.0, launcher.returncode, message)
    with open(report, encoding="ascii") as fh:
        rep = json.load(fh)
    return Run(rep["wall_s"], rep["maxrss_kb"] * 1024 / 1e6, rep["exit_code"], message)


def run_cli(argv, out_path: Path, spans_path: Path | None = None) -> Run:
    if spans_path is None:
        cmd = [sys.executable, "-m", "treegibbs.cli"]
    else:
        cmd = [sys.executable, str(wl.HERE / "tracer.py"), "--spans", str(spans_path), "--"]
    return spawn(cmd + [*argv, "--out", str(out_path)])


def checked(run: Run, out_path: Path, check) -> list[str]:
    """Problems with one invocation: a non-zero exit or a failed output check."""
    if run.code != 0:
        return [f"exit code {run.code}: {run.stderr.strip()[-500:]}"]
    if not out_path.is_file():
        return [f"no output file {out_path.name}"]
    return check(out_path.read_text(encoding="ascii"))


@dataclass
class Op:
    wall: float = 0.0
    rss_mb: float = 0.0
    problems: list[str] = field(default_factory=list)
    outputs: list[Path] = field(default_factory=list)
    spans: list[Path] = field(default_factory=list)


def run_op(invocations: list[wl.Invocation], tag: str, traced: bool = False) -> Op:
    op = Op()
    for inv in invocations:
        out = WORK_DIR / f"{tag}-{inv.key}.out"
        spans = WORK_DIR / f"{tag}-{inv.key}.spans.json" if traced else None
        run = run_cli(inv.argv, out, spans)
        op.wall += run.wall
        op.rss_mb = max(op.rss_mb, run.rss_mb)
        op.problems += [f"{inv.key}: {p}" for p in checked(run, out, inv.check)]
        op.outputs.append(out)
        if spans is not None:
            op.spans.append(spans)
    return op


def probe() -> dict:
    """Versions and backend, from a child that imports the program."""
    code = (
        "import json, sys, numpy, scipy, treegibbs.kernels as k; "
        "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__, "
        "'scipy': scipy.__version__, 'backend': k.BACKEND}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=ENV, capture_output=True,
        text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"perfbench: cannot import treegibbs from {ROOT / 'src'}: {proc.stderr.strip()[-500:]}"
        )
    return json.loads(proc.stdout)


def provenance(args) -> dict:
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}
    git = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        git = proc.stdout.strip() or None
    info["git_sha"] = git
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    info["src_sha256"] = digest.hexdigest()
    info.update(probe())
    info["nproc"] = len(os.sched_getaffinity(0))
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    info["cpu"] = cpu
    info["ram_gb"] = round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 1e9, 2)
    return info


def measure_setup(reference: dict) -> tuple[list[float], list[str]]:
    out = WORK_DIR / "setup.out"
    walls, problems = [], []
    for _ in range(SETUP_RUNS):
        run = run_cli(wl.SETUP_ARGV, out)
        bad = checked(run, out, lambda t: wl.checks.check_pstar(t, reference["pstar"]["labeled-3"]))
        problems += [f"setup: {p}" for p in bad]
        if not bad:
            walls.append(run.wall)
    return walls, problems


def run_oracles() -> list[str]:
    problems = []
    for i, argv in enumerate(wl.ORACLE_ARGV):
        out = WORK_DIR / f"oracle-{i}.out"
        run = run_cli(argv, out)
        problems += [f"{' '.join(argv[:3])}: {p}" for p in checked(run, out, wl.checks.check_oracle)]
    return problems


def timed_run(workload: wl.Workload, args, reference: dict):
    """End-to-end metrics over untraced operations."""
    seeds = wl.op_seeds(args.seed)
    ops: list[Op] = []
    timed = 0.0
    while not ops or timed < args.seconds:
        op = run_op(workload.invocations(next(seeds)), f"op{len(ops)}")
        for path in op.outputs:
            path.unlink(missing_ok=True)
        timed += op.wall
        ops.append(op)
    good = [op for op in ops if not op.problems]
    metrics = {}
    if good:
        metrics = {
            "wall_s": statistics.median(op.wall for op in good),
            "items_per_s": statistics.median(workload.items_per_op / op.wall for op in good),
            "peak_rss_mb": statistics.median(op.rss_mb for op in good),
        }
    return metrics, ops, {}, []


def traced_totals(op: Op, absent: set[str]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for spans in op.spans:
        with open(spans, encoding="ascii") as fh:
            record = json.load(fh)
        absent.update(record["absent"])
        if record["counter_errors"]:
            op.problems.append(f"trace counters failed: {record['counter_errors'][:3]}")
        for key, value in tracer.layer_totals(record).items():
            totals[key] = totals.get(key, 0) + value
        spans.unlink()
    return totals


def run_sweep(seed: int, reference: dict) -> tuple[dict, list[str], dict]:
    metrics, problems, points = {}, [], {}
    refused = 0
    for series, (kind, bound) in wl.SWEEP_SERIES.items():
        checker = {"labeled": wl.checks.check_labeled_sample,
                   "plane": wl.checks.check_plane_sample}[kind]
        for n in wl.SWEEP_N:
            base = f"sweep.{series}.n{n}"
            out, spans = WORK_DIR / "sweep.out", WORK_DIR / "sweep.spans.json"
            run = run_cli(wl.sweep_argv(series, n, seed), out, spans)
            points[base] = {"exit_code": run.code, "wall_s": run.wall, "rss_mb": run.rss_mb}
            if run.code == 3:  # refused as oversize: recorded, not an error
                refused += 1
                metrics.update({f"{base}.wall_s": 0.0, f"{base}.build_dp.self_s": 0.0,
                                f"{base}.build_dp.bytes_computed": 0})
                continue
            check = lambda text: checker(  # noqa: E731
                text, n=n, bound=bound, samples=wl.SWEEP_TREES,
                pstar=reference["pstar"][f"{kind}-{bound}"], l1_bound=float("inf"),
            )
            problems += [f"{base}: {p}" for p in checked(run, out, check)]
            with open(spans, encoding="ascii") as fh:
                totals = tracer.layer_totals(json.load(fh))
            metrics[f"{base}.wall_s"] = run.wall
            metrics[f"{base}.build_dp.self_s"] = totals["partition.build_dp.self_s"]
            metrics[f"{base}.build_dp.bytes_computed"] = totals.get(
                "partition.build_dp.bytes_computed", 0)
            points[base].update({k: metrics[k] for k in metrics if k.startswith(base + ".")})
    metrics["sweep.refused_points"] = refused
    return metrics, problems, points


def traced_run(workload: wl.Workload, args, reference: dict):
    """Per-layer metrics: each operation untraced, then traced with the same
    seed (outputs must be byte-identical), then the scaling sweep."""
    seeds = wl.op_seeds(args.seed)
    ops: list[Op] = []
    per_op: list[dict] = []
    overheads: list[float] = []
    absent: set[str] = set()
    measured = 0.0
    while not ops or measured < args.seconds:
        seed = next(seeds)
        plain = run_op(workload.invocations(seed), "plain")
        op = run_op(workload.invocations(seed), "traced", traced=True)
        for a, b in zip(plain.outputs, op.outputs):
            if a.read_bytes() != b.read_bytes():
                op.problems.append(f"traced output {b.name} differs from the untraced output")
        op.problems += plain.problems
        out_bytes = sum(p.stat().st_size for p in op.outputs if p.exists())
        for path in plain.outputs + op.outputs:
            path.unlink(missing_ok=True)
        totals = traced_totals(op, absent) if not op.problems else {}
        measured += plain.wall + op.wall
        ops.append(op)
        if op.problems:
            continue
        stats = tracer.published_stats(totals)
        stats["cli.out.bytes"] = out_bytes
        per_op.append(stats)
        overheads.append(op.wall - plain.wall)
    metrics = {}
    if per_op:
        metrics = {key: statistics.median(s[key] for s in per_op) for key in per_op[0]}
        metrics["trace.overhead_s"] = statistics.median(overheads)
    sweep_metrics, sweep_problems, points = run_sweep(args.seed, reference)
    metrics.update(sweep_metrics)
    extra = {"sweep": points, "trace_overheads_s": overheads, "absent_layers": sorted(absent),
             "layer_moves": {layer.name: layer.moves for layer in tracer.LAYERS}}
    return metrics, ops, extra, sweep_problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="treegibbs CLI benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "treegibbs").is_dir():
        print(f"perfbench: no treegibbs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = wl.load_reference()
    all_workloads = wl.workloads(reference)
    if args.workload not in all_workloads:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(all_workloads)}", file=sys.stderr)
        return 2
    workload = all_workloads[args.workload]

    WORK_DIR.mkdir(exist_ok=True)
    try:
        prov = provenance(args)
        setup_walls, problems = measure_setup(reference)
        problems += run_oracles()
        runner = traced_run if args.trace else timed_run
        metrics, ops, extra, run_problems = runner(workload, args, reference)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    failed = sum(1 for op in ops if op.problems)
    problems += [p for op in ops for p in op.problems] + run_problems
    if not args.trace:
        if not setup_walls or len(ops) == failed:
            print("perfbench: no successful operation; problems:", *problems[:20],
                  sep="\n  ", file=sys.stderr)
            return 1
        metrics["setup_s"] = statistics.median(setup_walls)
        units = END_TO_END_UNITS
    else:
        catalog = per_layer_catalog()
        units = {name: unit for name, unit, _ in catalog}
        missing = [name for name in units if name not in metrics]
        if missing:
            print(f"perfbench: traced run produced no value for {missing[:5]}",
                  *problems[:20], sep="\n  ", file=sys.stderr)
            return 1

    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    record = dict(result, provenance=prov, problems=problems, setup_walls_s=setup_walls,
                  op_walls_s=[op.wall for op in ops], op_rss_mb=[op.rss_mb for op in ops], **extra)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS_DIR / name).write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")

    print("# provenance " + json.dumps(prov))
    print(f"# workload {workload.name}: {workload.why}")
    print(f"# operations attempted={len(ops)} failed={failed} "
          f"failed_frac={failed / len(ops):.4g} setup_runs={len(setup_walls)}")
    for p in problems[:20]:
        print(f"# problem: {p}")
    for metric, unit in units.items():
        print(f"{metric:48s} {metrics[metric]:>14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

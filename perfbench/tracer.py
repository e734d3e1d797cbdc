"""Span tracer for the treegibbs layers, applied from outside the package.

``Tracer`` wraps the public functions named in ``LAYERS`` and rebinds each
wrapper under every name that holds the original in a ``treegibbs`` module
(module globals and module-level dicts such as the CLI's command table), so
calls made through any import path are seen.  Each call records a span
``(layer, start, end, parent)``; spans stay in memory and are written once,
when the traced command exits.  Self time is a span's duration minus the
durations of its direct children.  A layer that no longer exists is listed
as absent and reports zero calls.

Run as a script, it executes one CLI command under the tracer::

    PYTHONPATH=src python3 perfbench/tracer.py --spans OUT.json -- sample --kind plane ...

The command's exit code is passed through; ``OUT.json`` receives the spans,
the counters and the absent layers.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "treegibbs"


def _rows(result, *_):
    return result.shape[0]


def _grid_box(result, args, kwargs):
    spec = args[0]
    resolution = args[1] if len(args) > 1 else kwargs["resolution"]
    return (resolution + 1) ** max(spec.n_classes - 2, 0)


@dataclass(frozen=True)
class Layer:
    """One wrapped function.

    ``stats`` are the per-layer metrics published for it; ``counters`` map a
    counter name to ``f(result, args, kwargs)``, summed over calls.
    ``moves`` names the end-to-end metric and workload it should move.
    """

    name: str
    stats: tuple[str, ...]
    moves: str
    counters: dict = field(default_factory=dict)


LAYERS: tuple[Layer, ...] = (
    Layer(
        "partition.build_dp",
        ("self_s", "calls", "cells", "bytes_computed"),
        "wall_s and peak_rss_mb on exact; no change on sample-*",
        {"cells": lambda r, *_: r.W.size, "bytes_computed": lambda r, *_: r.W.nbytes},
    ),
    Layer("partition.log_partition_value", ("self_s",), "wall_s on exact"),
    Layer(
        "partition.sample_class_sequences",
        ("self_s", "draws"),
        "items_per_s on sample-labeled (~7% there; ~35% of the ungated sample-plane)",
        {"draws": _rows},
    ),
    Layer(
        "partition.enumerate_profiles",
        ("self_s", "points", "points_per_s"),
        "wall_s and peak_rss_mb on exact",
        {"points": _rows},
    ),
    Layer("partition.profile_log_weights", ("self_s",), "wall_s and peak_rss_mb on exact"),
    Layer("treegen.sample_prufer_codes", ("self_s",), "items_per_s on sample-labeled"),
    Layer(
        "treegen.sample_plane_child_counts",
        ("self_s",),
        "only the ungated sample-plane and the plane-d4 sweep",
    ),
    Layer("treegen.prufer_decode", ("self_s", "calls"), "items_per_s on sample-labeled"),
    Layer("treegen.LabeledTree.__post_init__", ("self_s",), "items_per_s on sample-labeled"),
    Layer("treegen.LabeledTree.degrees", ("self_s",), "items_per_s on sample-labeled"),
    Layer(
        "treegen.LabeledTree.to_text",
        ("self_s", "bytes"),
        "items_per_s on sample-labeled",
        {"bytes": lambda r, *_: len(r)},
    ),
    Layer("ldp.log_prob_ball", ("self_s",), "wall_s on exact"),
    Layer("ldp.lln_tail", ("self_s",), "wall_s on exact"),
    Layer("ldp.convergence_table", ("self_s",), "wall_s on exact"),
    Layer("combinatorics.log_sum", ("self_s",), "wall_s on exact"),
    Layer("rate.solve_pstar", ("self_s",), "wall_s on exact; setup_s"),
    Layer(
        "rate.manifold_grid",
        ("self_s", "points", "keep_ratio"),
        "wall_s on exact",
        {"points": _rows, "box_points": _grid_box},
    ),
    Layer("rate.j_values", ("self_s",), "wall_s on exact"),
    Layer(
        "cli.cmd_sample",
        ("self_s",),
        "items_per_s on sample-labeled; plane-row formatting on the ungated sample-plane",
    ),
    Layer("cli.cmd_ldp_table", ("self_s",), "wall_s on exact"),
    Layer("cli.cmd_lln", ("self_s",), "wall_s on exact"),
)

STAT_UNITS = {
    "self_s": ("s", "lower"),
    "calls": ("count", "lower"),
    "cells": ("count", "lower"),
    "bytes_computed": ("B", "lower"),
    "bytes": ("B", "lower"),
    "draws": ("count", "higher"),
    "points": ("count", "lower"),
    "points_per_s": ("1/s", "higher"),
    "keep_ratio": ("ratio", "higher"),
}


class Tracer:
    """Installs span-recording wrappers on ``LAYERS``; ``restore`` undoes it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self.counter_errors: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, layer: Layer, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [layer.name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            for counter, count in layer.counters.items():
                key = f"{layer.name}.{counter}"
                try:
                    counts[key] = counts.get(key, 0) + count(result, args, kwargs)
                except Exception as exc:  # a counter must never break the command
                    self.counter_errors.append(f"{key}: {exc!r}")
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer.name)
        traced.__qualname__ = getattr(fn, "__qualname__", layer.name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        importlib.import_module(f"{PACKAGE}.cli")
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for layer in LAYERS:
            module_name, attr = layer.name.split(".", 1)
            try:
                holder = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.append(layer.name)
                continue
            *path, leaf = attr.split(".")
            for part in path:
                holder = getattr(holder, part, None)
            original = vars(holder).get(leaf) if holder is not None else None
            if original is None:
                self.absent.append(layer.name)
                continue
            wrapper = self._wrap(layer, original)
            if path:  # a method: rebind on its class
                self._set(holder, leaf, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, original, wrapper)
                    elif type(value) is dict and not key.startswith("__"):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                value[dkey] = wrapper
                                self._undo.append((value, dkey, original))

    def _set(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def restore(self) -> None:
        for owner, key, original in reversed(self._undo):
            if type(owner) is dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    def record(self) -> dict:
        return {
            "spans": self.spans,
            "counts": self.counts,
            "absent": self.absent,
            "counter_errors": self.counter_errors,
        }


def layer_totals(record: dict) -> dict[str, float]:
    """Per-layer ``self_s``, ``calls`` and counters of one traced command."""
    spans = record["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer.name}.self_s"] = 0.0
        out[f"{layer.name}.calls"] = 0
    for (name, start, end, _), children in zip(spans, child_time):
        out[f"{name}.self_s"] += (end - start) - children
        out[f"{name}.calls"] += 1
    out.update(record["counts"])
    return out


def published_stats(totals: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics named by ``LAYERS[*].stats``; derived ratios
    are computed here from the summed counters."""
    out = {}
    for layer in LAYERS:
        for stat in layer.stats:
            key = f"{layer.name}.{stat}"
            if stat == "points_per_s":
                self_s = totals[f"{layer.name}.self_s"]
                points = totals.get(f"{layer.name}.points", 0)
                out[key] = points / self_s if self_s > 0 else 0.0
            elif stat == "keep_ratio":
                box = totals.get(f"{layer.name}.box_points", 0)
                out[key] = totals.get(f"{layer.name}.points", 0) / box if box else 0.0
            else:
                out[key] = totals.get(key, 0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the trace JSON")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tracer = Tracer()
    with tracer:
        from treegibbs import cli

        code = cli.main(cli_args)
    record = tracer.record()
    record["exit_code"] = code
    with open(args.spans, "w", encoding="ascii") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

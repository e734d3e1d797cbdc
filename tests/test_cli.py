import contextlib
import gc
import io
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same_text, reference_sample_text
from oracles import PlaneTree, chi_of, labeled_tree_from_text, prufer_encode
from treegibbs import (
    EnsembleSpec,
    Kind,
    solve_pstar,
)
from treegibbs import cli, ldp, partition, rate, treegen
from treegibbs.cli import fmt, main

SQRT2 = math.sqrt(2.0)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(text):
    out = {}
    for line in text.splitlines():
        if "=" in line and not line.startswith("#"):
            key, value = (part.strip() for part in line.split("=", 1))
            out[key] = value
    return out


def test_pstar_plane_uniform(capsys):
    code, out, _ = run_cli(
        capsys, "pstar", "--kind", "plane", "--bound", "2", "--beta", "0"
    )
    assert code == 0
    kv = parse_kv(out)
    values = [float(v) for v in kv["pstar"].split()]
    np.testing.assert_allclose(values, [1 / 3] * 3, atol=1e-9)
    assert kv["boundary"] == "false"


def test_pstar_labeled_boundary(capsys):
    code, out, _ = run_cli(capsys, "pstar", "--kind", "labeled", "--bound", "2")
    assert code == 0
    kv = parse_kv(out)
    assert [float(v) for v in kv["pstar"].split()] == [0.0, 1.0]
    assert kv["boundary"] == "true"
    assert "tilt_x" not in kv


def test_pstar_labeled_tilt(capsys):
    code, out, _ = run_cli(capsys, "pstar", "--kind", "labeled", "--bound", "3")
    assert code == 0
    kv = parse_kv(out)
    assert abs(float(kv["tilt_x"]) - SQRT2) <= 1e-9
    values = [float(v) for v in kv["pstar"].split()]
    np.testing.assert_allclose(values, [0.292893218813, 0.414213562373, 0.292893218813], atol=1e-9)


def test_config_error_exit_codes(capsys):
    code, _, err = run_cli(capsys, "pstar", "--kind", "labeled", "--bound", "1")
    assert code == 2 and "D >= 2" in err
    code, _, err = run_cli(capsys, "pstar", "--bound", "3")
    assert code == 2
    code, _, err = run_cli(
        capsys, "pstar", "--kind", "labeled", "--bound", "3", "--energy", "0,0"
    )
    assert code == 2


def test_oracle_check_pass(capsys):
    code, out, _ = run_cli(
        capsys,
        "oracle-check",
        "--kind",
        "labeled",
        "--bound",
        "3",
        "--beta",
        "1",
        "--energy",
        "0,0,1",
        "--n",
        "4",
    )
    assert code == 0
    assert "profile-counts" in out and "partition" in out and "chi-law" in out
    assert "FAIL" not in out
    assert out.strip().endswith("oracle-check OK")


def test_oracle_check_plane(capsys):
    code, out, _ = run_cli(
        capsys, "oracle-check", "--kind", "plane", "--bound", "2", "--n", "6"
    )
    assert code == 0 and "OK" in out


def test_oracle_check_size_limit(capsys):
    # labeled trees are enumerated up to treegen.MAX_ENUM_LABELED = 8
    code, out, _ = run_cli(
        capsys, "oracle-check", "--kind", "labeled", "--bound", "7", "--n", "8"
    )
    assert code == 0 and out.strip().endswith("oracle-check OK")
    code, _, err = run_cli(
        capsys, "oracle-check", "--kind", "labeled", "--bound", "3", "--n", "9"
    )
    assert code == 3
    # plane trees are enumerated up to treegen.MAX_ENUM_PLANE = 12
    code, out, _ = run_cli(
        capsys, "oracle-check", "--kind", "plane", "--bound", "3", "--n", "12"
    )
    assert code == 0 and out.strip().endswith("oracle-check OK")
    code, _, _ = run_cli(
        capsys, "oracle-check", "--kind", "plane", "--bound", "3", "--n", "13"
    )
    assert code == 3


@pytest.mark.parametrize("kind,bound,n", [("labeled", "2", "6"), ("plane", "1", "12")])
def test_oracle_check_at_the_smallest_bound(capsys, kind, bound, n):
    # the path fits every valid bound, so no enumeration comes out empty
    code, out, err = run_cli(capsys, "oracle-check", "--kind", kind, "--bound", bound, "--n", n)
    assert code == 0, err
    assert out.strip().endswith("oracle-check OK")


def test_oracle_check_at_large_beta(capsys):
    # every tree on 7 vertices has an odd number of degree-2 vertices, so
    # each tree weight e^(-800 H) underflows; the check sums log weights
    code, out, err = run_cli(capsys, "oracle-check", "--kind", "labeled", "--bound", "3",
                             "--beta", "800", "--energy", "0,1,0", "--n", "7")
    assert code == 0, err
    assert out.strip().endswith("oracle-check OK")


ORACLE_PLANE = ("oracle-check", "--kind", "plane", "--bound", "3", "--beta", "1",
                "--energy", "0,0,0,1", "--n", "10")
#: The least likely of its 12 profiles: 7 leaves and 3 nodes of 3 children.
RAREST = (7, 0, 0, 3)


@pytest.mark.parametrize("kind", ["labeled", "plane"])
def test_oracle_check_folds_ln_z_once(capsys, monkeypatch, kind):
    # the partition suite's ln Z is the one every profile's law is read
    # against; 12 (plane) or 7 (labeled) profiles make no more folds
    calls: list[int] = []
    fold = partition.log_partition_value

    def spy(spec, N):
        calls.append(N)
        return fold(spec, N)

    monkeypatch.setattr(partition, "log_partition_value", spy)
    monkeypatch.setattr(cli, "log_partition_value", spy)
    argv = ORACLE_PLANE if kind == "plane" else ORACLE_PLANE[:2] + (
        "labeled", "--bound", "3", "--beta", "1", "--energy", "0,0,1", "--n", "7")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert out.strip().endswith("oracle-check OK")
    assert calls == [int(argv[-1])]


@pytest.mark.parametrize("fault", ["shifted", "missing-profile", "scaled"])
def test_oracle_check_fails_on_a_wrong_chi_law(capsys, monkeypatch, fault):
    # shifted: the cut's law read 1e-6 high in the log.  missing-profile:
    # the rows of one profile are dropped from the enumerated array, so the
    # cut puts mass on a profile the trees miss, and the suite reports that
    # mass, 1 - (mass of the enumerated profiles).  scaled: the law read
    # 2e-9 low in the log, which moves no profile's probability (at most
    # 0.29 here) by 1e-9; only the total, 1 - 2e-9, shows it.
    spec = EnsembleSpec.plane(3, 1.0, (0.0, 0.0, 0.0, 1.0))
    read, enumerate_rows = cli.log_prob_profile, cli.enumerate_plane_trees
    if fault == "missing-profile":
        def enumerate_all_but_rarest(N, D):
            rows = enumerate_rows(N, D)
            keep = [tuple(chi_of(PlaneTree(row), spec).tolist()) != RAREST for row in rows.tolist()]
            return rows[keep]

        monkeypatch.setattr(cli, "enumerate_plane_trees", enumerate_all_but_rarest)
    else:
        shift = 1e-6 if fault == "shifted" else -2e-9
        monkeypatch.setattr(cli, "log_prob_profile", lambda *args: read(*args) + shift)
    code, out, _ = run_cli(capsys, *ORACLE_PLANE)
    lines = out.splitlines()
    assert code == 4
    assert lines[0].endswith(" PASS")  # the tree counts
    assert lines[2].startswith("chi-law max_deviation=") and lines[2].endswith(" FAIL")
    assert lines[3] == "oracle-check FAIL"
    if fault == "missing-profile":
        missing = math.exp(read(spec, 10, np.array(RAREST)))
        assert abs(float(lines[2].split()[1].split("=")[1]) / missing - 1) <= 1e-9
    if fault == "scaled":
        assert lines[1].endswith(" PASS")  # ln Z, read unshifted


def test_sample_deterministic(tmp_path, capsys):
    args = [
        "sample",
        "--kind",
        "plane",
        "--bound",
        "2",
        "--n",
        "4",
        "--samples",
        "500",
        "--seed",
        "11",
    ]
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert "# summary" in text
    assert "class,frequency,pstar" in text
    assert "# l1_distance_to_pstar = " in text


def test_sample_block_sharding(tmp_path, monkeypatch):
    # one RNG stream per block of SAMPLE_CELLS // N trees: a one-block run is
    # a prefix of a two-block run at the same seed
    monkeypatch.setattr(cli, "SAMPLE_CELLS", 600)
    N = 6
    block = cli.SAMPLE_CELLS // N
    base = ["sample", "--kind", "labeled", "--bound", "3", "--n", str(N), "--seed", "5"]
    one = tmp_path / "one.txt"
    two = tmp_path / "two.txt"
    assert main(base + ["--samples", str(block), "--out", str(one)]) == 0
    assert main(base + ["--samples", str(block + 1), "--out", str(two)]) == 0
    trees_one = one.read_text().split("# summary")[0].split("\n\n")[:-1]
    trees_two = two.read_text().split("# summary")[0].split("\n\n")[:-1]
    assert len(trees_one) == block and len(trees_two) == block + 1
    assert trees_two[:block] == trees_one


@pytest.mark.parametrize("kind", ["labeled", "plane"])
def test_sample_past_the_dp_table_limit(tmp_path, kind):
    # N = 30000 would need a DP table of about 9e8 cells (7 GB); sampling
    # builds no table
    N, samples = 30_000, 2
    out = tmp_path / "big.txt"
    argv = ["sample", "--kind", kind, "--bound", "3", "--n", str(N),
            "--samples", str(samples), "--seed", "9", "--out", str(out)]
    assert main(argv) == 0
    body = out.read_text().split("# summary\n")[0]
    if kind == "labeled":
        blocks = body.split("\n\n")[:-1]
        trees = [labeled_tree_from_text(block) for block in blocks]
        for tree in trees:
            assert len(prufer_encode(tree)) == N - 2  # N - 1 edges, acyclic
            assert tree.n_vertices == N and tree.degrees().max() <= 3
    else:
        trees = [PlaneTree.from_text(line) for line in body.splitlines()]
        assert all(t.n_vertices == N and max(t.child_counts) <= 3 for t in trees)
    assert len(trees) == samples


@pytest.mark.parametrize(
    "argv,degrees",
    [
        # degree 2 has tilt weight about e^-beta, and at odd N every tree needs
        # one: about 1 proposal in 10^13 (beta 30) or 10^6 (beta 15) is kept
        (["--kind", "labeled", "--beta", "30", "--energy", "0,1,0", "--n", "7"],
         [1, 1, 1, 1, 2, 3, 3]),
        (["--kind", "labeled", "--beta", "15", "--energy", "0,1,0", "--n", "7"],
         [1, 1, 1, 1, 2, 3, 3]),
    ],
)
def test_sample_when_the_tilt_rarely_hits_the_budget(tmp_path, argv, degrees):
    out = tmp_path / "rare.txt"
    assert main(["sample", "--bound", "3", "--samples", "300", "--seed", "4",
                 *argv, "--out", str(out)]) == 0
    body = out.read_text().split("# summary\n")[0]
    trees = [labeled_tree_from_text(block) for block in body.split("\n\n")[:-1]]
    assert len(trees) == 300
    assert all(sorted(t.degrees().tolist()) == degrees for t in trees)


def test_sample_draws_rare_hits_at_any_lattice_size(tmp_path):
    # degrees 2 and 4 underflow, degrees 1, 3 and 5 give an odd degree sum at
    # N = 2001, and the 5.6e7 profiles at that N are drawn from the row
    # cut without being enumerated: each tree has one vertex of degree 2 or 4
    out = tmp_path / "rare.txt"
    assert main(["sample", "--kind", "labeled", "--bound", "5", "--beta", "1000",
                 "--energy", "0,1,0,1,0", "--n", "2001", "--samples", "5",
                 "--out", str(out)]) == 0
    body = out.read_text().split("# summary\n")[0]
    degrees = [labeled_tree_from_text(block).degrees() for block in body.split("\n\n")[:-1]]
    assert len(degrees) == 5
    assert all(np.isin(d, (2, 4)).sum() == 1 for d in degrees)


def test_negative_zero_prints_as_zero(capsys):
    # a certain ball (rate -0.0 and gap -0.0) and a certain tail (rate -0.0)
    code, out, _ = run_cli(capsys, "ldp-table", "--kind", "labeled", "--bound", "3",
                           "--n-list", "50", "--eps", "3")
    assert code == 0 and out.splitlines()[1] == "50,3,0,0,0,0"
    code, out, _ = run_cli(capsys, "lln", "--kind", "labeled", "--bound", "2",
                           "--n-list", "5", "--delta", "0.1")
    assert code == 0 and out.splitlines()[1] == "5,0.1,1,0,inf"


def test_sample_block_bounded_by_class_count(tmp_path, monkeypatch):
    # with more classes than vertices, the (trees, classes) arrays set the block
    monkeypatch.setattr(cli, "SAMPLE_CELLS", 600)
    counts: list[int] = []
    draw = cli.sample_plane_child_counts

    def spy(spec, N, count, rng):
        counts.append(count)
        return draw(spec, N, count, rng)

    monkeypatch.setattr(cli, "sample_plane_child_counts", spy)
    argv = ["sample", "--kind", "plane", "--bound", "299", "--n", "3",
            "--samples", "5", "--out", str(tmp_path / "wide.txt")]
    assert main(argv) == 0
    assert counts == [2, 2, 1]


@pytest.mark.parametrize("kind", ["labeled", "plane"])
def test_sample_text_matches_per_tree_reconstruction(tmp_path, kind, monkeypatch):
    # The batch writer against the whole-block pipeline printed one tree at
    # a time, over several groups (4 KB each: 15 labeled or 34 plane trees
    # at N = 12), and a summary recounted from the printed trees.
    monkeypatch.setattr(treegen, "WRITE_BLOCK_BYTES", 2**12)
    N, samples, seed = 12, 519, 21
    out = tmp_path / "sample.txt"
    argv = ["sample", "--kind", kind, "--bound", "3", "--n", str(N),
            "--samples", str(samples), "--seed", str(seed), "--out", str(out)]
    assert main(argv) == 0
    body, summary = out.read_text().split("# summary\n")
    spec = EnsembleSpec.labeled(3) if kind == "labeled" else EnsembleSpec.plane(3)
    assert_same_text(body, reference_sample_text(spec, N, samples, seed, samples))
    if kind == "labeled":
        classes = np.concatenate(
            [np.bincount(np.array(block.split(), dtype=np.int64), minlength=N + 1)[1:] - 1
             for block in body.split("\n\n")[:-1]]
        )
    else:
        classes = np.array(body.split(), dtype=np.int64)
    freq = np.bincount(classes, minlength=spec.n_classes) / (samples * N)
    lines = summary.splitlines()
    assert lines[0] == "class,frequency,pstar"
    for k, line in zip(range(spec.n_classes), lines[1:]):
        assert line.split(",")[:2] == [str(k + spec.k_min), fmt(freq[k])]


def test_sample_memory_is_bounded_in_bytes():
    # Labeled D=3, N=1000, 2000 trees: one RNG block.  The proposal matrix
    # of ``sample_profiles`` is its first batch, 1.2 * trees / (accept
    # guess) + 16 rows of int64 class counts, held with its class sums and
    # mask; and each row group spends at most WRITE_BLOCK_BYTES over its
    # values, from its class rows to its text, of which the decode and the
    # encode hold a few at once.  Nothing is (trees, N).
    N, samples = 1000, 2000
    spec = EnsembleSpec.labeled(3)
    q, _ = partition.tilt(spec, spec.kind.class_sum(N) / N)
    shifted = np.arange(spec.n_classes)
    var = float(q @ (shifted - q @ shifted) ** 2)
    proposal_rows = math.ceil(1.2 * samples * math.sqrt(2 * math.pi * N * var)) + 16
    bound = 4 * treegen.WRITE_BLOCK_BYTES + 2 * 8 * spec.n_classes * proposal_rows
    argv = ["sample", "--kind", "labeled", "--bound", "3", "--n", str(N),
            "--samples", str(samples), "--seed", "1", "--out", os.devnull]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"peak {peak} B > {bound} B"


@pytest.mark.parametrize(
    "argv",
    [("ldp-table", "--kind", "plane", "--bound", "4", "--beta", "1", "--energy", "0,0,0,1,2",
      "--n-list", "800", "--eps", "0.05"),
     ("lln", "--kind", "labeled", "--bound", "4", "--n-list", "2000", "--delta", "0.1")],
)
def test_exact_memory_is_bounded_in_bytes(argv):
    # The ball fold over 3.6M plane profiles, and the rate grid plus the
    # tail fold of lln.  One batch of rows and one block of points hold at
    # most LATTICE_BYTES together, temporaries included; the walk's next
    # rows and the command's own objects stay within as much again.
    # Nothing is (points, classes).
    tracemalloc.start()
    try:
        assert main([*argv, "--out", os.devnull]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * partition.LATTICE_BYTES, f"peak {peak} B"


def test_sample_labeled_d2_paths(tmp_path):
    out = tmp_path / "trees.txt"
    assert (
        main(
            [
                "sample",
                "--kind",
                "labeled",
                "--bound",
                "2",
                "--n",
                "5",
                "--samples",
                "20",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    text = out.read_text()
    blocks = text.split("# summary")[0].strip().split("\n\n")
    assert len(blocks) == 20
    for block in blocks:
        edges = [tuple(map(int, line.split())) for line in block.splitlines()]
        assert len(edges) == 4
        deg = np.zeros(5, dtype=int)
        for u, v in edges:
            deg[u - 1] += 1
            deg[v - 1] += 1
        assert sorted(deg) == [1, 1, 2, 2, 2]


def test_sample_plane_empirical_frequencies(tmp_path):
    out = tmp_path / "plane.txt"
    assert (
        main(
            [
                "sample",
                "--kind",
                "plane",
                "--bound",
                "2",
                "--n",
                "4",
                "--samples",
                "100000",
                "--seed",
                "9",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    lines = out.read_text().splitlines()
    trees = [line for line in lines if line and not line.startswith(("#", "class"))]
    profile_211 = sum(1 for line in trees if sorted(line.split()) == ["0", "0", "1", "2"])
    assert abs(profile_211 / 100000 - 0.75) <= 0.01


def test_ldp_table_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "ldp-table",
        "--kind",
        "labeled",
        "--bound",
        "3",
        "--n-list",
        "100,200,400",
        "--eps",
        "0.05",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,eps,log_prob,rate,I,gap"
    assert len(lines) == 4
    rates = [float(line.split(",")[3]) for line in lines[1:]]
    assert rates[0] > rates[1] > rates[2]


def test_lln_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "lln",
        "--kind",
        "labeled",
        "--bound",
        "3",
        "--n-list",
        "100,200",
        "--delta",
        "0.1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,delta,tail_prob,empirical_rate,inf_I"
    assert len(lines) == 3
    tail_100 = float(lines[1].split(",")[2])
    tail_200 = float(lines[2].split(",")[2])
    assert tail_200 < tail_100


def test_lln_plane_d4(capsys):
    code, out, _ = run_cli(
        capsys,
        "lln",
        "--kind",
        "plane",
        "--bound",
        "4",
        "--n-list",
        "20,40",
        "--delta",
        "0.1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,delta,tail_prob,empirical_rate,inf_I"
    assert [line.split(",")[0] for line in lines[1:]] == ["20", "40"]


@pytest.mark.parametrize(
    "argv",
    [
        # N = 30000 would need a DP table of about 9e8 cells (7 GB)
        ("ldp-table", "--kind", "labeled", "--bound", "3", "--n-list", "30000",
         "--eps", "0.05"),
        ("lln", "--kind", "labeled", "--bound", "4", "--n-list", "300,600",
         "--delta", "0.1"),
    ],
)
def test_lattice_commands_build_no_dp_table(capsys, monkeypatch, argv):
    def refuse(*_args, **_kwargs):
        raise AssertionError("build_dp called")

    monkeypatch.setattr(partition, "build_dp", refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    n_list = argv[argv.index("--n-list") + 1].split(",")
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == n_list


@pytest.mark.parametrize(
    "argv",
    [
        ("ldp-table", "--kind", "plane", "--bound", "4", "--beta", "1",
         "--energy", "0,0,0,1,2", "--n-list", "200,400", "--eps", "0.05"),
        ("lln", "--kind", "labeled", "--bound", "4", "--n-list", "300,600",
         "--delta", "0.1"),
    ],
)
def test_lattice_commands_materialize_no_lattice(capsys, monkeypatch, argv):
    # The ball and tail sums and the rate grid of lln all stream
    # partition.lattice_rows and read its points as (row, m_2) pairs:
    # nothing is materialized.
    def refuse(*_args, **_kwargs):
        raise AssertionError("lattice materialized")

    for module in (partition, ldp, rate, cli):
        for name in ("integer_lattice", "manifold_grid"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    n_list = argv[argv.index("--n-list") + 1].split(",")
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == n_list


@pytest.mark.parametrize(
    "spec",
    [EnsembleSpec.labeled(3), EnsembleSpec.labeled(5, 0.5, (0.0, 0.3, 0.0, 1.0, 0.2)),
     EnsembleSpec.plane(4, 1.0, (0.0, 0.0, 0.0, 1.0, 2.0))],
)
def test_grid_inf_rate_matches_the_materialized_grid(monkeypatch, spec):
    # blocks of 3 grid points; the oracle takes the minimum over the whole
    # rate.manifold_grid at the same resolution
    monkeypatch.setattr(rate, "GRID_RESOLUTION", 60)
    monkeypatch.setattr(partition, "LATTICE_BYTES", 3 * 8 * spec.n_classes)
    ctx = solve_pstar(spec)
    grid = rate.manifold_grid(spec, 60)
    values = rate.j_values(spec, grid) - ctx.Jstar
    dist = np.abs(grid - ctx.pstar[None, :]).sum(axis=1)
    for delta in (0.02, 0.3, 2.5):
        want = values[dist > delta].min() if (dist > delta).any() else math.inf
        assert rate.grid_inf_rate(ctx, delta) == want


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(list(Kind)),
    D=st.integers(1, 5),
    beta=st.floats(-5.0, 5.0),
    c_raw=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
    resolution=st.integers(10, 60),
    delta=st.floats(0.0, 2.5, exclude_min=True),
    lattice_bytes=st.integers(2**8, 2**14),
)
def test_grid_inf_rate_property(kind, D, beta, c_raw, resolution, delta, lattice_bytes):
    # Labeled D <= 5 and plane D <= 4 at beta * max|c| <= 5, the grid walked
    # in blocks of a few points; the oracle takes the minimum over the whole
    # rate.manifold_grid at the same resolution.
    D = max(D, 2) if kind is Kind.LABELED else min(D, 4)
    spec = EnsembleSpec(kind, D, beta, tuple(c_raw[: D + 1 - kind.k_min]))
    ctx = solve_pstar(spec)
    grid = rate.manifold_grid(spec, resolution)
    values = rate.j_values(spec, grid) - ctx.Jstar
    dist = np.abs(grid - ctx.pstar[None, :]).sum(axis=1)
    want = values[dist > delta].min() if (dist > delta).any() else math.inf
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rate, "GRID_RESOLUTION", resolution)
        mp.setattr(partition, "LATTICE_BYTES", lattice_bytes)
        assert rate.grid_inf_rate(ctx, delta) == want


def test_ldp_table_past_the_lattice_cap(capsys):
    # 12,090,200 profiles, 484 MB as int64 were they materialized: the fold
    # streams them
    code, out, err = run_cli(
        capsys, "ldp-table", "--kind", "labeled", "--bound", "5", "--n-list", "1200",
        "--eps", "0.1",
    )
    assert code == 0, err
    assert out.splitlines()[1].startswith("1200,0.1,")


@pytest.mark.parametrize("command,radius", [("ldp-table", "--eps"), ("lln", "--delta")])
def test_no_feasible_profile_exits_3(capsys, command, radius):
    code, _, err = run_cli(
        capsys, command, "--kind", "labeled", "--bound", "3", "--n-list", "1", radius, "0.05"
    )
    assert code == 3 and "no feasible labeled profile at N=1" in err


@pytest.mark.parametrize("command,radius", [("ldp-table", "--eps"), ("lln", "--delta")])
@pytest.mark.parametrize("kind,bound", [("labeled", "2"), ("plane", "1"), ("labeled", "4")])
def test_empty_lattice_exits_3_for_every_class_count(capsys, command, radius, kind, bound):
    # N = 0: no profile, on the two-class lattices too
    code, out, err = run_cli(
        capsys, command, "--kind", kind, "--bound", bound, "--n-list", "0", radius, "0.05"
    )
    assert code == 3 and f"no feasible {kind} profile at N=0" in err
    assert out == ""


def test_sample_builds_one_text_table(tmp_path, monkeypatch):
    # several RNG blocks go through one write_sample call and one text table
    monkeypatch.setattr(cli, "SAMPLE_CELLS", 60)
    builds: list[int] = []
    build = treegen._text_table

    def spy(top):
        builds.append(top)
        return build(top)

    monkeypatch.setattr(treegen, "_text_table", spy)
    draws: list[int] = []
    draw = cli.sample_prufer_codes

    def count_draws(spec, N, count, rng):
        draws.append(count)
        return draw(spec, N, count, rng)

    monkeypatch.setattr(cli, "sample_prufer_codes", count_draws)
    out = tmp_path / "multi.txt"
    argv = ["sample", "--kind", "labeled", "--bound", "3", "--n", "6", "--samples", "25",
            "--seed", "5", "--out", str(out)]
    assert main(argv) == 0
    assert draws == [10, 10, 5] and builds == [6]
    body = out.read_text().split("# summary\n")[0]
    assert_same_text(body, reference_sample_text(EnsembleSpec.labeled(3), 6, 25, 5, 10))


@pytest.mark.parametrize("kind", ["labeled", "plane"])
@pytest.mark.parametrize(
    "cells,write_bytes",
    [
        (600, 2**12),  # blocks of 50 trees in groups of 15 (labeled) or 34 (plane)
        (600, 1),  # groups of one tree
        (130, 2**16),  # blocks of 10 trees, each one group
        (2**22, 2**11),  # one block, in groups of 7 or 17
    ],
)
def test_sample_text_matches_the_whole_block_pipeline(tmp_path, monkeypatch, kind, cells,
                                                      write_bytes):
    # Byte for byte the text of drawing each RNG block whole in int64 (words
    # or rotations of all its trees at once), whatever the row groups.
    monkeypatch.setattr(cli, "SAMPLE_CELLS", cells)
    monkeypatch.setattr(treegen, "WRITE_BLOCK_BYTES", write_bytes)
    N, samples, seed = 12, 519, 33
    out = tmp_path / "sample.txt"
    argv = ["sample", "--kind", kind, "--bound", "3", "--beta", "0.7", "--energy",
            "0.2,0,0.5" if kind == "labeled" else "0.1,0,0.4,-0.2", "--n", str(N),
            "--samples", str(samples), "--seed", str(seed), "--out", str(out)]
    assert main(argv) == 0
    spec = cli.build_run_config(cli.make_parser().parse_args(argv)).spec()
    want = reference_sample_text(spec, N, samples, seed, cells // N)
    assert_same_text(out.read_text().split("# summary\n")[0], want)


@pytest.mark.parametrize(
    "argv",
    [
        ("ldp-table", "--n-list", "100", "--eps", "nan"),
        ("ldp-table", "--n-list", "100", "--eps", "0"),
        ("lln", "--n-list", "100", "--delta", "nan"),
        ("lln", "--n-list", "100", "--delta", "-0.1"),
    ],
)
def test_radius_must_be_positive(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--kind", "labeled", "--bound", "3")
    assert code == 2 and "must be positive" in err
    assert out == ""  # nothing, not even the header, before a refusal


def test_unwritable_output_exits_2(capsys, tmp_path):
    path = tmp_path / "missing" / "x.txt"
    code, out, err = run_cli(
        capsys, "pstar", "--kind", "labeled", "--bound", "3", "--out", str(path)
    )
    assert code == 2 and out == ""
    assert err.startswith("error: cannot open output") and err.count("\n") == 1
    assert not path.exists()


# one value per option key, as written in a config file and as a flag
_OPTION_VALUES = {
    "kind": ("plane", {"kind": Kind.PLANE}),
    "bound": ("4", {"bound": 4}),
    "beta": ("-1.5", {"beta": -1.5}),
    "c": ("[0, 0.5, 1, 2]", {"c": [0.0, 0.5, 1.0, 2.0]}),
    "n": ("17", {"n": 17}),
    "n-list": ("[10, 20, 40]", {"n_list": [10, 20, 40]}),
    "eps": ("0.25", {"eps": 0.25}),
    "delta": ("0.125", {"delta": 0.125}),
    "samples": ("7", {"samples": 7}),
    "seed": ("18446744073709551615", {"seed": 2**64 - 1}),
    "out": ("trees.txt", {"out": "trees.txt"}),
}


def test_every_option_key_round_trips(tmp_path):
    assert set(_OPTION_VALUES) == set(cli.OPTIONS)
    parser = cli.make_parser()
    for key, (text, fields) in _OPTION_VALUES.items():
        flag = cli.OPTIONS[key][0]
        path = tmp_path / f"{key}.cfg"
        path.write_text(f"{key} = {text}\n")
        from_file = cli.build_run_config(parser.parse_args(["pstar", "--config", str(path)]))
        from_flag = cli.build_run_config(parser.parse_args(["pstar", flag, text]))
        assert from_file == from_flag == cli.RunConfig(**fields), key


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# demo config\n"
        "kind = plane\n"
        "bound = 2\n"
        "beta = 0.5\n"
        "c = [0.1, 0.0, 0.3]\n"
        "n = 4\n"
        "seed = 12\n"
    )
    code, out, _ = run_cli(capsys, "pstar", "--config", str(cfg))
    assert code == 0
    kv = parse_kv(out)
    assert kv["kind"] == "plane"
    # flags win over the file
    code, out, _ = run_cli(capsys, "pstar", "--config", str(cfg), "--beta", "0")
    kv0 = parse_kv(out)
    assert kv0["beta"] == "0"
    assert kv0["pstar"] != kv["pstar"]


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("kind: plane\n")
    code, _, err = run_cli(capsys, "pstar", "--config", str(bad))
    assert code == 2
    bad.write_text("mystery = 3\n")
    code, _, err = run_cli(capsys, "pstar", "--config", str(bad))
    assert code == 2 and "unknown key" in err
    code, _, _ = run_cli(capsys, "pstar", "--config", str(tmp_path / "missing.cfg"))
    assert code == 2


_CONFIG_FAULTS = ("none", "kind", "bound", "energy", "list", "infeasible", "negative",
                  "overflow")


@settings(max_examples=80, deadline=None)
@given(
    fault=st.sampled_from(_CONFIG_FAULTS),
    kind=st.sampled_from(["labeled", "plane"]),
    bound=st.integers(3, 5),
    command=st.sampled_from(["sample", "ldp-table"]),
    in_file=st.sets(st.sampled_from(["kind", "bound", "beta", "c", "n", "n-list"])),
    data=st.data(),
)
def test_config_parsing_maps_to_exit_codes(fault, kind, bound, command, in_file, data):
    # One request, each key given as a flag or in a --config file.  A bad
    # kind, a missing bound, a wrong energy length, a malformed list, a
    # negative N or a beta * c(k) that overflows exits 2; an N below the
    # smallest tree exits 3; anything else exits 0.
    n_classes = bound + 1 - (1 if kind == "labeled" else 0)
    values = {"kind": kind, "bound": str(bound), "c": ["0"] * n_classes,
              "n": "9", "n-list": ["8", "12"]}
    if fault == "kind":
        values["kind"] = data.draw(st.sampled_from(["tree", "Labeled", "3"]), label="kind")
    elif fault == "bound":
        del values["bound"]
    elif fault == "energy":
        values["c"] = ["0"] * (n_classes + data.draw(st.sampled_from([-1, 1]), label="len"))
    elif fault == "list":
        key = data.draw(st.sampled_from(["c", "n-list"]), label="list")
        values[key] = values[key][:1] + [data.draw(st.sampled_from(["x", "1e", "0x1", "--"]))]
    elif fault == "infeasible":
        small = data.draw(st.integers(0, 1 if kind == "labeled" else 0), label="small N")
        values["n"], values["n-list"] = str(small), [str(small)]
    elif fault == "negative":
        negative = data.draw(st.integers(-9, -1), label="negative N")
        values["n"], values["n-list"] = str(negative), [str(negative)]
    elif fault == "overflow":
        values["beta"], values["c"] = "1e308", [str(k) for k in range(1, n_classes + 1)]
    flag = {"kind": "--kind", "bound": "--bound", "beta": "--beta", "c": "--energy",
            "n": "--n", "n-list": "--n-list"}
    argv = [command, "--samples", "3", "--eps", "0.05"]
    lines = []
    for key, value in values.items():
        text = ",".join(value) if isinstance(value, list) else value
        if key in in_file:
            lines.append(f"{key} = [{text}]" if isinstance(value, list) else f"{key} = {text}")
        else:
            argv += [flag[key], text]
    with tempfile.TemporaryDirectory() as tmp:
        if lines:
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w", encoding="ascii") as fh:
                fh.write("\n".join(lines) + "\n")
            argv += ["--config", path]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
    expected = {"none": 0, "infeasible": 3}.get(fault, 2)
    assert code == expected, (argv, lines, err.getvalue())


@pytest.mark.parametrize(
    "argv",
    [
        ("sample", "--n", "50", "--samples", "2"),
        ("ldp-table", "--n-list", "50"),
        ("lln", "--n-list", "50", "--delta", "0.1"),
        ("oracle-check", "--n", "7"),
    ],
    ids=["sample", "ldp-table", "lln", "oracle-check"],
)
def test_overflowing_profile_log_weights_exit_2(capsys, argv):
    # every beta * c(k) is finite, but a profile log weight, up to
    # N * 1e306 * 100, is not
    spec = ("--kind", "labeled", "--bound", "3", "--beta", "1e306", "--energy", "0,-100,0")
    code, out, err = run_cli(capsys, *argv, *spec)
    assert code == 2 and out == ""
    assert err.startswith("error: profile log weights overflow at N=")
    code, _, _ = run_cli(capsys, "pstar", *spec)  # no N, nothing to overflow
    assert code == 0


def test_nlist_must_increase(capsys):
    code, _, err = run_cli(
        capsys,
        "ldp-table",
        "--kind",
        "labeled",
        "--bound",
        "3",
        "--n-list",
        "400,200",
    )
    assert code == 2 and "increasing" in err


def run_process(*args):
    """``python *args`` with the test environment, text output captured."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True)


#: argv and exit code of a success, a configuration error and an oversize
#: request (an ``oracle-check`` past its enumeration cap)
PROCESS_CASES = [
    (("pstar", "--kind", "plane", "--bound", "2"), 0),
    (("ldp-table", "--kind", "labeled", "--bound", "3", "--n-list", "400,200"), 2),
    (("oracle-check", "--kind", "labeled", "--bound", "3", "--n", "30"), 3),
]


def test_console_script_runs(capsys):
    # the process path (entry(), its freeze and the interpreter's exit)
    # writes what main() writes in-process, and exits with its code
    for argv, code in PROCESS_CASES:
        proc = run_process("-m", "treegibbs.cli", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(capsys, *argv), argv
        assert proc.returncode == code, argv


def test_main_freezes_nothing(capsys):
    # a freeze in main() would pin the garbage of every in-process call
    frozen = gc.get_freeze_count()
    assert run_cli(capsys, "pstar", "--kind", "plane", "--bound", "2")[0] == 0
    assert gc.get_freeze_count() == frozen


def test_entry_freezes_the_imported_heap():
    script = (
        "import gc\n"
        "from treegibbs import cli\n"
        "assert gc.get_freeze_count() == 0\n"
        "cli.main = lambda: print(gc.get_freeze_count()) or 0\n"
        "cli.entry()\n"
    )
    proc = run_process("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0


def test_compare_outputs_of_a_tree_against_itself():
    # every command of tools/compare_outputs.py through `python -m
    # treegibbs.cli`, twice under the same source: nothing may differ
    src = Path(cli.__file__).resolve().parents[1]
    tool = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
    proc = run_process(str(tool), str(src), str(src))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "No command's stdout, stderr or exit code differs." in proc.stdout

import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same_text, word_tree
from treegibbs import (
    EnsembleSpec,
    Kind,
    LabeledTree,
    PlaneTree,
    prufer_encode,
    rng_stream,
    sample_plane_child_counts,
    sample_prufer_codes,
)
from treegibbs import cli, ldp, partition, treegen
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
    # N = 30000 would need a DP table of about 9e8 cells, past
    # DEFAULT_MAX_CELLS; sampling builds no table
    N, samples = 30_000, 2
    out = tmp_path / "big.txt"
    argv = ["sample", "--kind", kind, "--bound", "3", "--n", str(N),
            "--samples", str(samples), "--seed", "9", "--out", str(out)]
    assert main(argv) == 0
    body = out.read_text().split("# summary\n")[0]
    if kind == "labeled":
        blocks = body.split("\n\n")[:-1]
        trees = [LabeledTree.from_text(block) for block in blocks]
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
    trees = [LabeledTree.from_text(block) for block in body.split("\n\n")[:-1]]
    assert len(trees) == 300
    assert all(sorted(t.degrees().tolist()) == degrees for t in trees)


def test_sample_refuses_rare_hits_past_the_enumeration_cap(capsys):
    code, _, err = run_cli(
        capsys, "sample", "--kind", "labeled", "--bound", "5", "--beta", "1000",
        "--energy", "0,1,0,1,0", "--n", "2001", "--samples", "5",
    )
    # degrees 2 and 4 underflow, degrees 1, 3 and 5 give an odd degree sum at
    # N = 2001, and the profiles at that N are too many to enumerate
    assert code == 3 and "tilted proposals" in err


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
    # The batch writer against the single-tree reference, over several
    # sub-blocks (4 KB each: 15 labeled or 34 plane trees at N = 12): the
    # same draws decoded and printed one tree at a time, and a summary
    # recounted from the printed trees.
    monkeypatch.setattr(treegen, "WRITE_BLOCK_BYTES", 2**12)
    N, samples, seed = 12, 519, 21
    out = tmp_path / "sample.txt"
    argv = ["sample", "--kind", kind, "--bound", "3", "--n", str(N),
            "--samples", str(samples), "--seed", str(seed), "--out", str(out)]
    assert main(argv) == 0
    body, summary = out.read_text().split("# summary\n")
    spec = EnsembleSpec.labeled(3) if kind == "labeled" else EnsembleSpec.plane(3)
    if kind == "labeled":
        trees = [word_tree(c) for c in sample_prufer_codes(spec, N, samples, rng_stream(seed, 0))]
        assert_same_text(body, "".join(tree.to_text() + "\n" for tree in trees))
        classes = np.concatenate(
            [np.bincount(np.array(block.split(), dtype=np.int64), minlength=N + 1)[1:] - 1
             for block in body.split("\n\n")[:-1]]
        )
    else:
        rows = sample_plane_child_counts(spec, N, samples, rng_stream(seed, 0))
        assert_same_text(body, "".join(PlaneTree(tuple(row)).to_text() for row in rows))
        classes = np.array(body.split(), dtype=np.int64)
    freq = np.bincount(classes, minlength=spec.n_classes) / (samples * N)
    lines = summary.splitlines()
    assert lines[0] == "class,frequency,pstar"
    for k, line in zip(range(spec.n_classes), lines[1:]):
        assert line.split(",")[:2] == [str(k + spec.k_min), fmt(freq[k])]


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
        # N = 30000 would need a DP table past DEFAULT_MAX_CELLS
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
    partition.log_partition_value.cache_clear()  # a cached ln Z hides a call
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
    # The ball and tail sums stream partition.lattice_blocks; the rate grid
    # of lln (rate.manifold_grid) is not a profile lattice and is left alone.
    def refuse(*_args, **_kwargs):
        raise AssertionError("profile lattice materialized")

    for module in (partition, ldp, cli):
        for name in ("exact_chi_law", "integer_lattice"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    n_list = argv[argv.index("--n-list") + 1].split(",")
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == n_list


def test_ldp_table_past_the_lattice_cap(capsys):
    # 12,090,200 profiles, past partition.DEFAULT_MAX_PROFILES
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


def test_sample_builds_one_text_table(tmp_path, monkeypatch):
    # several RNG blocks go through one write_sample call and one text table
    monkeypatch.setattr(cli, "SAMPLE_CELLS", 60)
    builds: list[int] = []
    build = treegen._text_table

    def spy(top, seps):
        builds.append(top)
        return build(top, seps)

    monkeypatch.setattr(treegen, "_text_table", spy)
    draws: list[int] = []
    draw = cli.sample_prufer_codes

    def count_draws(spec, N, count, rng):
        draws.append(count)
        return draw(spec, N, count, rng)

    monkeypatch.setattr(cli, "sample_prufer_codes", count_draws)
    argv = ["sample", "--kind", "labeled", "--bound", "3", "--n", "6", "--samples", "25",
            "--seed", "5", "--out", str(tmp_path / "multi.txt")]
    assert main(argv) == 0
    assert draws == [10, 10, 5] and builds == [6]


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
    assert "nan" not in out


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


_CONFIG_FAULTS = ("none", "kind", "bound", "energy", "list", "infeasible")


@settings(max_examples=80, deadline=None)
@given(
    fault=st.sampled_from(_CONFIG_FAULTS),
    kind=st.sampled_from(["labeled", "plane"]),
    bound=st.integers(3, 5),
    command=st.sampled_from(["sample", "ldp-table"]),
    in_file=st.sets(st.sampled_from(["kind", "bound", "c", "n", "n-list"])),
    data=st.data(),
)
def test_config_parsing_maps_to_exit_codes(fault, kind, bound, command, in_file, data):
    # One request, each key given as a flag or in a --config file.  A bad
    # kind, a missing bound, a wrong energy length or a malformed list exits
    # 2; an N below the smallest tree exits 3; anything else exits 0.
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
    flag = {"kind": "--kind", "bound": "--bound", "c": "--energy", "n": "--n",
            "n-list": "--n-list"}
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


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "treegibbs.cli", "pstar", "--kind", "plane", "--bound", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "pstar = " in proc.stdout

import math
import subprocess
import sys

import numpy as np
import pytest

from treegibbs.cli import main

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


def test_sample_block_sharding(tmp_path):
    # one RNG stream per block of SAMPLE_BLOCK = 65536 trees: a one-block run
    # is a prefix of a two-block run at the same seed
    base = ["sample", "--kind", "labeled", "--bound", "3", "--n", "6", "--seed", "5"]
    one = tmp_path / "one.txt"
    two = tmp_path / "two.txt"
    assert main(base + ["--samples", "65536", "--out", str(one)]) == 0
    assert main(base + ["--samples", "65537", "--out", str(two)]) == 0
    trees_one = one.read_text().split("# summary")[0].split("\n\n")[:-1]
    trees_two = two.read_text().split("# summary")[0].split("\n\n")[:-1]
    assert len(trees_one) == 65536 and len(trees_two) == 65537
    assert trees_two[:65536] == trees_one


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

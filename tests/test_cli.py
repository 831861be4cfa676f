import os

import numpy as np
import pytest

from heatext.cli import main
from heatext.csvio import format_value, read_csv, write_csv, write_table
from heatext.runconfig import (
    RunConfig,
    parse_config_file,
    parse_hole,
    runconfig_from_mapping,
)
from heatext.errors import ConfigError


def _run(argv):
    return main(argv)


# ------------------------------------------------------------- csv plumbing

def test_csv_round_trip(tmp_path):
    path = str(tmp_path / "x.csv")
    write_csv(path, ["a", "b"], [(1, 2.5), (3, 1e-12)])
    header, rows = read_csv(path)
    assert header == ["a", "b"]
    assert rows[0][0] == "1"
    assert float(rows[1][1]) == 1e-12
    with open(path, "rb") as fh:
        data = fh.read()
    assert b"\r" not in data  # LF endings
    assert data.count(b"e") >= 2  # %.12e floats


def test_write_table_matches_format_value(tmp_path):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(9000) * 10.0 ** rng.integers(-300, 300, 9000)
    x[:8] = [0.0, -0.0, 1e-300, -1e-300, np.inf, -np.inf, np.nan, 5e-324]
    y = rng.random(9000)
    path = str(tmp_path / "t.csv")
    # two blocks, the first longer than one formatting block
    write_table(path, ["t", "x", "y"], [(0.25, x, y), (1.5, y[:7], x[:7])])
    rows = [(0.25, a, b) for a, b in zip(x, y)] + [(1.5, a, b) for a, b in zip(y[:7], x[:7])]
    want = "t,x,y\n" + "".join(",".join(format_value(float(v)) for v in row) + "\n"
                               for row in rows)
    with open(path, "rb") as fh:
        assert fh.read() == want.encode()


# ------------------------------------------------------------- config

def test_parse_hole_specs():
    assert parse_hole("ball:1.5").radius == 1.5
    rect = parse_hole("rect:1x2")
    assert rect.half_width_x == 1.0 and rect.half_width_y == 2.0
    with pytest.raises(ConfigError):
        parse_hole("cube:1")


def test_config_file_parsing(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "[run]\n"
        "dim = 3\n"
        "theta = 0.5    # robin\n"
        "preset = explicit-remark\n"
        "t_max = 10\n")
    mapping = parse_config_file(str(cfg_file))
    cfg = runconfig_from_mapping(mapping).resolved()
    assert cfg.theta == 0.5
    assert cfg.t_max == 10.0
    assert cfg.r_out is not None


def test_config_rejects_unknown_key(tmp_path):
    for key in ("volume", "delta", "out_dir"):
        with pytest.raises(ConfigError, match="unknown config key"):
            runconfig_from_mapping({key: "11"})


def test_config_validates_geometry():
    with pytest.raises(ConfigError):
        RunConfig(theta=2.0, t_max=1.0).resolved()
    with pytest.raises(ConfigError):
        RunConfig(t_max=-1.0).resolved()


# ------------------------------------------------------------- subcommands

def test_profile_closed_form_cmd(tmp_path):
    out = str(tmp_path)
    rc = _run(["profile", "--dim", "3", "--hole", "ball:1", "--theta", "0",
               "--method", "closed-form", "--svg", "--out", out])
    assert rc == 0
    run_dirs = os.listdir(out)
    assert len(run_dirs) == 1
    files = os.listdir(os.path.join(out, run_dirs[0]))
    assert "profile_closed.csv" in files
    assert "profile.svg" in files
    header, rows = read_csv(os.path.join(out, run_dirs[0], "profile_closed.csv"))
    assert header == ["r", "phi"]
    r = np.array([float(x[0]) for x in rows])
    phi = np.array([float(x[1]) for x in rows])
    i = int(np.argmin(np.abs(r - 2.0)))
    assert phi[i] == pytest.approx(1.0 - 1.0 / r[i], abs=1e-9)


def test_profile_neumann_constant(tmp_path):
    out = str(tmp_path)
    rc = _run(["profile", "--theta", "1", "--method", "closed-form", "--out", out])
    assert rc == 0
    run_dir = os.path.join(out, os.listdir(out)[0])
    _, rows = read_csv(os.path.join(run_dir, "profile_closed.csv"))
    assert all(float(x[1]) == 1.0 for x in rows)


def test_profile_elliptic_compare_cmd(tmp_path):
    rc = _run(["profile", "--method", "both", "--R", "8,16,32", "--compare",
               "--out", str(tmp_path)])
    assert rc == 0


def test_profile_dim2_elliptic_monotone(tmp_path):
    rc = _run(["profile", "--dim", "2", "--theta", "0", "--method", "elliptic",
               "--R", "6,12", "--out", str(tmp_path)])
    assert rc == 0


def test_evolve_balance_study(tmp_path):
    rc = _run(["evolve", "--study", "balance", "--t-max", "5",
               "--h", "0.03125", "--dt", "0.015625",
               "--snapshots", "1,2,5", "--out", str(tmp_path)])
    assert rc == 0
    run_dir = os.path.join(str(tmp_path), os.listdir(str(tmp_path))[0])
    files = set(os.listdir(run_dir))
    assert {"snapshots.csv", "ledger.csv", "rates.csv", "config.csv",
            "scaled_errors.svg"} <= files


def test_evolve_balance_needs_three_ledger_rows(tmp_path):
    # one step leaves two ledger rows, too few for the balance residual
    rc = _run(["evolve", "--study", "balance", "--t-max", "0.0625",
               "--h", "0.0625", "--dt", "0.0625", "--r-out", "6",
               "--snapshots", "0.0625", "--out", str(tmp_path)])
    assert rc == 3


def test_evolve_deterministic_output(tmp_path):
    args = ["evolve", "--study", "mass", "--t-max", "2", "--h", "0.0625",
            "--dt", "0.03125", "--snapshots", "1,2"]
    rc1 = _run(args + ["--out", str(tmp_path / "a")])
    rc2 = _run(args + ["--out", str(tmp_path / "b")])
    assert rc1 == rc2 == 0
    d1 = os.path.join(str(tmp_path / "a"), os.listdir(str(tmp_path / "a"))[0])
    d2 = os.path.join(str(tmp_path / "b"), os.listdir(str(tmp_path / "b"))[0])
    for name in ("ledger.csv", "rates.csv", "snapshots.csv"):
        with open(os.path.join(d1, name), "rb") as fh:
            b1 = fh.read()
        with open(os.path.join(d2, name), "rb") as fh:
            b2 = fh.read()
        assert b1 == b2  # bit-identical reruns


def test_evolve_config_error_exit_code(tmp_path):
    rc = _run(["evolve", "--theta", "3", "--out", str(tmp_path)])
    assert rc == 3
    rc = _run(["evolve", "--study", "linf", "--t-max", "5",
               "--snapshots", "1,2,5", "--h", "0.0625", "--dt", "0.03125",
               "--out", str(tmp_path)])
    assert rc == 3  # no factor-10 window for the linf verdict


def test_theta_with_infinite_robin_b_exit_code(tmp_path):
    # cot(pi theta/2) overflows for this theta: a bad input (3), not a
    # numerical failure (4)
    out = str(tmp_path)
    assert _run(["evolve", "--dim", "3", "--theta", "2.2e-313", "--out", out]) == 3
    assert _run(["profile", "--dim", "2", "--method", "elliptic",
                 "--theta", "2.2e-313", "--out", out]) == 3


def test_theta_whose_robin_row_overflows_exit_code(tmp_path, capsys):
    # b = cot(pi theta/2) = 6.4e307 is finite, but the radial Robin row and,
    # for a hole of radius 4, a b overflow
    out = str(tmp_path)
    assert _run(["evolve", "--dim", "3", "--hole", "ball:1", "--theta", "1e-308",
                 "--t-max", "10", "--study", "balance", "--out", out]) == 3
    assert _run(["profile", "--dim", "3", "--hole", "ball:4", "--theta", "1e-308",
                 "--method", "closed-form", "--out", out]) == 3
    assert capsys.readouterr().err.count("theta = 1e-308") == 2


def test_evolve_dim2_mass_study(tmp_path):
    rc = _run(["evolve", "--dim", "2", "--hole", "rect:1x1", "--theta", "0",
               "--preset", "gaussian-bump:3,0,1.5", "--study", "mass",
               "--t-max", "4", "--h", "0.5", "--dt", "0.25",
               "--r-out", "16", "--snapshots", "1,4", "--out", str(tmp_path)])
    assert rc == 0


def test_herraiz_cmd(tmp_path):
    rc = _run(["herraiz", "--t", "100", "--out", str(tmp_path)])
    assert rc == 0
    run_dir = os.path.join(str(tmp_path), os.listdir(str(tmp_path))[0])
    files = set(os.listdir(run_dir))
    assert {"herraiz.csv", "herraiz.svg"} <= files
    header, rows = read_csv(os.path.join(run_dir, "herraiz.csv"))
    assert header == ["r", "exact", "theorem_pred", "herraiz_pred"]
    assert len(rows) > 1000


def test_herraiz_rejects_early_time(tmp_path):
    assert _run(["herraiz", "--t", "5", "--out", str(tmp_path)]) == 3


def test_optimal_cmd(tmp_path):
    rc = _run(["optimal", "--g", "recip:4", "--n", "3", "--out", str(tmp_path)])
    assert rc == 0
    run_dir = os.path.join(str(tmp_path), os.listdir(str(tmp_path))[0])
    header, rows = read_csv(os.path.join(run_dir, "plan.csv"))
    assert header == ["n", "t_n", "R_n", "x_n", "weight"]
    assert float(rows[0][1]) == pytest.approx(4.0, abs=1e-6)


def test_sweep_monotone(tmp_path):
    rc = _run(["sweep", "--param", "theta", "--values", "0,0.5,1",
               "--check", "monotone", "--preset", "explicit-remark",
               "--study", "mass", "--t-max", "2", "--h", "0.0625",
               "--dt", "0.03125", "--snapshots", "1,2", "--out", str(tmp_path)])
    assert rc == 0
    assert os.path.exists(os.path.join(str(tmp_path), "sweep-manifest.csv"))


def test_kernel_cmd_coarse(tmp_path):
    rc = _run(["kernel", "--y", "0,0,3", "--t", "2", "--width", "0.5",
               "--grid", "96x192", "--out", str(tmp_path)])
    assert rc == 0
    run_dir = os.path.join(str(tmp_path), os.listdir(str(tmp_path))[0])
    header, rows = read_csv(os.path.join(run_dir, "gaps.csv"))
    assert header == ["t", "gap", "bound", "profile_term", "hole_term"]
    assert float(rows[0][1]) <= float(rows[0][2])  # gap <= bound


def test_evolve_audit_flag(tmp_path):
    rc = _run(["evolve", "--study", "balance", "--t-max", "2",
               "--h", "0.0625", "--dt", "0.03125", "--snapshots", "1,2",
               "--audit", "--out", str(tmp_path)])
    assert rc == 0
    run_dir = os.path.join(str(tmp_path), os.listdir(str(tmp_path))[0])
    assert "audit-ledger.csv" in os.listdir(run_dir)


def test_env_var_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("HEATEXT_OUT", str(tmp_path / "env-root"))
    rc = _run(["herraiz", "--t", "50"])
    assert rc == 0
    assert os.path.isdir(str(tmp_path / "env-root"))

import csv
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import heatext
from heatext.cli import main
from heatext.csvio import as_written, format_value, read_csv, write_csv, write_table
from heatext.runconfig import (
    RunConfig,
    number_text,
    parse_config_file,
    parse_hole,
    runconfig_from_mapping,
)
from heatext.asymptotics import kernel_l1_gap
from heatext.domain import BallHole, RectHole
from heatext.errors import ConfigError
from heatext.solver import kernel_probe


def _run(argv):
    return main(argv)


@pytest.fixture(autouse=True)
def emitted_csvs_parse_to_header_width(tmp_path):
    """After each test, every CSV under its tmp_path (all the CLI runs
    here write there) parses with csv.reader into rows of the header's
    width."""
    yield
    _check_csv_widths(tmp_path)


def _check_csv_widths(root):
    for dirpath, _, names in os.walk(root):
        for name in names:
            if name.endswith(".csv"):
                with open(os.path.join(dirpath, name), newline="") as fh:
                    header, *rows = csv.reader(fh)
                assert [len(row) for row in rows] == [len(header)] * len(rows), name


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


def test_csv_quotes_text_fields(tmp_path):
    path = str(tmp_path / "q.csv")
    text = ['max increase 1e-3, final gap 2', 'say "hi"', "two\nlines", "plain"]
    write_csv(path, ["n", "text"], enumerate(text))
    with open(path, "rb") as fh:
        assert fh.read() == ('n,text\n0,"max increase 1e-3, final gap 2"\n'
                             '1,"say ""hi"""\n2,"two\nlines"\n3,plain\n').encode()
    header, rows = read_csv(path)
    assert header == ["n", "text"]
    assert rows == [[str(i), t] for i, t in enumerate(text)]


def test_format_value_numpy_bools():
    assert format_value(np.bool_(True)) == format_value(True) == "true"
    assert format_value(np.float64(0.5) > 1.0) == format_value(False) == "false"


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


@pytest.mark.parametrize("text, audit", [("1", True), ("TRUE", True), ("Yes", True),
                                         ("on", True), ("0", False), ("false", False),
                                         ("NO", False), ("Off", False)])
def test_config_reads_audit_exactly(text, audit):
    assert runconfig_from_mapping({"audit": text}).audit is audit


@pytest.mark.parametrize("key, text", [("audit", "ture"), ("audit", "2"),
                                       ("audit", "enabled"), ("audit", ""),
                                       ("snapshot_times", "1,,2"), ("snapshot_times", "1,2,"),
                                       ("snapshot_times", ",")])
def test_config_rejects_inexact_values(tmp_path, capsys, key, text):
    # a value the reader does not know is an error, never a silent default
    # (audit off) or a dropped item (1,,2 read as 1,2)
    with pytest.raises(ConfigError, match=f"bad value for '{key}'"):
        runconfig_from_mapping({key: text})
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key} = {text}\n")
    out = tmp_path / "out"
    assert _run(["evolve", "--config", str(cfg_file), "--study", "mass", "--t-max", "2",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"config error: bad value for '{key}'")
    assert not out.exists()


def test_config_validates_geometry():
    with pytest.raises(ConfigError):
        RunConfig(theta=2.0, t_max=1.0).resolved()
    with pytest.raises(ConfigError):
        RunConfig(t_max=-1.0).resolved()
    # the far radius of a run's grid must be at least 4x the hole's
    # circumscribed radius, a rect hole lies in dim 2 only
    with pytest.raises(ConfigError, match="at least 4x"):
        RunConfig(r_out=3.9).resolved()
    with pytest.raises(ConfigError, match="only supported in dim 2"):
        RunConfig(hole=RectHole(1.0, 1.0)).resolved()


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
    assert os.listdir(tmp_path) == []  # judged before the first file


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


def test_mass_study_verdicts_csv(tmp_path):
    # the mass verdict's detail holds a comma and its passed flag comes
    # from numpy; both must survive the round trip
    rc = _run(["evolve", "--dim", "2", "--hole", "ball:1", "--theta", "0.6",
               "--study", "mass", "--t-max", "2", "--h", "0.25", "--dt", "0.125",
               "--r-out", "8", "--snapshots", "1,2", "--out", str(tmp_path)])
    assert rc == 0
    run_dir = os.path.join(str(tmp_path), os.listdir(str(tmp_path))[0])
    header, rows = read_csv(os.path.join(run_dir, "verdicts.csv"))
    assert header == ["verdict", "passed", "detail"]
    ((name, passed, detail),) = rows
    assert passed == "true"
    assert detail.startswith("max increase ") and ", final gap " in detail


def test_evolve_config_error_exit_code(tmp_path):
    rc = _run(["evolve", "--theta", "3", "--out", str(tmp_path)])
    assert rc == 3
    rc = _run(["evolve", "--study", "linf", "--t-max", "5",
               "--snapshots", "1,2,5", "--h", "0.0625", "--dt", "0.03125",
               "--out", str(tmp_path)])
    assert rc == 3  # no factor-10 window for the linf verdict
    rc = _run(["evolve", "--study", "l1", "--snapshots", "5,10", "--t-max", "10",
               "--out", str(tmp_path)])
    assert rc == 3  # the same, for the l1 verdict
    assert os.listdir(tmp_path) == []  # found before any output


def test_theta_with_infinite_robin_b_exit_code(tmp_path):
    # cot(pi theta/2) overflows for this theta: a bad input (3), not a
    # numerical failure (4)
    out = str(tmp_path)
    assert _run(["evolve", "--dim", "3", "--theta", "2.2e-313", "--out", out]) == 3
    assert _run(["profile", "--dim", "2", "--method", "elliptic",
                 "--theta", "2.2e-313", "--out", out]) == 3


def test_theta_whose_robin_row_overflows_exit_code(tmp_path, capsys):
    # b = cot(pi theta/2) = 6.4e307 is finite, but the radial Robin row
    # (which the evolution and the dim-3 elliptic profile share) and, for a
    # hole of radius 4, a b overflow
    out = str(tmp_path)
    assert _run(["evolve", "--dim", "3", "--hole", "ball:1", "--theta", "1e-308",
                 "--t-max", "10", "--study", "balance", "--out", out]) == 3
    assert _run(["profile", "--dim", "3", "--hole", "ball:4", "--theta", "1e-308",
                 "--method", "closed-form", "--out", out]) == 3
    assert _run(["profile", "--dim", "3", "--hole", "ball:1", "--theta", "1e-308",
                 "--method", "elliptic", "--R", "8,16", "--out", out]) == 3
    assert capsys.readouterr().err.count("theta = 1e-308") == 3


@pytest.mark.parametrize("argv", [
    ["kernel", "--grid", "256"],
    ["kernel", "--grid", "0x192"],
    ["kernel", "--t", "5,abc"],
    ["kernel", "--y", "1,0,3"],
    ["kernel", "--y", "0,3"],
    ["sweep", "--values", "0,x"],
    ["evolve", "--snapshots", "1,a"],
    ["evolve", "--snapshots", ","],
    ["profile", "--R", "8,b"],
    ["evolve", "--theta", "abc"],
    ["evolve", "--study", "bogus"],
    ["evolve", "--no-such-flag"],
    ["evolve", "--config", "no-such-file.cfg"],
    ["profile", "--method", "bogus"],
    ["herraiz", "--t", "x"],
    ["kernel", "--width", "w"],
    ["sweep", "--param", "rho"],
    ["sweep", "--values", "0,0.5,2"],
    ["kernel", "--y", "100", "--t", "2", "--grid", "96x192"],
    ["evolve", "--study", "mass", "--snapshots", "2,1", "--t-max", "2"],
    ["sweep", "--values", "0.5,0.5"],
    ["optimal", "--g", "recip:x"],
    ["profile", "--dim", "4"],
    ["kernel", "--t", "5,5", "--grid", "96x192"],
    ["kernel", "--t", "10,5", "--grid", "96x192"],
    ["evolve", "--preset", "bogus", "--study", "mass", "--t-max", "2"],
    ["evolve", "--dim", "2", "--preset", "explicit-remark"],
    ["profile", "--dim", "3", "--hole", "rect:1x1"],
    ["profile", "--method", "elliptic", "--R", "1,8"],
    ["profile", "--dim", "2", "--method", "both", "--R", "8,16", "--compare"],
    ["profile", "--compare"],
    ["evolve", "--study", "mass", "--snapshots", "1,1", "--t-max", "2"],
    ["evolve", "--preset", "gaussian-bump:nan,1", "--study", "mass", "--t-max", "2"],
    ["evolve", "--preset", "gaussian-bump:4,inf", "--study", "mass", "--t-max", "2"],
    ["evolve", "--preset", "ball-eigen", "--study", "mass", "--t-max", "2"],
    ["evolve", "--preset", "indicator-shell:2,12", "--r-out", "12", "--h", "0.0625",
     "--theta", "1", "--study", "mass", "--t-max", "2"],
    ["evolve", "--dim", "2", "--preset", "indicator-shell:2,8", "--r-out", "8",
     "--study", "mass", "--t-max", "2"],
    ["evolve", "--preset", "indicator-shell:0.5,3", "--study", "mass", "--t-max", "2"],
    ["evolve", "--preset", "indicator-shell:1,3", "--study", "mass", "--t-max", "2"],
    ["evolve", "--dim", "2", "--hole", "rect:1x1", "--preset", "indicator-shell:4,2",
     "--study", "mass", "--t-max", "2"],
    ["evolve", "--study", "mass", "--t-max", "2", "--theta", "1e-30"],
    ["evolve", "--study", "mass", "--t-max", "2", "--theta", "1e-308"],
    ["evolve", "--study", "mass", "--t-max", "2", "--theta", "2.2e-313"],
    ["sweep", "--values", "0,1e-30", "--study", "mass", "--t-max", "2"],
    ["herraiz", "--t", "5"],
    ["profile", "--dim", "3", "--theta", "0.9999999999999999"],
    ["herraiz", "--t", "inf"],
    ["herraiz", "--t", "1e300"],
    ["profile", "--method", "elliptic", "--R", "8,inf"],
    ["profile", "--method", "elliptic", "--R", "8,nan"],
    ["kernel", "--width", "nan", "--grid", "32x64"],
    ["kernel", "--y", "inf", "--grid", "32x64"],
    ["kernel", "--t", "inf", "--grid", "32x64"],
    ["kernel", "--t", "1e308", "--grid", "32x64"],
    ["kernel", "--hole", "rect:1x1", "--grid", "32x64"],
    ["profile", "--R", "8,inf"],
    ["evolve", "--r-out", "3", "--study", "mass", "--t-max", "2"],
    ["evolve", "--dim", "2", "--hole", "rect:1x1", "--r-out", "5", "--study", "mass",
     "--t-max", "2"],
    ["evolve", "--r-out", "inf", "--study", "mass", "--t-max", "2"],
    ["evolve", "--h", "1e-300", "--study", "mass", "--t-max", "2"],
    ["evolve", "--dim", "2", "--h", "1e-300", "--study", "mass", "--t-max", "2"],
    ["profile", "--dim", "3", "--method", "elliptic", "--R", "8,1e12"],
    ["profile", "--dim", "2", "--method", "elliptic", "--R", "8,1e6"],
    ["kernel", "--grid", "100000x100000"],
    ["evolve", "--h", "1e-320", "--study", "mass", "--t-max", "2"],
    ["evolve", "--r-out", "1e308", "--study", "mass", "--t-max", "2"],
    ["evolve", "--h", "inf"],
    ["evolve", "--h", "nan"],
    ["evolve", "--h", "-1"],
    ["evolve", "--hole", "ball:nan"],
    ["evolve", "--dim", "2", "--hole", "rect:1xnan"],
])
def test_malformed_flag_exit_code(tmp_path, capsys, argv):
    # a bad number, choice or flag is a config error (exit 3) found before
    # any output; the sweep resolves its last theta before its first run,
    # a source at z = 100 stretches the kernel grid to h_z = 1.16 > w = 0.5,
    # kernel times must strictly increase, a preset must be one of its dim's
    # with finite parameters and a shell 0 <= r1 < r2 that starts outside
    # the hole (dim 3; r1 > a around a Dirichlet hole, whose node at r = a
    # is pinned) and ends inside the grid, and
    # profile builds its profiles before its directory. The library's run
    # checks come before the first file too: theta = 1e-30 is over the step
    # budget, theta = 1e-308 has no finite Robin row, theta = 2.2e-313 no
    # finite b = cot(pi theta/2); a sweep marches every theta before its
    # first run, and herraiz needs t >= 10. Every verdict is judged before
    # the first file too: a theta this close to 1 leaves the closed-form
    # profile no decay to fit. herraiz needs a finite t whose curves do not
    # overflow, the elliptic profile finite radii, the kernel probe a finite
    # mollifier width, source distance and pad, and an evolution a finite far
    # radius at least 4x the hole's (rect:1x1 is a dim-2 hole, for the probe
    # and the profile alike, whatever the method).
    # A grid may hold at most grids.MAX_NODES nodes, checked before any array
    # is made (a tiny h, a huge elliptic R or kernel grid), h must be
    # positive and finite with a node count that does not overflow, and a
    # hole's size positive and finite
    assert _run(argv + ["--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("config error: ")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("times", ["5,5", "10,5"])
def test_kernel_times_out_of_order_name_the_times_given(tmp_path, capsys, times):
    # the message lists the --t values, not the stops with the probe's
    # warm-up stop before them
    argv = ["kernel", "--t", times, "--grid", "96x192", "--out", str(tmp_path)]
    assert _run(argv) == 3
    given = [float(t) for t in times.split(",")]
    assert capsys.readouterr().err == (
        f"config error: probe times must strictly increase, got {given}\n")
    assert os.listdir(tmp_path) == []


def test_planar_elliptic_radius_below_the_lattice_names_R_and_h(tmp_path, capsys):
    # the message names the radius and the spacing, not the grid's cell count
    argv = ["profile", "--dim", "2", "--method", "elliptic", "--hole", "rect:0.01x0.01",
            "--R", "1,2", "--out", str(tmp_path)]
    assert _run(argv) == 3
    assert capsys.readouterr().err == (
        "config error: min(R_list) = 1 is too small for the lattice spacing h = 0.25: "
        "the planar solve needs ceil(R / h) + 1 >= 8, that is R > 1.5\n")
    assert os.listdir(tmp_path) == []


def test_planar_run_over_the_byte_budget_exits_3_before_any_array(tmp_path, capsys):
    # 3079 x 3079 nodes lie under grids.MAX_NODES, but a run on them would
    # hold about 1.17 GB: the grid's constructor rejects it
    argv = ["evolve", "--dim", "2", "--r-out", "20", "--h", "0.013", "--out", str(tmp_path)]
    assert _run(argv) == 3
    assert capsys.readouterr().err == (
        "config error: a masked grid of 3079 x 3079 nodes needs about 1.17 GB, "
        "over the budget of 1 GB\n")
    assert os.listdir(tmp_path) == []


def test_robin_row_failure_exit_code(tmp_path, capsys):
    # h = 1.5 is too coarse for a Robin hole of radius 1 at theta = 0.05:
    # the radial Robin row makes the operator grow, a numerical failure
    rc = _run(["evolve", "--theta", "0.05", "--h", "1.5", "--r-out", "200",
               "--study", "mass", "--t-max", "2", "--out", str(tmp_path)])
    assert rc == 4
    assert capsys.readouterr().err.startswith("numerical failure: ")
    assert os.listdir(tmp_path) == []


def _rates_by_p(path):
    """{p label: [(t, raw, scaled)]} from an emitted rates.csv."""
    out = {}
    for t, p, raw, scaled, _, _ in read_csv(path)[1]:
        out.setdefault(p, []).append((float(t), float(raw), float(scaled)))
    return out


def _recomputed_verdict(study, rates):
    """(passed, detail) of an l1, linf or lp study, from its rates alone."""
    if study == "lp":
        excess = [s2 - (np.sqrt(s1 * si) + 1e-6) for (_, _, s1), (_, _, s2), (_, _, si)
                  in zip(rates["1"], rates["2"], rates["inf"])]
        return max(excess) <= 0, f"max excess {max(excess):.3e}"
    series, col = (rates["1"], 1) if study == "l1" else (rates["inf"], 2)
    t_hi, v_hi = series[-1][0], series[-1][col]
    t_lo, v_lo = [(row[0], row[col]) for row in series if row[0] <= t_hi / 10.0][-1]
    return (v_hi <= 0.5 * v_lo,
            f"t={t_hi:g}: {v_hi:.4e} vs 0.5 x {v_lo:.4e} at t={t_lo:g}")


@pytest.mark.parametrize("study", ["l1", "linf", "lp"])
def test_norm_study_verdicts_recompute_from_rates(tmp_path, study):
    # on this coarse grid l1 and lp pass and linf fails; each verdict in
    # verdicts.csv is the one rates.csv gives
    rc = _run(["evolve", "--study", study, "--t-max", "10", "--h", "0.125",
               "--r-out", "12", "--snapshots", "1,2,5,10", "--out", str(tmp_path)])
    (run_dir,) = os.listdir(tmp_path)
    run_dir = os.path.join(tmp_path, run_dir)
    passed, detail = _recomputed_verdict(study, _rates_by_p(os.path.join(run_dir, "rates.csv")))
    ((_, passed_csv, detail_csv),) = read_csv(os.path.join(run_dir, "verdicts.csv"))[1]
    assert (passed_csv, detail_csv) == ("true" if passed else "false", detail)
    assert rc == (0 if passed else 2)


def _recomputed_ledger_verdict(study, ledger_csv):
    """(passed, detail) of a mass study with m = 0 or of a balance study,
    from ledger.csv alone."""
    t, mass, flux = np.array(read_csv(ledger_csv)[1], dtype=float).T
    if study == "mass":
        gaps = np.abs(mass - 0.0)
        increase = np.max(np.diff(gaps))
        return (increase <= 1e-4 * abs(mass[0]),
                f"max increase {increase:.3e}, final gap {gaps[-1]:.4e}")
    residual = np.max(np.abs(np.diff(mass) - 0.5 * (flux[1:] + flux[:-1]) * np.diff(t)))
    residual /= abs(mass[0])
    return residual <= 2e-3, f"residual {residual:.4e}"


@pytest.mark.parametrize("study", ["mass", "balance"])
def test_ledger_study_verdicts_recompute_from_ledger(tmp_path, study):
    # in dim 2 a Dirichlet hole's profile is 0, so the mass study's m is 0
    # and both verdicts need nothing but ledger.csv (on this coarse grid
    # mass passes and balance fails): each verdict in verdicts.csv, flag and
    # detail, is the one ledger.csv gives
    rc = _run(["evolve", "--dim", "2", "--hole", "ball:1", "--study", study, "--t-max", "2",
               "--h", "0.25", "--dt", "0.125", "--r-out", "8", "--snapshots", "1,2",
               "--out", str(tmp_path)])
    (run_dir,) = os.listdir(tmp_path)
    run_dir = os.path.join(tmp_path, run_dir)
    passed, detail = _recomputed_ledger_verdict(study, os.path.join(run_dir, "ledger.csv"))
    ((_, passed_csv, detail_csv),) = read_csv(os.path.join(run_dir, "verdicts.csv"))[1]
    assert (passed_csv, detail_csv) == ("true" if passed else "false", detail)
    assert rc == (0 if passed else 2)


@pytest.mark.parametrize("h", [math.inf, math.nan, -1.0, 0.0])
def test_resolved_names_a_bad_h(h):
    # before this check, h = inf was reported as "n_r must be at least 64"
    # and a NaN or negative h as a problem with dt
    with pytest.raises(ConfigError, match="h must be positive and finite"):
        RunConfig(h=h).resolved()


def test_indicator_shell_may_start_on_a_robin_hole(tmp_path):
    # the node at r = a is an unknown of a Robin hole, so a shell from r1 = a
    # is a valid datum there; around a Dirichlet hole it exits 3 (above)
    assert _run(["evolve", "--preset", "indicator-shell:1,3", "--theta", "0.5",
                 "--study", "mass", "--t-max", "2", "--out", str(tmp_path)]) == 0


def test_dim2_default_preset_is_named(tmp_path):
    # without --preset a dim-2 run takes the planar bump and says so;
    # explicit-remark is a radial datum, which a planar run rejects
    argv = ["evolve", "--dim", "2", "--hole", "rect:1x1", "--study", "balance",
            "--t-max", "2", "--out", str(tmp_path)]
    assert _run(argv) == 0
    (run_dir,) = os.listdir(tmp_path)
    assert "gaussian-bump" in run_dir
    with open(os.path.join(tmp_path, run_dir, "config.csv")) as fh:
        assert 'preset,"gaussian-bump:3,0,1.5"\n' in fh.read()
    assert _run(argv + ["--preset", "explicit-remark"]) == 3


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


def test_herraiz_phi_off_drops_the_profile_factor(tmp_path):
    # --phi off changes the two predictions only: r and the exact curve stay
    tables = {}
    for phi in ("on", "off"):
        assert _run(["herraiz", "--phi", phi, "--out", str(tmp_path / phi)]) == 0
        (run_dir,) = os.listdir(tmp_path / phi)
        header, rows = read_csv(os.path.join(tmp_path / phi, run_dir, "herraiz.csv"))
        assert header == ["r", "exact", "theorem_pred", "herraiz_pred"]
        tables[phi] = np.array(rows, dtype=float)
    on, off = tables["on"], tables["off"]
    assert np.array_equal(on[:, :2], off[:, :2])
    for col in (2, 3):
        assert not np.array_equal(on[:, col], off[:, col])


def test_herraiz_phi_takes_on_or_off(tmp_path, capsys):
    assert _run(["herraiz", "--phi", "maybe", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("config error: ")
    assert os.listdir(tmp_path) == []


def test_herraiz_rejects_early_time(tmp_path):
    assert _run(["herraiz", "--t", "5", "--out", str(tmp_path)]) == 3


def test_optimal_cmd(tmp_path, capsys):
    rc = _run(["optimal", "--g", "recip:4", "--n", "3", "--out", str(tmp_path)])
    assert rc == 0
    run_dir = os.path.join(str(tmp_path), os.listdir(str(tmp_path))[0])
    header, rows = read_csv(os.path.join(run_dir, "plan.csv"))
    assert header == ["n", "t_n", "R_n", "x_n", "weight"]
    assert float(rows[0][1]) == pytest.approx(4.0, abs=1e-6)
    # the L1 chain's line shows the threshold it judged, 99% of the floor,
    # and the margin over the floor itself (2.29e-5), which four digits hid
    (line,) = [ln for ln in capsys.readouterr().out.splitlines() if "L1 lower-bound" in ln]
    shown = re.search(r"component mass (\S+) >= (\S+) \(99% of the floor (\S+), "
                      r"margin (\S+)\)", line)
    mass, judged, floor, margin = map(float, shown.groups())
    assert line.startswith("[PASS]") and floor == 0.1875
    assert judged == pytest.approx(0.99 * floor, abs=1e-7)
    assert margin == pytest.approx(mass - floor, abs=1e-7) and 0.0 < margin < 1e-4


def test_sweep_monotone(tmp_path):
    rc = _run(["sweep", "--param", "theta", "--values", "0,0.5,1",
               "--check", "monotone", "--preset", "explicit-remark",
               "--study", "mass", "--t-max", "2", "--h", "0.0625",
               "--dt", "0.03125", "--snapshots", "1,2", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(os.path.join(str(tmp_path), "sweep-manifest.csv"))
    assert header[-1] == "passed"
    assert [row[-1] for row in rows] == ["true"] * 4
    # each run writes the directory evolve writes
    for run_id in {row[0] for row in rows} - {"sweep"}:
        files = os.listdir(os.path.join(str(tmp_path), run_id))
        assert {"config.csv", "verdicts.csv", "manifest.csv"} <= set(files)


def test_sweep_names_each_theta_in_full(tmp_path):
    # 0.5000001 prints as 0.5 in %g; each theta keeps its own directory
    assert _run(["sweep", "--values", "0.5,0.5000001", "--study", "mass",
                 "--t-max", "2", "--out", str(tmp_path)]) == 0
    run_ids = [row[0] for row in read_csv(os.path.join(tmp_path, "sweep-manifest.csv"))[1]]
    assert run_ids == ["evolve-d3-ball1-th0p5-explicit-remark-mass-T2",
                       "evolve-d3-ball1-th0p5000001-explicit-remark-mass-T2"]
    assert sorted(os.listdir(tmp_path)) == sorted(run_ids + ["sweep-manifest.csv"])


def test_number_text_prints_g_unless_it_drops_digits():
    assert [number_text(v) for v in (0.5, 100.0, 1e-30, 0.5000001, 0.9999999999999999)] == [
        "0.5", "100", "1e-30", "0.5000001", "0.9999999999999999"]


def test_sweep_audit_from_config_file(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("audit = true\n")
    out = tmp_path / "out"
    rc = _run(["sweep", "--values", "0,1", "--config", str(cfg_file),
               "--study", "mass", "--t-max", "2", "--h", "0.0625",
               "--dt", "0.03125", "--snapshots", "1,2", "--out", str(out)])
    assert rc == 0
    run_dirs = sorted(os.listdir(out))
    assert len(run_dirs) == 3  # two runs and sweep-manifest.csv
    for run_id in run_dirs[:2]:
        assert "audit-ledger.csv" in os.listdir(out / run_id)
    audit_lines = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("[AUDIT-OK]")]
    assert [line.split(":")[0] for line in audit_lines] == [
        "[AUDIT-OK] theta=0", "[AUDIT-OK] theta=1"]


def test_kernel_cmd_coarse(tmp_path):
    rc = _run(["kernel", "--y", "0,0,3", "--t", "2", "--width", "0.5",
               "--grid", "96x192", "--out", str(tmp_path)])
    assert rc == 0
    run_dir = os.path.join(str(tmp_path), os.listdir(str(tmp_path))[0])
    header, rows = read_csv(os.path.join(run_dir, "gaps.csv"))
    assert header == ["t", "gap", "bound", "profile_term", "hole_term"]
    assert float(rows[0][1]) <= float(rows[0][2])  # gap <= bound


def test_kernel_smearing_audit(tmp_path, capsys):
    rc = _run(["kernel", "--y", "0,0,3", "--t", "5", "--grid", "96x192",
               "--audit-smearing", "--out", str(tmp_path)])
    assert rc == 0
    assert "[PASS] mollifier smearing audit" in capsys.readouterr().out


def test_kernel_smearing_audit_judges_every_requested_time(tmp_path, capsys):
    # widths 0.5 and 0.25 at y = 3: their gaps move 10 times more, in
    # units of the bound, at t = 1 than at the last time t = 4, and the
    # audit judges and names the larger
    assert _run(["kernel", "--grid", "128x256", "--t", "1,4", "--audit-smearing",
                 "--out", str(tmp_path)]) == 0
    (line,) = [s for s in capsys.readouterr().out.splitlines() if "smearing audit" in s]
    wide, narrow = (kernel_probe(BallHole(1.0), 3.0, w, (1.0, 4.0), n_rho=128, n_z=256)
                    for w in (0.5, 0.25))
    change = {}
    for t in (1.0, 4.0):
        rep = kernel_l1_gap(wide, t)
        change[t] = abs(rep.gap - kernel_l1_gap(narrow, t).gap) / rep.bound
    assert change[1.0] > 5.0 * change[4.0]
    assert line == ("[PASS] mollifier smearing audit: gap change < 10% of bound: "
                    f"gap moved {change[1.0]:.4f} of the bound at t=1")


def test_evolve_audit_flag(tmp_path):
    rc = _run(["evolve", "--study", "balance", "--t-max", "2",
               "--h", "0.0625", "--dt", "0.03125", "--snapshots", "1,2",
               "--audit", "--out", str(tmp_path)])
    assert rc == 0
    run_dir = os.path.join(str(tmp_path), os.listdir(str(tmp_path))[0])
    assert "audit-ledger.csv" in os.listdir(run_dir)
    # the manifest lists every file of the run, the audit rerun's included
    header, rows = read_csv(os.path.join(run_dir, "manifest.csv"))
    assert header == ["artifact", "path"]
    assert sorted(path for _, path in rows) == sorted(
        set(os.listdir(run_dir)) - {"manifest.csv"})
    assert {"audit-rates", "audit-snapshots", "audit-svg"} <= {k for k, _ in rows}


def test_env_var_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("HEATEXT_OUT", str(tmp_path / "env-root"))
    rc = _run(["herraiz", "--t", "50"])
    assert rc == 0
    assert os.path.isdir(str(tmp_path / "env-root"))


# the four commands the benchmark times, on cheap grids
LEAN_ARGVS = (["sweep", "--values", "0,1", "--study", "mass", "--t-max", "2"],
              ["evolve", "--dim", "2", "--hole", "rect:1x1", "--study", "mass", "--t-max", "2"],
              ["kernel", "--y", "0,0,3", "--t", "1,2", "--grid", "48x96"],
              ["profile", "--dim", "2", "--method", "elliptic", "--R", "8,16"])

# runs them one after another in one interpreter; prints, as JSON, the
# scipy modules loaded at the end and, per command, the numpy, scipy and
# heatext modules that its main call loaded first. A module one command
# would load alone is loaded by the first command that needs it, so no
# command loads any when none is listed
LEAN_RUN = """
import json, sys
from heatext.cli import main
out, argvs = sys.argv[1], json.loads(sys.argv[2])
in_main = []
for argv in argvs:
    before = set(sys.modules)
    assert main(argv + ["--out", out]) == 0, argv
    in_main.append(sorted(m for m in set(sys.modules) - before
                          if m.partition(".")[0] in ("numpy", "scipy", "heatext")))
print(json.dumps([sorted(m for m in sys.modules if m.startswith("scipy")), in_main]))
"""


def _fresh_python(script, *args):
    """Run script in a fresh interpreter that imports this heatext; its stdout."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(heatext.__file__)))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture(scope="module")
def lean_run(tmp_path_factory):
    """(output root, the scipy modules loaded, the modules each main loaded)."""
    root = tmp_path_factory.mktemp("lean")
    out = _fresh_python(LEAN_RUN, str(root), json.dumps(LEAN_ARGVS))
    return (root, *json.loads(out.splitlines()[-1]))


def test_cli_runs_load_no_scipy_package_only_its_lapack_and_superlu_extensions(lean_run):
    # a fresh interpreter pays every import a CLI run makes: the sine
    # transforms are numpy's, only the dim-2 ball integral needs i0e, and
    # the LAPACK routines and SuperLU come from their compiled extensions,
    # so no scipy package init runs (scipy, scipy.linalg, scipy.sparse,
    # scipy.sparse.linalg, scipy.special, scipy.fft)
    root, scipy_modules, _ = lean_run
    assert scipy_modules == ["scipy.linalg._flapack", "scipy.sparse.linalg._dsolve._superlu"]
    _check_csv_widths(root)


def test_cli_runs_load_no_library_module_inside_main(lean_run):
    # everything a run needs is loaded by `import heatext.cli`, so a
    # benchmark's setup_s holds the imports and wall_s none (numpy.fft,
    # which numpy loads lazily, included)
    _, _, in_main = lean_run
    assert in_main == [[]] * len(LEAN_ARGVS)


# a fresh interpreter imports numpy, then heatext.cli, wrapping
# dataclasses._process_class first when its argument is "wrap"; prints, as
# JSON, the classes made dataclasses and which of dataclasses, copy and
# csv the heatext import loaded beyond numpy's own imports
IMPORT_CLI = """
import json, sys
import numpy
after_numpy = set(sys.modules)
built = []
if sys.argv[1] == "wrap":
    import dataclasses
    process = dataclasses._process_class
    def recording(cls, *args, **kwargs):
        built.append(cls.__qualname__)
        return process(cls, *args, **kwargs)
    dataclasses._process_class = recording
import heatext.cli
print(json.dumps([built, sorted({"dataclasses", "copy", "csv"} - after_numpy & set(sys.modules))]))
"""


def test_importing_the_cli_builds_no_dataclass_and_loads_no_dataclasses_copy_or_csv():
    # heatext's value types are records, whose methods every class shares,
    # so the import execs no generated code; and a CLI run reads no CSV
    built, _ = json.loads(_fresh_python(IMPORT_CLI, "wrap").splitlines()[-1])
    assert built == []
    _, loaded = json.loads(_fresh_python(IMPORT_CLI, "bare").splitlines()[-1])
    assert loaded == []


# a fresh interpreter: heatext alone loads no scipy package, and a later
# public import of scipy.linalg and scipy.sparse.linalg reuses its modules
PUBLIC_AFTER_FAST = """
import sys
from heatext.solver import fastsolve
print(sorted(m for m in sys.modules if m.startswith("scipy")))
import scipy.linalg.lapack
from scipy.sparse.linalg._dsolve import linsolve
print(all(getattr(fastsolve, name) is getattr(scipy.linalg.lapack, name)
          for name in ("dpttrf", "dpttrs", "dgetrf", "dgetrs", "dgecon")),
      fastsolve._superlu is linsolve._superlu)
"""


def test_public_scipy_imports_reuse_the_extensions_heatext_loaded():
    assert _fresh_python(PUBLIC_AFTER_FAST).splitlines() == [
        "['scipy.linalg._flapack', 'scipy.sparse.linalg._dsolve._superlu']", "True True"]


# the same runs in a fresh interpreter, the extensions' fast load either
# kept or made to fail (scipy's directory not found); prints the scipy
# packages loaded
FALLBACK_RUN = """
import importlib.util, sys
if sys.argv[2] == "fail":
    find_spec = importlib.util.find_spec
    importlib.util.find_spec = lambda name, package=None: (
        None if name == "scipy" else find_spec(name, package))
from heatext.cli import main
for argv in (["profile", "--dim", "2", "--method", "elliptic", "--R", "8,16"],
             ["evolve", "--dim", "2", "--hole", "rect:1x1", "--study", "mass", "--t-max", "2"]):
    assert main(argv + ["--out", sys.argv[1]]) == 0, argv
print(sorted(m for m in ("scipy", "scipy.linalg", "scipy.sparse.linalg") if m in sys.modules))
"""


def _files(root):
    found = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, root)] = fh.read()
    return found


def test_a_failed_extension_load_falls_back_to_scipys_public_imports(tmp_path):
    fast, fail = tmp_path / "fast", tmp_path / "fail"
    assert _fresh_python(FALLBACK_RUN, str(fast), "fast").splitlines()[-1] == "[]"
    assert _fresh_python(FALLBACK_RUN, str(fail), "fail").splitlines()[-1] == (
        "['scipy', 'scipy.linalg', 'scipy.sparse.linalg']")
    written = _files(fast)
    assert sum(name.endswith(".csv") for name in written) >= 8
    assert _files(fail) == written


# ------------------------------------------------------- lattice columns

def _capture(monkeypatch, name):
    """Record what the CLI's `name` returns (the first argument as well, for
    evolve_planar, whose grid is the datum's)."""
    import heatext.cli as cli

    calls = []
    real = getattr(cli, name)

    def recording(*args, **kwargs):
        calls.append((args, real(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(cli, name, recording)
    return calls


def _assert_lattice_columns(path, header, c0, c1, keep):
    """The two coordinate columns after t (if any) of each block of the
    table hold the grid's nodes where keep holds, in row-major order, as
    their CSV cells read back."""
    got_header, rows = read_csv(path)
    assert got_header == header
    table = np.array(rows, dtype=float)
    I, J = np.nonzero(keep)
    want = np.column_stack([as_written(c0[I]), as_written(c1[J])])
    first = 1 if header[0] == "t" else 0
    blocks = table.reshape(-1, I.size, len(header))
    assert len(blocks) >= 1
    for block in blocks:
        assert np.array_equal(block[:, first:first + 2], want)


def test_planar_snapshot_coordinates_are_the_grid_nodes(tmp_path, monkeypatch):
    calls = _capture(monkeypatch, "evolve_planar")
    assert _run(["evolve", "--dim", "2", "--hole", "rect:1x1", "--study", "mass",
                 "--t-max", "4", "--h", "0.5", "--r-out", "16", "--snapshots", "1,4",
                 "--out", str(tmp_path)]) == 0
    ((_, u0, _), _), = calls
    grid = u0.grid
    (run_dir,) = os.listdir(tmp_path)
    c = grid.coords()
    _assert_lattice_columns(os.path.join(tmp_path, run_dir, "snapshots.csv"),
                            ["t", "x", "y", "u"], c, c, ~grid.hole_mask())


def test_kernel_snapshot_coordinates_are_the_grid_nodes(tmp_path, monkeypatch):
    calls = _capture(monkeypatch, "kernel_probe")
    assert _run(["kernel", "--t", "2,3", "--grid", "48x96", "--out", str(tmp_path)]) == 0
    (_, probe), = calls
    grid = probe.snapshots[0].grid
    (run_dir,) = os.listdir(tmp_path)
    _assert_lattice_columns(os.path.join(tmp_path, run_dir, "snapshots.csv"),
                            ["t", "rho", "z", "u"], grid.rho_nodes(), grid.z_nodes(),
                            ~grid.hole_mask())


def test_planar_profile_coordinates_are_the_grid_nodes(tmp_path, monkeypatch):
    calls = _capture(monkeypatch, "profile_elliptic")
    assert _run(["profile", "--dim", "2", "--method", "elliptic", "--hole", "rect:1x0.5",
                 "--R", "8,16", "--out", str(tmp_path)]) == 0
    (_, table), = calls
    (run_dir,) = os.listdir(tmp_path)
    for R, f in table.planar_fields.items():
        c = f.grid.coords()
        _assert_lattice_columns(os.path.join(tmp_path, run_dir, f"profile_R{R:g}.csv"),
                                ["x", "y", "phi"], c, c, ~f.grid.hole_mask())

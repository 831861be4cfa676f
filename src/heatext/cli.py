"""Command line: batch runs, CSV/SVG emission, and pass/fail verdicts.

Subcommands: profile, evolve, herraiz, optimal, kernel, sweep. Each
computes every run, check and verdict and returns [(out_dir, stdout lines,
write)] without touching the disk; `main` alone makes the directories,
writes, prints and exits 0 (all verdicts pass) or 2 (a verdict failed). A
bad input exits 3 and a numerical failure 4, with no run directory written
in either case. A sweep runs evolve's one run path once per theta, so each
of its run directories is the one evolve writes for that theta. evolve and
sweep judge the numbers their CSVs hold, so verdicts.csv re-runs from the
artifacts alone. Output root: --out, else $HEATEXT_OUT, else ./heatext-out.
"""

import argparse
import math
import os
import re
import sys

import numpy as np

from . import asymptotics as asym
from . import constructions as cons
from .csvio import Indexed, as_written, write_csv, write_table
from .domain import ThetaBoundary
from .errors import (
    ConfigError,
    GeometryError,
    NumericalError,
    PreconditionError,
    UnsupportedFeatureError,
)
from .presets import make_planar_datum, make_radial_datum
from .profiles import (
    asymptotic_mass,
    profile_closed_form,
    profile_decay_check,
    profile_elliptic,
)
from .records import fields, replace
from .runconfig import (
    STUDIES,
    RunConfig,
    hole_to_spec,
    number_text,
    parse_config_file,
    parse_hole,
    runconfig_from_mapping,
)
from .solver import (
    Field,
    MassLedger,
    PlanarGrid,
    RadialGrid,
    StepperConfig,
    evolve_ball,
    evolve_planar,
    evolve_radial,
    kernel_probe,
    mass_balance_residual,
)
from .svgplot import line_plot_svg


def _out_root(args) -> str:
    return args.out or os.environ.get("HEATEXT_OUT") or "heatext-out"


def _line(name: str, passed: bool, detail: str) -> str:
    return f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}"


def _floats(text: str, flag: str) -> tuple:
    """The numbers of a comma-separated list flag."""
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"{flag} takes comma-separated numbers, got '{text}'") from None


def _lattice_columns(c0, c1, keep) -> list:
    """The coordinate columns of a 2d lattice's nodes where keep holds, in
    row-major order: c0[i] and c1[j] at node (i, j), the meshgrid's values,
    as csvio.Indexed columns that write_table formats once per table."""
    return [Indexed(c, index) for c, index in zip((c0, c1), np.nonzero(keep))]


# ----------------------------------------------------------------- evolve

def _run(cfg: RunConfig):
    """One evolution, radial (dim 3) or planar (dim 2), judged; returns
    (snapshots, study verdicts, write), write(prefix) emitting its CSVs and
    returning {artifact: path}."""
    theta = ThetaBoundary(cfg.theta)
    stepper = StepperConfig(dt=cfg.dt, snapshot_times=cfg.snapshot_times)
    if cfg.dim == 3:
        a = cfg.hole.radius
        n_r = int(math.ceil((cfg.r_out - a) / cfg.h - 1e-9))
        grid = RadialGrid(a=a, r_out=a + n_r * cfg.h, n_r=n_r, dim=cfg.dim)
        u0 = make_radial_datum(cfg.preset, grid, theta)
        snaps, ledger = evolve_radial(theta, u0, stepper)
        columns, coords, keep = ["t", "r", "u"], [grid.nodes()], slice(None)
    else:
        n = int(math.ceil(2.0 * cfg.r_out / cfg.h - 1e-9))
        n += n % 2
        grid = PlanarGrid(half_width=n * cfg.h / 2.0, n=n, hole=cfg.hole)
        u0 = make_planar_datum(cfg.preset, grid)
        snaps, ledger = evolve_planar(theta, u0, stepper)
        keep, c = ~grid.hole_mask(), grid.coords()
        columns, coords = ["t", "x", "y", "u"], _lattice_columns(c, c, keep)
    profile = profile_closed_form(cfg.dim, cfg.hole, theta)
    m = asymptotic_mass(u0, profile)
    rates = asym.RateSeries.from_snapshots(snaps, m, profile, ledger)
    # judged on the numbers rates.csv and ledger.csv hold, so that
    # verdicts.csv recomputes from the artifacts alone
    verdicts = _study_verdicts(cfg.study, rates,
                               MassLedger(*map(as_written, ledger.as_arrays())), m)

    def write(prefix):
        files = {"snapshots": write_table(prefix + "snapshots.csv", columns,
                                          ((s.time, *coords, s.values[keep]) for s in snaps))}
        files["ledger"] = write_table(prefix + "ledger.csv", ["t", "mass", "flux"],
                                      [ledger.as_arrays()])
        files["rates"] = write_csv(
            prefix + "rates.csv",
            ["t", "p", "raw_norm", "scaled_norm", "mass", "mass_gap"], rates.rows())
        if cfg.dim == 3:
            series = [(rates.times, rates.scaled[p],
                       f"p={'inf' if math.isinf(p) else '%g' % p}")
                      for p in (1.0, 2.0, math.inf)]
            files["svg"] = line_plot_svg(prefix + "scaled_errors.svg", series,
                                         xlabel="t", ylabel="scaled error norm",
                                         title="scaled error norms", logx=True, logy=True)
        return files

    return snaps, verdicts, write


def _study_verdicts(study: str, rates: asym.RateSeries, ledger: MassLedger,
                    m: float) -> list:
    """Judge a study on rates as rates.csv holds them and on a ledger as
    ledger.csv holds it; returns [(name, passed, detail)]."""
    out = []
    if study in ("l1", "linf"):
        # the last snapshot against the last one a factor 10 earlier (which
        # RunConfig.resolved makes sure exists): the raw L1 error or the
        # scaled sup-norm error
        v, name = {"l1": (rates.raw[1.0], "L1 error halves per decade"),
                   "linf": (rates.scaled[math.inf],
                            "sup-norm scaled error halves per decade")}[study]
        t, v = as_written(rates.times), as_written(v)
        lo = np.flatnonzero(t <= t[-1] / 10.0 + 1e-9)[-1]
        out.append((name, bool(v[-1] <= 0.5 * v[lo]),
                    f"t={t[-1]:g}: {v[-1]:.4e} vs 0.5 x {v[lo]:.4e} at t={t[lo]:g}"))
    elif study == "lp":
        s1, s2, s_inf = (as_written(rates.scaled[p]) for p in asym.P_NORMS)
        bound = np.sqrt(s1 * s_inf) + 1e-6
        out.append(("interpolation: scaled p=2 within sqrt(p=1 x p=inf)", bool(np.all(s2 <= bound)),
                    f"max excess {np.max(s2 - bound, initial=-math.inf):.3e}"))
    elif study == "mass":
        # tolerance at the conservation scale: under Neumann the gap is
        # pure discretisation drift, which stays below 1e-4 of the mass
        rep = asym.mass_convergence(ledger, m, tol=1e-4)
        out.append(("mass gap |M(t) - m| nonincreasing", rep.nonincreasing,
                    f"max increase {rep.max_increase:.3e}, final gap {rep.final_gap:.4e}"))
    elif study == "balance":
        res = mass_balance_residual(ledger)
        out.append(("mass balance residual <= 2e-3", res <= 2e-3,
                    f"residual {res:.4e}"))
    return out


def _evolve(cfg: RunConfig, root: str, label: str = ""):
    """cfg's run and, if cfg.audit, its rerun at 2x r_out, judged; returns
    (snapshots, study verdicts, (root/<run id>, lines, write)). The lines
    name each verdict after label; write(out_dir) emits config.csv, the
    run's CSVs, their audit- copies, verdicts.csv, and manifest.csv listing
    the others."""
    snaps, verdicts, run_write = _run(cfg)
    audits = [_run(replace(cfg, r_out=2.0 * cfg.r_out).resolved())] if cfg.audit else []
    lines = [_line(label + name, ok, detail) for name, ok, detail in verdicts]
    verdict_rows = list(verdicts)
    for _, audit_verdicts, _ in audits:
        for (name, ok, _), (_, ok2, detail2) in zip(verdicts, audit_verdicts):
            flipped = ok != ok2
            lines.append(f"[TRUNCATION-SENSITIVE] {label}{name}: verdict flipped at "
                         f"2x r_out ({detail2})" if flipped else
                         f"[AUDIT-OK] {label}{name}: unchanged at 2x r_out")
            verdict_rows.append((f"audit: {name}", not flipped, detail2))

    def write(out_dir):
        prefix = os.path.join(out_dir, "")
        config = write_csv(prefix + "config.csv", ["key", "value"], cfg.echo_rows())
        files = run_write(prefix)
        for _, _, audit_write in audits:
            files.update(("audit-" + k, v) for k, v in audit_write(prefix + "audit-").items())
        files["config"] = config
        files["verdicts"] = write_csv(prefix + "verdicts.csv",
                                      ["verdict", "passed", "detail"], verdict_rows)
        write_csv(prefix + "manifest.csv", ["artifact", "path"],
                  sorted((k, os.path.basename(v)) for k, v in files.items()))

    return snaps, verdicts, (os.path.join(root, cfg.run_id()), lines, write)


def _run_config(args) -> RunConfig:
    """The --config file's RunConfig with the flags given on top."""
    mapping = parse_config_file(args.config) if args.config else {}
    return runconfig_from_mapping(
        mapping, {f.name: getattr(args, f.name, None) for f in fields(RunConfig)})


def cmd_evolve(args) -> list:
    return [_evolve(_run_config(args).resolved(), _out_root(args))[2]]


# ----------------------------------------------------------------- profile

def cmd_profile(args) -> list:
    hole = parse_hole(args.hole)
    theta = ThetaBoundary(args.theta)
    radii = _floats(args.radii, "--R")
    if args.compare and (args.method != "both" or args.dim == 2):
        raise ConfigError("--compare needs --method both and dim >= 3")
    if not all(math.isfinite(2.0 * R) for R in radii):
        # each radius's disc, of diameter 2 R, must be finite
        raise ConfigError(f"--R takes finite radii, got '{args.radii}'")
    lines = []
    closed = table = None
    if args.method in ("closed-form", "both"):
        closed = profile_closed_form(args.dim, hole, theta)
        resid = abs(closed.boundary_residual())
        lines.append(_line("closed-form boundary residual <= 1e-10",
                           resid <= 1e-10, f"residual {resid:.3e}"))
        if args.dim >= 3 and not theta.is_neumann:
            for order in (0, 1):
                rep = profile_decay_check(closed, order)
                lines.append(_line(f"decay exponent (order {order}) <= {rep.target:g}",
                                   rep.passed, f"fitted {rep.exponent:.4f}"))
    if args.method in ("elliptic", "both"):
        table = profile_elliptic(args.dim, hole, theta, radii)
        viol = table.elliptic_monotone_violations(tol=1e-12)
        lines.append(_line("phi_R pointwise nonincreasing in R", viol == 0,
                           f"{viol} violations"))
        if args.compare:
            diff = float(np.max(np.abs(
                closed.evaluate(table.r) - table.values)))
            lines.append(_line("closed-form vs elliptic agreement <= 1e-4",
                               diff <= 1e-4, f"sup difference {diff:.3e}"))

    def write(out_dir):
        if closed is not None:
            write_csv(os.path.join(out_dir, "profile_closed.csv"), ["r", "phi"],
                      zip(closed.r, closed.values))
        if table is not None and args.dim == 3:
            write_csv(os.path.join(out_dir, "profile_elliptic.csv"), ["r", "phi"],
                      zip(table.r, table.values))
            for R in radii:
                write_csv(os.path.join(out_dir, f"profile_R{number_text(R)}.csv"), ["r", "phi"],
                          zip(table.r, table.per_radius[R]))
        elif table is not None:
            for R, f in table.planar_fields.items():
                keep, c = ~f.grid.hole_mask(), f.grid.coords()
                write_table(os.path.join(out_dir, f"profile_R{number_text(R)}.csv"),
                            ["x", "y", "phi"], [(*_lattice_columns(c, c, keep), f.values[keep])])
        if args.svg and closed is not None:
            line_plot_svg(os.path.join(out_dir, "profile.svg"),
                          [(closed.r, closed.values, "phi")],
                          xlabel="r", ylabel="phi", title="asymptotic profile")

    name = (f"profile-d{args.dim}-{hole_to_spec(hole).replace(':', '')}-"
            f"th{number_text(args.theta).replace('.', 'p')}")
    return [(os.path.join(_out_root(args), name), lines, write)]


# ----------------------------------------------------------------- herraiz

def cmd_herraiz(args) -> list:
    comp = asym.herraiz_compare(args.t, use_profile=args.phi == "on")
    lines = [f"sup-relative gaps: retained-mass {comp.gap_theorem:.4f}, "
             f"initial-mass {comp.gap_herraiz:.4f}; peak ratio {comp.peak_ratio:.4f}",
             _line("retained-mass prediction beats initial-mass prediction",
                   comp.gap_theorem < comp.gap_herraiz,
                   f"{comp.gap_theorem:.4f} < {comp.gap_herraiz:.4f}")]

    def write(out_dir):
        write_csv(os.path.join(out_dir, "herraiz.csv"),
                  ["r", "exact", "theorem_pred", "herraiz_pred"],
                  zip(comp.r, comp.exact, comp.theorem_pred, comp.herraiz_pred))
        line_plot_svg(os.path.join(out_dir, "herraiz.svg"),
                      [(comp.r, comp.exact, "exact"),
                       (comp.r, comp.theorem_pred, "retained-mass prediction"),
                       (comp.r, comp.herraiz_pred, "initial-mass prediction")],
                      xlabel="r", ylabel="u", title=f"late-time comparison, t={args.t:g}")

    return [(os.path.join(_out_root(args), f"herraiz-t{number_text(args.t)}"), lines, write)]


# ----------------------------------------------------------------- optimal

def _unit_ball_eigen_run():
    """The eigenfunction datum on the unit ball, 256 cells, dt = 1/2048, to t = 0.35."""
    grid = RadialGrid(a=0.0, r_out=1.0, n_r=256, dim=3)
    vals = cons.ball_eigenfunction(grid.nodes())
    cfg = StepperConfig(dt=1.0 / 2048.0, snapshot_times=(0.35,))
    snaps, ledger = evolve_ball(Field(grid, vals), cfg)
    return snaps, ledger


def cmd_optimal(args) -> list:
    g, label = cons.parse_g_spec(args.g)
    plan = cons.optimal_datum_plan(g, args.n, g_label=label)
    lines = []
    for row in plan.rows:
        vals = cons.plan_condition_values(plan, row)
        lines.append(_line(f"plan row n={row.n} conditions", all(v >= 0 for v in vals.values()),
                           ", ".join(f"{k}={v:.3e}" for k, v in vals.items())))
    snaps, ledger = _unit_ball_eigen_run()
    t_l, m_l, _ = ledger.as_arrays()
    sel = t_l > 0
    slope = float(np.polyfit(t_l[sel], np.log(m_l[sel]), 1)[0])
    lam = cons.BALL_EIGENVALUE
    lines.append(_line("unit-ball eigen-decay exponent within 1% of -pi^2",
                       abs(slope + lam) <= 0.01 * lam,
                       f"fitted {slope:.5f} vs {-lam:.5f}"))
    rep = asym.optimality_check_l1(plan, min(2, args.n), t_l, m_l)
    lines.append(_line(f"L1 lower-bound chain for n={rep.n}", rep.passed,
                       f"{rep.component_mass_text()}, gaussian term "
                       f"{rep.gaussian_term_max:.3e} <= {rep.gaussian_term_cap:.3e}"))

    def write(out_dir):
        write_csv(os.path.join(out_dir, "plan.csv"),
                  ["n", "t_n", "R_n", "x_n", "weight"],
                  [(row.n, row.t_n, row.radius, row.center_dist, row.weight)
                   for row in plan.rows])

    return [(os.path.join(_out_root(args), f"optimal-{label.replace(':', '')}-n{args.n}"),
             lines, write)]


# ----------------------------------------------------------------- kernel

def cmd_kernel(args) -> list:
    point = _floats(args.y, "--y")
    if len(point) not in (1, 3) or any(point[:-1]):
        raise ConfigError(f"--y takes z or 0,0,z (the source sits on the z-axis), "
                          f"got '{args.y}'")
    y = point[-1]
    times = _floats(args.t, "--t")
    shape = re.fullmatch(r"([1-9][0-9]*)x([1-9][0-9]*)", args.grid)
    if shape is None:
        raise ConfigError(f"--grid takes NxM with positive integers, got '{args.grid}'")
    n_rho, n_z = (int(n) for n in shape.groups())
    hole = parse_hole(args.hole)  # the probe takes only a ball hole
    probe = kernel_probe(hole, y, args.width, times, n_rho=n_rho, n_z=n_z)
    lines, rows = [], []
    for t in times:
        rep = asym.kernel_l1_gap(probe, t)
        rows.append((t, rep.gap, rep.bound, rep.profile_term, rep.hole_term))
        lines.append(_line(f"kernel L1 gap <= bound at t={t:g}", rep.passed,
                           f"gap {rep.gap:.4f} vs bound {rep.bound:.4f}"))
    if args.audit_smearing:
        # halving the width must not move the gap by more than 10% of the
        # bound, the decision scale of the gap <= bound verdict, at any
        # requested time; the largest change is judged and named
        half_probe = kernel_probe(hole, y, 0.5 * args.width, times, n_rho=n_rho, n_z=n_z)
        change, t_worst = max(
            (abs(gap - asym.kernel_l1_gap(half_probe, t).gap) / bound, t)
            for t, gap, bound, _, _ in rows)
        lines.append(_line("mollifier smearing audit: gap change < 10% of bound",
                           change < 0.10,
                           f"gap moved {change:.4f} of the bound at t={t_worst:g}"))

    def write(out_dir):
        grid = probe.snapshots[0].grid
        keep = ~grid.hole_mask()
        rho, z = _lattice_columns(grid.rho_nodes(), grid.z_nodes(), keep)
        write_csv(os.path.join(out_dir, "gaps.csv"),
                  ["t", "gap", "bound", "profile_term", "hole_term"], rows)
        write_table(os.path.join(out_dir, "snapshots.csv"), ["t", "rho", "z", "u"],
                    ((t, rho, z, probe.snapshot_at(t).values[keep]) for t in times))

    return [(os.path.join(_out_root(args), f"kernel-y{number_text(y)}"), lines, write)]


# ----------------------------------------------------------------- sweep

def cmd_sweep(args) -> list:
    values = list(_floats(args.values, "--values"))
    if any(v1 >= v2 for v1, v2 in zip(values, values[1:])):
        raise ConfigError("sweep values must be strictly increasing")
    base = _run_config(args)
    root = _out_root(args)
    cfgs = [replace(base, theta=v).resolved() for v in values]
    runs = [_evolve(cfg, root, f"theta={number_text(cfg.theta)}: ") for cfg in cfgs]
    manifest = [(cfg.run_id(), "theta", cfg.theta, name, passed)
                for cfg, (_, verdicts, _) in zip(cfgs, runs) for name, passed, _ in verdicts]
    lines = []
    if args.check == "monotone":
        worst = 0.0
        for (snaps1, _, _), (snaps2, _, _) in zip(runs, runs[1:]):
            for s1, s2 in zip(snaps1, snaps2):
                if s1.time <= 0:
                    continue
                worst = max(worst, float(np.max(s1.values - s2.values)))
        ok = worst <= 1e-8
        lines.append(_line("pointwise ordering in theta", ok,
                           f"max violation {worst:.3e} (tolerance 1e-8)"))
        manifest.append(("sweep", "check", "monotone", "ordering", ok))

    def write(out_dir):
        write_csv(os.path.join(out_dir, "sweep-manifest.csv"),
                  ["run_id", "param", "value", "verdict", "passed"], manifest)

    return [run for _, _, run in runs] + [(root, lines, write)]


# ----------------------------------------------------------------- parser

class _Parser(argparse.ArgumentParser):
    """Raises a malformed argv as a ConfigError, which exits 3 like any
    other bad input, in place of argparse's exit 2 (a failed verdict)."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    # the flags evolve and sweep share; each dest but config and out is a
    # RunConfig field, left a string for runconfig_from_mapping to parse as
    # it parses a config file's values
    run_flags = argparse.ArgumentParser(add_help=False)
    run_flags.add_argument("--config")
    run_flags.add_argument("--dim")
    run_flags.add_argument("--hole")
    run_flags.add_argument("--preset")
    run_flags.add_argument("--study", choices=STUDIES)
    run_flags.add_argument("--t-max", dest="t_max")
    run_flags.add_argument("--h")
    run_flags.add_argument("--dt")
    run_flags.add_argument("--snapshots", dest="snapshot_times")
    run_flags.add_argument("--out")

    ap = _Parser(
        prog="heatext",
        description="Heat-equation asymptotics on exterior domains: "
                    "profiles, evolutions, kernel checks, counterexample plans.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="asymptotic profile tables")
    p.add_argument("--dim", type=int, choices=(2, 3), default=3)
    p.add_argument("--hole", default="ball:1")
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--method", choices=("closed-form", "elliptic", "both"),
                   default="closed-form")
    p.add_argument("--R", dest="radii", default="8,16,32")
    p.add_argument("--compare", action="store_true")
    p.add_argument("--svg", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("evolve", parents=[run_flags],
                       help="evolve a datum and judge a study")
    p.add_argument("--theta")
    p.add_argument("--r-out", dest="r_out")
    # absent, --audit is None, so that a config file's audit = true stands
    p.add_argument("--audit", action="store_true", default=None)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("herraiz", help="late-time comparison of predictions")
    p.add_argument("--t", type=float, default=100.0)
    p.add_argument("--phi", choices=("on", "off"), default="on",
                   help="off drops the profile factor from both predictions")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_herraiz)

    p = sub.add_parser("optimal", help="slow-decay counterexample plan")
    p.add_argument("--g", default="recip:4")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_optimal)

    p = sub.add_parser("kernel", help="kernel probe and L1 gap vs bound")
    p.add_argument("--y", default="0,0,3")
    p.add_argument("--t", default="5,10")
    p.add_argument("--hole", default="ball:1")
    p.add_argument("--width", type=float, default=0.5)
    p.add_argument("--grid", default="256x512")
    p.add_argument("--audit-smearing", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("sweep", parents=[run_flags], help="parameter sweep")
    p.add_argument("--param", choices=("theta",), default="theta")
    p.add_argument("--values", default="0,0.5,1")
    p.add_argument("--check", choices=("monotone", "none"), default="none")
    p.set_defaults(func=cmd_sweep)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        runs = args.func(args)
    except (ConfigError, GeometryError, PreconditionError, UnsupportedFeatureError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    # every run is computed and judged: only now is a file written
    failed = False
    for out_dir, lines, write in runs:
        os.makedirs(out_dir, exist_ok=True)
        write(out_dir)
        for line in lines:
            print(line)
            failed |= line.startswith(("[FAIL]", "[TRUNCATION-SENSITIVE]"))
        print(f"artifacts under {out_dir}")
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads: CLI arguments per seed and output checks.

Each workload is one heatext CLI invocation, sized so that one invocation
takes a few seconds on a 2-core machine and several fit in one run. The
seed picks one of VARIANTS input variants. A variant moves only inputs
that leave the problem size and step count unchanged (datum centre and
width, the middle theta of the sweep, the Robin theta of the profile), so
the work per invocation is the same for every seed. Every variant has its
headline numbers recorded in reference.json on the seed commit.
"""

import csv
import glob
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List

VARIANTS = 16

# tolerance per headline quantity: (kind, value), taken from the
# acceptance criteria the quantity belongs to
TOLERANCES = {
    "M": ("rel", 2e-3),      # mass law / balance tolerance (C02)
    "gap": ("abs", 0.05),    # kernel gap tolerance (C11, kernel_l1_gap)
    "bound": ("rel", 1e-9),  # closed-form bound, no discretisation
    "phi": ("abs", 1e-4),    # elliptic profile agreement (C10)
}


def _rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def _masses_at(ledger_csv, times):
    _, rows = _rows(ledger_csv)
    out = {}
    for t_s, m_s, _ in rows:
        t = float(t_s)
        for want in times:
            if abs(t - want) <= 1e-9 * max(1.0, want):
                out[want] = float(m_s)
    missing = [t for t in times if t not in out]
    if missing:
        raise ValueError(f"{ledger_csv}: no ledger row at t = {missing}")
    return out


def _run_dirs(out_dir):
    return sorted(glob.glob(os.path.join(out_dir, "evolve-*")))


# ------------------------------------------------------------ radial-sweep

SWEEP_T_MAX = 30.0
SWEEP_TIMES = (0.0, 1.0, 10.0, SWEEP_T_MAX)


def _sweep_theta(variant):
    return round(0.2 + 0.04 * variant, 2)


def _sweep_argv(variant):
    return ["sweep", "--param", "theta", "--values", f"0,{_sweep_theta(variant):g},1",
            "--check", "monotone", "--study", "mass", "--t-max", f"{SWEEP_T_MAX:g}"]


def _sweep_headline(out_dir):
    out = {}
    manifest = _rows(os.path.join(out_dir, "sweep-manifest.csv"))[1]
    thetas = {run_id: float(value) for run_id, param, value, *_ in manifest
              if param == "theta"}
    if len(thetas) != 3:
        raise ValueError(f"sweep manifest lists {len(thetas)} theta runs, expected 3")
    for run_id, theta in thetas.items():
        ledger = os.path.join(out_dir, run_id, "ledger.csv")
        for t, m in _masses_at(ledger, SWEEP_TIMES).items():
            out[f"M@theta={theta:g},t={t:g}"] = m
    return out


# ------------------------------------------------------------ planar-hole

PLANAR_T_MAX = 25.0
PLANAR_TIMES = (0.0, 1.0, 10.0, PLANAR_T_MAX)


def _planar_bump(variant):
    rng = random.Random(1000 + variant)
    return (round(rng.uniform(2.5, 3.5), 3), round(rng.uniform(-0.5, 0.5), 3),
            round(rng.uniform(1.25, 1.75), 3))


def _planar_argv(variant):
    cx, cy, w = _planar_bump(variant)
    return ["evolve", "--dim", "2", "--hole", "rect:1x1",
            "--preset", f"gaussian-bump:{cx:g},{cy:g},{w:g}",
            "--study", "balance", "--t-max", f"{PLANAR_T_MAX:g}"]


def _planar_headline(out_dir):
    (run_dir,) = _run_dirs(out_dir)
    masses = _masses_at(os.path.join(run_dir, "ledger.csv"), PLANAR_TIMES)
    return {f"M@t={t:g}": m for t, m in masses.items()}


# ------------------------------------------------------------ kernel-probe

def _kernel_y(variant):
    # the warm-up and main step counts depend on the mollifier width and
    # the times only, so moving the source keeps the solve count fixed
    return round(2.5 + variant / (VARIANTS - 1), 3)


def _kernel_argv(variant):
    return ["kernel", "--y", f"0,0,{_kernel_y(variant):g}", "--t", "5,10",
            "--grid", "96x192"]


def _kernel_headline(out_dir):
    (gaps_csv,) = glob.glob(os.path.join(out_dir, "kernel-*", "gaps.csv"))
    out = {}
    for t_s, gap_s, bound_s, *_ in _rows(gaps_csv)[1]:
        t = float(t_s)
        out[f"gap@t={t:g}"] = float(gap_s)
        out[f"bound@t={t:g}"] = float(bound_s)
    return out


# ------------------------------------------------------------ profile-elliptic

PROFILE_RADII = (8, 16, 32, 40)
PROFILE_SAMPLES = ((2.0, 0.0), (4.0, 0.0), (6.0, 0.0), (3.0, 3.0))


def _profile_theta(variant):
    return round(0.05 * variant, 2)


def _profile_argv(variant):
    return ["profile", "--dim", "2", "--hole", "ball:1",
            "--theta", f"{_profile_theta(variant):g}", "--method", "elliptic",
            "--R", ",".join(str(R) for R in PROFILE_RADII)]


def _profile_headline(out_dir):
    (run_dir,) = glob.glob(os.path.join(out_dir, "profile-*"))
    out = {}
    for R in PROFILE_RADII:
        found = {}
        for x_s, y_s, phi_s in _rows(os.path.join(run_dir, f"profile_R{R}.csv"))[1]:
            point = (round(float(x_s), 9), round(float(y_s), 9))
            if point in PROFILE_SAMPLES:
                found[point] = float(phi_s)
        for x, y in PROFILE_SAMPLES:
            out[f"phi@R={R},x={x:g},y={y:g}"] = found[(x, y)]
    return out


# ------------------------------------------------------------ table

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: Callable[[int], List[str]]
    verdicts: int                      # PASS lines a correct run prints
    headline: Callable[[str], Dict[str, float]]


WORKLOADS = {w.name: w for w in (
    Workload("radial-sweep",
             "per-step radial loop (solve_banded, matvec, ledger) on three theta runs, "
             "Robin/Neumann rows and the sweep thread pool; no sparse LU",
             _sweep_argv, 4, _sweep_headline),
    Workload("planar-hole",
             "masked 5-point planar grid around a square hole: one splu, a SuperLU solve "
             "per step and large CSV emission; no radial code",
             _planar_argv, 1, _planar_headline),
    Workload("kernel-probe",
             "axisymmetric kernel probe: two factorisations, fixed warm-up plus main-phase "
             "solves, kernel L1 gaps against the bound",
             _kernel_argv, 2, _kernel_headline),
    Workload("profile-elliptic",
             "planar elliptic profiles at four radii: assembly and one-shot spsolve each, "
             "no time stepping",
             _profile_argv, 1, _profile_headline),
)}


def variant_of(seed):
    return seed % VARIANTS


def compare(headline, reference):
    """Mismatches between a run's headline numbers and the reference."""
    problems = []
    if set(headline) != set(reference):
        problems.append(f"headline keys {sorted(headline)} != reference {sorted(reference)}")
    for key in sorted(set(headline) & set(reference)):
        kind, tol = TOLERANCES[key.split("@")[0]]
        got, want = headline[key], reference[key]
        allowed = tol * abs(want) if kind == "rel" else tol
        if not abs(got - want) <= allowed:
            problems.append(f"{key}: {got!r} vs reference {want!r} ({kind} tol {tol:g})")
    return problems

"""Run configuration: the RunConfig record, flat key = value config files, validation.

Config files are diff-able plain text: optional [section] headers, one
key = value per line, '#' comments, each value read exactly. Command-line
flags override file values. `RunConfig.resolved` fills the defaults and
checks what the library's checks, met before a CLI run's first file, leave out.
"""

import math
from typing import Optional, Tuple

from .domain import (
    BallHole,
    HoleSpec,
    RectHole,
    ThetaBoundary,
    check_exterior,
    required_far_radius,
)
from .errors import ConfigError, GeometryError
from .presets import parse_preset
from .records import field, fields, record, replace

STUDIES = ("l1", "linf", "lp", "mass", "balance")


def parse_hole(spec: str) -> HoleSpec:
    """'ball:RADIUS' or 'rect:WXxWY' (half-widths)."""
    kind, _, arg = spec.partition(":")
    try:
        if kind == "ball":
            return BallHole(float(arg))
        if kind == "rect":
            wx, _, wy = arg.partition("x")
            return RectHole(float(wx), float(wy or wx))
    except (ValueError, GeometryError) as exc:
        raise ConfigError(f"bad hole spec '{spec}': {exc}") from exc
    raise ConfigError(f"unknown hole kind '{kind}' (expected ball: or rect:)")


def number_text(v: float) -> str:
    """v in %g when that reads back as v, else in repr, which always does."""
    text = "%g" % v
    return text if float(text) == v else repr(v)


def hole_to_spec(hole: HoleSpec) -> str:
    if isinstance(hole, BallHole):
        return f"ball:{number_text(hole.radius)}"
    return f"rect:{number_text(hole.half_width_x)}x{number_text(hole.half_width_y)}"


@record(frozen=True)
class RunConfig:
    dim: int = 3
    hole: HoleSpec = field(default_factory=lambda: BallHole(1.0))
    theta: float = 0.0
    preset: Optional[str] = None       # initial datum (defaults per dim)
    study: str = "linf"
    t_max: float = 100.0
    h: Optional[float] = None          # grid spacing (defaults per dim)
    dt: Optional[float] = None         # time step (defaults to h/2)
    r_out: Optional[float] = None      # defaults to the sizing rule
    snapshot_times: Optional[Tuple[float, ...]] = None
    audit: bool = False                # rerun at 2 r_out and compare verdicts

    def resolved(self) -> "RunConfig":
        """Fill the defaults and check theta, the domain and the rules only the CLI has."""
        if self.study not in STUDIES:
            raise ConfigError(f"study must be one of {STUDIES}, got '{self.study}'")
        if not 0.0 < self.t_max < math.inf:
            raise ConfigError(f"t_max must be positive and finite, got {self.t_max}")
        h = self.h if self.h is not None else (1.0 / 64.0 if self.dim == 3 else 0.5)
        if not 0.0 < h < math.inf:
            raise ConfigError(f"h must be positive and finite, got {h}")
        preset = self.preset if self.preset is not None else (
            "explicit-remark" if self.dim == 3 else "gaussian-bump:3,0,1.5")
        dt = self.dt if self.dt is not None else h / 2.0
        try:
            ThetaBoundary(self.theta)
            r_out = self.r_out if self.r_out is not None else required_far_radius(
                self.hole, self.t_max)
            check_exterior(self.dim, self.hole, r_out)
        except GeometryError as exc:
            raise ConfigError(str(exc)) from exc
        if not math.isfinite(2.0 * r_out / h):
            raise ConfigError(f"h = {h!r} is too small for r_out = {r_out:g}: "
                              f"the grid's node count overflows")
        name, params = parse_preset(preset, self.dim)
        if name == "indicator-shell" and not params[1] < r_out:
            # each grid reaches r_out, so a shell inside r_out ends inside it
            raise ConfigError(f"indicator-shell must end inside the grid: r2 < r_out = {r_out:g}")
        snaps = (self.snapshot_times if self.snapshot_times is not None
                 else _default_snapshots(self.study, self.t_max))
        if not 0.0 < dt <= h:
            raise ConfigError(f"dt = {dt} must lie in (0, h], the accuracy guard h = {h}")
        if not snaps:
            raise ConfigError("no snapshot times given")
        if list(snaps) != sorted(set(snaps)) or not all(
                0.0 <= t <= self.t_max + 1e-12 for t in snaps):
            raise ConfigError("snapshot times must strictly increase within [0, t_max]")
        # the l1 and linf verdicts compare the last snapshot with the last
        # one a factor 10 earlier
        if self.study in ("l1", "linf") and not any(
                0 < t <= max(snaps) / 10.0 + 1e-9 for t in snaps):
            raise ConfigError("study needs snapshot times spanning a factor-10 window")
        return replace(self, preset=preset, h=h, dt=dt, r_out=r_out, snapshot_times=tuple(snaps))

    def run_id(self) -> str:
        th = number_text(self.theta).replace(".", "p")
        preset = self.preset.replace(":", "-").replace(",", "_").replace(";", "_")
        return (f"evolve-d{self.dim}-{hole_to_spec(self.hole).replace(':', '')}"
                f"-th{th}-{preset}-{self.study}-T{number_text(self.t_max)}")

    def echo_rows(self):
        out = []
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "hole":
                v = hole_to_spec(v)
            elif f.name == "snapshot_times" and v is not None:
                v = ";".join(number_text(t) for t in v)
            out.append((f.name, str(v)))
        return out


def _default_snapshots(study: str, t_max: float) -> Tuple[float, ...]:
    base = {
        "l1": (10.0, 20.0, 50.0, 100.0, 200.0),
        "linf": (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0),
        "lp": (10.0, 20.0, 50.0, 100.0),
        "mass": (1.0, 10.0, 50.0, 100.0, 200.0),
        "balance": (1.0, 10.0, 100.0),
    }[study]
    times = tuple(t for t in base if t <= t_max)
    if not times or times[-1] < t_max:
        times = times + (t_max,)
    return times


def parse_config_file(path: str) -> dict:
    out = {}
    try:
        fh = open(path, "r")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    with fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line or (line.startswith("[") and line.endswith("]")):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got '{line}'")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _yes_no(text: str) -> bool:
    if text.lower() not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ConfigError("expected 1/true/yes/on or 0/false/no/off")
    return text.lower() in ("1", "true", "yes", "on")


_PARSERS = {
    "dim": int,
    "hole": parse_hole,
    "theta": float,
    "preset": str,
    "study": str,
    "t_max": float,
    "h": float,
    "dt": float,
    "r_out": float,
    "snapshot_times": lambda s: tuple(float(x) for x in s.replace(";", ",").split(",")),
    "audit": _yes_no,
}


def runconfig_from_mapping(mapping: dict, overrides: Optional[dict] = None) -> RunConfig:
    merged = dict(mapping)
    if overrides:
        merged.update({k: v for k, v in overrides.items() if v is not None})
    kwargs = {}
    for key, value in merged.items():
        if key not in _PARSERS:
            raise ConfigError(f"unknown config key '{key}'")
        try:
            kwargs[key] = _PARSERS[key](value) if isinstance(value, str) else value
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"bad value for '{key}': {value!r} ({exc})") from exc
    return RunConfig(**kwargs)

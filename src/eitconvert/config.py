"""Declarative run configuration for the command-line front end.

Scenario, sweep, and pump-run files are JSON documents.  Laboratory
units live only at this boundary: times arrive in microseconds, the
excited-state decay rate in MHz, Rabi frequencies as multiples of that
rate.  Loading converts once into the internal Gamma_w = 1 system, so
the engines never see a physical unit.

A scenario document looks like

    {
      "scheme": {"kind": "cesium-d1", "direction": "sigma-->sigma+",
                 "populations": [p-3, ..., p+3],
                 "alpha_p": 1890.4, "alpha_c": 1890.4},
      "units": {"gamma_2pi_MHz": 4.56, "T_p_us": 0.2},
      "protocol": {"eta": 4.0, "kappa": 1.35, "control_ratio": 1.0},
      "engines": ["analytic", "mb"],
      "out_dir": "runs/demo"
    }

The scheme block accepts kind "single-lambda" with D_p plus either D_c
or the control-coupling ratio ccp2 (D_c = ccp2 * D_p); a cesium-d1
scheme may replace "populations" with "pump_trajectory", a CSV written
by the pump subcommand, plus an optional "pump_time_us" row selector.
Exactly one of protocol.eta and protocol.Omega_w must be present; the
read control is set by "Omega_r" or "control_ratio" (Omega_r/Omega_w),
never both.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .arrayio import read_csv
from .atoms import (Direction, ConversionScheme, build_cesium_d1_scheme,
                    single_lambda_scheme)
from .errors import ConfigValidationError, SchemeError
from .pumping import PumpConfig
from .theory import control_for_eta, write_channel
from .units import UnitSystem

__all__ = [
    "ENGINES",
    "ScenarioConfig",
    "SweepSpec",
    "PumpSpec",
    "load_scenario",
    "load_sweep",
    "load_pump",
]

ENGINES = ("analytic", "spectral", "mb")
SCHEME_KINDS = ("cesium-d1", "single-lambda")
POLARIZATIONS = ("sigma+", "pi", "sigma-")


class _Issues:
    """Collects (path, message) pairs so one load reports every problem."""

    def __init__(self):
        self.items = []

    def add(self, path: str, message: str) -> None:
        self.items.append((path, message))

    def raise_if_any(self, what: str) -> None:
        if self.items:
            detail = "; ".join(f"{p}: {m}" for p, m in self.items)
            raise ConfigValidationError(f"invalid {what}: {detail}",
                                        paths=[p for p, _ in self.items])


def _block(doc, key, path, issues, required=True):
    value = doc.get(key)
    if value is None:
        if required:
            issues.add(path, "missing block")
        return {}
    if not isinstance(value, dict):
        issues.add(path, "must be an object")
        return {}
    return value


def _number(block, key, path, issues, default=None, required=False,
            minimum=None, exclusive=False):
    if key not in block:
        if required:
            issues.add(path, "missing")
        return default
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        issues.add(path, "must be a number")
        return default
    value = float(value)
    if not math.isfinite(value):
        issues.add(path, "must be finite")
        return default
    if minimum is not None:
        if exclusive and not value > minimum:
            issues.add(path, f"must be greater than {minimum:g}")
            return default
        if not exclusive and value < minimum:
            issues.add(path, f"must be at least {minimum:g}")
            return default
    return value


def _integer(block, key, path, issues, default=None, required=False,
             minimum=None):
    """_number for count fields: a non-integral value is an issue."""
    value = _number(block, key, path, issues, default=None,
                    required=required, minimum=minimum)
    if value is None:
        return default
    if not value.is_integer():
        issues.add(path, "must be an integer")
        return default
    return int(value)


def _check_known(block, known, path, issues):
    for key in block:
        if key not in known:
            issues.add(f"{path}.{key}", "unknown field")


@dataclass(frozen=True)
class SchemeSpec:
    """Medium description; build() returns the unit-free ConversionScheme."""

    kind: str
    direction: str = "sigma-->sigma+"
    populations: tuple | None = None
    pump_trajectory: str | None = None
    pump_time_us: float | None = None
    alpha_p: float = 1.0
    alpha_c: float = 1.0
    D_p: float = 0.0
    D_c: float = 0.0
    ccp2: float | None = None
    R_p: float = 1.0
    R_c: float = 1.0
    gamma_sg: float = 0.0

    @classmethod
    def from_dict(cls, block: dict, issues: _Issues, path: str = "scheme"):
        kind = block.get("kind", "cesium-d1")
        if kind not in SCHEME_KINDS:
            issues.add(f"{path}.kind", f"must be one of {SCHEME_KINDS}")
            kind = "cesium-d1"
        gamma_sg = _number(block, "gamma_sg", f"{path}.gamma_sg", issues,
                           default=0.0, minimum=0.0)
        if kind == "single-lambda":
            _check_known(block, ("kind", "D_p", "D_c", "ccp2", "R_p", "R_c",
                                 "gamma_sg"), path, issues)
            D_p = _number(block, "D_p", f"{path}.D_p", issues, required=True,
                          minimum=0.0, exclusive=True)
            D_c = _number(block, "D_c", f"{path}.D_c", issues,
                          minimum=0.0, exclusive=True)
            ccp2 = _number(block, "ccp2", f"{path}.ccp2", issues,
                           minimum=0.0, exclusive=True)
            if (D_c is None) == (ccp2 is None):
                issues.add(f"{path}.D_c",
                           "give exactly one of D_c and ccp2")
            if D_p is not None and D_c is None and ccp2 is not None:
                D_c = ccp2 * D_p
            ratios = {}
            for key in ("R_p", "R_c"):
                # the control CG is 1/R, so R = 0 leaves no control coupling
                ratios[key] = _number(block, key, f"{path}.{key}", issues,
                                      default=1.0)
                if ratios[key] == 0:
                    issues.add(f"{path}.{key}", "must be nonzero")
                    ratios[key] = 1.0
            return cls(
                kind=kind, D_p=D_p or 0.0, D_c=D_c or 0.0, ccp2=ccp2,
                gamma_sg=gamma_sg, **ratios,
            )
        _check_known(block, ("kind", "direction", "populations",
                             "pump_trajectory", "pump_time_us",
                             "alpha_p", "alpha_c", "gamma_sg"), path, issues)
        populations = block.get("populations")
        trajectory = block.get("pump_trajectory")
        if (populations is None) == (trajectory is None):
            issues.add(f"{path}.populations",
                       "give exactly one of populations and pump_trajectory")
        if trajectory is None and "pump_time_us" in block:
            issues.add(f"{path}.pump_time_us",
                       "has no effect without pump_trajectory")
        if populations is not None:
            arr = np.asarray(populations, dtype=float)
            if arr.shape != (7,) or not np.isfinite(arr).all():
                issues.add(f"{path}.populations", "must be 7 finite numbers")
                populations = None
            else:
                populations = tuple(float(x) for x in arr)
        if trajectory is not None and not isinstance(trajectory, str):
            issues.add(f"{path}.pump_trajectory", "must be a file path")
            trajectory = None
        direction = str(block.get("direction", "sigma-->sigma+"))
        try:
            Direction.parse(direction)
        except (SchemeError, ValueError):
            issues.add(f"{path}.direction",
                       "unknown conversion direction %r" % direction)
        return cls(
            kind=kind,
            direction=direction,
            populations=populations,
            pump_trajectory=trajectory,
            pump_time_us=_number(block, "pump_time_us",
                                 f"{path}.pump_time_us", issues, minimum=0.0),
            alpha_p=_number(block, "alpha_p", f"{path}.alpha_p", issues,
                            required=True, minimum=0.0, exclusive=True) or 1.0,
            alpha_c=_number(block, "alpha_c", f"{path}.alpha_c", issues,
                            required=True, minimum=0.0, exclusive=True) or 1.0,
            gamma_sg=gamma_sg,
        )

    @property
    def default_control_ratio(self) -> float:
        """Read/write Rabi ratio used when the protocol block names none.

        For a single-lambda scheme defined through ccp2 the default keeps
        the two channels' group delays equal (Omega_r = sqrt(ccp2) *
        Omega_w); everywhere else it is 1.
        """
        if self.kind == "single-lambda" and self.ccp2 is not None:
            return math.sqrt(self.ccp2)
        return 1.0

    def build(self, base_dir, units: UnitSystem) -> ConversionScheme:
        if self.kind == "single-lambda":
            return single_lambda_scheme(self.D_p, self.D_c,
                                        gamma_sg=self.gamma_sg,
                                        R_p=self.R_p, R_c=self.R_c)
        if self.populations is not None:
            populations = np.asarray(self.populations, dtype=float)
        else:
            populations = populations_from_trajectory(
                Path(base_dir) / self.pump_trajectory,
                self.pump_time_us, units)
        return build_cesium_d1_scheme(self.direction, populations,
                                      self.alpha_p, self.alpha_c,
                                      gamma_sg=self.gamma_sg)


def populations_from_trajectory(path, pump_time_us, units: UnitSystem):
    """Ground populations at one instant of a stored pump trajectory.

    Accepts the trajectory CSV of the pump subcommand (column t in
    internal units) or a hand-made file with a t_us column.  The excited
    fraction still present at that instant is dropped and the seven
    ground populations are renormalized, matching a conversion run that
    starts after the pump light is switched off.  The nearest row is
    taken; a time more than half the mean sample interval outside the
    trajectory's span is rejected.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigValidationError(
            f"pump trajectory {path} does not exist",
            paths=["scheme.pump_trajectory"])
    header, cols = read_csv(path)
    names = [f"p_m{m:+d}" for m in range(-3, 4)]
    missing = [n for n in names if n not in cols]
    if missing or not header:
        raise ConfigValidationError(
            f"pump trajectory {path} lacks columns {missing}",
            paths=["scheme.pump_trajectory"])
    if "t_us" in cols:
        t = cols["t_us"]
    elif "t" in cols:
        t = cols["t"] / units.gamma_rad_per_us
    else:
        raise ConfigValidationError(
            f"pump trajectory {path} has no time column",
            paths=["scheme.pump_trajectory"])
    if t.size == 0:
        raise ConfigValidationError(
            f"pump trajectory {path} is empty",
            paths=["scheme.pump_trajectory"])
    index = t.size - 1
    if pump_time_us is not None:
        half = 0.5 * (t.max() - t.min()) / max(t.size - 1, 1)
        if not t.min() - half <= pump_time_us <= t.max() + half:
            raise ConfigValidationError(
                f"pump time {pump_time_us:g} us lies outside the trajectory "
                f"{path}, which spans {t.min():g} to {t.max():g} us",
                paths=["scheme.pump_time_us"])
        index = int(np.argmin(np.abs(t - pump_time_us)))
    p = np.array([cols[n][index] for n in names], dtype=float)
    p = np.maximum(p, 0.0)
    if p.sum() <= 0:
        raise ConfigValidationError(
            f"pump trajectory {path} row {index} has no ground population",
            paths=["scheme.pump_trajectory"])
    return p / p.sum()


@dataclass(frozen=True)
class UnitsSpec:
    gamma_2pi_MHz: float
    T_p_us: float

    @classmethod
    def from_dict(cls, block: dict, issues: _Issues, path: str = "units"):
        _check_known(block, ("gamma_2pi_MHz", "T_p_us"), path, issues)
        return cls(
            gamma_2pi_MHz=_number(block, "gamma_2pi_MHz",
                                  f"{path}.gamma_2pi_MHz", issues,
                                  required=True, minimum=0.0, exclusive=True)
            or 1.0,
            T_p_us=_number(block, "T_p_us", f"{path}.T_p_us", issues,
                           required=True, minimum=0.0, exclusive=True) or 1.0,
        )

    def system(self) -> UnitSystem:
        return UnitSystem(gamma_2pi_MHz=self.gamma_2pi_MHz)

    @property
    def T_p(self) -> float:
        """Probe intensity FWHM in internal units."""
        return self.system().time_in(self.T_p_us)


@dataclass(frozen=True)
class ProtocolSpec:
    kappa: float = 1.35
    t_s_us: float = 0.0
    eta: float | None = None
    Omega_w: float | None = None
    Omega_r: float | None = None
    control_ratio: float | None = None

    @classmethod
    def from_dict(cls, block: dict, issues: _Issues, path: str = "protocol"):
        _check_known(block, ("kappa", "t_s_us", "eta", "Omega_w", "Omega_r",
                             "control_ratio"), path, issues)
        eta = _number(block, "eta", f"{path}.eta", issues,
                      minimum=0.0, exclusive=True)
        Omega_w = _number(block, "Omega_w", f"{path}.Omega_w", issues,
                          minimum=0.0, exclusive=True)
        if (eta is None) == (Omega_w is None):
            issues.add(f"{path}.eta", "give exactly one of eta and Omega_w")
        Omega_r = _number(block, "Omega_r", f"{path}.Omega_r", issues,
                          minimum=0.0, exclusive=True)
        ratio = _number(block, "control_ratio", f"{path}.control_ratio",
                        issues, minimum=0.0, exclusive=True)
        if Omega_r is not None and ratio is not None:
            issues.add(f"{path}.Omega_r",
                       "give at most one of Omega_r and control_ratio")
        return cls(
            kappa=_number(block, "kappa", f"{path}.kappa", issues,
                          default=1.35, minimum=0.0, exclusive=True),
            t_s_us=_number(block, "t_s_us", f"{path}.t_s_us", issues,
                           default=0.0, minimum=0.0),
            eta=eta, Omega_w=Omega_w, Omega_r=Omega_r, control_ratio=ratio,
        )


@dataclass(frozen=True)
class GridSpec:
    """Engine grid overrides; None keeps every engine's own default."""

    n_z: int | None = None
    n_t: int | None = None
    n_omega: int | None = None
    omega_max: float | None = None
    ramp_fraction: float = 0.2
    grid_check: bool = False

    @classmethod
    def from_dict(cls, block: dict, issues: _Issues, path: str = "grid"):
        _check_known(block, ("n_z", "n_t", "n_omega", "omega_max",
                             "ramp_fraction", "grid_check"), path, issues)

        grid_check = block.get("grid_check", False)
        if not isinstance(grid_check, bool):
            issues.add(f"{path}.grid_check", "must be true or false")
            grid_check = False
        return cls(
            n_z=_integer(block, "n_z", f"{path}.n_z", issues, minimum=8),
            n_t=_integer(block, "n_t", f"{path}.n_t", issues, minimum=2),
            n_omega=_integer(block, "n_omega", f"{path}.n_omega", issues,
                             minimum=16),
            omega_max=_number(block, "omega_max", f"{path}.omega_max",
                              issues, minimum=0.0, exclusive=True),
            ramp_fraction=_number(block, "ramp_fraction",
                                  f"{path}.ramp_fraction", issues,
                                  default=0.2, minimum=0.0),
            grid_check=grid_check,
        )


@dataclass(frozen=True)
class ResolvedControls:
    """Internal-unit control settings shared by every engine."""

    T_p: float
    Omega_w: float
    Omega_r: float
    eta: float
    kappa: float
    t_s: float


@dataclass(frozen=True)
class ScenarioConfig:
    scheme: SchemeSpec
    units: UnitsSpec
    protocol: ProtocolSpec
    engines: tuple
    grid: GridSpec
    out_dir: str
    base_dir: str
    raw: dict

    @classmethod
    def from_dict(cls, doc: dict, base_dir=".") -> "ScenarioConfig":
        issues = _Issues()
        if not isinstance(doc, dict):
            issues.add("", "document must be an object")
            issues.raise_if_any("scenario")
        _check_known(doc, ("scheme", "units", "protocol", "engines", "grid",
                           "out_dir"), "", issues)
        scheme = SchemeSpec.from_dict(_block(doc, "scheme", "scheme", issues),
                                      issues)
        units = UnitsSpec.from_dict(_block(doc, "units", "units", issues),
                                    issues)
        protocol = ProtocolSpec.from_dict(
            _block(doc, "protocol", "protocol", issues), issues)
        grid = GridSpec.from_dict(
            _block(doc, "grid", "grid", issues, required=False), issues)
        engines = doc.get("engines", ["analytic"])
        if (not isinstance(engines, list) or not engines
                or any(e not in ENGINES for e in engines)
                or len(set(engines)) != len(engines)):
            issues.add("engines",
                       f"must be a nonempty list drawn from {ENGINES}")
            engines = ["analytic"]
        out_dir = doc.get("out_dir", "runs")
        if not isinstance(out_dir, str) or not out_dir:
            issues.add("out_dir", "must be a nonempty path")
            out_dir = "runs"
        issues.raise_if_any("scenario")
        return cls(scheme=scheme, units=units, protocol=protocol,
                   engines=tuple(engines), grid=grid, out_dir=out_dir,
                   base_dir=str(base_dir), raw=doc)

    def build_scheme(self) -> ConversionScheme:
        return self.scheme.build(self.base_dir, self.units.system())

    def controls(self, scheme: ConversionScheme) -> ResolvedControls:
        """Write/read Rabi frequencies and protocol times, internal units."""
        T_p = self.units.T_p
        if self.protocol.eta is not None:
            Omega_w = control_for_eta(scheme, self.protocol.eta, T_p)
            eta = self.protocol.eta
        else:
            Omega_w = self.protocol.Omega_w * scheme.Gamma_w
            eta = write_channel(scheme, Omega_w, T_p,
                                self.protocol.kappa).eta
        if self.protocol.Omega_r is not None:
            Omega_r = self.protocol.Omega_r * scheme.Gamma_r
        else:
            ratio = self.protocol.control_ratio
            if ratio is None:
                ratio = self.scheme.default_control_ratio
            Omega_r = ratio * Omega_w
        return ResolvedControls(
            T_p=T_p, Omega_w=Omega_w, Omega_r=Omega_r, eta=eta,
            kappa=self.protocol.kappa,
            t_s=self.units.system().time_in(self.protocol.t_s_us),
        )


def _read_json(path: Path, what: str):
    """Parse the JSON document at path; what names the file in errors."""
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigValidationError(f"{what} file {path} does not exist")
    except json.JSONDecodeError as exc:
        raise ConfigValidationError(f"{what} file {path} is not valid "
                                    f"JSON: {exc}") from exc


def load_scenario(path) -> ScenarioConfig:
    path = Path(path)
    return ScenarioConfig.from_dict(_read_json(path, "scenario"),
                                    base_dir=path.parent)


@dataclass(frozen=True)
class SweepAxis:
    path: str
    values: tuple

    @classmethod
    def from_dict(cls, block: dict, issues: _Issues, path: str):
        _check_known(block, ("path", "values", "start", "stop", "count",
                             "scale"), path, issues)
        name = block.get("path")
        if not isinstance(name, str) or not name:
            issues.add(f"{path}.path", "must be a dotted field path")
            name = "?"
        if "values" in block:
            for key in ("start", "stop", "count", "scale"):
                if key in block:
                    issues.add(f"{path}.{key}", "has no effect next to values")
            values = block["values"]
            if (not isinstance(values, list) or not values
                    or not all(isinstance(v, (int, float))
                               and not isinstance(v, bool)
                               and math.isfinite(v) for v in values)):
                issues.add(f"{path}.values",
                           "must be a nonempty list of finite numbers")
                values = [0.0]
            return cls(path=name, values=tuple(float(v) for v in values))
        start = _number(block, "start", f"{path}.start", issues,
                        required=True)
        stop = _number(block, "stop", f"{path}.stop", issues, required=True)
        count = _integer(block, "count", f"{path}.count", issues,
                         required=True, minimum=1)
        scale = block.get("scale", "linear")
        if scale not in ("linear", "log"):
            issues.add(f"{path}.scale", "must be linear or log")
            scale = "linear"
        if None in (start, stop, count):
            return cls(path=name, values=(0.0,))
        if scale == "log":
            if start <= 0 or stop <= 0:
                issues.add(f"{path}.scale",
                           "log scale needs positive endpoints")
                return cls(path=name, values=(1.0,))
            values = np.geomspace(start, stop, count)
        else:
            values = np.linspace(start, stop, count)
        return cls(path=name, values=tuple(float(v) for v in values))


@dataclass(frozen=True)
class SweepSpec:
    template: dict
    axes: tuple
    parallelism: int
    out_dir: str

    @classmethod
    def from_dict(cls, doc: dict, base_dir=".") -> "SweepSpec":
        issues = _Issues()
        if not isinstance(doc, dict):
            issues.add("", "document must be an object")
            issues.raise_if_any("sweep")
        _check_known(doc, ("template", "axes", "parallelism", "out_dir"),
                     "", issues)
        template = doc.get("template")
        if not isinstance(template, dict):
            issues.add("template", "must be a scenario object")
            template = {}
        axes_doc = doc.get("axes")
        axes = []
        if not isinstance(axes_doc, list) or not axes_doc:
            issues.add("axes", "must be a nonempty list")
        else:
            for i, axis in enumerate(axes_doc):
                if not isinstance(axis, dict):
                    issues.add(f"axes[{i}]", "must be an object")
                    continue
                axes.append(SweepAxis.from_dict(axis, issues, f"axes[{i}]"))
        parallelism = _integer(doc, "parallelism", "parallelism", issues,
                               default=1, minimum=1)
        out_dir = doc.get("out_dir", "sweep")
        if not isinstance(out_dir, str) or not out_dir:
            issues.add("out_dir", "must be a nonempty path")
            out_dir = "sweep"
        issues.raise_if_any("sweep")
        spec = cls(template=template, axes=tuple(axes),
                   parallelism=parallelism, out_dir=out_dir)
        first = spec.point(0)
        ScenarioConfig.from_dict(first, base_dir=base_dir)
        return spec

    @property
    def shape(self) -> tuple:
        return tuple(len(a.values) for a in self.axes)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def assignments(self, index: int) -> dict:
        """Axis-path -> value mapping for flat grid index (axis-major)."""
        out = {}
        remainder = index
        for axis, n in zip(reversed(self.axes), reversed(self.shape)):
            remainder, k = divmod(remainder, n)
            out[axis.path] = axis.values[k]
        return {a.path: out[a.path] for a in self.axes}

    def point(self, index: int) -> dict:
        doc = json.loads(json.dumps(self.template))
        for dotted, value in self.assignments(index).items():
            set_by_path(doc, dotted, value)
        return doc


def set_by_path(doc: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = doc
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigValidationError(
                f"cannot descend into {dotted!r}", paths=[dotted])
    node[parts[-1]] = value


def load_sweep(path) -> SweepSpec:
    path = Path(path)
    return SweepSpec.from_dict(_read_json(path, "sweep"),
                               base_dir=path.parent)


@dataclass(frozen=True)
class PumpSpec:
    polarization: str
    Omega_over_Gamma: float
    duration_us: float
    gamma_2pi_MHz: float
    initial: tuple
    n_samples: int
    gamma_gg: float
    steady: bool
    out_dir: str

    @classmethod
    def from_dict(cls, doc: dict) -> "PumpSpec":
        issues = _Issues()
        if not isinstance(doc, dict):
            issues.add("", "document must be an object")
            issues.raise_if_any("pump run")
        _check_known(doc, ("polarization", "Omega_over_Gamma", "duration_us",
                           "gamma_2pi_MHz", "initial", "n_samples",
                           "gamma_gg", "steady_state", "out_dir"),
                     "", issues)
        polarization = doc.get("polarization")
        if polarization not in POLARIZATIONS:
            issues.add("polarization", f"must be one of {POLARIZATIONS}")
            polarization = "sigma+"
        initial = doc.get("initial")
        if initial is None:
            initial = tuple([1.0 / 7.0] * 7)
        else:
            arr = np.asarray(initial, dtype=float)
            if (arr.shape != (7,) or not np.isfinite(arr).all()
                    or arr.min() < 0 or arr.sum() <= 0):
                issues.add("initial", "must be 7 finite nonnegative numbers")
                initial = tuple([1.0 / 7.0] * 7)
            else:
                initial = tuple(float(x) for x in arr / arr.sum())
        steady = doc.get("steady_state", True)
        if not isinstance(steady, bool):
            issues.add("steady_state", "must be true or false")
            steady = True
        out_dir = doc.get("out_dir", "pump")
        if not isinstance(out_dir, str) or not out_dir:
            issues.add("out_dir", "must be a nonempty path")
            out_dir = "pump"
        spec = cls(
            polarization=polarization,
            Omega_over_Gamma=_number(doc, "Omega_over_Gamma",
                                     "Omega_over_Gamma", issues,
                                     required=True, minimum=0.0) or 0.0,
            duration_us=_number(doc, "duration_us", "duration_us", issues,
                                required=True, minimum=0.0, exclusive=True)
            or 1.0,
            gamma_2pi_MHz=_number(doc, "gamma_2pi_MHz", "gamma_2pi_MHz",
                                  issues, default=UnitSystem().gamma_2pi_MHz,
                                  minimum=0.0, exclusive=True),
            initial=initial,
            n_samples=_integer(doc, "n_samples", "n_samples", issues,
                               default=201, minimum=2),
            gamma_gg=_number(doc, "gamma_gg", "gamma_gg", issues,
                             default=0.0, minimum=0.0),
            steady=steady,
            out_dir=out_dir,
        )
        issues.raise_if_any("pump run")
        return spec

    def pump_config(self) -> PumpConfig:
        units = UnitSystem(gamma_2pi_MHz=self.gamma_2pi_MHz)
        rabi = {"sigma+": 0.0, "pi": 0.0, "sigma-": 0.0}
        rabi[self.polarization] = self.Omega_over_Gamma
        return PumpConfig(
            Omega_r_pump=rabi["sigma+"],
            Omega_pi_pump=rabi["pi"],
            Omega_l_pump=rabi["sigma-"],
            duration=units.time_in(self.duration_us),
            gamma_gg=self.gamma_gg,
        )


def load_pump(path) -> PumpSpec:
    return PumpSpec.from_dict(_read_json(Path(path), "pump"))

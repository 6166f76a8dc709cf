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
or the control-coupling ratio ccp2 (D_c = ccp2 * D_p); its control CGs
are 1, so the read/write control ratio is Omega_r/Omega_w.  A cesium-d1
scheme may replace "populations" with "pump_trajectory", a CSV written
by the pump subcommand, plus an optional "pump_time_us" row selector
matched against the file's own t_us column.  Exactly one of
protocol.eta and protocol.Omega_w must be present; the read control is
set by "Omega_r" or "control_ratio" (Omega_r/Omega_w), never both.
The loaders take edits, dotted paths set in the document before it is
checked (the CLI flags), so a config's raw document is the one that ran.
"""

from __future__ import annotations

import functools
import io
import json
import math
import types
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .arrayio import read_csv
from .atoms import (Direction, ConversionScheme, build_cesium_d1_scheme,
                    single_lambda_scheme)
from .errors import ConfigValidationError, SchemeError
from .mb import RAMP_FRACTION
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


def _join(path: str, key: str) -> str:
    """Dotted path of key inside path; a top-level key stands bare."""
    return f"{path}.{key}" if path else key


def _block(doc, key, issues, required=True):
    value = doc.get(key)
    if value is None:
        if required:
            issues.add(key, "missing block")
        return {}
    if not isinstance(value, dict):
        issues.add(key, "must be an object")
        return {}
    return value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(number) -> bool:
    """True if number converts to a finite float; a JSON integer may not."""
    try:
        return math.isfinite(number)
    except OverflowError:
        return False


def _population_vector(value):
    """value as an array of 7 finite numbers, or None if it is not one."""
    if (isinstance(value, (list, tuple)) and len(value) == 7
            and all(_is_number(x) and _finite(x) for x in value)):
        return np.array(value, dtype=float)
    return None


def _number(block, key, path, issues, default=None, required=False,
            minimum=None, exclusive=False, integer=False):
    """block[key] as a float (an int if integer), or default when it is
    missing or rejected; every rejection is added to issues."""
    if key not in block:
        if required:
            issues.add(path, "missing")
        return default
    value = block[key]
    if not _is_number(value):
        issues.add(path, "must be a number")
        return default
    if not _finite(value):
        issues.add(path, "must be finite")
        return default
    value = float(value)
    if minimum is not None:
        if exclusive and not value > minimum:
            issues.add(path, f"must be greater than {minimum:g}")
            return default
        if not exclusive and value < minimum:
            issues.add(path, f"must be at least {minimum:g}")
            return default
    if integer:
        if not value.is_integer():
            issues.add(path, "must be an integer")
            return default
        return int(value)
    return value


def _num(default=None, kind=None, **rule):
    """A numeric document field: default is its value when missing, rule
    the keywords _number checks it by, kind the one scheme kind it
    belongs to (None: every kind)."""
    return field(default=default, metadata={"number": rule, "kind": kind})


_CESIUM = {"kind": "cesium-d1"}
# fields set by the loader, not by the document
_NOT_IN_DOC = {"key": None}


@functools.cache
def _declared(cls, kind=None) -> dict:
    """Document key -> field, for each field of cls a document may set.

    The key is the field name unless its metadata names another; a field
    tagged with a scheme kind belongs to that kind only.  Cached, as the
    declarations never change: callers must not modify the result."""
    out = {}
    for f in fields(cls):
        key = f.metadata.get("key", f.name)
        if key is not None and f.metadata.get("kind") in (None, kind):
            out[key] = f
    return out


def _check_known(block, known, path, issues):
    for key in block:
        if key not in known:
            issues.add(_join(path, key), "unknown field")


def _read(cls, block, path, issues, kind=None) -> dict:
    """Check block's keys against the fields of cls and read its numbers
    and flags: field name -> value, or the field default where the value
    is missing or rejected."""
    declared = _declared(cls, kind)
    _check_known(block, declared, path, issues)
    values = {}
    for key, f in declared.items():
        if "number" in f.metadata:
            values[f.name] = _number(block, key, _join(path, key), issues,
                                     f.default, **f.metadata["number"])
        elif isinstance(f.default, bool):
            values[f.name] = block.get(key, f.default)
            if not isinstance(values[f.name], bool):
                issues.add(_join(path, key), "must be true or false")
    return values


def _document(cls, doc, what: str, out_dir: str):
    """Issues and values of a top-level document of class cls.

    A document that is not an object raises at once.  The values are the
    declared numbers and flags of cls plus out_dir (default as given)."""
    issues = _Issues()
    if not isinstance(doc, dict):
        issues.add("", "document must be an object")
        issues.raise_if_any(what)
    values = _read(cls, doc, "", issues)
    values["out_dir"] = doc.get("out_dir", out_dir)
    if not isinstance(values["out_dir"], str) or not values["out_dir"]:
        issues.add("out_dir", "must be a nonempty path")
    return issues, values


def _spec(cls, doc, key, issues, required=True):
    """cls from the declared fields of the block doc[key]."""
    return cls(**_read(cls, _block(doc, key, issues, required), key, issues))


@dataclass(frozen=True)
class SchemeSpec:
    """Medium description; build() returns the unit-free ConversionScheme."""

    kind: str
    direction: str = field(default="sigma-->sigma+", metadata=_CESIUM)
    populations: tuple | None = field(default=None, metadata=_CESIUM)
    pump_trajectory: str | None = field(default=None, metadata=_CESIUM)
    pump_time_us: float | None = _num(kind="cesium-d1", minimum=0.0)
    alpha_p: float = _num(kind="cesium-d1", required=True, minimum=0.0,
                          exclusive=True)
    alpha_c: float = _num(kind="cesium-d1", required=True, minimum=0.0,
                          exclusive=True)
    D_p: float = _num(kind="single-lambda", required=True, minimum=0.0,
                      exclusive=True)
    D_c: float = _num(kind="single-lambda", minimum=0.0, exclusive=True)
    ccp2: float | None = _num(kind="single-lambda", minimum=0.0,
                              exclusive=True)
    gamma_sg: float = _num(0.0, minimum=0.0)

    @classmethod
    def from_dict(cls, block: dict, issues: _Issues, path: str = "scheme"):
        kind = block.get("kind", "cesium-d1")
        if kind not in SCHEME_KINDS:
            issues.add(f"{path}.kind", f"must be one of {SCHEME_KINDS}")
            kind = "cesium-d1"
        values = _read(cls, block, path, issues, kind)
        if kind == "single-lambda":
            D_p, D_c, ccp2 = values["D_p"], values["D_c"], values["ccp2"]
            if (D_c is None) == (ccp2 is None):
                issues.add(f"{path}.D_c",
                           "give exactly one of D_c and ccp2")
            elif D_c is None and D_p is not None:
                values["D_c"] = ccp2 * D_p
            return cls(kind=kind, **values)
        populations = block.get("populations")
        trajectory = block.get("pump_trajectory")
        if (populations is None) == (trajectory is None):
            issues.add(f"{path}.populations",
                       "give exactly one of populations and pump_trajectory")
        if trajectory is None and "pump_time_us" in block:
            issues.add(f"{path}.pump_time_us",
                       "has no effect without pump_trajectory")
        if populations is not None:
            arr = _population_vector(populations)
            if arr is None:
                issues.add(f"{path}.populations", "must be 7 finite numbers")
            else:
                populations = tuple(float(x) for x in arr)
        if trajectory is not None and not isinstance(trajectory, str):
            issues.add(f"{path}.pump_trajectory", "must be a file path")
        direction = str(block.get("direction", cls.direction))
        try:
            Direction.parse(direction)
        except (SchemeError, ValueError):
            issues.add(f"{path}.direction",
                       "unknown conversion direction %r" % direction)
        return cls(kind=kind, direction=direction, populations=populations,
                   pump_trajectory=trajectory, **values)

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

    def build(self, base_dir) -> ConversionScheme:
        if self.kind == "single-lambda":
            return single_lambda_scheme(self.D_p, self.D_c,
                                        gamma_sg=self.gamma_sg)
        if self.populations is not None:
            populations = np.asarray(self.populations, dtype=float)
        else:
            populations = populations_from_trajectory(
                Path(base_dir) / self.pump_trajectory, self.pump_time_us)
        return build_cesium_d1_scheme(self.direction, populations,
                                      self.alpha_p, self.alpha_c,
                                      gamma_sg=self.gamma_sg)


@functools.lru_cache(maxsize=8)
def _trajectory_columns(body: bytes):
    """Header and read-only columns of one trajectory file's contents,
    shared by every caller.

    Keyed by the bytes rather than the path or mtime, so every sweep point
    reading one file parses it once, and a rewritten file is parsed again
    even when its size and coarse mtime are unchanged.
    """
    header, cols = read_csv(io.StringIO(body.decode("utf-8")))
    for column in cols.values():
        column.setflags(write=False)
    return tuple(header), types.MappingProxyType(cols)


def populations_from_trajectory(path, pump_time_us):
    """Ground populations at one instant of a stored pump trajectory.

    Reads the trajectory CSV of the pump subcommand, whose t_us column
    holds the sample times in microseconds on the pump run's own clock;
    pump_time_us (None: the last row) selects the nearest row by it.  The
    excited fraction still present at that instant is dropped and the
    seven ground populations are renormalized, matching a conversion run
    that starts after the pump light is switched off.  A time more than
    half the mean sample interval outside the trajectory's span is
    rejected, and so is a file without a t_us column.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigValidationError(
            f"pump trajectory {path} does not exist",
            paths=["scheme.pump_trajectory"])
    header, cols = _trajectory_columns(path.read_bytes())
    names = [f"p_m{m:+d}" for m in range(-3, 4)]
    missing = [n for n in names if n not in cols]
    if missing or not header:
        raise ConfigValidationError(
            f"pump trajectory {path} lacks columns {missing}",
            paths=["scheme.pump_trajectory"])
    if "t_us" not in cols:
        raise ConfigValidationError(
            f"pump trajectory {path} has no t_us column (sample times in "
            f"microseconds); repeat the pump run that wrote it",
            paths=["scheme.pump_trajectory"])
    t = cols["t_us"]
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
    gamma_2pi_MHz: float = _num(required=True, minimum=0.0, exclusive=True)
    T_p_us: float = _num(required=True, minimum=0.0, exclusive=True)

    def system(self) -> UnitSystem:
        return UnitSystem(gamma_2pi_MHz=self.gamma_2pi_MHz)

    @property
    def T_p(self) -> float:
        """Probe intensity FWHM in internal units."""
        return self.system().time_in(self.T_p_us)


@dataclass(frozen=True)
class ProtocolSpec:
    kappa: float = _num(1.35, minimum=0.0, exclusive=True)
    t_s_us: float = _num(0.0, minimum=0.0)
    eta: float | None = _num(minimum=0.0, exclusive=True)
    Omega_w: float | None = _num(minimum=0.0, exclusive=True)
    Omega_r: float | None = _num(minimum=0.0, exclusive=True)
    control_ratio: float | None = _num(minimum=0.0, exclusive=True)

    def check(self, issues: _Issues, path: str = "protocol") -> None:
        """The one-of rules between the control fields."""
        if (self.eta is None) == (self.Omega_w is None):
            issues.add(f"{path}.eta", "give exactly one of eta and Omega_w")
        if self.Omega_r is not None and self.control_ratio is not None:
            issues.add(f"{path}.Omega_r",
                       "give at most one of Omega_r and control_ratio")


@dataclass(frozen=True)
class GridSpec:
    """Engine grid overrides (n_z is mb's only); None keeps each default."""

    n_z: int | None = _num(integer=True, minimum=8)
    n_t: int | None = _num(integer=True, minimum=2)
    n_omega: int | None = _num(integer=True, minimum=16)
    omega_max: float | None = _num(minimum=0.0, exclusive=True)
    ramp_fraction: float = _num(RAMP_FRACTION, minimum=0.0)
    grid_check: bool = False


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
    base_dir: str = field(metadata=_NOT_IN_DOC)
    raw: dict = field(metadata=_NOT_IN_DOC)

    @classmethod
    def from_dict(cls, doc: dict, base_dir=".") -> "ScenarioConfig":
        issues, values = _document(cls, doc, "scenario", "runs")
        scheme = SchemeSpec.from_dict(_block(doc, "scheme", issues), issues)
        units = _spec(UnitsSpec, doc, "units", issues)
        protocol = _spec(ProtocolSpec, doc, "protocol", issues)
        grid = _spec(GridSpec, doc, "grid", issues, required=False)
        protocol.check(issues)
        engines = doc.get("engines", ["analytic"])
        if (not isinstance(engines, list) or not engines
                or any(e not in ENGINES for e in engines)
                or len(set(engines)) != len(engines)):
            issues.add("engines",
                       f"must be a nonempty list drawn from {ENGINES}")
        issues.raise_if_any("scenario")
        return cls(scheme=scheme, units=units, protocol=protocol,
                   engines=tuple(engines), grid=grid, base_dir=str(base_dir),
                   raw=doc, **values)

    def build_scheme(self) -> ConversionScheme:
        return self.scheme.build(self.base_dir)

    def controls(self, scheme: ConversionScheme) -> ResolvedControls:
        """Write/read Rabi frequencies and protocol times, internal units."""
        T_p = self.units.T_p
        if self.protocol.eta is not None:
            Omega_w = control_for_eta(scheme, self.protocol.eta, T_p)
            eta = self.protocol.eta
        else:
            Omega_w = self.protocol.Omega_w
            eta = write_channel(scheme, Omega_w, T_p,
                                self.protocol.kappa).eta
        if self.protocol.Omega_r is not None:
            Omega_r = self.protocol.Omega_r
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


def _read_json(path: Path, what: str, edits=None):
    """Parse the JSON document at path, then set each dotted path of
    edits in it (a document that is not an object is left for the loader
    to refuse); what names the file in errors."""
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigValidationError(f"{what} file {path} does not exist")
    except json.JSONDecodeError as exc:
        raise ConfigValidationError(f"{what} file {path} is not valid "
                                    f"JSON: {exc}") from exc
    if isinstance(doc, dict):
        for dotted, value in (edits or {}).items():
            set_by_path(doc, dotted, value)
    return doc


def load_scenario(path, edits=None) -> ScenarioConfig:
    path = Path(path)
    return ScenarioConfig.from_dict(_read_json(path, "scenario", edits),
                                    base_dir=path.parent)


# keys of an axis given as a range instead of a list of values
_RANGE_KEYS = ("start", "stop", "count", "scale")


@dataclass(frozen=True)
class SweepAxis:
    path: str
    values: tuple

    @classmethod
    def from_dict(cls, block: dict, issues: _Issues, path: str):
        _check_known(block, {*_declared(cls), *_RANGE_KEYS}, path, issues)
        name = block.get("path")
        if not isinstance(name, str) or not name:
            issues.add(f"{path}.path", "must be a dotted field path")
        if "values" in block:
            for key in _RANGE_KEYS:
                if key in block:
                    issues.add(f"{path}.{key}", "has no effect next to values")
            values = block["values"]
            if (not isinstance(values, list) or not values
                    or not all(_is_number(v) and _finite(v)
                               for v in values)):
                issues.add(f"{path}.values",
                           "must be a nonempty list of finite numbers")
                values = []
            return cls(path=name, values=tuple(float(v) for v in values))
        start = _number(block, "start", f"{path}.start", issues,
                        required=True)
        stop = _number(block, "stop", f"{path}.stop", issues, required=True)
        count = _number(block, "count", f"{path}.count", issues,
                        required=True, minimum=1, integer=True)
        scale = block.get("scale", "linear")
        if scale not in ("linear", "log"):
            issues.add(f"{path}.scale", "must be linear or log")
        if None in (start, stop, count):
            return cls(path=name, values=())
        if scale == "log":
            if start <= 0 or stop <= 0:
                issues.add(f"{path}.scale",
                           "log scale needs positive endpoints")
                return cls(path=name, values=())
            values = np.geomspace(start, stop, count)
        else:
            values = np.linspace(start, stop, count)
        return cls(path=name, values=tuple(float(v) for v in values))


@dataclass(frozen=True)
class SweepSpec:
    template: dict
    axes: tuple
    out_dir: str
    parallelism: int = _num(1, integer=True, minimum=1)

    @classmethod
    def from_dict(cls, doc: dict, base_dir=".") -> "SweepSpec":
        issues, values = _document(cls, doc, "sweep", "sweep")
        template = doc.get("template")
        if not isinstance(template, dict):
            issues.add("template", "must be a scenario object")
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
        issues.raise_if_any("sweep")
        spec = cls(template=template, axes=tuple(axes), **values)
        ScenarioConfig.from_dict(spec.point(0), base_dir=base_dir)
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


def load_sweep(path, edits=None) -> SweepSpec:
    path = Path(path)
    return SweepSpec.from_dict(_read_json(path, "sweep", edits),
                               base_dir=path.parent)


@dataclass(frozen=True)
class PumpSpec:
    polarization: str
    initial: tuple
    out_dir: str
    Omega_over_Gamma: float = _num(required=True, minimum=0.0)
    duration_us: float = _num(required=True, minimum=0.0, exclusive=True)
    gamma_2pi_MHz: float = _num(UnitSystem.gamma_2pi_MHz, minimum=0.0,
                                exclusive=True)
    n_samples: int = _num(201, integer=True, minimum=2)
    gamma_gg: float = _num(0.0, minimum=0.0)
    steady: bool = field(default=True, metadata={"key": "steady_state"})

    @classmethod
    def from_dict(cls, doc: dict) -> "PumpSpec":
        issues, values = _document(cls, doc, "pump run", "pump")
        polarization = doc.get("polarization")
        if polarization not in POLARIZATIONS:
            issues.add("polarization", f"must be one of {POLARIZATIONS}")
        initial = doc.get("initial")
        if initial is None:
            initial = tuple([1.0 / 7.0] * 7)
        else:
            arr = _population_vector(initial)
            if arr is None or arr.min() < 0 or arr.sum() <= 0:
                issues.add("initial", "must be 7 finite nonnegative numbers")
            else:
                initial = tuple(float(x) for x in arr / arr.sum())
        issues.raise_if_any("pump run")
        return cls(polarization=polarization, initial=initial, **values)

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

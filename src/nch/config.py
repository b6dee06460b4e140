"""Plain key=value configuration: parsing, validation, rendering.

One key per line, `#` starts a comment, unknown keys are rejected with their
line number.  The keys are the fields of SimulationConfig, each parsed by the
type of its documented default; parse/render round trips exactly (floats are
rendered with repr, which preserves doubles).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields

from .errors import ConfigError
from .grid import ModelParams

SCHEMES = ("etd1", "etdrk2", "p-etd1", "p-etdrk2")


def step_count(T: float, tau: float) -> int:
    """Number of steps of size tau that end exactly at time T.

    Raises ValueError unless tau is positive and finite and T/tau is a whole
    number to 1e-9 relative, so a horizon between two steps is refused
    rather than rounded to one of them.
    """
    if not 0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    ratio = T / tau
    if not (math.isfinite(ratio) and math.isclose(ratio, round(ratio), rel_tol=1e-9)):
        raise ValueError(
            f"time {T} is not a whole number of steps of tau={tau} ({ratio:g} steps)"
        )
    return round(ratio)


_INITIAL_RE = re.compile(r"^\s*(sine|random)\s*\(([^)]*)\)\s*$")


@dataclass(frozen=True)
class InitialSpec:
    """Initial field: sine(amplitude) or random(offset, amplitude, seed)."""

    kind: str
    amplitude: float
    offset: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("sine", "random"):
            raise ValueError(f"unknown initial kind {self.kind!r}, expected sine or random")
        for name in ("amplitude", "offset"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{self.kind} {name} must be finite, got {value}")
        if self.seed < 0:
            raise ValueError(f"{self.kind} seed must be non-negative, got {self.seed}")
        if self.kind == "sine" and (self.offset != 0.0 or self.seed != 0):
            # render() writes sine(amplitude), and the sine field has neither
            raise ValueError(
                f"sine takes no offset or seed, got offset={self.offset!r}, seed={self.seed!r}"
            )

    def render(self) -> str:
        if self.kind == "sine":
            return f"sine({self.amplitude!r})"
        return f"random({self.offset!r}, {self.amplitude!r}, {self.seed})"

    @staticmethod
    def parse(text: str) -> "InitialSpec":
        m = _INITIAL_RE.match(text)
        if m is None:
            raise ValueError(
                f"expected sine(amplitude) or random(offset, amplitude, seed), got {text!r}"
            )
        kind = m.group(1)
        args = [a.strip() for a in m.group(2).split(",")] if m.group(2).strip() else []
        if kind == "sine":
            if len(args) != 1:
                raise ValueError(f"sine takes one argument (amplitude), got {len(args)}")
            return InitialSpec("sine", float(args[0]))
        if len(args) != 3:
            raise ValueError(
                f"random takes three arguments (offset, amplitude, seed), got {len(args)}"
            )
        return InitialSpec("random", float(args[1]), offset=float(args[0]), seed=int(args[2]))


@dataclass(frozen=True)
class SimulationConfig(ModelParams):
    """Fully validated run description: the model parameters it inherits
    plus the run settings below; field defaults are the documented ones."""

    scheme: str = "p-etd1"
    T_final: float = 0.02
    initial: InitialSpec = InitialSpec("sine", 0.1)
    snapshot_times: tuple[float, ...] = ()
    output_dir: str = ""
    structure_threshold: float = 0.0

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not self.T_final >= 0:
            raise ValueError(f"T_final must be nonnegative, got {self.T_final}")
        for s in self.snapshot_times:
            if not 0 <= s <= self.T_final:
                raise ValueError(
                    f"snapshot time {s} outside [0, T_final={self.T_final}]"
                )
        if not math.isfinite(self.structure_threshold):
            raise ValueError(
                f"structure_threshold must be finite, got {self.structure_threshold}"
            )
        super().__post_init__()


def _parse_times(raw: str) -> tuple[float, ...]:
    return tuple(float(p) for p in raw.split(",")) if raw.strip() else ()


def _render_times(times: tuple[float, ...]) -> str:
    return ", ".join(repr(t) for t in times)


_PARSERS = {int: int, float: float, str: str, InitialSpec: InitialSpec.parse, tuple: _parse_times}
#: the inverse of each parser; repr keeps every float's digits
_RENDERERS = {int: str, float: repr, str: str, InitialSpec: InitialSpec.render, tuple: _render_times}

#: every config key, mapped to the parser of its raw text (by default type)
CONFIG_KEYS = {f.name: _PARSERS[type(f.default)] for f in fields(SimulationConfig)}


def _convert(key: str, raw: str, lineno: int):
    try:
        return CONFIG_KEYS[key](raw)
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc


def parse_config(text: str, overrides: dict[str, str] | None = None) -> SimulationConfig:
    """Parse config text, apply raw-string overrides, validate everything."""
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _convert(key, raw, lineno)

    for key, raw in (overrides or {}).items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"override: unknown key {key!r}")
        values[key] = _convert(key, raw, 0)

    try:
        return SimulationConfig(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def render_config(config: SimulationConfig) -> str:
    """Inverse of parse_config: parse(render(c)) == c."""
    lines = [
        f"{f.name} = {_RENDERERS[type(f.default)](getattr(config, f.name))}"
        for f in fields(config)
    ]
    return "\n".join(lines) + "\n"

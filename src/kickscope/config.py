"""Flat key=value run configuration shared by the command-line tools.

A config file is plain text, one ``section.key = value`` pair per line,
with ``#`` comments.  Missing keys fall back to the desk-scale defaults
below, which resolve a micron-narrow pair of slits well inside a grid wide
enough for the propagated envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError
from .hilbert import SYMMETRIC, Basis, COMPUTATIONAL, DetectorConfig, tilted
from .wavepacket import GridSpec, PhysicalUnits, SlitGeometry

__all__ = ["RunConfig", "default_config", "load_config", "parse_config_text", "parse_c_values"]

_DEFAULT_N = 2**21
_DEFAULT_DX = 0.0025
# Center the box on the midpoint between the slits (d/2 for d = 1).
_HALF_EXTENT = _DEFAULT_N * _DEFAULT_DX / 2.0

_DEFAULTS: dict[str, object] = {
    "geometry.d": 1.0,
    "geometry.sigma": 0.01,
    "units.hbar": 1.0,
    "units.mass": 1.0,
    "units.t": 5.0,
    "grid.n": _DEFAULT_N,
    "grid.x_min": 0.5 - _HALF_EXTENT,
    "grid.x_max": 0.5 + _HALF_EXTENT,
    "detector.c": 0.5,
    "detector.theta": 0.0,
    "basis": "symmetric",
    "sampling.count": 100_000,
    "sampling.seed": 42,
}

_INT_KEYS = {"grid.n", "sampling.count", "sampling.seed"}

# The model takes the two slit states as orthogonal, but they overlap by
# exp(-d^2/(8 sigma^2)), and the branch probabilities then sum to
# 1 + c*cos(theta)*exp(-d^2/(8 sigma^2)).  The overlap may not exceed
# verify's tolerance on that sum, 1e-10, which caps sigma/d near 0.0737.
_SLIT_OVERLAP_TOL = 1e-10
_MAX_SLIT_RATIO = 1.0 / math.sqrt(8.0 * math.log(1.0 / _SLIT_OVERLAP_TOL))


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs: physics, grid, detector, and sampling."""

    geometry: SlitGeometry
    units: PhysicalUnits
    grid: GridSpec
    detector: DetectorConfig
    basis: Basis
    sample_count: int
    seed: int


def _parse_basis(text: str) -> Basis:
    name = text.strip().lower()
    if name == "computational":
        return COMPUTATIONAL
    if name == "symmetric":
        return SYMMETRIC
    if name.startswith("tilted:"):
        try:
            return tilted(float(name.split(":", 1)[1]))
        except ValueError as exc:
            raise ConfigurationError(f"bad tilted-basis angle in {text!r}: {exc}") from exc
    raise ConfigurationError(
        f"unknown basis {text!r}; use computational, symmetric, or tilted:<angle>"
    )


def _parse_value(key: str, raw: str) -> object:
    if key == "basis":
        return raw
    try:
        if key in _INT_KEYS:
            return int(raw)
        return float(raw)
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse value for {key}: {raw!r}") from exc


def _build(values: dict[str, object]) -> RunConfig:
    count = int(values["sampling.count"])  # type: ignore[arg-type]
    if count < 0:
        raise ConfigurationError("sampling.count must be non-negative")
    seed = int(values["sampling.seed"])  # type: ignore[arg-type]
    # numpy.random.default_rng rejects negative seeds; catch them before
    # any file is written.
    if seed < 0:
        raise ConfigurationError(f"sampling.seed must be non-negative, got {seed}")
    d, sigma = float(values["geometry.d"]), float(values["geometry.sigma"])  # type: ignore[arg-type]
    # SlitGeometry rejects a d or sigma that is not positive and finite.
    if 0 < d < math.inf and 0 < sigma < math.inf and sigma / d > _MAX_SLIT_RATIO:
        overlap = math.exp(-((d / sigma) ** 2) / 8.0)  # d/sigma < 1/_MAX_SLIT_RATIO here
        raise ConfigurationError(
            f"geometry.sigma = {sigma} is too wide for geometry.d = {d}: the slit states "
            f"overlap by exp(-d^2/8 sigma^2) = {overlap:.3g}, above {_SLIT_OVERLAP_TOL:g}; "
            f"sigma/d must not exceed {_MAX_SLIT_RATIO:.4f}"
        )
    return RunConfig(
        geometry=SlitGeometry(d=d, sigma=sigma),
        units=PhysicalUnits(
            hbar=values["units.hbar"], mass=values["units.mass"], t=values["units.t"]
        ),
        grid=GridSpec(
            n=values["grid.n"], x_min=values["grid.x_min"], x_max=values["grid.x_max"]
        ),
        detector=DetectorConfig(c=values["detector.c"], theta=values["detector.theta"]),
        basis=_parse_basis(str(values["basis"])),
        sample_count=count,
        seed=seed,
    )


def parse_config_text(text: str) -> RunConfig:
    """Parse config text; unknown, repeated and malformed keys are hard errors."""
    values = dict(_DEFAULTS)
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _DEFAULTS:
            raise ConfigurationError(f"line {lineno}: unknown config key {key!r}")
        if key in first_line:
            raise ConfigurationError(
                f"line {lineno}: config key {key!r} repeats line {first_line[key]}"
            )
        first_line[key] = lineno
        values[key] = _parse_value(key, raw)
    return _build(values)


def default_config() -> RunConfig:
    """The desk-scale defaults (hbar = m = 1, d = 1, sigma = 0.01, t = 5)."""
    return _build(dict(_DEFAULTS))


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text)


def parse_c_values(text: str) -> list[float]:
    """Parse a comma-separated list of overlap magnitudes for scans."""
    out: list[float] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            value = float(part)
        except ValueError as exc:
            raise ConfigurationError(f"bad c value {part!r}") from exc
        if not 0.0 <= value <= 1.0 or math.isnan(value):
            raise ConfigurationError(f"c value {value} outside [0, 1]")
        out.append(value)
    if not out:
        raise ConfigurationError("empty c-value list")
    return out

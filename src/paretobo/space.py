"""Bounded, typed, scaled search spaces and unit-hypercube mappings.

A :class:`SearchSpace` is an ordered sequence of :class:`Dimension` objects.
Configurations live in two representations:

- *native*: one value per dimension in its own units (array in dimension
  order; integer dimensions hold integral values),
- *unit*: a point in ``[0, 1]^d`` where every dimension was mapped affinely
  (in log space for log-scaled dimensions).

All numeric work downstream (surrogates, cost models, candidate sampling)
happens in unit coordinates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Literal, Sequence

import numpy as np

from .errors import BoundsError, ConfigError

Kind = Literal["continuous", "integer"]
Scale = Literal["linear", "log"]


@dataclass(frozen=True)
class Dimension:
    """One search dimension with bounds, type and scale.

    Attributes:
        name: Unique identifier within a space.
        kind: "continuous" or "integer".
        lower: Inclusive lower bound.
        upper: Inclusive upper bound.
        scale: "linear" or "log"; log requires a positive lower bound.
    """

    name: str
    kind: Kind
    lower: float
    upper: float
    scale: Scale = "linear"

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ConfigError(f"dimension name {self.name!r} is not a string")
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ConfigError(f"dimension {self.name!r}: bounds must be finite")
        if self.kind not in ("continuous", "integer"):
            raise ConfigError(f"dimension {self.name!r}: unknown kind {self.kind!r}")
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"dimension {self.name!r}: unknown scale {self.scale!r}")
        if not (self.lower < self.upper):
            raise ConfigError(
                f"dimension {self.name!r}: lower ({self.lower}) must be < upper ({self.upper})"
            )
        if self.scale == "log" and self.lower <= 0:
            raise ConfigError(f"dimension {self.name!r}: log scale requires lower > 0")
        if self.kind == "integer" and (
            not float(self.lower).is_integer() or not float(self.upper).is_integer()
        ):
            raise ConfigError(f"dimension {self.name!r}: integer bounds required")

    def to_unit(self, value: float) -> float:
        """Map a native value to [0, 1] (affine, in log space for log dims)."""
        if not (self.lower <= value <= self.upper):
            raise BoundsError(
                f"dimension {self.name!r}: value {value} outside [{self.lower}, {self.upper}]"
            )
        if self.scale == "log":
            lo, hi = math.log(self.lower), math.log(self.upper)
            return (math.log(value) - lo) / (hi - lo)
        return (value - self.lower) / (self.upper - self.lower)

    def from_unit(self, coord: float) -> float:
        """Inverse of :meth:`to_unit`; integer dims round half-up then clamp."""
        if not (0.0 <= coord <= 1.0):
            raise BoundsError(
                f"dimension {self.name!r}: unit coordinate {coord} outside [0, 1]"
            )
        if self.scale == "log":
            lo, hi = math.log(self.lower), math.log(self.upper)
            value = math.exp(lo + coord * (hi - lo))
        else:
            value = self.lower + coord * (self.upper - self.lower)
        if self.kind == "integer":
            value = float(math.floor(value + 0.5))
        return min(max(value, self.lower), self.upper)


class SearchSpace:
    """Ordered collection of dimensions with unique names."""

    def __init__(self, dims: Sequence[Dimension]):
        if not dims:
            raise ConfigError("a search space needs at least one dimension")
        names = [d.name for d in dims]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate dimension names: {names}")
        self.dims: tuple[Dimension, ...] = tuple(dims)

    def __len__(self) -> int:
        return len(self.dims)

    def __repr__(self) -> str:
        inner = ", ".join(f"{d.name}[{d.lower}, {d.upper}]" for d in self.dims)
        return f"SearchSpace({inner})"

    @property
    def names(self) -> list[str]:
        return [d.name for d in self.dims]

    def to_dict(self) -> dict:
        return {
            "dimensions": [
                {
                    "name": d.name,
                    "kind": d.kind,
                    "lower": d.lower,
                    "upper": d.upper,
                    "scale": d.scale,
                }
                for d in self.dims
            ]
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SearchSpace":
        """Inverse of :meth:`to_dict`; any malformed payload is a ConfigError."""
        try:
            dims = [
                Dimension(
                    name=entry["name"],
                    kind=entry["kind"],
                    lower=float(entry["lower"]),
                    upper=float(entry["upper"]),
                    scale=entry.get("scale", "linear"),
                )
                for entry in payload["dimensions"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed space config: {exc}") from exc
        return cls(dims)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "SearchSpace":
        """Read a space saved by :meth:`save`; a malformed file is a ConfigError."""
        try:
            return cls.from_dict(json.loads(Path(path).read_text()))
        except ValueError as exc:  # a JSONDecodeError or a ConfigError
            raise ConfigError(f"{path}: {exc}") from exc


def to_unit(space: SearchSpace, cfg: Iterable[float]) -> np.ndarray:
    """Map a native configuration (dimension order) to the unit cube."""
    values = np.asarray(list(cfg), dtype=float)
    if values.shape != (len(space),):
        raise ConfigError(
            f"expected {len(space)} values, got shape {values.shape}"
        )
    return np.array([d.to_unit(v) for d, v in zip(space.dims, values)])


def from_unit(space: SearchSpace, point: Iterable[float]) -> np.ndarray:
    """Map a unit-cube point back to native units."""
    coords = np.asarray(list(point), dtype=float)
    if coords.shape != (len(space),):
        raise ConfigError(
            f"expected {len(space)} coordinates, got shape {coords.shape}"
        )
    return np.array([d.from_unit(c) for d, c in zip(space.dims, coords)])


def sample_uniform(space: SearchSpace, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` i.i.d. uniform unit-cube points, shape ``(n, d)``."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    return rng.uniform(0.0, 1.0, size=(n, len(space)))


def xgboost_space() -> SearchSpace:
    """The 7-dimensional XGBoost tuning space used for tabular replay."""
    return SearchSpace(
        [
            Dimension("num_boost_round", "integer", 1, 256, "log"),
            Dimension("learning_rate", "continuous", 0.01, 1.0, "log"),
            Dimension("gamma", "continuous", 0.0, 0.1, "linear"),
            Dimension("alpha", "continuous", 1e-3, 1e3, "log"),
            Dimension("lambda", "continuous", 1e-3, 1e3, "log"),
            Dimension("subsample", "continuous", 0.01, 1.0, "linear"),
            Dimension("max_depth", "integer", 1, 16, "linear"),
        ]
    )

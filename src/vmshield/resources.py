"""Three-dimensional resource vectors and weighted scoring.

Every quantity in the placement and migration pipeline is a
(cpu, mem, bw) triple expressed in percent of a server's capacity, so
vectors from different servers compare directly.  Weighted scores are
plain dot products against a priority vector whose components sum to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParseError

WEIGHT_SUM_TOL = 1e-9


def json_number(value, name: str) -> float:
    """value as a float, if it is a JSON int or float (a bool or a string is not).

    Anything else, or an integer too large for a float, is a ParseError
    naming name.
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"{name} must be a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"{name} is too large for a float") from None


def json_int(value, name: str) -> int:
    """value, if it is a JSON integer (a bool is not); else a ParseError naming name."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{name} must be a JSON integer, got {value!r}")
    return value


@dataclass(frozen=True)
class ResourceVector:
    """A (cpu, mem, bw) triple in percent-of-capacity units.

    Stored states keep every component finite, non-negative and at most
    100; transient values (feasibility sums, demand estimates) may
    exceed 100.
    """

    cpu: float
    mem: float
    bw: float

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.cpu + other.cpu, self.mem + other.mem, self.bw + other.bw)

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.cpu - other.cpu, self.mem - other.mem, self.bw - other.bw)

    def scaled(self, factor: float) -> "ResourceVector":
        return ResourceVector(self.cpu * factor, self.mem * factor, self.bw * factor)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.cpu, self.mem, self.bw)

    def to_json(self) -> dict:
        return {"cpu": self.cpu, "mem": self.mem, "bw": self.bw}

    @classmethod
    def from_json(cls, obj: dict) -> "ResourceVector":
        if not isinstance(obj, dict):
            raise ParseError(f"resource vector must be a JSON object with cpu/mem/bw fields: {obj!r}")
        unknown = set(obj) - {"cpu", "mem", "bw"}
        if unknown:
            raise ParseError(f"resource vector: unknown keys {sorted(unknown)}; expected cpu/mem/bw")
        try:
            v = cls(*(json_number(obj[name], name) for name in ("cpu", "mem", "bw")))
        except KeyError as exc:
            raise ParseError(f"resource vector needs cpu, mem and bw fields: {obj!r}") from exc
        for name, c in zip(("cpu", "mem", "bw"), v.as_tuple()):
            if not math.isfinite(c) or c < 0:
                raise ParseError(f"resource component {name}={c} must be finite and >= 0")
        return v


ZERO = ResourceVector(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class WeightVector:
    """Priority weights for (cpu, mem, bw); components in [0, 1] summing to 1."""

    w_cpu: float
    w_mem: float
    w_bw: float

    def __post_init__(self):
        comps = (self.w_cpu, self.w_mem, self.w_bw)
        if any(not math.isfinite(w) or w < 0.0 or w > 1.0 for w in comps):
            raise ValueError(f"weights must lie in [0, 1]: {comps}")
        if abs(sum(comps) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}: {comps}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.w_cpu, self.w_mem, self.w_bw)

    def to_json(self) -> dict:
        return {"w_cpu": self.w_cpu, "w_mem": self.w_mem, "w_bw": self.w_bw}

    @classmethod
    def from_json(cls, obj: dict) -> "WeightVector":
        try:
            return cls(*(json_number(obj[name], name) for name in ("w_cpu", "w_mem", "w_bw")))
        except (KeyError, TypeError) as exc:
            raise ParseError(f"weight vector needs numeric w_cpu/w_mem/w_bw fields: {obj!r}") from exc
        except ValueError as exc:
            raise ParseError(str(exc)) from exc


UNIFORM_WEIGHTS = WeightVector(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


def rv_strictly_less(a: ResourceVector, b: ResourceVector) -> bool:
    """True iff every component of a is strictly below b's; equality fails."""
    return a.cpu < b.cpu and a.mem < b.mem and a.bw < b.bw


def weighted_score(w: WeightVector, m: ResourceVector) -> float:
    """Dot product of priority weights and a utilization vector."""
    return w.w_cpu * m.cpu + w.w_mem * m.mem + w.w_bw * m.bw

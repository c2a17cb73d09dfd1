"""Singlet-state predictions and a numerical search for the maximal violation.

The observable probability for settings (alpha_i, beta_j) is
``p_ij = 1/4 - <alpha_i|beta_j>/4`` with the bracket the cosine of the angle
between the two measurement axes.  Planar angles given as exact multiples of
pi keep the result exact whenever every cosine lands in
{0, +-1/2, +-sqrt2/2, +-1}; anything else drops to approximate scalars.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from typing import Sequence

import numpy as np

from .model import OutcomeVector
from .scalars import Scalar
from .stats import chsh_expressions

__all__ = [
    "Settings",
    "parse_angle",
    "qm_outcomes",
    "maximize_chsh",
    "MAX_CHSH_RESOLUTION",
    "MAX_CHSH_REFINE",
]

#: The finest angle grid of :func:`maximize_chsh`, which holds a few
#: resolution^3 float arrays at once: 16 MiB each at 128.
MAX_CHSH_RESOLUTION = 128

#: The most golden-section sweeps :func:`maximize_chsh` runs (1000 take
#: ~0.3 s on a 2-core VM); a few already reach the float optimum.
MAX_CHSH_REFINE = 1000

_PI_RE = re.compile(r"^([+-]?)(?:(\d+(?:/\d+)?)\*?)?pi(?:/(\d+))?$")


def parse_angle(text: str) -> Fraction | float:
    """Parse an angle: ``"pi/4"``, ``"-3*pi/4"`` (exact multiples of pi,
    returned as Fractions in units of pi) or a plain number in radians.
    A literal 0 is exact in either reading."""
    text = text.strip().replace(" ", "")
    m = _PI_RE.match(text)
    if m:
        sign, coef, den = m.groups()
        try:
            value = Fraction(coef or 1) / int(den or 1)
        except ZeroDivisionError:
            raise ValueError(f"angle {text!r} has a zero denominator") from None
        return -value if sign == "-" else value
    try:
        radians = float(text)
    except ValueError:
        raise ValueError(f"cannot parse angle {text!r}") from None
    return _radians(radians, text)


def _radians(value, shown) -> Fraction | float:
    """A number as a finite angle in radians; 0 becomes the exact
    Fraction(0).  An int beyond the float range is not finite either."""
    try:
        radians = float(value)
    except OverflowError:
        radians = math.inf
    if not math.isfinite(radians):
        raise ValueError(f"angle {shown!r} is not finite")
    return Fraction(0) if radians == 0.0 else radians


def _as_angle(value) -> Fraction | float:
    if isinstance(value, str):
        return parse_angle(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, float)):
        return _radians(value, value)
    raise TypeError(f"cannot interpret {value!r} as an angle")


def _unit(vector: Sequence[float]) -> tuple[float, float, float]:
    try:
        v = np.asarray(vector, dtype=float)
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"measurement axis {list(vector)} is not finite") from None
    if v.shape != (3,):
        raise ValueError("measurement axes must be 3-vectors")
    if not np.isfinite(v).all():
        raise ValueError(f"measurement axis {v.tolist()} is not finite")
    norm = float(np.linalg.norm(v))
    if norm < 1e-12:
        raise ValueError("measurement axis has zero length")
    v = v / norm
    return (float(v[0]), float(v[1]), float(v[2]))


@dataclass(frozen=True)
class Settings:
    """Measurement axes: planar angles (Fraction = multiple of pi, float =
    radians) or explicit 3D unit vectors."""

    kind: str
    a1: object
    a2: object
    b1: object
    b2: object

    @classmethod
    def planar(cls, a1, a2, b1, b2) -> Settings:
        return cls("planar", *(_as_angle(v) for v in (a1, a2, b1, b2)))

    @classmethod
    def from_vectors(cls, a1, a2, b1, b2) -> Settings:
        return cls("vectors", *(_unit(v) for v in (a1, a2, b1, b2)))

    def angles_in_radians(self) -> tuple[float, float, float, float]:
        if self.kind != "planar":
            raise ValueError("not a planar setting")
        return tuple(
            float(v) * math.pi if isinstance(v, Fraction) else float(v)
            for v in (self.a1, self.a2, self.b1, self.b2)
        )


def _cos_pi_fraction(q: Fraction) -> Scalar | None:
    """cos(q*pi) when it lies in Q[sqrt(2)], else None."""
    q = q % 2
    den = q.denominator
    num = q.numerator
    if den == 1:
        return Scalar(1) if num == 0 else Scalar(-1)
    if den == 2:
        return Scalar(0)
    if den == 3:
        return Scalar(Fraction(1, 2) if num in (1, 5) else Fraction(-1, 2))
    if den == 4:
        return Scalar(0, Fraction(1, 2) if num in (1, 7) else Fraction(-1, 2))
    return None


def qm_outcomes(settings: Settings) -> OutcomeVector:
    """The outcome vector predicted for the given measurement axes."""
    if settings.kind == "vectors":
        cosines = [
            sum(x * y for x, y in zip(a, b))
            for a in (settings.a1, settings.a2)
            for b in (settings.b1, settings.b2)
        ]
        return OutcomeVector(*((1.0 - c) / 4.0 for c in cosines))

    alphas = (settings.a1, settings.a2)
    betas = (settings.b1, settings.b2)
    exact: list[Scalar | None] = []
    for a in alphas:
        for b in betas:
            if isinstance(a, Fraction) and isinstance(b, Fraction):
                exact.append(_cos_pi_fraction(a - b))
            else:
                exact.append(None)
    if all(c is not None for c in exact):
        return OutcomeVector(*((1 - c) / 4 for c in exact))
    rad = settings.angles_in_radians()
    cosines = [math.cos(rad[i] - rad[2 + j]) for i in range(2) for j in range(2)]
    return OutcomeVector(*((1.0 - c) / 4.0 for c in cosines))


def _excess(a2, b1, b2):
    """max_ij |expression_ij - 1/2| for planar angles (0, a2, b1, b2): one
    float for float angles (the refinement's calls, by ``math.cos`` and the
    builtin ``max``), or an array for angle arrays that broadcast."""
    floats = type(a2) is type(b1) is type(b2) is float
    cos, largest = (math.cos, max) if floats else (np.cos, partial(reduce, np.maximum))
    cosines = (cos(-b1), cos(-b2), cos(a2 - b1), cos(a2 - b2))
    return largest(map(abs, chsh_expressions(cosines))) / 4.0


_GOLDEN = (math.sqrt(5) - 1) / 2


def _golden_max(f, lo: float, hi: float, iterations: int = 60) -> float:
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iterations):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
    return (a + b) / 2


def maximize_chsh(resolution: int = 64, refine: int = 3) -> tuple[Settings, Scalar]:
    """Search planar settings maximizing the largest |expression - 1/2|.

    Grid search over (a2, b1, b2) with a1 pinned to 0 (a common rotation of
    all four axes is irrelevant), then ``refine`` sweeps of coordinate-wise
    golden-section refinement.  Returns the settings and the maximal
    expression value ``1/2 + excess`` as an approximate scalar.
    """
    if resolution < 8:
        raise ValueError("resolution must be at least 8")
    if resolution > MAX_CHSH_RESOLUTION:
        raise ValueError(
            f"resolution must be at most {MAX_CHSH_RESOLUTION}, got {resolution}"
        )
    if refine < 0:
        raise ValueError(f"refine must be at least 0, got {refine}")
    if refine > MAX_CHSH_REFINE:
        raise ValueError(f"refine must be at most {MAX_CHSH_REFINE}, got {refine}")
    grid = np.linspace(0.0, 2.0 * math.pi, resolution, endpoint=False)
    obj = _excess(grid[:, None, None], grid[None, :, None], grid[None, None, :])
    ia, ib1, ib2 = np.unravel_index(int(np.argmax(obj)), obj.shape)
    best = [float(grid[ia]), float(grid[ib1]), float(grid[ib2])]
    step = 2.0 * math.pi / resolution
    for _ in range(refine):
        for k in range(3):
            def along(x, k=k):
                args = list(best)
                args[k] = x
                return _excess(*args)

            best[k] = _golden_max(along, best[k] - step, best[k] + step)
    value = _excess(*best)
    settings = Settings.planar(0.0, best[0], best[1], best[2])
    return settings, Scalar.approximate(0.5 + value)

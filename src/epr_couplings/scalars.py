"""Exact arithmetic over the field Q[sqrt(2)], with an approximate float mode.

A :class:`Scalar` is either *exact* -- the value ``a + b*sqrt(2)`` with
rational ``a``, ``b`` -- or *approximate* -- a float compared up to a
tolerance.  Exact scalars form an ordered field: all four arithmetic
operations stay inside Q[sqrt(2)] and the sign of any value is decided
exactly (no floating point is ever consulted).  This is what makes boundary
classifications (values like ``(1+sqrt2)/2`` landing exactly on a face)
deterministic.

Mixing exact and approximate operands is an error; convert explicitly with
:meth:`Scalar.to_approximate` or :meth:`Scalar.to_float`.

``Scalar`` is the public, parsed and printed type.  Exact decisions run on
integers instead: :func:`integers` scales values over one common
denominator to Python ints and, for a sqrt(2) part, to :class:`ZSqrt2`
pairs of ints, which also hold whole numpy blocks of values;
:func:`quotient` turns a result back into a ``Scalar``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np

__all__ = [
    "Scalar",
    "ScalarModeError",
    "ScalarParseError",
    "compare",
    "as_scalar",
    "integers",
    "quotient",
    "ZSqrt2",
    "DEFAULT_TOLERANCE",
    "ZERO",
    "ONE",
    "HALF",
    "SQRT2",
]

#: Tolerance used for comparisons between approximate scalars.
DEFAULT_TOLERANCE = 1e-9


class ScalarModeError(TypeError):
    """Raised when exact and approximate scalars are combined implicitly."""


class ScalarParseError(ValueError):
    """Raised when a scalar expression cannot be parsed."""


def _sgn(x):
    """-1, 0 or +1; elementwise (as an int array) on an array."""
    return (x > 0) * 1 - (x < 0) * 1


def _sign(a, b):
    """Exact sign of ``a + b*sqrt(2)`` for ints ``a``, ``b`` (or int arrays,
    elementwise), without branches: with parts of the same sign (or a zero
    part) it is the sign of their sum; with opposite signs ``|a|`` vs
    ``|b| sqrt2`` reduces to ``a^2`` vs ``2 b^2``, never equal for nonzero
    ints (sqrt(2) is irrational), and takes the sign of ``a`` when ``a``
    wins."""
    sa, sb = _sgn(a), _sgn(b)
    same = sa * sb >= 0
    return same * _sgn(sa + sb) + (1 - same) * sa * _sgn(a * a - 2 * b * b)


def _sign_quadratic(a: Fraction, b: Fraction) -> int:
    """Exact sign of a + b*sqrt(2) for rationals: :func:`_sign` of the pair
    scaled by the positive ``a.denominator * b.denominator``."""
    return _sign(a.numerator * b.denominator, b.numerator * a.denominator)


_NO_ROOT = Fraction(0)


class Scalar:
    """Immutable number from Q[sqrt(2)] (exact) or a toleranced float."""

    __slots__ = ("_a", "_b", "_value")

    _a: Fraction | None
    _b: Fraction | None
    _value: float | None

    def __init__(self, a: Fraction | int = 0, b: Fraction | int = _NO_ROOT):
        # Fractions are stored as given; only other rationals are converted.
        object.__setattr__(self, "_a", a if type(a) is Fraction else Fraction(a))
        object.__setattr__(self, "_b", b if type(b) is Fraction else Fraction(b))
        object.__setattr__(self, "_value", None)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):
        if self._value is None:
            return (Scalar, (self._a, self._b))
        return (Scalar.approximate, (self._value,))

    # -- constructors -----------------------------------------------------

    @classmethod
    def rational(cls, num, den=None) -> Scalar:
        """Exact rational scalar, e.g. ``Scalar.rational(1, 4)``."""
        return cls(Fraction(num) if den is None else Fraction(num, den))

    @classmethod
    def quadratic(cls, a, b) -> Scalar:
        """Exact scalar a + b*sqrt(2)."""
        return cls(Fraction(a), Fraction(b))

    @classmethod
    def approximate(cls, value: float) -> Scalar:
        """Approximate (float) scalar, compared up to DEFAULT_TOLERANCE."""
        s = object.__new__(cls)
        object.__setattr__(s, "_a", None)
        object.__setattr__(s, "_b", None)
        object.__setattr__(s, "_value", float(value))
        return s

    # -- mode and accessors ------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self._value is None

    @property
    def is_rational(self) -> bool:
        return self._value is None and not self._b

    @property
    def a(self) -> Fraction:
        """Rational part (exact scalars only)."""
        if self._a is None:
            raise ScalarModeError("approximate scalar has no rational part")
        return self._a

    @property
    def b(self) -> Fraction:
        """Coefficient of sqrt(2) (exact scalars only)."""
        if self._b is None:
            raise ScalarModeError("approximate scalar has no sqrt(2) part")
        return self._b

    def as_fraction(self) -> Fraction:
        """The value as a Fraction; requires an exact rational scalar."""
        if not self.is_exact:
            raise ScalarModeError("approximate scalar is not a fraction")
        if self._b:
            raise ValueError(f"{self} has an irrational part")
        return self._a

    def to_float(self) -> float:
        if self._value is not None:
            return self._value
        return float(self._a) + float(self._b) * math.sqrt(2)

    def to_approximate(self) -> Scalar:
        """Explicit conversion to approximate mode."""
        return Scalar.approximate(self.to_float())

    def __float__(self) -> float:
        return self.to_float()

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Scalar | None":
        if isinstance(other, Scalar):
            if self.is_exact != other.is_exact:
                raise ScalarModeError(
                    "cannot combine exact and approximate scalars implicitly; "
                    "convert with to_approximate()"
                )
            return other
        if isinstance(other, (int, Fraction)):
            if self.is_exact:
                return Scalar(other)
            return Scalar.approximate(float(other))
        if isinstance(other, float):
            if self.is_exact:
                raise ScalarModeError(
                    "cannot combine an exact scalar with a float implicitly; "
                    "convert with to_approximate()"
                )
            return Scalar.approximate(other)
        return None

    def __add__(self, other) -> Scalar:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_exact:
            if self._b or o._b:
                return Scalar(self._a + o._a, self._b + o._b)
            return Scalar(self._a + o._a)
        return Scalar.approximate(self._value + o._value)

    __radd__ = __add__

    def __neg__(self) -> Scalar:
        if self.is_exact:
            return Scalar(-self._a, -self._b) if self._b else Scalar(-self._a)
        return Scalar.approximate(-self._value)

    def __pos__(self) -> Scalar:
        return self

    def __sub__(self, other) -> Scalar:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_exact:
            if self._b or o._b:
                return Scalar(self._a - o._a, self._b - o._b)
            return Scalar(self._a - o._a)
        return Scalar.approximate(self._value - o._value)

    def __rsub__(self, other) -> Scalar:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other) -> Scalar:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_exact:
            if not self._b:
                return Scalar(self._a * o._a, self._a * o._b) if o._b else Scalar(self._a * o._a)
            if not o._b:
                return Scalar(self._a * o._a, self._b * o._a)
            return Scalar(
                self._a * o._a + 2 * self._b * o._b,
                self._a * o._b + self._b * o._a,
            )
        return Scalar.approximate(self._value * o._value)

    __rmul__ = __mul__

    def __truediv__(self, other) -> Scalar:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.is_exact:
            return Scalar.approximate(self._value / o._value)
        norm = o._a * o._a - 2 * o._b * o._b
        if not norm:
            raise ZeroDivisionError("division by zero scalar")
        # 1/(c + d*sqrt2) = (c - d*sqrt2)/(c^2 - 2 d^2)
        inv_a = o._a / norm
        inv_b = -o._b / norm
        return self * Scalar(inv_a, inv_b)

    def __rtruediv__(self, other) -> Scalar:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __abs__(self) -> Scalar:
        return -self if self.sign() < 0 else self

    # -- comparisons ---------------------------------------------------------

    def sign(self) -> int:
        """Exact sign for exact scalars; raw float sign otherwise."""
        if self.is_exact:
            return _sign_quadratic(self._a, self._b)
        return (self._value > 0) - (self._value < 0)

    def compare(self, other, tol: float | None = None) -> int:
        """-1, 0 or +1.  Approximate pairs are equal when |x-y| <= tol."""
        if self._value is None and isinstance(other, (int, Fraction)):
            oa, ob = other, 0
        else:
            o = self._coerce(other)
            if o is None:
                raise TypeError(f"cannot compare Scalar with {type(other).__name__}")
            if not self.is_exact:
                t = DEFAULT_TOLERANCE if tol is None else tol
                d = self._value - o._value
                if abs(d) <= t:
                    return 0
                return 1 if d > 0 else -1
            oa, ob = o._a, o._b
        if not self._b and not ob:
            return (self._a > oa) - (self._a < oa)
        return _sign_quadratic(self._a - oa, self._b - ob)

    def _cmp_or_notimpl(self, other):
        try:
            return self.compare(other)
        except ScalarModeError:
            raise  # mode mixing must never degrade to identity comparison
        except TypeError:
            return NotImplemented

    def __eq__(self, other):
        c = self._cmp_or_notimpl(other)
        return NotImplemented if c is NotImplemented else c == 0

    def __ne__(self, other):
        c = self._cmp_or_notimpl(other)
        return NotImplemented if c is NotImplemented else c != 0

    def __lt__(self, other):
        c = self._cmp_or_notimpl(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp_or_notimpl(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp_or_notimpl(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp_or_notimpl(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def __hash__(self):
        if not self.is_exact:
            raise TypeError("approximate scalars are unhashable")
        if not self._b:
            return hash(self._a)
        return hash((self._a, self._b))

    def __bool__(self) -> bool:
        if self.is_exact:
            return bool(self._a) or bool(self._b)
        return self._value != 0.0

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.is_exact:
            return repr(self._value)
        a, b = self._a, self._b
        if not b:
            return str(a)
        den = math.lcm(a.denominator, b.denominator)
        na = a.numerator * (den // a.denominator)
        nb = b.numerator * (den // b.denominator)
        if na == 0:
            body = f"{nb}*sqrt2"
        else:
            sign = "+" if nb > 0 else "-"
            body = f"{na}{sign}{abs(nb)}*sqrt2"
        if den == 1:
            return body
        return f"({body})/{den}"

    def __repr__(self) -> str:
        if self.is_exact:
            return f"Scalar('{self}')"
        return f"Scalar.approximate({self._value!r})"


ZERO = Scalar(0)
ONE = Scalar(1)
HALF = Scalar(Fraction(1, 2))
SQRT2 = Scalar(0, 1)


def compare(x, y, tol: float | None = None) -> int:
    """Three-way comparison of scalars (or ints/Fractions): -1, 0 or +1."""
    sx = as_scalar(x)
    return sx.compare(as_scalar(y) if not isinstance(y, Scalar) else y, tol=tol)


_INTEGERS = (int, np.ndarray)


def _minus(x: ZSqrt2, other):
    """The parts ``(a, b)`` of ``x - other``; None for an operand that is
    neither a ZSqrt2 nor an int or int array."""
    if type(other) is ZSqrt2:
        return x.a - other.a, x.b - other.b
    if isinstance(other, _INTEGERS):
        return x.a - other, x.b
    return None


def _comparison(test):
    """A ZSqrt2 comparison method: ``test`` of the sign of the difference."""
    def method(self, other):
        d = _minus(self, other)
        return NotImplemented if d is None else test(_sign(*d))
    return method


class ZSqrt2:
    """``a + b*sqrt(2)`` with integer ``a`` and ``b``: an element of the ring
    Z[sqrt(2)], the number type exact Q[sqrt(2)] decisions run on.

    Each field is an int or a numpy object array of ints, so one value
    holds a single number or a whole block of them; ``+ - *`` (with ints,
    int arrays and each other, either side), ``abs``, :meth:`sign` and the
    six comparisons then act elementwise and return ints or arrays of them.
    ``__array_ufunc__ = None`` sends ``ndarray + ZSqrt2`` to the reflected
    method here, so it never becomes an object array of ZSqrt2s.
    """

    __slots__ = ("a", "b")
    __array_ufunc__ = None

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __add__(self, other):
        if type(other) is ZSqrt2:
            return ZSqrt2(self.a + other.a, self.b + other.b)
        if isinstance(other, _INTEGERS):
            return ZSqrt2(self.a + other, self.b)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        d = _minus(self, other)
        return NotImplemented if d is None else ZSqrt2(*d)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self) -> ZSqrt2:
        return ZSqrt2(-self.a, -self.b)

    def __mul__(self, other):
        if type(other) is ZSqrt2:
            a, b, c, d = self.a, self.b, other.a, other.b
            return ZSqrt2(a * c + 2 * b * d, a * d + b * c)
        if isinstance(other, _INTEGERS):
            return ZSqrt2(self.a * other, self.b * other)
        return NotImplemented

    __rmul__ = __mul__

    def __abs__(self) -> ZSqrt2:
        s = self.sign()
        if isinstance(s, np.ndarray):  # keep the parts Python ints
            s = s.astype(object)
        return ZSqrt2(self.a * s, self.b * s)

    def sign(self):
        """Exact sign: -1, 0 or +1, or an int array of them."""
        return _sign(self.a, self.b)

    __lt__ = _comparison(lambda s: s < 0)
    __le__ = _comparison(lambda s: s <= 0)
    __eq__ = _comparison(lambda s: s == 0)
    __ne__ = _comparison(lambda s: s != 0)
    __gt__ = _comparison(lambda s: s > 0)
    __ge__ = _comparison(lambda s: s >= 0)

    def __repr__(self) -> str:
        return f"ZSqrt2({self.a!r}, {self.b!r})"


def integers(values) -> tuple[int, list]:
    """The number type an exact decision runs on, as ``(unit, scaled)``.

    ``unit`` is the common denominator of every rational part of the values
    (ints, Fractions and exact Scalars, both parts of ``a + b*sqrt2``), and
    ``scaled`` holds each value times ``unit``: an int where the value is
    rational, a :class:`ZSqrt2` where it has a sqrt(2) part.  ``unit`` is a
    positive factor, so every sign and order is kept, and a test that is
    homogeneous in ``(values, unit)`` decides the same on the scaled values
    as on the values.  Approximate Scalars have no exact parts: when any
    value is one, the values pass through unchanged with ``unit = 1``.
    """
    rationals = []
    for v in values:
        if type(v) is Scalar:
            if v._b is None or v._b:
                return _quadratic_integers(values)
            v = v._a
        rationals.append(v)
    unit = math.lcm(*(v.denominator for v in rationals))
    return unit, [v.numerator * (unit // v.denominator) for v in rationals]


def _quadratic_integers(values) -> tuple[int, list]:
    parts = []
    for v in values:
        if type(v) is Scalar:
            if v._b is None:
                return 1, list(values)
            parts.append((v._a, v._b))
        else:
            parts.append((v, 0))
    unit = math.lcm(*(x.denominator for pair in parts for x in pair))
    scaled = []
    for a, b in parts:
        na = a.numerator * (unit // a.denominator)
        scaled.append(ZSqrt2(na, b.numerator * (unit // b.denominator)) if b else na)
    return unit, scaled


def quotient(n, unit: int) -> Scalar:
    """``n / unit`` as a Scalar: the inverse of :func:`integers`, for ``n``
    an int, a ZSqrt2 or (where ``integers`` passed approximate values
    through) an approximate Scalar."""
    if type(n) is ZSqrt2:
        return Scalar(Fraction(n.a, unit), Fraction(n.b, unit))
    if isinstance(n, int):
        return Scalar(Fraction(n, unit))
    return n / unit


def as_scalar(value) -> Scalar:
    """Coerce ints, Fractions, floats and strings to Scalar.

    Floats and decimal strings become approximate scalars; everything else
    stays exact.
    """
    if isinstance(value, Scalar):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, (int, Fraction)):
        return Scalar(value)
    if isinstance(value, float):
        return Scalar.approximate(value)
    if isinstance(value, str):
        return parse(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as Scalar")


# -- parsing ------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<dec>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)"
    r"|(?P<int>\d+)"
    r"|(?P<sqrt2>sqrt2)"
    r"|(?P<op>[-+*/()])"
    r")"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    has_decimal = False
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ScalarParseError(f"bad scalar syntax at {text[pos:]!r}")
        pos = m.end()
        if m.lastgroup == "dec":
            has_decimal = True
            tokens.append(("num", m.group("dec")))
        elif m.lastgroup == "int":
            tokens.append(("num", m.group("int")))
        elif m.lastgroup == "sqrt2":
            tokens.append(("sqrt2", "sqrt2"))
        else:
            tokens.append(("op", m.group("op")))
    if not tokens:
        raise ScalarParseError("empty scalar expression")
    return tokens, has_decimal


class _Parser:
    """Recursive-descent evaluator over either exact Scalars or floats."""

    def __init__(self, tokens, exact: bool):
        self.tokens = tokens
        self.pos = 0
        self.exact = exact

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self):
        value = self.expr()
        if self.pos != len(self.tokens):
            raise ScalarParseError(f"trailing input at token {self.pos}")
        return value

    def expr(self):
        value = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.take()
            rhs = self.factor()
            if op == "*":
                value = value * rhs
            else:
                try:
                    value = value / rhs
                except ZeroDivisionError:
                    raise ScalarParseError("division by zero in scalar expression")
        return value

    def factor(self):
        kind, text = self.take()
        if kind == "op" and text in "+-":
            inner = self.factor()
            return inner if text == "+" else -inner
        if kind == "op" and text == "(":
            value = self.expr()
            if self.take() != ("op", ")"):
                raise ScalarParseError("unbalanced parentheses")
            return value
        if kind == "num":
            return float(text) if not self.exact else Scalar(Fraction(int(text)))
        if kind == "sqrt2":
            return math.sqrt(2) if not self.exact else SQRT2
        raise ScalarParseError(f"unexpected token {text!r}")


def parse(text: str) -> Scalar:
    """Parse a scalar expression.

    Exact forms use integers, ``/``, ``*``, parentheses and the literal
    ``sqrt2``: ``"1/4"``, ``"(3-1*sqrt2)/2"``, ``"sqrt2/2"``.  Any decimal
    literal (``"0.25"``, ``"1e-3"``) switches the whole expression to
    approximate mode.
    """
    tokens, has_decimal = _tokenize(text)
    parser = _Parser(tokens, exact=not has_decimal)
    value = parser.parse()
    if has_decimal:
        return Scalar.approximate(value)
    return value

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

``Scalar`` is the public, parsed and printed type.  Its arithmetic, and
every exact decision, runs on integers: an exact ``Scalar`` is a numerator
over one positive int denominator, the numerator an int or, for a value
with a sqrt(2) part, a :class:`ZSqrt2` pair of ints, whose ``+ - *`` and
one sign rule are the only ones of Q[sqrt(2)] here.  :func:`integers`
scales values over one common denominator to those numerators, which also
hold whole numpy blocks of values; :func:`quotient` turns a result back
into a ``Scalar``.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction

import numpy as np

__all__ = [
    "Scalar",
    "ScalarModeError",
    "ScalarParseError",
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
    elementwise, by :func:`_block_sign`): with parts of the same sign (or a
    zero part) it is the sign of their sum; with opposite signs ``|a|`` vs
    ``|b| sqrt2`` reduces to ``a^2`` vs ``2 b^2``, never equal for nonzero
    ints (sqrt(2) is irrational), and takes the sign of ``a`` when ``a``
    wins."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return _block_sign(a, b)
    sa, sb = _sgn(a), _sgn(b)
    if sa * sb >= 0:
        return _sgn(sa + sb)
    return sa * _sgn(a * a - 2 * b * b)


#: The largest ``|a|`` and ``|b|`` whose ``a^2`` and ``2 b^2`` lie below
#: 2^63: the per-cell bound under which :func:`_block_sign` squares int64
#: parts.
SQUARE_A = math.isqrt(2 ** 63 - 1)
SQUARE_B = math.isqrt(2 ** 62 - 1)


def _block_sign(a, b):
    """:func:`_sign` on arrays (an int part broadcasts), as an int64 array.

    While every cell is narrow it is one step on all of them: ``a^2 > 2
    b^2`` picks the sign of ``a``, otherwise that of ``b``, right where the
    parts agree in sign or one is zero and by ``|a|`` vs ``|b| sqrt2``
    where they differ.  An int64 cell (its parts above -2^63, where
    ``np.abs`` wraps) is narrow while ``|a| <= SQUARE_A`` and ``|b| <=
    SQUARE_B``, so ``a^2``, ``2 b^2`` and their difference lie below 2^63;
    every cell of an object array is wide.  A block with a wide
    cell takes the sign of ``sa + sb`` on every cell, and squares parts only
    on the cells where they differ in sign: in int64 on the narrow ones, in
    Python ints on the wide ones."""
    if np.result_type(a, b) == object:
        sa, sb = _sgn(a), _sgn(b)
        wide = np.True_
    else:
        sa, sb = np.sign(a), np.sign(b)
        wide = (np.abs(a) > SQUARE_A) | (np.abs(b) > SQUARE_B)
        if not wide.any():
            return np.where(a * a > 2 * b * b, sa, sb)
    sign = np.sign(sa + sb)
    split = sa * sb < 0
    for cells, dtype in ((split & ~wide, np.int64), (split & wide, object)):
        if cells.any():
            x, y, s = (gather(cells, t, dtype) for t in (a, b, sa))
            sign[cells] = np.where(x * x > 2 * y * y, s, -s)
    return sign


def gather(mask, t, dtype):
    """``t`` on the cells where the array ``mask`` holds, as a 1-D array of
    ``dtype`` (a ZSqrt2 of two).  A part that is no array, such as an int or
    a numpy scalar, is returned as it is: it broadcasts against the gathered
    cells."""
    if type(t) is ZSqrt2:
        return ZSqrt2(gather(mask, t.a, dtype), gather(mask, t.b, dtype))
    if not isinstance(t, np.ndarray):
        return t
    return np.broadcast_to(t, mask.shape)[mask].astype(dtype, copy=False)


def _ratio(x) -> tuple[int, int]:
    """Numerator and denominator of a rational ``x`` as Python ints, so a
    numpy int (or a Fraction of them) never carries fixed-width arithmetic
    into a Scalar."""
    x = x if type(x) is Fraction else Fraction(x)
    return int(x.numerator), int(x.denominator)


_INTEGERS = (int, np.ndarray)


def _minus(x: ZSqrt2, other):
    """The parts ``(a, b)`` of ``x - other``; None for an operand that is
    neither a ZSqrt2 nor an int or int array."""
    if type(other) is ZSqrt2:
        return x.a - other.a, x.b - other.b
    if isinstance(other, _INTEGERS):
        return x.a - other, x.b
    return None


def _arithmetic(exact, approximate):
    """A binary arithmetic method of Scalar, after its one operand
    prologue: ``exact(n, d, m, e)`` on the exact ``n / d`` (self) and ``m /
    e`` (the other operand), or ``approximate(x, y)`` on the floats of an
    approximate pair."""
    def method(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        n, d = o
        if d is None:
            return Scalar.approximate(approximate(self._n, n))
        return exact(self._n, self._d, n, d)
    return method


def _divide(n, d, m, e) -> Scalar:
    """The exact ``(n / d) / (m / e)``."""
    if type(m) is ZSqrt2:  # 1/(a + b*sqrt2) = (a - b*sqrt2)/(a^2 - 2 b^2)
        conjugate = ZSqrt2(m.a, -m.b)
        return quotient(n * e * conjugate, d * (m * conjugate).a)
    return quotient(n * e, d * m)


def _comparison(test):
    """A comparison method of ZSqrt2 or Scalar: ``test`` of the sign of the
    difference, as ``self._three_way(other)`` gives it."""
    def method(self, other):
        s = self._three_way(other)
        return NotImplemented if s is NotImplemented else test(s)
    return method


class ZSqrt2:
    """``a + b*sqrt(2)`` with integer ``a`` and ``b``: an element of the ring
    Z[sqrt(2)], the number type exact Q[sqrt(2)] decisions run on.

    Each field is an int, a numpy object array of ints or a numpy int64
    array, so one value holds a single number or a whole block of them;
    ``+ - *`` (with ints, int arrays and each other, either side), ``abs``,
    :meth:`sign` and the six comparisons then act elementwise and return
    ints or arrays of them.  Arithmetic keeps the parts' dtype: object
    arrays stay Python ints, which never overflow, and int64 arrays stay
    int64, exact only while every part and every product of parts stays
    below 2^63; ``regions.membership_grid`` proves that bound (``5 W^4 <
    2^63``) before it builds int64 blocks.  :func:`_sign` needs no further
    bound: it squares int64 parts only on the cells its per-cell guard
    passes.  ``__array_ufunc__ = None`` sends ``ndarray + ZSqrt2`` to the reflected method here, so it
    never becomes an object array of ZSqrt2s.
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

    def __bool__(self) -> bool:
        return bool((self.a != 0) | (self.b != 0))

    def __abs__(self) -> ZSqrt2:
        s = self.sign()
        return ZSqrt2(self.a * s, self.b * s)

    def sign(self):
        """Exact sign: -1, 0 or +1, or an int64 array of them."""
        return _sign(self.a, self.b)

    def _three_way(self, other):
        d = _minus(self, other)
        return NotImplemented if d is None else _sign(*d)

    __lt__ = _comparison(lambda s: s < 0)
    __le__ = _comparison(lambda s: s <= 0)
    __eq__ = _comparison(lambda s: s == 0)
    __ne__ = _comparison(lambda s: s != 0)
    __gt__ = _comparison(lambda s: s > 0)
    __ge__ = _comparison(lambda s: s >= 0)

    def __repr__(self) -> str:
        return f"ZSqrt2({self.a!r}, {self.b!r})"


def _sign_of(n) -> int:
    """Sign of an int, a ZSqrt2 or a float."""
    return n.sign() if type(n) is ZSqrt2 else _sgn(n)


class Scalar:
    """Immutable number from Q[sqrt(2)] (exact) or a toleranced float.

    An exact scalar is ``_n / _d`` in lowest terms: ``_d`` a positive int
    and ``_n`` an int, or a :class:`ZSqrt2` with a nonzero sqrt(2) part.
    An approximate one holds its float in ``_n``, with ``_d`` None.
    """

    __slots__ = ("_n", "_d")

    _n: int | ZSqrt2 | float
    _d: int | None

    def __init__(self, a: Fraction | int = 0, b: Fraction | int = 0):
        if b:
            (na, da), (nb, db) = _ratio(a), _ratio(b)
            d = math.lcm(da, db)
            n = ZSqrt2(na * (d // da), nb * (d // db))
        elif type(a) is int:
            n, d = a, 1
        else:
            n, d = _ratio(a)
        _set_n(self, n)
        _set_d(self, d)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):
        if self._d is None:
            return (Scalar.approximate, (self._n,))
        return (Scalar, (self.a, self.b))

    # -- constructors -----------------------------------------------------

    @classmethod
    def quadratic(cls, a, b) -> Scalar:
        """Exact scalar a + b*sqrt(2)."""
        return cls(Fraction(a), Fraction(b))

    @classmethod
    def approximate(cls, value: float) -> Scalar:
        """Approximate (float) scalar, compared up to DEFAULT_TOLERANCE."""
        return _scalar(float(value), None)

    # -- mode and accessors ------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self._d is not None

    @property
    def is_rational(self) -> bool:
        return self._d is not None and type(self._n) is not ZSqrt2

    @property
    def a(self) -> Fraction:
        """Rational part (exact scalars only)."""
        if self._d is None:
            raise ScalarModeError("approximate scalar has no rational part")
        n = self._n
        return Fraction(n.a if type(n) is ZSqrt2 else n, self._d)

    @property
    def b(self) -> Fraction:
        """Coefficient of sqrt(2) (exact scalars only)."""
        if self._d is None:
            raise ScalarModeError("approximate scalar has no sqrt(2) part")
        n = self._n
        return Fraction(n.b if type(n) is ZSqrt2 else 0, self._d)

    def as_fraction(self) -> Fraction:
        """The value as a Fraction; requires an exact rational scalar."""
        if not self.is_exact:
            raise ScalarModeError("approximate scalar is not a fraction")
        if type(self._n) is ZSqrt2:
            raise ValueError(f"{self} has an irrational part")
        return Fraction(self._n, self._d)

    def to_float(self) -> float:
        n, d = self._n, self._d
        if d is None:
            return n
        if type(n) is ZSqrt2:
            return n.a / d + n.b / d * math.sqrt(2)
        return n / d

    def to_approximate(self) -> Scalar:
        """Explicit conversion to approximate mode."""
        return Scalar.approximate(self.to_float())

    def __float__(self) -> float:
        return self.to_float()

    # -- arithmetic ---------------------------------------------------------

    def _operand(self, other):
        """``other`` in this scalar's mode, as ``(n, d)``: an exact
        numerator and denominator, or a float and None.  None for a type
        that is no number here."""
        if isinstance(other, Scalar):
            if (self._d is None) is not (other._d is None):
                raise ScalarModeError(
                    "cannot combine exact and approximate scalars implicitly; "
                    "convert with to_approximate()"
                )
            return other._n, other._d
        if isinstance(other, float):
            if self._d is not None:
                raise ScalarModeError(
                    "cannot combine an exact scalar with a float implicitly; "
                    "convert with to_approximate()"
                )
            return other, None
        if isinstance(other, (int, Fraction)):
            if self._d is None:
                return float(other), None
            return other.numerator, other.denominator
        return None

    __add__ = __radd__ = _arithmetic(
        lambda n, d, m, e: _reduced(n * e + m * d, d * e), operator.add)
    __sub__ = _arithmetic(lambda n, d, m, e: _reduced(n * e - m * d, d * e), operator.sub)
    __rsub__ = _arithmetic(lambda n, d, m, e: _reduced(m * d - n * e, d * e), lambda x, y: y - x)
    __mul__ = __rmul__ = _arithmetic(lambda n, d, m, e: _reduced(n * m, d * e), operator.mul)
    __truediv__ = _arithmetic(_divide, operator.truediv)
    __rtruediv__ = _arithmetic(lambda n, d, m, e: _divide(m, e, n, d), lambda x, y: y / x)

    def __neg__(self) -> Scalar:
        return _scalar(-self._n, self._d)

    def __pos__(self) -> Scalar:
        return self

    def __abs__(self) -> Scalar:
        return -self if self.sign() < 0 else self

    # -- comparisons ---------------------------------------------------------

    def sign(self) -> int:
        """Exact sign for exact scalars; raw float sign otherwise."""
        return _sign_of(self._n)

    def compare(self, other) -> int:
        """-1, 0 or +1.  Approximate pairs are equal when |x-y| <=
        DEFAULT_TOLERANCE."""
        o = self._operand(other)
        if o is None:
            raise TypeError(f"cannot compare Scalar with {type(other).__name__}")
        n, d = o
        if d is None:
            diff = self._n - n
            if abs(diff) <= DEFAULT_TOLERANCE:
                return 0
            return 1 if diff > 0 else -1
        return _sign_of(self._n * d - n * self._d)

    def _three_way(self, other):
        try:
            return self.compare(other)
        except ScalarModeError:
            raise  # mode mixing must never degrade to identity comparison
        except TypeError:
            return NotImplemented

    __lt__ = _comparison(lambda s: s < 0)
    __le__ = _comparison(lambda s: s <= 0)
    __eq__ = _comparison(lambda s: s == 0)
    __ne__ = _comparison(lambda s: s != 0)
    __gt__ = _comparison(lambda s: s > 0)
    __ge__ = _comparison(lambda s: s >= 0)

    def __hash__(self):
        n, d = self._n, self._d
        if d is None:
            raise TypeError("approximate scalars are unhashable")
        if type(n) is ZSqrt2:
            return hash((n.a, n.b, d))
        return hash(n) if d == 1 else hash(Fraction(n, d))

    def __bool__(self) -> bool:
        return bool(self._n)

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        n, d = self._n, self._d
        if d is None:
            return repr(n)
        if type(n) is not ZSqrt2:
            return str(n) if d == 1 else f"{n}/{d}"
        if n.a == 0:
            body = f"{n.b}*sqrt2"
        else:
            body = f"{n.a}{'+' if n.b > 0 else '-'}{abs(n.b)}*sqrt2"
        return body if d == 1 else f"({body})/{d}"

    def __repr__(self) -> str:
        if self.is_exact:
            return f"Scalar('{self}')"
        return f"Scalar.approximate({self._n!r})"


# The slots' own setters: they bypass Scalar.__setattr__, which forbids
# every change once a scalar is built.
_set_n = Scalar._n.__set__
_set_d = Scalar._d.__set__


def _scalar(n, d) -> Scalar:
    """The Scalar with fields ``_n = n`` and ``_d = d``, taken as given."""
    s = object.__new__(Scalar)
    _set_n(s, n)
    _set_d(s, d)
    return s


def _reduced(n, d: int) -> Scalar:
    """The exact Scalar ``n / d`` for an int or ZSqrt2 ``n`` and an int
    ``d > 0``, cancelled to lowest terms by one gcd."""
    if type(n) is ZSqrt2:
        if n.b:
            g = math.gcd(n.a, n.b, d)
            return _scalar(ZSqrt2(n.a // g, n.b // g), d // g)
        n = n.a
    g = math.gcd(n, d)
    return _scalar(n // g, d // g)


ZERO = Scalar(0)
ONE = Scalar(1)
HALF = Scalar(Fraction(1, 2))
SQRT2 = Scalar(0, 1)


def integers(values) -> tuple[int, list]:
    """The number type an exact decision runs on, as ``(unit, scaled)``.

    ``unit`` is the common denominator of the values (ints, Fractions and
    exact Scalars), and ``scaled`` holds each value times ``unit``: an int
    where the value is rational, a :class:`ZSqrt2` where it has a sqrt(2)
    part.  ``unit`` is a positive factor, so every sign and order is kept,
    and a test that is homogeneous in ``(values, unit)`` decides the same on
    the scaled values as on the values.  Approximate Scalars have no exact
    parts: when any value is one, the values pass through unchanged with
    ``unit = 1``.
    """
    nums, dens = [], []
    for v in values:
        if type(v) is Scalar:
            if v._d is None:
                return 1, list(values)
            nums.append(v._n)
            dens.append(v._d)
        else:
            nums.append(v.numerator)
            dens.append(v.denominator)
    unit = math.lcm(*dens)
    return unit, [n * (unit // d) for n, d in zip(nums, dens)]


def quotient(n, unit: int) -> Scalar:
    """``n / unit`` as a Scalar: the inverse of :func:`integers`, for ``n``
    an int, a ZSqrt2 or (where ``integers`` passed approximate values
    through) an approximate Scalar."""
    if type(n) is Scalar:
        return n / unit
    if unit < 0:
        n, unit = -n, -unit
    elif not unit:
        raise ZeroDivisionError("division by zero scalar")
    return _reduced(n, unit)


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


#: The deepest nesting of parentheses and unary signs a scalar expression may
#: use; deeper text is refused before it exhausts the interpreter's stack.
MAX_NESTING = 100


class _Parser:
    """Recursive-descent evaluator over either exact Scalars or floats."""

    def __init__(self, tokens, exact: bool):
        self.tokens = tokens
        self.pos = 0
        self.exact = exact
        self.depth = 0

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
        if kind == "op" and text in "+-(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ScalarParseError(f"scalar nests deeper than {MAX_NESTING} levels")
            value = self.expr() if text == "(" else self.factor()
            if text == "(" and self.take() != ("op", ")"):
                raise ScalarParseError("unbalanced parentheses")
            self.depth -= 1
            return -value if text == "-" else value
        if kind == "num":
            return float(text) if not self.exact else Scalar(int(text))
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

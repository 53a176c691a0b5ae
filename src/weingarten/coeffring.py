"""Exact coefficient arithmetic for everything downstream.

Two coefficient types circulate in this package:

* plain rationals — ``fractions.Fraction`` from the stdlib,
* :class:`TauRational` — reduced ratios of two polynomials in the dimension
  parameter, denominator normalized monic.  A polynomial in t is a
  TauRational with denominator 1.

A polynomial has one form here: its coefficients ascending, with no
trailing zeros.  A TauRational's ``num`` and ``den`` are tuples of
Fractions in that form (:func:`_poly`); the helpers for values over the
shared denominator read the same order in integer lists.  TauRational reads
``int`` and ``Fraction`` operands as constants under ``+ *`` and ``==``,
and a constant TauRational equals and hashes like the same Fraction.  It
has no ``-``, ``/`` or inverse: the package forms symbolic values as one
numerator over a known denominator, and proves symbolic identities at
integer points in Fractions.  The module-level constant :data:`TAU` is the
indeterminate; passing it where a dimension is expected makes a table or
value symbolic.

Text form uses the variable letter "t", explicit "^" powers, and terms in
descending degree, e.g. ``(-1)/(t^3 - t)``.  Exact integers render bare.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import lcm


# -- polynomials as coefficient tuples, ascending ----------------------------


def _poly(coeffs) -> tuple:
    """The normal form of a polynomial: Fraction coefficients, ascending, no trailing zeros."""
    cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


_ONE = _poly((1,))


def _poly_add(a: tuple, b: tuple) -> tuple:
    return _poly(x + y for x, y in zip_longest(a, b, fillvalue=0))


def _poly_mul(a: tuple, b: tuple) -> tuple:
    """Product of two polynomials; the leading coefficients' product is nonzero."""
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _poly_divmod(a: tuple, b: tuple) -> tuple[tuple, tuple]:
    """Quotient and remainder of exact polynomial division."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    if len(a) <= db:
        return (), a
    rem, quot = list(a), [Fraction(0)] * (len(a) - db)
    for i in range(len(quot) - 1, -1, -1):
        c = quot[i] = rem[i + db] / b[-1]
        if c:
            for j, y in enumerate(b):
                rem[i + j] -= c * y
    return tuple(quot), _poly(rem[:db])


def _scaled(p: tuple, x) -> tuple:
    return _poly(c * x for c in p)


def _monic(p: tuple) -> tuple:
    return _scaled(p, 1 / p[-1]) if p else p


def poly_gcd(a: tuple, b: tuple) -> tuple:
    """Monic gcd over the rationals (Euclid, remainder normalized each step)."""
    while b:
        a, b = b, _monic(_poly_divmod(a, b)[1])
    return _monic(a)


class TauRational:
    """Reduced ratio of polynomials; denominator monic, gcd(num, den) = 1.

    ``num`` and ``den`` may be coefficient tuples (ascending), ints or Fractions.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=_ONE):
        num = _poly(num if isinstance(num, tuple) else (num,))
        den = _poly(den if isinstance(den, tuple) else (den,))
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            den = _ONE
        elif len(den) > 1:  # a constant denominator shares no factor of positive degree
            g = poly_gcd(num, den)
            if len(g) > 1:
                num, den = _poly_divmod(num, g)[0], _poly_divmod(den, g)[0]
        if den[-1] != 1:
            num, den = _scaled(num, 1 / den[-1]), _scaled(den, 1 / den[-1])
        self.num, self.den = num, den

    @classmethod
    def _raw(cls, num: tuple, den: tuple) -> "TauRational":
        """Bypass reduction for inputs already in canonical form."""
        obj = object.__new__(cls)
        obj.num, obj.den = num, den
        return obj

    def is_polynomial(self) -> bool:
        return len(self.den) == 1

    def _constant(self):
        """The Fraction this value equals, or None when it carries t."""
        if len(self.den) > 1 or len(self.num) > 1:
            return None
        return self.num[0] if self.num else Fraction(0)

    def __bool__(self):
        return bool(self.num)

    def __hash__(self):
        c = self._constant()
        return hash((self.num, self.den) if c is None else c)

    def __eq__(self, other):
        if isinstance(other, TauRational):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self._constant() == other
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TauRational(other)
        elif not isinstance(other, TauRational):
            return NotImplemented
        if self.den == other.den:
            return TauRational(_poly_add(self.num, other.num), self.den)
        return TauRational(_poly_add(_poly_mul(self.num, other.den), _poly_mul(other.num, self.den)),
                           _poly_mul(self.den, other.den))

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            num = _scaled(self.num, other)
            return TauRational._raw(num, self.den if num else _ONE)
        if not isinstance(other, TauRational):
            return NotImplemented
        # a monic denominator of degree 0 is 1, and a product of polynomials is reduced
        if len(self.den) == len(other.den) == 1:
            return TauRational._raw(_poly_mul(self.num, other.num), _ONE)
        return TauRational(_poly_mul(self.num, other.num), _poly_mul(self.den, other.den))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "TauRational":
        """Powers k >= 0; powers of coprime num and monic den stay reduced."""
        if k < 0:
            raise ValueError(f"TauRational powers need k >= 0, got {k}")
        num = den = _ONE
        for _ in range(k):
            num = _poly_mul(num, self.num)
            if len(self.den) > 1:
                den = _poly_mul(den, self.den)
        return TauRational._raw(num, den)

    def __repr__(self):
        return f"TauRational({render(self)!r})"


TAU = TauRational((0, 1))
"""The indeterminate itself; pass as the dimension to go symbolic."""


def is_symbolic(x) -> bool:
    """True when x carries the indeterminate (so computations stay symbolic)."""
    return isinstance(x, TauRational) and x._constant() is None


# -- integer coefficient lists, ascending ----------------------------------


def _linear_product(factors) -> list[int]:
    """Coefficients, ascending, of the product of (t + k)^m over {k: m}."""
    poly = [1]
    for k, m in sorted(factors.items()):
        for _ in range(m):
            poly = [a + k * b for a, b in zip([0] + poly, poly + [0])]
    return poly


def _synthetic_division(poly: list[int], root: int) -> tuple[list[int], int]:
    """Quotient and remainder of poly (ascending) by t - root."""
    quotient, carry = [0] * (len(poly) - 1), 0
    for d in range(len(poly) - 1, 0, -1):
        carry = poly[d] + root * carry
        quotient[d - 1] = carry
    return quotient, poly[0] + root * carry


def _at(poly: list[int], t: int) -> int:
    """poly (ascending) evaluated at t, by Horner's rule."""
    value = 0
    for c in reversed(poly):
        value = value * t + c
    return value


def _divide_out(poly, top) -> tuple[list, dict]:
    """poly (ascending, nonzero) with each factor t + k of the product of (t + k)^top[k]
    that divides it divided out, up to top[k] times, and {k: the multiplicity of t + k left}."""
    left = {}
    for k, m in top.items():
        while m:
            quotient, rest = _synthetic_division(poly, -k)
            if rest:
                break
            poly, m = quotient, m - 1
        left[k] = m
    return poly, left


def _numerators(values: list) -> tuple[int, list[int]]:
    """The least common denominator q of rational values, and each value times q."""
    q = lcm(*(x.denominator for x in values))
    return q, [x.numerator * (q // x.denominator) for x in values]


# -- text form -------------------------------------------------------------


def _render_poly(p: tuple) -> str:
    if not p:
        return "0"
    chunks = []
    for deg in range(len(p) - 1, -1, -1):
        c = p[deg]
        if not c:
            continue
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        if deg == 0:
            body = str(mag)
        else:
            power = "t" if deg == 1 else f"t^{deg}"
            body = power if mag == 1 else f"{mag}*{power}"
        chunks.append((sign, body))
    first_sign, first_body = chunks[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in chunks[1:]:
        text += f" {sign} {body}"
    return text


def _is_bare_term(text: str) -> bool:
    """Renders that are safe unparenthesized as a numerator or denominator."""
    return (" " not in text) and ("*" not in text) and (not text.startswith("-"))


def render(x) -> str:
    """Canonical text for Fraction, int or TauRational values."""
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    if isinstance(x, TauRational):
        if x.is_polynomial():
            return _render_poly(x.num)
        num = _render_poly(x.num)
        den = _render_poly(x.den)
        if not _is_bare_term(num):
            num = f"({num})"
        if not _is_bare_term(den):
            den = f"({den})"
        return f"{num}/{den}"
    raise TypeError(f"cannot render {type(x).__name__}")


def _split_rational(text: str):
    """Locate the numerator/denominator slash of a rendered TauRational.

    A denominator is monic, so after the top-level '/' comes 't' or '('.
    Slashes inside rational coefficients are always digit/digit.
    """
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0 and i + 1 < len(text) and text[i + 1] in "(t":
            return text[:i], text[i + 1:]
    return None


def _parse_poly(text: str) -> tuple:
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        inner, depth = body[1:-1], 0
        for ch in inner:
            depth += (ch == "(") - (ch == ")")
            if depth < 0:
                break
        else:
            body = inner.strip()
    if not body:
        raise ValueError("empty polynomial text")
    # split into signed terms at top level (no parentheses occur inside terms)
    terms = []
    current, sign = "", 1
    for ch in body:
        if ch in "+-" and current.strip():
            terms.append((sign, current.strip()))
            sign = 1 if ch == "+" else -1
            current = ""
        elif ch == "-" and not current.strip():
            sign = -sign
        elif ch == "+" and not current.strip():
            pass
        else:
            current += ch
    if not current.strip():
        raise ValueError(f"malformed polynomial {text!r}")
    terms.append((sign, current.strip()))

    coeffs: dict[int, Fraction] = {}
    for sign, term in terms:
        term = term.replace(" ", "")
        if "t" not in term:
            coef, deg = Fraction(term), 0
        else:
            coef_text, _, power_text = term.partition("t")
            coef_text = coef_text.rstrip("*")
            coef = Fraction(coef_text) if coef_text else Fraction(1)
            if power_text.startswith("^"):
                deg = int(power_text[1:])
            elif power_text == "":
                deg = 1
            else:
                raise ValueError(f"malformed term {term!r}")
        coeffs[deg] = coeffs.get(deg, Fraction(0)) + sign * coef
    return _poly(coeffs.get(deg, 0) for deg in range(max(coeffs) + 1))


def parse(text: str):
    """Inverse of :func:`render`; returns a Fraction or a TauRational."""
    body = text.strip()
    if "t" not in body:
        return Fraction(body.replace(" ", ""))
    num, den = _split_rational(body) or (body, "1")
    return TauRational(_parse_poly(num), _parse_poly(den))

"""Exact coefficient arithmetic for everything downstream.

Two coefficient types circulate in this package:

* plain rationals — ``fractions.Fraction`` from the stdlib,
* :class:`TauRational` — reduced ratios of two polynomials in the dimension
  parameter, denominator normalized monic.  A polynomial in t is a
  TauRational with denominator 1.

:class:`TauPolynomial`, a dense polynomial over Fraction coefficients, is only
the type of a TauRational's numerator and denominator.  TauRational reads
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
from math import lcm


class TauPolynomial:
    """Polynomial in one variable, coefficients ascending, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "TauPolynomial":
        lead = self.leading()
        if lead == 1:
            return self
        return TauPolynomial(c / lead for c in self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __hash__(self):
        return hash(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, TauPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "TauPolynomial") -> "TauPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return TauPolynomial(out)

    def __mul__(self, other):
        """Product with a polynomial, or with a Fraction scalar."""
        if isinstance(other, Fraction):
            return TauPolynomial(c * other for c in self.coeffs)
        if not self.coeffs or not other.coeffs:
            return TauPolynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return TauPolynomial(out)

    def divmod(self, other: "TauPolynomial"):
        """Exact polynomial division with remainder."""
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db, lead = other.degree, other.leading()
        if self.degree < db:
            return TauPolynomial(), self
        quot = [Fraction(0)] * (self.degree - db + 1)
        for i in range(len(quot) - 1, -1, -1):
            c = rem[i + db] / lead
            quot[i] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= c * b
        return TauPolynomial(quot), TauPolynomial(rem[:db])

    def __repr__(self):
        return f"TauPolynomial({_render_poly(self)!r})"


_ONE = TauPolynomial((1,))


def poly_gcd(a: TauPolynomial, b: TauPolynomial) -> TauPolynomial:
    """Monic gcd over the rationals (Euclid, remainder normalized each step)."""
    while b:
        _, r = a.divmod(b)
        a, b = b, (r.monic() if r else r)
    return a.monic() if a else a


class TauRational:
    """Reduced ratio of polynomials; denominator monic, gcd(num, den) = 1.

    ``num`` and ``den`` may be TauPolynomials, ints or Fractions.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=_ONE):
        if not isinstance(num, TauPolynomial):
            num = TauPolynomial((num,))
        if not isinstance(den, TauPolynomial):
            den = TauPolynomial((den,))
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.num = num
            self.den = _ONE
            return
        # a constant denominator shares no factor of positive degree
        if den.degree > 0:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, _ = num.divmod(g)
                den, _ = den.divmod(g)
        lead = den.leading()
        if lead != 1:
            num = num * (1 / lead)
            den = den * (1 / lead)
        self.num = num
        self.den = den

    @classmethod
    def _raw(cls, num: TauPolynomial, den: TauPolynomial) -> "TauRational":
        """Bypass reduction for inputs already in canonical form."""
        obj = object.__new__(cls)
        obj.num = num
        obj.den = den
        return obj

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def _constant(self):
        """The Fraction this value equals, or None when it carries t."""
        if self.den.degree or self.num.degree > 0:
            return None
        return self.num.coeffs[0] if self.num.coeffs else Fraction(0)

    def __bool__(self):
        return bool(self.num)

    def __hash__(self):
        c = self._constant()
        if c is not None:
            return hash(c)
        return hash((self.num.coeffs, self.den.coeffs))

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
            return TauRational(self.num + other.num, self.den)
        return TauRational(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            num = self.num * Fraction(other)
            return TauRational._raw(num, self.den if num else _ONE)
        if not isinstance(other, TauRational):
            return NotImplemented
        # a monic denominator of degree 0 is 1, and a product of polynomials is reduced
        if not (self.den.degree or other.den.degree):
            return TauRational._raw(self.num * other.num, _ONE)
        return TauRational(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "TauRational":
        """Powers k >= 0; powers of coprime num and monic den stay reduced."""
        if k < 0:
            raise ValueError(f"TauRational powers need k >= 0, got {k}")
        num = den = _ONE
        for _ in range(k):
            num = num * self.num
            if self.den.degree:
                den = den * self.den
        return TauRational._raw(num, den)

    def __repr__(self):
        return f"TauRational({render(self)!r})"


TAU = TauRational(TauPolynomial((0, 1)))
"""The indeterminate itself; pass as the dimension to go symbolic."""


def is_symbolic(x) -> bool:
    """True when x carries the indeterminate (so computations stay symbolic)."""
    return isinstance(x, TauRational) and x._constant() is None


# -- polynomials as plain coefficient lists, ascending ------------------------


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


def _render_poly(p: TauPolynomial) -> str:
    if not p:
        return "0"
    chunks = []
    for deg in range(p.degree, -1, -1):
        c = p.coeffs[deg]
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


def _parse_poly(text: str) -> TauPolynomial:
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
    i = 0
    while i < len(body):
        ch = body[i]
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
        i += 1
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
    out = [Fraction(0)] * (max(coeffs) + 1)
    for deg, c in coeffs.items():
        out[deg] = c
    return TauPolynomial(out)


def parse(text: str):
    """Inverse of :func:`render`; returns a Fraction or a TauRational."""
    body = text.strip()
    if "t" not in body:
        return Fraction(body.replace(" ", ""))
    num, den = _split_rational(body) or (body, "1")
    return TauRational(_parse_poly(num), _parse_poly(den))

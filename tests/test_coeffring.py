from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weingarten import coeffring, verify
from weingarten.coeffring import (
    TAU,
    TauRational,
    is_symbolic,
    parse,
    poly_gcd,
    render,
)

fractions_st = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)


def poly_st(max_degree=6):
    """Polynomials in t, as TauRationals with denominator 1."""
    return st.lists(fractions_st, min_size=0, max_size=max_degree + 1).map(
        lambda cs: TauRational(tuple(cs))
    )


def rational_st(max_degree=3):
    return st.tuples(poly_st(max_degree), poly_st(max_degree)).map(
        lambda nd: TauRational(nd[0].num, nd[1].num) if nd[1] else nd[0]
    )


def test_fraction_arithmetic_is_exact():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_tau_is_the_one_symbolic_type():
    assert type(TAU) is TauRational
    assert type(parse("t")) is TauRational
    assert type(TAU * TAU + -1) is TauRational
    assert (TAU * TAU + -1).den == (1,)
    # a polynomial is a tuple of coefficients, not a second type
    classes = [v for v in vars(coeffring).values()
               if isinstance(v, type) and v.__module__ == coeffring.__name__]
    assert classes == [TauRational]
    assert type(TAU.num) is tuple and type(TAU.den) is tuple


def test_rational_functions_have_no_minus_division_or_inverse():
    # symbolic values are formed over a known denominator and checked at integer points
    for name in ("__neg__", "__sub__", "__rsub__", "__truediv__", "__rtruediv__", "inverse"):
        assert not hasattr(TauRational, name)
    assert not hasattr(coeffring, "invert")
    for op in (lambda: TAU - 1, lambda: 1 - TAU, lambda: -TAU, lambda: 1 / TAU, lambda: TAU / TAU):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(ValueError, match="k >= 0"):
        TAU ** -1


def test_rational_function_cancellation():
    num = TAU * TAU + -1
    den = TAU * (TAU * TAU + -1)
    assert TauRational(num.num, den.num) == TauRational((1,), TAU.num)
    assert render(TauRational(num.num, den.num)) == "1/t"


def test_polynomial_product():
    assert (TAU + 1) * (TAU + -1) == TAU * TAU + -1


def test_canonical_forms_unique():
    a = TauRational((0, 2), (0, 0, 4))  # 2t / 4t^2
    b = TauRational((Fraction(1, 2),), TAU.num)
    assert a.num == b.num and a.den == b.den
    assert a == b
    zero = TauRational((), TAU.num)
    assert not zero.num and zero.den == (1,)
    assert zero == 0


def test_denominator_is_monic():
    x = TauRational((1,), (0, -2))  # 1 / (-2t)
    assert x.den[-1] == 1
    assert x == TauRational((Fraction(-1, 2),), TAU.num)


def test_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        TauRational(TAU.num, ())


def test_render_examples():
    assert render(TauRational(-1, (0, -1, 0, 1))) == "(-1)/(t^3 - t)"
    assert render(Fraction(5)) == "5"
    assert render(Fraction(-3, 7)) == "-3/7"
    assert render(TAU * TAU + TAU + -2 * TAU) == "t^2 - t"
    assert render(TAU + -1 * TAU) == "0"
    assert render(TauRational((Fraction(1, 2), 0, 1))) == "t^2 + 1/2"
    assert render(TauRational((0, Fraction(5, 6)))) == "5/6*t"


def test_is_symbolic():
    assert is_symbolic(TAU)
    assert is_symbolic(TauRational(1, TAU.num))
    assert not is_symbolic(Fraction(3))
    assert not is_symbolic(TauRational(Fraction(3)))
    assert not is_symbolic(TAU * 0 + 3)


def test_mixed_coercions():
    assert Fraction(1, 2) + TAU == TAU + Fraction(1, 2)
    assert 2 * TAU == TAU + TAU
    assert TAU * 0 == TauRational(())
    assert TAU + -1 * TAU == 0 and 0 == TAU * 0
    r = TauRational(1, (-1, 1))  # 1/(t - 1)
    assert isinstance(r, TauRational)
    assert r * (TAU + -1) == 1
    assert TAU + TauRational(-1, TAU.num) == TauRational((TAU * TAU + -1).num, TAU.num)
    for other in ("t", 1.5):
        with pytest.raises(TypeError):
            other * TAU
        with pytest.raises(TypeError):
            other + TAU


def test_powers():
    assert TAU ** 0 == 1
    assert TAU ** 3 == TAU * TAU * TAU
    r = TauRational((1, 1), (-4, 2))  # (t + 1)/(2t - 4)
    assert r ** 2 == r * r


def test_poly_gcd():
    g = poly_gcd(((TAU + -1) * (TAU + 2)).num, ((TAU + -1) * TAU).num)
    assert g == (TAU + -1).num
    assert len(poly_gcd(TAU.num, (TAU * TAU).num)) == 2  # degree 1


@settings(max_examples=100)
@given(fractions_st)
def test_constant_equals_and_hashes_like_its_fraction(x):
    r = TauRational(x)
    assert r == x and x == r
    assert hash(r) == hash(x)
    assert {x: 1}[r] == 1
    assert {r: 1}[x] == 1


@settings(max_examples=100)
@given(poly_st(), poly_st())
def test_poly_multiplication_commutes(a, b):
    assert a * b == b * a


@settings(max_examples=60)
@given(poly_st(max_degree=10), poly_st(max_degree=10), poly_st(max_degree=10))
def test_poly_multiplication_associates_desk_scale(a, b, c):
    # degrees up to 30 in the product
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60)
@given(rational_st(), rational_st(), rational_st())
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60)
@given(poly_st(max_degree=3), poly_st(max_degree=3), poly_st(max_degree=3))
def test_a_common_factor_cancels(p, q, r):
    assume(q and r)
    assert TauRational((p * q).num, (q * r).num) == TauRational(p.num, r.num)


@settings(max_examples=100)
@given(rational_st(), fractions_st)
def test_scalar_product_is_canonical(r, x):
    # the scalar shortcut must give what reduction through __init__ gives
    expected = TauRational(tuple(c * x for c in r.num), r.den)
    assert r * x == expected and x * r == expected
    assert r * 3 == 3 * r == TauRational(tuple(c * 3 for c in r.num), r.den)
    s = r * TauRational(1, (TAU + 100).num)
    assert s * 0 == 0 and 0 * s == 0


def test_jucys_suite_polynomial_products(monkeypatch):
    # the suite proves the symbolic identity in Fractions at integer points
    calls = []
    product = coeffring._poly_mul

    def counting(a, b):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(coeffring, "_poly_mul", counting)
    assert all(ok for _, ok in verify.run("jucys", 6))
    assert not calls


@settings(max_examples=100)
@given(fractions_st)
def test_round_trip_fraction(x):
    assert parse(render(x)) == x


@settings(max_examples=100)
@given(poly_st())
def test_round_trip_polynomial(p):
    assert parse(render(p)) == p


@settings(max_examples=100)
@given(poly_st(), poly_st())
def test_round_trip_rational(num, den):
    if not den:
        den = TAU
    x = TauRational(num.num, den.num)
    assert parse(render(x)) == x


def test_parse_cli_style_inputs():
    assert parse("(t + 1)/(t^3 + t^2 - 2*t)") == TauRational((TAU + 1).num, (TAU**3 + TAU**2 + -2 * TAU).num)
    assert parse("-7/3") == Fraction(-7, 3)
    assert parse("t") == TAU


# -- the tuple kernels against sympy ------------------------------------------

T = sympy.Symbol("t")


def as_sympy(x: TauRational):
    def poly(cs):
        return sum((sympy.Rational(c.numerator, c.denominator) * T**i for i, c in enumerate(cs)),
                   sympy.Integer(0))

    return poly(x.num) / poly(x.den)


def coefficients(poly) -> tuple:
    """A sympy polynomial's coefficients, ascending, as Fractions, without trailing zeros."""
    cs = [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(poly, T).all_coeffs())]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def sympy_form(expr) -> tuple:
    """(numerator, denominator) of a rational function reduced by sympy, denominator monic."""
    num, den = sympy.fraction(sympy.cancel(expr))
    lead = sympy.Poly(den, T).LC()
    return coefficients(num / lead), coefficients(den / lead)


@settings(max_examples=60, deadline=None)
@given(rational_st(), rational_st(), st.integers(0, 3), poly_st(4), poly_st(4))
def test_the_tuple_kernels_agree_with_sympy(a, b, k, p, q):
    a_, b_ = as_sympy(a), as_sympy(b)
    assert ((a + b).num, (a + b).den) == sympy_form(a_ + b_)
    assert ((a * b).num, (a * b).den) == sympy_form(a_ * b_)
    assert ((a ** k).num, (a ** k).den) == sympy_form(a_ ** k)
    for x in (a, b, a + b, a * b):
        assert parse(render(x)) == x
    assume(q)
    x = TauRational(p.num, q.num)  # the reducing constructor
    assert (x.num, x.den) == sympy_form(as_sympy(p) / as_sympy(q))
    g = sympy.gcd(sympy.Poly(as_sympy(p), T, domain="QQ"), sympy.Poly(as_sympy(q), T, domain="QQ"))
    assert poly_gcd(p.num, q.num) == coefficients(g.as_expr() / g.LC())

"""Unit and property tests for the XOR-of-ANDs and multilinear-poly algebra."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnq import (
    Anf,
    MlPoly,
    ParseError,
    UnboundVariableError,
    display_anf,
    iter_assignments,
)

from conftest import poly

VARS = ["a", "b", "c", "d"]

monomials = st.frozensets(st.sampled_from(VARS), max_size=4)
anfs = st.frozensets(monomials, max_size=8).map(Anf)
coeffs = st.integers(min_value=-16, max_value=16)
polys = st.dictionaries(monomials, coeffs, max_size=8).map(MlPoly)
points = st.fixed_dictionaries({v: st.integers(0, 1) for v in VARS})
moduli = st.sampled_from([2, 3, 4, 7, 8, 16])


# -- Anf basics --------------------------------------------------------------


def test_anf_constants():
    assert Anf.zero().is_zero
    assert Anf.one().is_one
    assert str(Anf.zero()) == "0"
    assert str(Anf.one()) == "1"
    assert str(Anf.var("a")) == "a"


def test_anf_repeated_monomials_cancel():
    assert Anf([("a",), ("a",)]).is_zero
    assert Anf([("a", "b"), ("b", "a")]).is_zero


def test_a_str_monomial_is_refused():
    # a str would be split into its characters: x0 would read as 0&x
    for bad in (["x0"], [("a",), "ab"]):
        with pytest.raises(ParseError, match="monomial must be a collection") as err:
            Anf(bad)
        assert err.value.code == "E_SYNTAX"
    assert Anf([("x0",)]) == Anf.var("x0")
    assert str(Anf([("x0",)])) == "x0"


def test_anf_canonical_str():
    x = Anf.parse("b&c ^ a&b")
    assert str(x) == "a&b ^ b&c"
    x = Anf.parse("a&b&c ^ b ^ 1")
    assert str(x) == "1 ^ b ^ a&b&c"


def test_anf_parse_rejects_garbage():
    for bad in ["a ^", "^ a", "a &", "(a", "a)", "a b", "2", ""]:
        with pytest.raises(ParseError):
            Anf.parse(bad)


def test_anf_parse_error_carries_column():
    with pytest.raises(ParseError) as err:
        Anf.parse("a ^ ^ b")
    assert err.value.col == 5


def test_anf_evaluate_requires_bits():
    x = Anf.parse("a&b")
    with pytest.raises(UnboundVariableError):
        x.evaluate({"a": 1})
    with pytest.raises(UnboundVariableError):
        x.evaluate({"a": 2, "b": 1})


def test_display_anf_factors_common_variables():
    assert display_anf(Anf.parse("a&b ^ b&c")) == "b&(a ^ c)"
    assert display_anf(Anf.parse("a&b ^ c")) == "c ^ a&b"
    assert display_anf(Anf.parse("a&b")) == "a&b"
    assert display_anf(Anf.zero()) == "0"


@given(anfs)
def test_anf_parse_str_round_trip(x):
    assert Anf.parse(str(x)) == x


@given(anfs)
def test_anf_self_xor_is_zero(x):
    assert (x ^ x).is_zero


@given(anfs, anfs)
def test_anf_xor_commutes(x, y):
    assert x ^ y == y ^ x


@given(anfs, anfs, anfs)
def test_anf_and_distributes_over_xor(x, y, z):
    assert x & (y ^ z) == (x & y) ^ (x & z)


@given(anfs, anfs, points)
def test_anf_ops_match_pointwise(x, y, pt):
    assert (x ^ y).evaluate(pt) == x.evaluate(pt) ^ y.evaluate(pt)
    assert (x & y).evaluate(pt) == x.evaluate(pt) & y.evaluate(pt)


# -- Anf -> arithmetic bridge ------------------------------------------------


def test_xor_to_arith_identities():
    a, b = Anf.var("a"), Anf.var("b")
    assert (a ^ b).to_arith() == poly({"a": 1, "b": 1, "a*b": -2})
    assert (Anf.one() ^ a).to_arith() == poly({"1": 1, "a": -1})
    assert (a ^ b ^ (a & b)).to_arith() == poly({"a": 1, "b": 1, "a*b": -1})


@given(anfs, points)
def test_to_arith_matches_evaluate(x, pt):
    assert x.to_arith().evaluate(pt) == x.evaluate(pt)


@given(anfs, points)
def test_to_arith_is_zero_one_valued(x, pt):
    assert x.to_arith().evaluate(pt) in (0, 1)


@given(anfs)
def test_to_arith_mod_two_shadow(x):
    # the arithmetic form reduced mod 2 recovers exactly the ANF monomials
    shadow = x.to_arith().reduce_mod(2)
    assert set(shadow.terms) == set(x.monomials)


@given(anfs, st.sampled_from([2 ** j for j in range(1, 22)]))
def test_to_arith_with_modulus_reduces_the_integer_form(x, m):
    assert x.to_arith(m) == x.to_arith().reduce_mod(m)


@given(anfs, st.sampled_from([2, 4, 8, 16]))
def test_memoized_to_arith_matches_the_reduced_integer_form(x, m):
    # the first call may fill the memo, the repeat reads it back
    want = x.to_arith().reduce_mod(m)
    assert x.to_arith(m) == want
    assert Anf(x.monomials).to_arith(m) == want


def test_to_arith_mod_2k_keeps_low_degree_terms_only():
    # an XOR of 24 variables has 2^24 - 1 integer terms; mod 4 only degrees
    # 1 and 2 survive (24 + 276), mod 8 also degree 3 (+ 2024)
    x = Anf([(f"x{i}",) for i in range(24)])
    assert len(x.to_arith(4).terms) == 300
    assert len(x.to_arith(8).terms) == 2324


def test_to_arith_rejects_a_modulus_below_one():
    x = Anf.parse("a ^ b")
    for bad in (0, -4):
        with pytest.raises(ValueError, match="modulus must be positive"):
            x.to_arith(bad)


# -- MlPoly basics -----------------------------------------------------------


def test_poly_constants_and_str():
    assert str(MlPoly.zero()) == "0"
    assert str(MlPoly({frozenset(): 5})) == "5"
    assert str(MlPoly({frozenset(): -5})) == "-5"
    assert str(poly({"a*b": 2, "b*c": 2})) == "2*a*b + 2*b*c"
    assert str(poly({"a*b*c": -4, "a": 2})) == "2*a - 4*a*b*c"
    assert str(poly({"a": 1, "b": -1})) == "a - b"


def test_a_str_monomial_is_refused_in_a_poly():
    for bad in ({"ab": 2}, [("a", 1), ("bc", 1)]):
        with pytest.raises(ParseError, match="monomial must be a collection") as err:
            MlPoly(bad)
        assert err.value.code == "E_SYNTAX"
    assert MlPoly({("a", "b"): 2}) == poly({"a*b": 2})


def test_poly_multilinear_product():
    a = poly({"a": 1})
    assert a * a == a                      # v*v = v
    assert str(a * a * poly({"b": 1})) == "a*b"


def test_poly_scalar_multiplication():
    p = poly({"a": 1, "b": 1})
    assert 3 * p == poly({"a": 3, "b": 3})
    assert p * 0 == MlPoly.zero()


def test_reduce_mod_canonical_residues():
    p = poly({"a": 5, "b": -1, "1": 4})
    q = p.reduce_mod(4)
    assert q == poly({"a": 1, "b": 3})    # -1 % 4 == 3, 4 % 4 drops
    assert all(0 < c < 4 for c in q.terms.values())
    with pytest.raises(ValueError):
        p.reduce_mod(0)


@given(polys, polys, points)
def test_poly_ring_ops_match_pointwise(p, q, pt):
    assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
    assert (p - q).evaluate(pt) == p.evaluate(pt) - q.evaluate(pt)
    assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)


@given(polys, polys, polys)
def test_poly_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


# -- interpolation and the zero-function theorem ------------------------------


def moebius(variables, values):
    """The multilinear polynomial through ``values`` on {0,1}^n, by the subset
    transform: the coefficient of S sums (-1)^|S - T| * values(T) over T in S."""
    coeffs = {
        frozenset(v for v in variables if pt[v]): values(pt)
        for pt in iter_assignments(variables)
    }
    for v in variables:
        for s in coeffs:
            if v in s:
                coeffs[s] -= coeffs[s - {v}]
    return MlPoly(coeffs)


@given(polys)
@settings(max_examples=200)
def test_moebius_inversion_round_trip(p):
    vs = sorted(p.variables()) or ["a"]
    assert moebius(vs, p.evaluate) == p


@given(polys, moduli)
@settings(max_examples=200)
def test_zero_function_theorem(p, m):
    # a multilinear poly vanishes mod m everywhere iff every canonical
    # residue coefficient is zero (interpolation matrix is unimodular)
    reduced = p.reduce_mod(m)
    vanishes = all(
        p.evaluate(pt) % m == 0 for pt in iter_assignments(sorted(p.variables()))
    )
    assert reduced.is_zero == vanishes


@given(anfs)
def test_interpolating_an_anf_recovers_to_arith(x):
    vs = sorted(x.variables()) or ["a"]
    assert moebius(vs, x.evaluate) == x.to_arith()


# -- assignment enumeration ----------------------------------------------------


def test_iter_assignments_counting_order():
    pts = list(iter_assignments(["a", "b"]))
    assert pts == [
        {"a": 0, "b": 0},
        {"a": 0, "b": 1},
        {"a": 1, "b": 0},
        {"a": 1, "b": 1},
    ]


def test_iter_assignments_first_variable_most_significant():
    pts = list(iter_assignments(["hi", "lo"]))
    assert pts[2] == {"hi": 1, "lo": 0}

"""Acceptance suite: the ten headline guarantees, one test (and one
pass/fail line under ``pytest -v``) per criterion.

Tolerances: exact integer/ANF equality for everything symbolic, 1e-9 per
amplitude for calculus-versus-simulation checks, 1e-12 for gate-matrix
identities.
"""

import random

import numpy as np

from cnq import (
    Anf,
    MlPoly,
    check_spec,
    cross_check,
    equivalent,
    evaluate,
    iter_assignments,
    merge_pass,
    q_matrix,
    self_test,
)
from cnq.cli import main

from conftest import fixture_path, load, poly, state

ALL_FIXTURES = [
    "fig1", "fig2", "fig3", "fig4", "fig4_pre", "fig5", "fig6", "lonely_v", "broken",
]


def _report(n: int, text: str) -> None:
    print(f"criterion {n:2d}: PASS  {text}")


def test_criterion_01_cascade_fixtures_verify():
    want = Anf.parse("t ^ b&(a^c)")
    for name in ["fig2", "fig3", "fig4", "fig5"]:
        c = load(name)
        assert c.specs["t"] == want, f"{name} spec text drifted"
        (verdict,) = check_spec(c)
        assert verdict.passed, f"{name} failed its spec"
        assert verdict.actual_value == want          # exact ANF equality
    _report(1, "fig2/fig3/fig4/fig5 all realize t ^ b&(a^c) exactly")


def test_criterion_02_golden_exponents():
    oc = evaluate(load("fig2")).outcomes["t"]
    assert oc.state.exponent == poly({"a*b": 2, "b*c": 2})
    assert oc.state.k_root == 2

    out = evaluate(load("fig6")).outcomes
    c_state = out["c"].state.rebased(4)              # canonical at the circuit root
    assert c_state.exponent == poly({"a*b": 4})
    assert c_state.exponent.reduce_mod(8) == c_state.exponent
    d_state = out["d"].state
    assert d_state.k_root == 4
    assert d_state.exponent == poly({"a*b*c": 4})
    assert d_state.exponent.reduce_mod(8) == d_state.exponent
    _report(2, "fig2 exponent 2ab+2bc; fig6 exponents 4ab and 4abc mod 8")


def test_criterion_03_two_target_fixture_verifies():
    verdicts = check_spec(load("fig6"))
    by_line = {v.line: v for v in verdicts}
    assert by_line["c"].passed
    assert by_line["c"].actual_value == Anf.parse("c ^ a&b")
    assert by_line["d"].passed
    assert by_line["d"].actual_value == Anf.parse("d ^ a&b&c")
    _report(3, "fig6 realizes c ^ a&b and d ^ a&b&c")


def test_criterion_04_gate_counts():
    expected = {"fig2": 10, "fig3": 9, "fig4": 8, "fig5": 7}
    for name, n in expected.items():
        assert load(name).gate_count()["total_controlled"] == n, name
    counts6 = load("fig6").gate_count()
    assert counts6["total_controlled"] == 10
    assert counts6["total_on_targets"] == 8          # control-forming CNOTs split out
    assert counts6["control_forming_cnots"] == 2
    _report(4, "gate counts 10/9/8/7 and fig6 10 (8 on targets + 2 forming)")


def test_criterion_05_optimizer_reductions():
    fig2 = load("fig2")
    merged2 = merge_pass(fig2)
    assert merged2.circuit.gate_count()["total_controlled"] == 9
    assert equivalent(fig2, merged2.circuit).passed

    pre = load("fig4_pre")
    merged4 = merge_pass(pre)
    assert merged4.circuit.gate_count()["total_controlled"] == 8
    assert equivalent(pre, merged4.circuit).passed

    fig5 = load("fig5")
    merged5 = merge_pass(fig5)
    assert merged5.circuit == fig5
    assert merged5.circuit.gate_count()["total_controlled"] == 7
    _report(5, "merge_pass: fig2 -> 9, fig4 precursor -> 8, fig5 fixed at 7")


def test_criterion_06_oracle_cross_check():
    for name in ALL_FIXTURES:
        c = load(name)
        res = cross_check(c, evaluate(c))
        assert res.passed, f"{name}: {res.detail} at {res.witness}"
    res = self_test(seed=2026, count=200, max_lines=5, max_gates=20)
    assert res.passed, res.failures[:3]
    assert res.circuits == 200
    _report(6, "all fixtures plus 200 random circuits match simulation at 1e-9")


def test_criterion_07_gate_matrix_identities():
    tol = 1e-12
    not_m = np.array([[0, 1], [1, 0]], dtype=complex)
    eye = np.eye(2, dtype=complex)

    v_want = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2
    w8 = np.exp(1j * np.pi / 4)
    w_want = np.array([[1 + w8, 1 - w8], [1 - w8, 1 + w8]]) / 2
    assert np.max(np.abs(q_matrix(2, 1) - v_want)) < tol
    assert np.max(np.abs(q_matrix(4, 1) - w_want)) < tol

    for k in (2, 4, 8):
        q = q_matrix(k, 1)
        assert np.max(np.abs(np.linalg.matrix_power(q, k) - not_m)) < tol
        assert np.max(np.abs(np.linalg.matrix_power(q, 2 * k) - eye)) < tol
        assert np.max(np.abs(q @ q.conj().T - eye)) < tol
        assert np.max(np.abs(not_m @ q - q_matrix(k, k - 1).conj().T)) < tol
    _report(7, "V/W entries and the four root-of-NOT identities hold at 1e-12")


def test_criterion_08_collapse_matches_enumeration():
    rng = random.Random(808)
    vs = ["a", "b", "c", "d", "e"]
    discrepancies = 0
    for _ in range(500):
        k = rng.choice([1, 2, 4, 8])
        n = rng.randint(0, 5)
        pool = vs[:n]
        terms = {}
        for _ in range(rng.randint(0, 6)):
            mono = frozenset(rng.sample(pool, rng.randint(0, n)) if n else [])
            terms[mono] = rng.randrange(0, 2 * k)
        st0 = state(MlPoly(terms), k)
        value = st0.collapse()
        points = list(iter_assignments(pool))
        in_range = all(
            st0.exponent.evaluate(pt) % (2 * k) in (0, k) for pt in points
        )
        if (value is not None) != in_range:
            discrepancies += 1
        elif value is not None:
            for pt in points:
                e = st0.exponent.evaluate(pt) % (2 * k)
                if value.evaluate(pt) != e // k:
                    discrepancies += 1
                    break
    assert discrepancies == 0
    _report(8, "collapse decision and recovered function: 500/500 with enumeration")


def test_criterion_09_zero_function_theorem():
    rng = random.Random(909)
    vs = ["a", "b", "c", "d"]
    discrepancies = 0
    for i in range(100):
        k = rng.choice([1, 2, 4, 8])
        m = 2 * k

        def draw():
            terms = {}
            for _ in range(rng.randint(0, 5)):
                mono = frozenset(rng.sample(vs, rng.randint(0, 4)))
                terms[mono] = rng.randrange(-3 * m, 3 * m)
            return MlPoly(terms)

        p1 = draw()
        # half the pairs differ by a multiple of the modulus: equal functions
        p2 = p1 + m * draw() if i % 2 else draw()
        coeff_equal = p1.reduce_mod(m) == p2.reduce_mod(m)
        point_equal = all(
            (p1.evaluate(pt) - p2.evaluate(pt)) % m == 0
            for pt in iter_assignments(vs)
        )
        if coeff_equal != point_equal:
            discrepancies += 1
    assert discrepancies == 0
    _report(9, "coefficientwise equality mod 2K == pointwise equality, 100/100")


def test_criterion_10_target_interaction_guard(capsys):
    code = main(["eval", str(fixture_path("interaction"))])
    err = capsys.readouterr().err
    assert code == 3
    assert "E_TARGET_INTERACTION" in err
    _report(10, "non-collapsible target used as control exits 3")

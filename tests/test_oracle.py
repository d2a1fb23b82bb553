"""Dense statevector oracle: gate matrices, simulation, cross-checking."""

import json
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnq import (
    Anf,
    BadRootError,
    Circuit,
    Gate,
    LineMismatchError,
    MlPoly,
    SimulationLimitError,
    StateVector,
    TargetInteractionError,
    TargetState,
    UnboundVariableError,
    apply_gate,
    cross_check,
    evaluate,
    iter_assignments,
    oracle,
    q_matrix,
    random_circuit,
    random_valid_circuit,
    simulate,
)
from cnq.circuit import MAX_ROOT

from conftest import load, poly, state

NOT = np.array([[0, 1], [1, 0]], dtype=complex)
EYE = np.eye(2, dtype=complex)


# -- gate matrices ------------------------------------------------------------


def test_q_matrix_not_and_identity():
    assert np.allclose(q_matrix(1, 1), NOT)
    assert np.allclose(q_matrix(1, 2), EYE)
    assert np.allclose(q_matrix(4, 0), EYE)


def test_q_matrix_square_root_of_not():
    v = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2
    assert np.allclose(q_matrix(2, 1), v)
    assert np.allclose(q_matrix(2, 3), v.conj().T)


def test_q_matrix_rejects_bad_root():
    with pytest.raises(BadRootError):
        q_matrix(0, 1)
    with pytest.raises(BadRootError):
        q_matrix(-2, 1)


@pytest.mark.parametrize("k", [2, 4, 8])
def test_q_matrix_identities(k):
    q = q_matrix(k, 1)
    assert np.max(np.abs(np.linalg.matrix_power(q, k) - NOT)) < 1e-12
    assert np.max(np.abs(np.linalg.matrix_power(q, 2 * k) - EYE)) < 1e-12
    assert np.max(np.abs(q @ q.conj().T - EYE)) < 1e-12
    assert np.max(np.abs(NOT @ q - q_matrix(k, k - 1).conj().T)) < 1e-12


@pytest.mark.parametrize("k", [1, 2, 4, 8])
@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_q_matrix_power_additivity(k, p):
    assert np.allclose(q_matrix(k, p), np.linalg.matrix_power(q_matrix(k, 1), p))


# -- statevectors ----------------------------------------------------------------


def test_basis_first_line_is_high_bit():
    sv = StateVector.basis(("a", "b", "c"), {"a": 1, "b": 0, "c": 1})
    assert sv.amps[0b101] == 1.0
    assert np.count_nonzero(sv.amps) == 1
    assert sv.dump() == "|101> +1.000000000000 +0.000000000000"


def test_basis_requires_all_bits():
    with pytest.raises(UnboundVariableError):
        StateVector.basis(("a", "b"), {"a": 1})


@pytest.mark.parametrize("bit", [2, -1])
def test_basis_rejects_non_bits_as_evaluate_does(fig2, bit):
    point = {"a": bit, "b": 0, "c": 0, "t": 0}
    with pytest.raises(UnboundVariableError, match="non-bit") as from_anf:
        Anf.var("a").evaluate(point)
    with pytest.raises(UnboundVariableError) as from_basis:
        simulate(fig2, point)
    assert str(from_basis.value) == str(from_anf.value)


def test_apply_cnot():
    sv = StateVector.basis(("a", "t"), {"a": 1, "t": 0})
    out = apply_gate(sv, Gate(1, 1, ("a",), "t"))
    assert abs(out.amps[0b11] - 1.0) < 1e-12
    sv = StateVector.basis(("a", "t"), {"a": 0, "t": 0})
    out = apply_gate(sv, Gate(1, 1, ("a",), "t"))
    assert out.amps[0b00] == 1.0          # control off: amplitudes untouched


def test_two_half_turns_make_a_not():
    sv = StateVector.basis(("a", "t"), {"a": 1, "t": 0})
    g = Gate(2, 1, ("a",), "t")
    out = apply_gate(apply_gate(sv, g), g)
    assert np.allclose(out.amps, StateVector.basis(("a", "t"), {"a": 1, "t": 1}).amps)


def test_apply_gate_preserves_norm():
    rng = np.random.default_rng(7)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    sv = StateVector(("a", "b", "t"), amps.astype(np.complex128))
    for g in [Gate(2, 1, ("a",), "t"), Gate(4, 3, ("a", "b"), "t")]:
        sv = apply_gate(sv, g)
    assert abs(np.linalg.norm(sv.amps) - 1.0) < 1e-12


def test_amplitudes_drop_the_sign_of_a_rounded_zero():
    # -1e-17 rounds to -0.0, which would print as "-0"
    sv = StateVector(("a",), np.array([complex(-1e-17, 0.6), complex(0.8, -1e-17)]))
    amps = sv.amplitudes()
    assert amps == {"0": 0.6j, "1": complex(0.8, 0.0)}
    assert np.copysign(1.0, amps["0"].real) == np.copysign(1.0, amps["1"].imag) == 1.0
    assert sv.dump() == "|0> +0.000000000000 +0.600000000000\n|1> +0.800000000000 +0.000000000000"


def _controlled_matrix(lines, gate):
    """The full 2^n unitary of ``gate``, built by hand: I + P1 (x) ... (x) (Q^p - I)."""
    p1 = np.diag([0, 1]).astype(complex)
    factors = {c: p1 for c in gate.controls}
    factors[gate.target] = q_matrix(gate.k, gate.p) - EYE
    full = np.ones((1, 1), dtype=complex)
    for name in lines:
        full = np.kron(full, factors.get(name, EYE))
    return np.eye(1 << len(lines), dtype=complex) + full


@pytest.mark.parametrize("lines", [("t", "a", "b"), ("a", "t", "b"), ("a", "b", "t")])
@pytest.mark.parametrize("k,p", [(1, 1), (2, 1), (4, 3), (8, 5)])
def test_apply_gate_matches_kron_matrix_wherever_the_target_sits(lines, k, p):
    rng = np.random.default_rng(11)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    sv = StateVector(lines, amps / np.linalg.norm(amps))
    for controls in [(), ("a",), ("b",), ("a", "b"), ("b", "a")]:
        gate = Gate(k, p, controls, "t")
        out = apply_gate(sv, gate)
        assert np.max(np.abs(out.amps - _controlled_matrix(lines, gate) @ sv.amps)) < 1e-12


def test_apply_gate_leaves_its_input_unchanged():
    sv = StateVector.basis(("a", "t"), {"a": 1, "t": 0})
    before = sv.amps.copy()
    out = apply_gate(sv, Gate(2, 1, ("a",), "t"))
    assert np.array_equal(sv.amps, before)
    assert not np.array_equal(out.amps, before)


# -- simulation --------------------------------------------------------------------


def test_simulate_toffoli_cascade(fig2):
    out = simulate(fig2, {"a": 1, "b": 1, "c": 0, "t": 0})
    assert out.dump() == "|1101> +1.000000000000 +0.000000000000"
    out = simulate(fig2, {"a": 0, "b": 1, "c": 1, "t": 0})
    assert np.argmax(np.abs(out.amps)) == 0b0111


def test_simulate_guard():
    text = "\n".join(f"line x{i}" for i in range(13))
    c = Circuit.parse(text + "\n")
    with pytest.raises(SimulationLimitError):
        simulate(c, {f"x{i}": 0 for i in range(13)})


def test_residual_amplitudes_match_closed_form():
    out = simulate(load("lonely_v"), {"a": 1, "t": 0})
    v = q_matrix(2, 1)
    assert abs(out.amps[0b10] - v[0, 0]) < 1e-12
    assert abs(out.amps[0b11] - v[1, 0]) < 1e-12


# -- symbolic vs numeric ----------------------------------------------------------


@pytest.mark.parametrize(
    "name",
    ["fig1", "fig2", "fig3", "fig4", "fig4_pre", "fig5", "fig6", "lonely_v", "broken"],
)
def test_cross_check_fixtures(name):
    c = load(name)
    result = cross_check(c, evaluate(c))
    assert result.passed
    assert result.inputs_checked == 1 << len(c.lines)


def test_cross_check_catches_wrong_report(fig2):
    mutated = fig2.with_gates(fig2.gates[:-1])
    result = cross_check(mutated, evaluate(fig2))
    assert not result.passed
    assert result.witness == {"a": 0, "b": 1, "c": 0, "t": 0}
    assert "amplitude error" in result.detail
    # np.bool_ == 1 holds too: the CLI's JSON needs Python ints
    assert all(type(v) is int for v in result.witness.values())
    assert type(result.inputs_checked) is int
    json.dumps(result.to_dict())


def test_cross_check_refuses_circuits_beyond_the_simulation_guard():
    text = "\n".join(f"line x{i}" for i in range(12)) + "\nline t target\ncnot x0 t\n"
    c = Circuit.parse(text)
    with pytest.raises(SimulationLimitError, match="13 lines exceed the simulation guard"):
        cross_check(c, evaluate(c))


def test_cross_check_rejects_mismatched_report(fig2, fig6):
    with pytest.raises(LineMismatchError):
        cross_check(fig2, evaluate(fig6))


def test_cross_check_separates_adjacent_exponents_at_the_root_limit():
    from dataclasses import replace

    from cnq.circuit import MAX_ROOT

    c = Circuit.parse(f"line a\nline t target\nq k={MAX_ROOT} p=1 a -> t\n")
    report = evaluate(c)
    assert cross_check(c, report).passed
    oc = report.outcomes["t"]
    off_by_one = state(poly({"a": 2}), oc.state.k_root, oc.state.base)
    off = replace(report, outcomes={**report.outcomes, "t": replace(oc, state=off_by_one)})
    result = cross_check(c, off)
    assert not result.passed
    assert result.witness == {"a": 1, "t": 0}


def test_a_flagged_input_that_passes_dense_confirmation_is_cleared(monkeypatch):
    # with atol = 5e-6, exponent 2*a for a at k = 2^20 is off by more than delta
    # = atol / 6 on both inputs with a = 1, yet within atol on the dense check
    c = Circuit.parse(f"line a\nline t target\nq k={MAX_ROOT} p=1 a -> t\n")
    off = _mutate(evaluate(c), "t", exponent=poly({"a": 2}))
    monkeypatch.setattr(oracle, "CROSS_CHECK_ATOL", 5e-6)
    points, dense = [], oracle.simulate

    def simulate_and_record(circuit, point, **kw):
        points.append(point)
        return dense(circuit, point, **kw)

    monkeypatch.setattr(oracle, "simulate", simulate_and_record)
    result = cross_check(c, off)
    assert result.passed and result.inputs_checked == 4
    assert points == [{"a": 1, "t": 0}, {"a": 1, "t": 1}]


# -- the all-inputs sweep ---------------------------------------------------------


def _sweep_dense(names, sweep):
    """The sweep's rows as dense statevectors over ``names`` (first = high bit)."""
    size = sweep.block.shape[-1]
    active = list(sweep.active)
    block = sweep.block.reshape((2,) * len(active) + (size,))
    block = block.transpose(len(active), *(active.index(n) for n in names if n in active))
    out = np.zeros((size,) + (2,) * len(names), dtype=complex)
    for r in range(size):
        at = tuple(int(sweep.bits[n][r]) if n in sweep.bits else slice(None) for n in names)
        out[(r, *at)] = block[r]
    return out.reshape(size, -1)


@pytest.mark.parametrize("entangling", [False, True])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_sweep_matches_dense_simulation(entangling, seed):
    """The sweep equals ``simulate`` on every input, also where lines entangle.

    ``entangling`` draws circuits that ``evaluate`` rejects because a root
    gate's target later controls another gate.
    """
    rng = random.Random(seed)
    while True:
        c = random_circuit(rng, max_lines=6)
        try:
            evaluate(c)
            rejected = False
        except TargetInteractionError:
            rejected = True
        if rejected == entangling:
            break
    names = c.line_names
    inputs = oracle._input_bits(names, range(1 << len(names)))
    before = dict(inputs)
    sweep = oracle._sweep(c, inputs, 1 << len(names))
    # cross_check reads a flagged input's point from the same columns
    assert inputs.keys() == before.keys() and all(inputs[n] is before[n] for n in names)
    dense = _sweep_dense(names, sweep)
    for i, pt in enumerate(iter_assignments(names)):
        assert np.max(np.abs(dense[i] - simulate(c, pt).amps)) < 1e-12


def _vchain(controls, gates):
    """``v x_i -> t`` then ``cnot x_i x_(i+1)``, wrapping round until ``gates`` gates."""
    text = [f"line x{i}" for i in range(controls)] + ["line t target"]
    i = 0
    while len(text) - controls - 1 < gates:
        text.append(f"v x{i % controls} -> t")
        text.append(f"cnot x{i % controls} x{(i + 1) % controls}")
        i += 1
    return Circuit.parse("\n".join(text[: controls + 1 + gates]) + "\n")


def test_passing_cross_check_never_simulates(monkeypatch):
    c = _vchain(11, 40)
    assert len(c.lines) == 12 and len(c.gates) == 40
    calls = []
    monkeypatch.setattr(oracle, "simulate", lambda *a, **kw: calls.append(a))
    result = cross_check(c, evaluate(c))
    assert result.passed and result.inputs_checked == 1 << 12
    assert calls == []


def test_sweep_updates_run_over_contiguous_rows(monkeypatch):
    """Every gate update of the sweep sees the input rows as its last, unit-stride axis.

    Two targets are active at once, and classical controls (x1, x3) meet
    active gates, so the updates see one and two line axes and a per-row o.
    """
    c = Circuit.parse(
        "line x0\nline x1\nline x2\nline x3\nline t target\nline u target\n"
        "v x0 -> t\nw x1 -> u\nv* x2 x1 -> t\ncnot x0 x3\nw* x3 -> u\nv -> t\n"
    )
    update = oracle._update
    seen = []

    def spy(amps, *args):
        seen.append(amps)
        update(amps, *args)

    monkeypatch.setattr(oracle, "_update", spy)
    assert cross_check(c, evaluate(c)).passed
    assert len(seen) == 5 and {amps.ndim for amps in seen} == {2, 3}
    for amps in seen:
        assert amps.shape[-1] == 64 and amps.strides[-1] == amps.itemsize


def test_cross_check_of_twelve_active_lines_stays_near_its_chunk_cap():
    # every line is active, so each 16 MB chunk fills the whole amplitude cap
    n = 12
    c = Circuit.parse(
        "\n".join([f"line x{i} target" for i in range(n)] + [f"v -> x{i}" for i in range(n)])
    )
    report = evaluate(c)
    tracemalloc.start()
    try:
        result = cross_check(c, report)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.passed and result.inputs_checked == 1 << n
    assert peak < 40 * 2**20


def _per_input_cross_check(circuit, report, atol=1e-9):
    """``cross_check`` as one dense simulation per input, in counting order."""
    names = circuit.line_names
    states = [
        oc.state if oc.value is None else TargetState(oc.name, oc.value, 1)
        for oc in (report.outcomes[name] for name in names)
    ]
    for count, pt in enumerate(iter_assignments(names), 1):
        sim = simulate(circuit, pt).amps
        pred = np.ones(1, dtype=complex)
        for s in states:
            e = s.exponent.evaluate(pt) % (2 * s.k_root)
            pred = np.outer(pred, q_matrix(s.k_root, e)[:, s.base.evaluate(pt)]).ravel()
        err = float(np.max(np.abs(sim - pred)))
        if err > atol:
            return False, count, pt, f"max amplitude error {err:.3e} exceeds {atol:g}"
    return True, count, None, None


def _with_outcome(report, line, **changes):
    oc = report.outcomes[line]
    return replace(report, outcomes={**report.outcomes, line: replace(oc, **changes)})


def _mutate(report, line, exponent=None, base=None):
    """``report`` with ``line``'s state given another exponent or base, at the same root."""
    st0 = report.outcomes[line].state
    exponent = st0.exponent if exponent is None else exponent
    base = st0.base if base is None else base
    return _with_outcome(report, line, state=state(exponent, st0.k_root, base, line))


def _plus_one(poly, monomial=frozenset()):
    terms = dict(poly.terms)
    terms[monomial] = terms.get(monomial, 0) + 1
    return MlPoly(terms)


_TWO_RESIDUALS = (
    "line a\nline b\nline s target\nline t target\n"
    "v a -> s\ncnot a b\nw b -> t\nv* b -> s\n"
)
_DEEP_ROOT = (
    "line a\nline b\nline t target\n"
    f"q k={MAX_ROOT} p=3 a -> t\ncnot b a\nq k={MAX_ROOT} p=5 a b -> t\n"
)


def _wrong_constant(report):
    return _mutate(report, "t", exponent=_plus_one(report.outcomes["t"].state.exponent))


def _wrong_base(report):
    oc = report.outcomes["t"]
    return _mutate(report, "t", base=oc.state.base ^ Anf.var("a"))


def _swapped_residuals(report):
    s, t = report.outcomes["s"], report.outcomes["t"]
    return replace(report, outcomes={**report.outcomes, "s": replace(s, state=t.state),
                                     "t": replace(t, state=s.state)})


def _deep_off_by_one(report):
    exponent = report.outcomes["t"].state.exponent
    return _mutate(report, "t", exponent=_plus_one(exponent, frozenset({"a", "b"})))


# t collapses to t ^ a ^ b ^ a&b; a and b stay pure
_COLLAPSED = "line a\nline b\nline t target\nv a -> t\ncnot b a\nv a -> t\nv b -> t\n"
_V_TWICE = "line a\nline t target\nv a -> t\nv a -> t\n"


def _pure_xor_one(report):
    # a pure line the sweep keeps classical
    return _with_outcome(report, "a", value=report.outcomes["a"].value ^ Anf.one())


def _collapsed_xor_var(report):
    return _with_outcome(report, "t", value=report.outcomes["t"].value ^ Anf.var("b"))


def _active_boolean(report):
    # the sweep activates t for its V gates, yet the report says t ^ a ^ 1
    return _with_outcome(report, "t", value=report.outcomes["t"].value ^ Anf.one())


def _classical_residual(report):
    # b is pure, so the sweep keeps it a bit column, but the report says V|b>
    residual = state(poly({"1": 1}), 2, report.outcomes["b"].value, "b")
    return _with_outcome(report, "b", value=None, state=residual)


@pytest.mark.parametrize(
    "text,mutate",
    [
        (_TWO_RESIDUALS, _wrong_constant),
        (_TWO_RESIDUALS, _wrong_base),
        (_TWO_RESIDUALS, _swapped_residuals),
        (_DEEP_ROOT, _wrong_constant),
        (_DEEP_ROOT, _deep_off_by_one),
        (_TWO_RESIDUALS, _pure_xor_one),
        (_COLLAPSED, _collapsed_xor_var),
        (_V_TWICE, _active_boolean),
        (_TWO_RESIDUALS, _classical_residual),
    ],
    ids=["constant", "base", "swapped", "deep-constant", "deep-off-by-one",
         "pure-xor-one", "collapsed-xor-var", "active-boolean", "classical-residual"],
)
@pytest.mark.parametrize("chunk_amps", [None, 2])
def test_cross_check_fails_mutated_reports_as_the_per_input_loop_does(
    text, mutate, chunk_amps, monkeypatch
):
    if chunk_amps:                  # many chunks: the witness lies past the first
        monkeypatch.setattr(oracle, "_CHUNK_AMPS", chunk_amps)
    c = Circuit.parse(text)
    report = mutate(evaluate(c))
    result = cross_check(c, report)
    passed, count, witness, detail = _per_input_cross_check(c, report)
    assert not passed
    assert (result.passed, result.inputs_checked, result.witness, result.detail) == (
        passed, count, witness, detail)


def test_predictions_never_write_into_the_input_columns(monkeypatch):
    # a pure line's prediction is its input column itself; read-only input
    # columns make any write through the sweep, the comparison or the dense
    # confirmation of a flagged input raise
    monkeypatch.setattr(oracle, "_CHUNK_AMPS", 2)
    chunks, make = [], oracle._input_bits

    def read_only_input_bits(names, rows):
        cols = make(names, rows)
        for col in cols.values():
            col.flags.writeable = False
        chunks.append(rows)
        return cols

    monkeypatch.setattr(oracle, "_input_bits", read_only_input_bits)
    c = Circuit.parse(_COLLAPSED)
    report = evaluate(c)
    inputs = read_only_input_bits(c.line_names, range(8))
    assert oracle._predict(TargetState("b", Anf.var("b"), 1), inputs, 8) is inputs["b"]
    assert cross_check(c, report).passed
    mutated = _collapsed_xor_var(report)
    result = cross_check(c, mutated)
    assert (result.passed, result.inputs_checked, result.witness, result.detail) == (
        _per_input_cross_check(c, mutated))
    assert len(chunks) > 2          # cross_check read its chunks through the wrapper


def _perturb_one_line(report, rng):
    """One random line off by one: a Boolean value XOR a variable, or a residual
    exponent's constant coefficient plus one."""
    names = sorted(report.outcomes)
    line = rng.choice(names)
    oc = report.outcomes[line]
    if oc.value is not None:
        return _with_outcome(report, line, value=oc.value ^ Anf.var(rng.choice(names)))
    return _mutate(report, line, exponent=_plus_one(oc.state.exponent))


@pytest.mark.parametrize("chunk_amps", [None, 2])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_cross_check_of_a_perturbed_line_agrees_with_the_per_input_loop(chunk_amps, seed):
    rng = random.Random(seed)
    c = random_valid_circuit(rng, max_lines=5)
    report = _perturb_one_line(evaluate(c), rng)
    with pytest.MonkeyPatch.context() as mp:
        if chunk_amps:
            mp.setattr(oracle, "_CHUNK_AMPS", chunk_amps)
        result = cross_check(c, report)
    assert not result.passed
    assert (result.passed, result.inputs_checked, result.witness, result.detail) == (
        _per_input_cross_check(c, report))

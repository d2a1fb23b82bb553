"""Symbolic evaluation: exponent states, collapse, spec checking, equivalence."""

import pickle
import random
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cnq import (
    Anf,
    Circuit,
    EpisodeTerm,
    EvalReport,
    Gate,
    Line,
    LineMismatchError,
    LineOutcome,
    MlPoly,
    TargetInteractionError,
    TargetState,
    check_spec,
    equivalent,
    evaluate,
    iter_assignments,
    random_valid_circuit,
)
from cnq.circuit import MAX_ROOT
from cnq.symbolic import _Episode, _evaluate

from conftest import load, poly, state

VARS = ["a", "b", "c"]
monomials = st.frozensets(st.sampled_from(VARS), max_size=3)
anfs = st.frozensets(monomials, max_size=6).map(Anf)
roots = st.sampled_from([1, 2, 4, 8])


@st.composite
def target_states(draw):
    """A state with up to 6 terms under random controls, powers in [0, 4K)."""
    k = draw(roots)
    base = draw(anfs)
    powers = st.integers(min_value=0, max_value=4 * k - 1)
    terms = draw(st.lists(st.tuples(anfs, powers), max_size=6))
    return TargetState("t", base, k, tuple(EpisodeTerm(c, a, ()) for c, a in terms))


def _fields(st0):
    """What a state says about its line: base, root and exponent, not how it got there."""
    return st0.base, st0.k_root, st0.exponent


# -- exponent state algebra ---------------------------------------------------


def _state(text):
    """The final state of line t of a circuit on lines a, b and target t."""
    c = Circuit.parse("line a\nline b\nline t target\n" + text)
    return evaluate(c).outcomes["t"].state


def test_absorb_accumulates_powers():
    assert _fields(_state("v a -> t\nv b -> t\n")) == (Anf.var("t"), 2, poly({"a": 1, "b": 1}))


def test_absorb_rebases_to_finer_root():
    # the v's power doubles: one quarter-turn is two eighth-turns
    assert _fields(_state("v a -> t\nw b -> t\n")) == (Anf.var("t"), 4, poly({"a": 2, "b": 1}))


def test_absorb_reduces_mod_two_k():
    # 3 + 1 = 4 = 0 mod 4
    assert _fields(_state("q k=2 p=3 a -> t\nv a -> t\n")) == (Anf.var("t"), 2, MlPoly.zero())


@given(target_states())
def test_the_exponent_is_the_reduced_sum_of_the_terms(st0):
    m = 2 * st0.k_root
    unreduced = sum((a * c.to_arith() for c, a, _ in st0.terms), MlPoly.zero())
    assert st0.exponent == unreduced.reduce_mod(m)


def test_a_power_of_four_k_is_reduced_before_folding():
    # 8 = 0 mod 4 folds nothing, and 9 = 1 mod 4 folds a ^ b mod 4
    ab = Anf.parse("a ^ b")
    assert TargetState("t", Anf.zero(), 2, (EpisodeTerm(ab, 8, ()),)).exponent == MlPoly.zero()
    nine = TargetState("t", Anf.zero(), 2, (EpisodeTerm(ab, 9, ()),))
    assert nine.exponent == poly({"a": 1, "b": 1, "a*b": 2})


def test_equality_compares_the_given_fields():
    a = Anf.var("a")
    once = TargetState("t", Anf.zero(), 2, (EpisodeTerm(a, 2, (0,)),))
    assert once == TargetState("t", Anf.zero(), 2, (EpisodeTerm(a, 2, (0,)),))
    assert hash(once) == hash(TargetState("t", Anf.zero(), 2, (EpisodeTerm(a, 2, (0,)),)))
    # the same exponent from other gates, or on another line, is another episode
    twice = TargetState("t", Anf.zero(), 2, (EpisodeTerm(a, 2, (0, 1)),))
    assert twice.exponent == once.exponent and twice != once
    assert replace(once, target="u") != once


def test_rebase_rejects_coarser_root():
    st0 = state(poly({"a": 1}), 4, Anf.var("t"))
    with pytest.raises(ValueError):
        st0.rebased(2)
    with pytest.raises(ValueError):
        st0.rebased(6)


@pytest.mark.parametrize("k_root,k_new", [(2, 0), (2, -2), (2, -4), (2, 3), (2, 6), (1, 3)])
def test_rebase_rejects_a_root_that_is_not_a_finer_root(k_root, k_new):
    st0 = state(poly({"a": 1}), k_root, Anf.var("t"))
    with pytest.raises(ValueError, match=f"^cannot rebase root {k_root} onto {k_new}$"):
        st0.rebased(k_new)


def test_rebased_scales_each_power_and_keeps_its_gates(fig6):
    c_state = evaluate(fig6).outcomes["c"].state
    fine = c_state.rebased(4)
    a, b = Anf.var("a"), Anf.var("b")
    assert fine.terms == (
        EpisodeTerm(a, 6, (3,)), EpisodeTerm(b, 6, (4,)), EpisodeTerm(a ^ b, 2, (7,))
    )
    assert (fine.target, fine.base, fine.k_root) == ("c", Anf.var("c"), 4)
    assert fine.exponent == poly({"a*b": 4})
    assert fine.rebased(8).terms == tuple(t._replace(power=2 * t.power) for t in fine.terms)


def test_collapse_examples():
    t = Anf.var("t")
    assert state(MlPoly.zero(), 2, t).collapse() == t
    assert state(poly({"a*b": 2}), 2, t).collapse() == Anf.parse("t ^ a&b")
    assert state(poly({"a": 1}), 2, t).collapse() is None
    assert state(poly({"a": 2, "b": 1}), 2, t).collapse() is None
    assert state(poly({"a": 4, "b*c": 4}), 4, t).collapse() == Anf.parse(
        "t ^ a ^ b&c"
    )


@given(target_states())
@settings(max_examples=300)
def test_collapse_sound_and_complete(state):
    # collapse succeeds iff the exponent is pointwise in {0, K} mod 2K,
    # and then the Boolean value is base xor (exponent / K)
    vs = sorted(state.exponent.variables() | state.base.variables())
    value = state.collapse()
    m = 2 * state.k_root
    hits = [state.exponent.evaluate(pt) % m for pt in iter_assignments(vs)]
    if value is None:
        assert any(h not in (0, state.k_root) for h in hits)
    else:
        assert all(h in (0, state.k_root) for h in hits)
        for pt in iter_assignments(vs):
            e = state.exponent.evaluate(pt) % m
            assert value.evaluate(pt) == state.base.evaluate(pt) ^ (
                e // state.k_root
            )


def _absorb(st0, k, p, ctrl):
    """Gate-by-gate absorption of Q_k^p under ``ctrl``, as the unreduced sum at the finer root."""
    k2 = max(st0.k_root, k)
    want = st0.rebased(k2).exponent + (p * (k2 // k)) * ctrl.to_arith()
    return state(want, k2, st0.base, st0.target)


episode_gates = st.tuples(roots, st.integers(min_value=1, max_value=15), anfs)


@given(anfs, st.lists(episode_gates, min_size=1, max_size=6))
def test_absorb_matches_the_unreduced_sum(base, gs):
    # an episode's roots rise and fall, so a gate's root is coarser or finer than the state's
    ep = _Episode("t", base, gs[0][0])
    want = state(MlPoly.zero(), gs[0][0], base)
    for i, (k, p, ctrl) in enumerate(gs):
        ep.add(i, k, p, ctrl)
        want = _absorb(want, k, p, ctrl)
    assert _fields(ep.end()) == _fields(want)


@given(target_states())
def test_rebase_preserves_collapse(state):
    fine = state.rebased(2 * state.k_root)
    assert fine.collapse() == state.collapse()


@given(target_states())
def test_rebase_preserves_normalized_exponent(state):
    k2 = 2 * state.k_root
    assert state.normalized_exponent(k2) == state.rebased(k2).normalized_exponent()


def test_normalized_exponent_folds_base():
    # Q^K applied to |1> equals Q^(E+K) applied to |0>
    a = state(MlPoly.zero(), 2, Anf.var("a"))
    b = state(poly({"a": 2}), 2)
    assert a.normalized_exponent() == b.normalized_exponent()


# -- whole-circuit evaluation ---------------------------------------------------


def test_fig2_golden_exponent(fig2):
    oc = evaluate(fig2).outcomes["t"]
    assert oc.status == "collapsed"
    assert oc.value == Anf.parse("t ^ a&b ^ b&c")
    assert oc.state.k_root == 2
    assert oc.state.exponent == poly({"a*b": 2, "b*c": 2})
    assert oc.state.base == Anf.var("t")


def test_fig6_golden_exponents(fig6):
    out = evaluate(fig6).outcomes
    assert out["c"].value == Anf.parse("c ^ a&b")
    assert out["c"].state.rebased(4).exponent == poly({"a*b": 4})
    assert out["d"].value == Anf.parse("d ^ a&b&c")
    assert out["d"].state.k_root == 4
    assert out["d"].state.exponent == poly({"a*b*c": 4})


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4", "fig4_pre", "fig5"])
def test_toffoli_cascade_variants_agree(name):
    oc = evaluate(load(name)).outcomes["t"]
    assert oc.value == Anf.parse("t ^ a&b ^ b&c")


def test_control_lines_stay_pure(fig2):
    out = evaluate(fig2).outcomes
    for name in "abc":
        assert out[name].status == "pure"
        assert out[name].value == Anf.var(name)


def test_not_family_on_pure_line_stays_boolean():
    c = Circuit.parse("line a\nline b\nline t target\ncnot a b\nq k=2 p=2 b -> t\n")
    out = evaluate(c).outcomes
    assert out["b"].value == Anf.parse("a ^ b")
    assert out["t"].status == "pure"           # k=2 p=2 acts as NOT: no taint
    assert out["t"].value == Anf.parse("t ^ a ^ b")


def test_not_family_on_tainted_line_is_absorbed():
    c = Circuit.parse("line a\nline b\nline t target\nv a -> t\ncnot b t\n")
    oc = evaluate(c).outcomes["t"]
    assert oc.status == "residual"
    assert oc.state.exponent == poly({"a": 1, "b": 2})


def test_residual_line_warns():
    report = evaluate(load("lonely_v"))
    assert report.outcomes["t"].status == "residual"
    assert report.outcomes["t"].value is None
    assert any("no Boolean output form" in w for w in report.warnings)


def test_v_chain_exponent_stays_polynomial_at_24_controls():
    # rung i adds arith(x1 ^ ... ^ xi) mod 4, whose integer form has 2^i - 1
    # terms; mod 4 it is sum(x_j) + 2 * sum(x_j * x_h) over j < h <= i
    n = 24
    text = "".join(f"line x{i}\n" for i in range(1, n + 1)) + "line t target\n"
    for i in range(1, n + 1):
        text += f"v x{i} -> t\n" + (f"cnot x{i} x{i + 1}\n" if i < n else "")
    oc = evaluate(Circuit.parse(text)).outcomes["t"]
    assert oc.status == "residual"
    terms = {}
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            terms[(f"x{j}",)] = terms.get((f"x{j}",), 0) + 1
            for h in range(j + 1, i + 1):
                terms[(f"x{j}", f"x{h}")] = terms.get((f"x{j}", f"x{h}"), 0) + 2
    assert oc.state.k_root == 2
    assert oc.state.exponent == MlPoly(terms.items()).reduce_mod(4)


def test_uncontrolled_q_gate():
    c = Circuit.parse("line t target\nq k=2 p=1 -> t\nq k=2 p=1 -> t\n")
    oc = evaluate(c).outcomes["t"]
    # two uncontrolled quarter-turns make a NOT
    assert oc.value == Anf.parse("1 ^ t")


def test_emergent_and_from_linear_controls():
    # quarter-turns under a and b, undone under a xor b, leave half of 2ab
    c = Circuit.parse(
        "line a\nline b\nline t target\n"
        "v a -> t\nv b -> t\ncnot a b\nv* b -> t\ncnot a b\n"
    )
    oc = evaluate(c).outcomes["t"]
    assert oc.value == Anf.parse("t ^ a&b")
    assert oc.state.exponent == poly({"a*b": 2})


def test_tainted_control_collapses_before_use(fig6):
    report = evaluate(fig6)
    # line c regains a Boolean value exactly when gate 8 reads it
    assert fig6.gates[8].target == "d"
    assert report.trace[8] == Anf.parse("c ^ a&b")


def test_evaluate_leaves_a_memoized_fold_unchanged():
    # to_arith hands every caller the same memoized polynomial
    x = Anf.parse("a ^ b ^ c ^ x")
    shared = x.to_arith(4)
    before = MlPoly(shared.terms)
    c = Circuit.parse(
        "line a\nline b\nline c\nline x\nline t target\n"
        "cnot a x\ncnot b x\ncnot c x\nv x -> t\nv x -> t\nv x -> t\n"
    )
    assert evaluate(c).trace[3] == x
    assert shared == before
    assert x.to_arith(4) == before


def test_resolved_control_is_the_product_of_the_controls():
    c = Circuit.parse(
        "line a\nline b\nline t target\nv -> t\nv a -> t\nccx a b t\n"
    )
    assert evaluate(c).trace == (Anf.one(), Anf.var("a"), Anf.parse("a&b"))


def test_interaction_raises_with_gate_index():
    c = load("interaction")
    with pytest.raises(TargetInteractionError) as err:
        evaluate(c)
    assert err.value.gate_index == 1
    assert err.value.code == "E_TARGET_INTERACTION"


def test_taint_episodes_in_trace():
    c = Circuit.parse(
        "line a\nline t target\nline u target\n"
        "v a -> t\nv a -> t\n"          # episode 0 on t, collapses to t ^ a
        "cnot t u\n"                     # forces the collapse
        "v a -> t\nv a -> t\n"          # episode 1 on t
    )
    report = evaluate(c)
    eps = [[term.gates for term in ep.terms] for ep in report.episodes if ep.target == "t"]
    assert eps == [[(0, 1)], [(3, 4)]]
    assert evaluate(c).outcomes["t"].value == Anf.var("t")   # a ^ a cancels


def test_a_lines_state_is_its_last_episode():
    c = Circuit.parse(
        "line a\nline t target\nline u target\n"
        "v a -> t\nv a -> t\ncnot t u\n"       # t's first episode ends at the cnot
        "v a -> t\nv a -> t\ncnot t u\n"       # and its second
        "v a -> t\nw a -> u\n"                # the third, and u's first, end with the circuit
    )
    report = evaluate(c)
    assert [ep.target for ep in report.episodes] == ["t", "t", "t", "u"]
    assert report.outcomes["t"].state is report.episodes[2]
    assert report.outcomes["u"].state is report.episodes[3]
    assert report.outcomes["a"].state is None


def test_trace_is_one_resolved_control_per_gate(fig6):
    # gate 5, cnot a b, leaves a ^ b on line b; gate 8 reads c collapsed
    a, b, c = Anf.var("a"), Anf.var("b"), Anf.var("c")
    assert evaluate(fig6).trace == (a, b, c, a, b, a, a ^ b, a ^ b, c ^ (a & b), a)


# -- per-control sums against gate-by-gate absorption ------------------------------


def _gate_by_gate(circuit):
    """The reference evaluation: every gate is absorbed into its target's state at once."""
    states = {ln.name: Anf.var(ln.name) for ln in circuit.lines}
    last, trace = {}, []
    for i, g in enumerate(circuit.gates):
        ctrl = Anf.one()
        for cname in g.controls:
            s = states[cname]
            if isinstance(s, TargetState):
                v = s.collapse()
                if v is None:
                    raise TargetInteractionError(
                        f"line {cname!r} drives a control while holding a "
                        f"fractional power of NOT ({s})",
                        gate_index=i,
                    )
                last[cname] = s
                states[cname] = s = v
            ctrl = ctrl & s
        tstate = states[g.target]
        trace.append(ctrl)
        if g.is_not_family and isinstance(tstate, Anf):
            states[g.target] = tstate ^ ctrl
            continue
        if isinstance(tstate, Anf):
            tstate = state(MlPoly.zero(), g.k, tstate, g.target)
        states[g.target] = _absorb(tstate, g.k, g.p, ctrl)
    outcomes = {}
    for ln in circuit.lines:
        value = states[ln.name]
        if isinstance(value, TargetState):
            last[ln.name] = value
            value = value.collapse()
        outcomes[ln.name] = LineOutcome(ln.name, ln.is_target, value, last.get(ln.name))
    return EvalReport(outcomes, trace)


def _lines(report):
    """Each line's value and what its state says, whatever terms built the state."""
    return {
        name: (oc.value, None if oc.state is None else _fields(oc.state))
        for name, oc in report.outcomes.items()
    }


LINES = ("a", "b", "c", "t", "u")


@st.composite
def circuits(draw):
    """Up to 12 gates on a, b, c and targets t, u; a target may drive a control."""
    gates = []
    for _ in range(draw(st.integers(1, 12))):
        k = draw(roots)
        target = draw(st.sampled_from(LINES))
        others = st.sampled_from([x for x in LINES if x != target])
        controls = draw(st.lists(others, max_size=2, unique=True))
        gates.append(Gate(k, draw(st.integers(1, 2 * k - 1)), tuple(controls), target))
    return Circuit(tuple(Line(x, x in ("t", "u")) for x in LINES), gates)


@given(circuits())
@settings(max_examples=300, deadline=None)
def test_per_control_sums_match_gate_by_gate_absorption(c):
    try:
        want = _gate_by_gate(c)
    except TargetInteractionError as exc:
        with pytest.raises(TargetInteractionError) as err:
            _evaluate(c)
        assert (str(err.value), err.value.gate_index) == (str(exc), exc.gate_index)
        return
    got = _evaluate(c)
    assert _lines(got) == _lines(want)
    assert got.trace == want.trace


def _folds(monkeypatch):
    """Record the (modulus, control) of every ``Anf.to_arith`` call."""
    calls, to_arith = [], Anf.to_arith

    def record(self, modulus=None):
        calls.append((modulus, self))
        return to_arith(self, modulus)

    monkeypatch.setattr(Anf, "to_arith", record)
    return calls


def test_a_complementary_pair_absorbs_nothing(monkeypatch):
    calls = _folds(monkeypatch)
    c = Circuit.parse("line a\nline t target\nw a -> t\nw* a -> t\n")
    report = _evaluate(c)
    assert calls == []
    assert _fields(report.outcomes["t"].state) == (Anf.var("t"), 4, MlPoly.zero())
    assert "collapsed from root k=4, exponent 0" in report.to_text()


def test_a_finer_root_rescales_earlier_sums(monkeypatch):
    # v a is 2 at root 4, so the second v a brings a's sum to K = 4: a folds mod 2
    calls = _folds(monkeypatch)
    c = Circuit.parse("line a\nline b\nline t target\nv a -> t\nw b -> t\nv a -> t\n")
    st0 = _evaluate(c).outcomes["t"].state
    assert (st0.k_root, st0.exponent) == (4, poly({"a": 4, "b": 1}))
    assert calls == [(2, Anf.var("a")), (8, Anf.var("b"))]
    assert _fields(st0) == _fields(_gate_by_gate(c).outcomes["t"].state)


def test_a_target_driving_a_control_shows_the_gate_by_gate_exponent():
    c = Circuit.parse(
        "line a\nline b\nline t target\nline u target\n"
        "cnot a b\nv b -> t\nw a -> t\nv b -> t\nw* a -> t\ncnot a b\n"
        "cnot t u\n"                     # t collapses to t ^ a ^ b here
        "ccx a b u\n"
    )
    report = _evaluate(c)
    # a ^ b's total is 2 + 2 = K and a's is 1 + 7 = 0 mod 2K
    shown = (Anf.var("t"), 4, poly({"a": 4, "b": 4}))
    assert _fields(report.outcomes["t"].state) == shown
    assert report.trace[6] == Anf.parse("t ^ a ^ b")
    assert report.outcomes["u"].value == Anf.parse("u ^ t ^ a ^ b ^ a&b")
    assert _lines(report) == _lines(_gate_by_gate(c))


def test_an_xor_under_a_complementary_pair_is_folded_mod_two(monkeypatch):
    # the two powers sum to K = 2^20, so the 12-input parity folds mod 2; one
    # gate at a time, each fold mod 2^21 keeps all 4095 terms of the parity
    n = 12
    text = "".join(f"line x{i}\n" for i in range(n)) + "line t target\n"
    undo = "".join(f"cnot x{i} x{n - 1}\n" for i in range(n - 1))
    text += undo + f"q k={MAX_ROOT} p=1 x{n - 1} -> t\n"
    text += f"q k={MAX_ROOT} p={MAX_ROOT - 1} x{n - 1} -> t\n" + undo
    sizes, to_arith = [], Anf.to_arith

    def record(self, modulus=None):
        out = to_arith(self, modulus)
        sizes.append(len(out.terms))
        return out

    monkeypatch.setattr(Anf, "to_arith", record)
    oc = _evaluate(Circuit.parse(text)).outcomes["t"]
    assert oc.value == Anf([("t",)] + [(f"x{i}",) for i in range(n)])
    assert sizes and max(sizes) <= n


# -- the episode table ------------------------------------------------------------


def test_fig6_episodes(fig6):
    # gate 8 reads c, which ends c's episode there; d's ends with the circuit
    a, b, c = Anf.var("a"), Anf.var("b"), Anf.var("c")
    assert evaluate(fig6).episodes == (
        TargetState("c", c, 2, (
            EpisodeTerm(a, 3, (3,)),
            EpisodeTerm(b, 3, (4,)),
            EpisodeTerm(a ^ b, 1, (7,)),
        )),
        TargetState("d", Anf.var("d"), 4, (
            EpisodeTerm(a, 7, (0,)),
            EpisodeTerm(b, 7, (1,)),
            EpisodeTerm(c, 6, (2,)),
            EpisodeTerm(a ^ b, 1, (6,)),
            EpisodeTerm(c ^ (a & b), 2, (8,)),
        )),
    )


def test_a_cancelled_control_stays_in_its_episode(monkeypatch):
    calls = _folds(monkeypatch)
    c = Circuit.parse("line a\nline b\nline t target\nv a -> t\nv b -> t\nv* a -> t\n")
    (ep,) = _evaluate(c).episodes
    a, b = Anf.var("a"), Anf.var("b")
    assert calls == [(4, b)]
    terms = (EpisodeTerm(a, 0, (0, 2)), EpisodeTerm(b, 1, (1,)))
    assert ep == TargetState("t", Anf.var("t"), 2, terms)


@st.composite
def circuits_with_pairs(draw):
    """``circuits`` where some gates repeat or invert an earlier gate."""
    gates = list(draw(circuits()).gates)
    for _ in range(draw(st.integers(0, 4))):
        g = draw(st.sampled_from(gates))
        p = draw(st.sampled_from([g.p, 2 * g.k - g.p]))
        gates.insert(draw(st.integers(0, len(gates))), Gate(g.k, p, g.controls, g.target))
    return Circuit(tuple(Line(x, x in ("t", "u")) for x in LINES), gates)


def _taint_runs(circuit):
    """Each line's absorbed gates, one list per stretch, in the order the stretches end.

    A gate is absorbed unless it is NOT-family on a Boolean line; reading a
    line as a control returns it to the Boolean domain.
    """
    open_runs, runs = {}, []
    for i, g in enumerate(circuit.gates):
        for cname in g.controls:
            if cname in open_runs:
                runs.append(open_runs.pop(cname))
        if g.target in open_runs or not g.is_not_family:
            open_runs.setdefault(g.target, []).append(i)
    return runs + [open_runs[ln.name] for ln in circuit.lines if ln.name in open_runs]


@given(circuits_with_pairs())
@settings(max_examples=300, deadline=None)
def test_episodes_partition_the_absorbed_gates_and_sum_their_powers(c):
    try:
        report = _evaluate(c)
    except TargetInteractionError:
        return
    runs = _taint_runs(c)
    assert [sorted(i for t in ep.terms for i in t.gates) for ep in report.episodes] == runs
    assert sum(len(t.gates) for ep in report.episodes for t in ep.terms) == sum(map(len, runs))
    for ep in report.episodes:
        gates = [c.gates[i] for t in ep.terms for i in t.gates]
        assert ep.k_root == max(g.k for g in gates)
        assert {g.target for g in gates} == {ep.target}
        assert len({t.control for t in ep.terms}) == len(ep.terms)
        for t in ep.terms:
            assert {report.trace[i] for i in t.gates} == {t.control}
            m = 2 * ep.k_root
            assert t.power == sum(c.gates[i].p * (ep.k_root // c.gates[i].k) for i in t.gates) % m
    last = {ep.target: ep for ep in report.episodes}
    for name, oc in report.outcomes.items():
        assert oc.state is last.get(name)
        if name not in last:
            continue
        ep, m = last[name], 2 * last[name].k_root
        expanded = sum((t.power * t.control.to_arith(m) for t in ep.terms), MlPoly.zero())
        assert (oc.state.k_root, oc.state.exponent) == (ep.k_root, expanded.reduce_mod(m))


def test_the_episode_table_cannot_be_written(fig6):
    report = evaluate(fig6)
    ep = report.episodes[0]
    with pytest.raises(FrozenInstanceError):
        report.episodes = ()
    with pytest.raises(TypeError):
        report.episodes[0] = ep
    with pytest.raises(FrozenInstanceError):
        ep.k_root = 8
    with pytest.raises(FrozenInstanceError):
        ep.exponent = MlPoly.zero()
    with pytest.raises(TypeError):
        ep.terms[0] = ep.terms[1]
    with pytest.raises(AttributeError):
        ep.terms[0].power = 0
    with pytest.raises(TypeError):
        ep.terms[0].gates[0] = 5
    assert replace(report, episodes=list(report.episodes)).episodes == report.episodes


# -- spec checking ----------------------------------------------------------------


def test_check_spec_pass(fig2):
    (verdict,) = check_spec(fig2)
    assert verdict.passed
    assert verdict.line == "t"
    assert verdict.witness is None


def test_check_spec_fail_with_first_difference():
    (verdict,) = check_spec(load("broken"))
    assert not verdict.passed
    assert str(verdict.expected) == "t ^ a&b"
    assert str(verdict.actual_value) == "t ^ a&b ^ b&c"
    assert verdict.witness == {"a": 0, "b": 1, "c": 1, "t": 0}


def test_check_spec_residual_line():
    c = Circuit.parse("line a\nline t target\nv a -> t\nspec t = t ^ a\n")
    (verdict,) = check_spec(c)
    assert not verdict.passed
    assert verdict.code == "E_NO_COLLAPSE"
    assert verdict.witness == {"a": 1}


def test_check_spec_requires_specs():
    with pytest.raises(ValueError):
        check_spec(load("lonely_v"))


def test_check_spec_witness_binds_every_variable_of_the_spec():
    # t is not in the difference (a), but the witness still gives it a bit
    c = Circuit.parse("line a\nline t target\ncnot a t\nspec t = t\n")
    (verdict,) = check_spec(c)
    assert verdict.witness == {"a": 1, "t": 0}
    residual = Circuit.parse("line a\nline t target\nv a -> t\nspec t = t ^ a\n")
    (verdict,) = check_spec(residual)
    assert verdict.witness == {"a": 1}


def test_a_41_variable_mismatch_gets_its_witness():
    # the line holds t ^ x0, so the difference is x1&...&x39: its indicator
    xs = [f"x{i}" for i in range(40)]
    text = "".join(f"line {x}\n" for x in xs) + "line t target\ncnot x0 t\n"
    c = Circuit.parse(text + "spec t = t ^ x0 ^ " + "&".join(xs[1:]) + "\n")
    (verdict,) = check_spec(c)
    assert not verdict.passed and verdict.code is None
    assert verdict.witness == {"t": 0, "x0": 0, **{x: 1 for x in xs[1:]}}


def test_a_24_input_residual_gets_its_witness():
    # E = arith(x0 ^ ... ^ x23) mod 4: each single variable has coefficient
    # 1, off {0, 2}; x9 sorts last, so its indicator is the first point
    xs = [f"x{i}" for i in range(24)]
    ladder = "".join(f"cnot {x} x23\n" for x in xs[:-1])
    text = "".join(f"line {x}\n" for x in xs) + "line t target\n"
    c = Circuit.parse(text + ladder + "v x23 -> t\n" + ladder + "spec t = t\n")
    (verdict,) = check_spec(c)
    assert verdict.code == "E_NO_COLLAPSE"
    assert verdict.witness == {x: int(x == "x9") for x in xs}


XS = [f"x{i}" for i in range(7)]


@st.composite
def failing_spec_circuits(draw):
    """Gates Q_K^c on t under random monomials of x0..x6, and a random spec on t.

    With every c = K mod 2K the line is Boolean and the spec mostly
    mismatches it; otherwise the line has no Boolean form.
    """
    k = draw(st.sampled_from([1, 2, 4]))
    monos = st.frozensets(st.sampled_from(XS), max_size=4)
    terms = draw(st.dictionaries(monos, st.integers(1, 2 * k - 1), max_size=6))
    gates = [Gate(k, c, tuple(sorted(m)), "t") for m, c in terms.items()]
    spec = draw(st.frozensets(st.frozensets(st.sampled_from(XS + ["t"]), max_size=3), max_size=5))
    lines = [Line(x) for x in XS] + [Line("t", True)]
    return Circuit(lines, gates, {"t": Anf(spec)})


def _brute_first_witness(verdict):
    """The first point, in counting order over the sorted variables, where the spec fails."""
    if verdict.code == "E_NO_COLLAPSE":
        e, k = verdict.actual_state.exponent, verdict.actual_state.k_root
        points = iter_assignments(sorted(e.variables()))
        return next(pt for pt in points if e.evaluate(pt) % (2 * k) not in (0, k))
    want, got = verdict.expected, verdict.actual_value
    points = iter_assignments(sorted(want.variables() | got.variables()))
    return next(pt for pt in points if want.evaluate(pt) != got.evaluate(pt))


@given(failing_spec_circuits())
@settings(max_examples=200, deadline=None)
def test_check_spec_witness_is_the_first_failing_point(c):
    (verdict,) = check_spec(c)
    assume(not verdict.passed)
    assert verdict.witness == _brute_first_witness(verdict)


def test_no_collapse_witness_leaves_the_basis():
    # E = a + 2b + 2c at root 2 is a basis state wherever a = 0, including
    # (0, 1, 1), where E = 4 = 0 mod 4; the first input off the basis is (1, 0, 0)
    c = Circuit.parse(
        "line a\nline b\nline c\nline t target\n"
        "v a -> t\ncnot b t\ncnot c t\nspec t = t\n"
    )
    (verdict,) = check_spec(c)
    assert verdict.code == "E_NO_COLLAPSE"
    assert verdict.actual_state.exponent == poly({"a": 1, "b": 2, "c": 2})
    assert verdict.witness == {"a": 1, "b": 0, "c": 0}


# -- circuit equivalence -------------------------------------------------------------


@pytest.mark.parametrize("name", ["fig3", "fig4", "fig4_pre", "fig5"])
def test_cascade_variants_equivalent(fig2, name):
    verdict = equivalent(fig2, load(name))
    assert verdict.passed
    assert set(verdict.details.values()) == {"match"}


def test_equivalence_detects_difference(fig2):
    # dropping the final gate changes the function on line c
    mutated = fig2.with_gates(fig2.gates[:-1])
    verdict = equivalent(fig2, mutated)
    assert not verdict.passed
    assert verdict.details["c"] != "match"


def test_equivalence_requires_same_lines(fig2, fig6):
    with pytest.raises(LineMismatchError):
        equivalent(fig2, fig6)


def test_equivalence_of_residual_states_uses_rebase():
    # one eighth-turn twice vs one quarter-turn once
    c1 = Circuit.parse("line a\nline t target\nq k=4 p=1 a -> t\nq k=4 p=1 a -> t\n")
    c2 = Circuit.parse("line a\nline t target\nv a -> t\n")
    assert equivalent(c1, c2).passed


def test_equivalence_residual_with_different_bases():
    # NOT then V equals V then ... the same state written over base t ^ 1
    c1 = Circuit.parse("line a\nline t target\nnot t\nv a -> t\n")
    c2 = Circuit.parse("line a\nline t target\nq k=2 p=2 -> t\nv a -> t\n")
    assert equivalent(c1, c2).passed


def test_residual_mismatch_shows_exponents_mod_2k():
    # base t ^ a folds K * a into 3a: 5a is a mod 4, the same state as V^a
    c1 = Circuit.parse("line a\nline b\nline t target\ncnot a t\nv* a -> t\n")
    c2 = Circuit.parse("line a\nline b\nline t target\nv b -> t\n")
    c3 = Circuit.parse("line a\nline b\nline t target\nv a -> t\n")
    verdict = equivalent(c1, c2)
    assert verdict.details["t"] == "residual states differ at root k=2: a + 2*t != b + 2*t"
    assert equivalent(c1, c3).passed


def test_equivalence_boolean_vs_residual_fails():
    c1 = Circuit.parse("line a\nline t target\nv a -> t\n")
    c2 = Circuit.parse("line a\nline t target\ncnot a t\n")
    verdict = equivalent(c1, c2)
    assert not verdict.passed
    assert "residual" in verdict.details["t"]


def test_appending_inverse_pair_preserves_equivalence(fig2):
    from cnq import Gate

    extended = fig2.with_gates(
        fig2.gates + (Gate(2, 1, ("a",), "t"), Gate(2, 3, ("a",), "t"))
    )
    assert equivalent(fig2, extended).passed


# -- one evaluation per question ---------------------------------------------------------


def _count_evaluations(monkeypatch):
    """Count calls of ``evaluate`` made through ``cnq.symbolic``."""
    import cnq.symbolic

    calls = []
    real = cnq.symbolic.evaluate

    def counted(circuit):
        calls.append(circuit)
        return real(circuit)

    monkeypatch.setattr(cnq.symbolic, "evaluate", counted)
    return calls


def test_equivalent_reuses_a_report_on_either_side(fig2, memo_info):
    fig5 = load("fig5")
    evaluate(fig2)
    evaluate(fig5)
    assert equivalent(fig2, fig5).passed
    assert equivalent(fig5, fig2).passed
    info = memo_info()
    assert (info.hits, info.misses) == (4, 2)


def test_check_spec_reuses_a_report(fig2, memo_info):
    report = evaluate(fig2)
    (verdict,) = check_spec(fig2)
    assert verdict.passed and verdict.actual_value == report.outcomes["t"].value
    info = memo_info()
    assert (info.hits, info.misses) == (1, 1)


def test_line_roles_are_compared_before_evaluation(fig2, monkeypatch):
    calls = _count_evaluations(monkeypatch)
    # evaluating interaction.cnq raises E_TARGET_INTERACTION; the role check comes first
    with pytest.raises(LineMismatchError):
        equivalent(fig2, load("interaction"))
    with pytest.raises(LineMismatchError):
        equivalent(load("interaction"), fig2)
    assert calls == []


def test_check_spec_without_specs_raises_before_evaluation(monkeypatch):
    calls = _count_evaluations(monkeypatch)
    with pytest.raises(ValueError):
        check_spec(load("lonely_v"))
    assert calls == []


def test_every_evaluation_records_its_trace(fig2):
    report = evaluate(fig2)
    assert len(report.trace) == len(fig2.gates)
    assert all(type(ctrl) is Anf for ctrl in report.trace)


# -- the evaluation memo -------------------------------------------------------------


def test_an_equal_circuit_gets_the_same_report(fig2):
    report = evaluate(fig2)
    assert evaluate(fig2) is report
    assert evaluate(Circuit.parse(str(fig2))) is report


def test_a_circuit_with_other_specs_gets_its_own_report(fig2):
    other = replace(fig2, specs={"t": Anf.var("t")})
    mine, theirs = evaluate(fig2), evaluate(other)
    assert mine is not theirs
    assert evaluate(fig2) is mine and evaluate(other) is theirs
    assert [v.passed for v in check_spec(fig2)] == [True]
    assert [v.passed for v in check_spec(other)] == [False]


def test_a_failed_evaluation_raises_again():
    c = load("interaction")
    errors = []
    for _ in range(2):
        with pytest.raises(TargetInteractionError) as err:
            evaluate(c)
        errors.append(err.value)
    assert [(e.code, e.gate_index) for e in errors] == [("E_TARGET_INTERACTION", 1)] * 2
    assert errors[0] is not errors[1]


def test_a_shared_report_cannot_be_written(fig2):
    report = evaluate(fig2)
    with pytest.raises(TypeError):
        report.outcomes["t"] = report.outcomes["a"]
    with pytest.raises(TypeError):
        report.trace[0] = report.trace[1]
    with pytest.raises(FrozenInstanceError):
        report.trace = ()
    with pytest.raises(FrozenInstanceError):
        report.outcomes["t"].value = Anf.one()
    with pytest.raises(FrozenInstanceError):
        report.outcomes["t"].state.k_root = 8
    # a replaced report is read-only too, and leaves the original alone
    changed = replace(report, outcomes={**report.outcomes, "t": report.outcomes["a"]})
    with pytest.raises(TypeError):
        changed.outcomes["t"] = report.outcomes["t"]
    assert evaluate(fig2).outcomes["t"].name == "t"


def test_frozen_records_keep_their_fields_in_slots(fig2):
    from cnq import StateVector

    report = evaluate(fig2)
    gate, line, st0 = fig2.gates[0], fig2.lines[0], TargetState("t", Anf.one(), 2)
    vector = StateVector.basis(("a",), {"a": 1})
    for record, name in ((gate, "p"), (line, "name"), (st0, "k_root"), (vector, "lines")):
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, getattr(record, name))
    for record in (gate, line, st0, vector, report.trace[0], report.outcomes["t"], report):
        assert not hasattr(record, "__dict__")
    assert pickle.loads(pickle.dumps(gate)) == gate and replace(gate, p=3).p == 3


def test_list_fields_are_stored_as_tuples(memo_info):
    c = Circuit([Line("a"), Line("t", True)], [Gate(2, 1, ["a"], "t"), Gate(2, 1, ("a",), "t")])
    hashable = Circuit((Line("a"), Line("t", True)), (Gate(2, 1, ("a",), "t"),) * 2)
    assert c == hashable and hash(c) == hash(hashable)
    assert type(c.lines) is type(c.gates) is type(c.gates[0].controls) is tuple
    assert evaluate(c).outcomes["t"].value == Anf.parse("t ^ a")
    evaluate(c)
    assert (memo_info().misses, memo_info().hits) == (1, 1)


@given(st.integers(0, 2**32), st.lists(st.integers(0, 2**32), min_size=2, max_size=3))
@settings(max_examples=40, deadline=None)
def test_an_evicted_report_still_matches_a_fresh_evaluation(seed, others):
    c = random_valid_circuit(random.Random(seed))
    report = evaluate(c)
    for other in others:
        evaluate(random_valid_circuit(random.Random(other)))
    fresh = _evaluate(c)
    assert report.to_dict() == fresh.to_dict()
    assert report.trace == fresh.trace
    assert evaluate(c).to_dict() == fresh.to_dict()

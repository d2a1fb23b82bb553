"""Merge-pass optimizer: cancellations, promotions, fixed points, soundness."""

import random
from dataclasses import replace

import pytest

from cnq import (
    Circuit,
    Gate,
    check_spec,
    equivalent,
    evaluate,
    merge_pass,
    random_valid_circuit,
)

from conftest import load


def total(c: Circuit) -> int:
    return c.gate_count()["total_controlled"]


# -- the worked examples --------------------------------------------------------


def test_merge_promotes_quarter_turn_pair(fig2):
    result = merge_pass(fig2)
    assert total(result.circuit) == 9
    (change,) = result.changes
    assert change.kind == "promote"
    assert change.gate_indices == [1, 5]
    assert change.replacement == Gate(1, 1, ("b",), "t")
    # the merged gate sits where the group's last member was
    assert result.circuit.gates[4] == Gate(1, 1, ("b",), "t")


def test_merge_cancels_inverse_pair():
    result = merge_pass(load("fig4_pre"))
    assert total(result.circuit) == 8
    (change,) = result.changes
    assert change.kind == "cancel"
    assert change.replacement is None
    assert result.circuit == load("fig4")


@pytest.mark.parametrize("name", ["fig1", "fig3", "fig4", "fig5", "fig6"])
def test_optimized_networks_are_fixed_points(name):
    c = load(name)
    result = merge_pass(c)
    assert result.changes == []
    assert result.circuit == c


def test_merge_is_idempotent(fig2):
    once = merge_pass(fig2).circuit
    twice = merge_pass(once)
    assert twice.changes == []
    assert twice.circuit == once


def test_merge_preserves_specs_and_verdicts(fig2):
    merged = merge_pass(fig2).circuit
    assert merged.specs == fig2.specs
    (verdict,) = check_spec(merged)
    assert verdict.passed


def test_merge_into_single_root_gate():
    # three quarter-turns under the same control fold into one gate
    c = Circuit.parse("line a\nline t target\nv a -> t\nv a -> t\nv a -> t\n")
    result = merge_pass(c)
    (change,) = result.changes
    assert change.kind == "merge"
    assert result.circuit.gates == (Gate(2, 3, ("a",), "t"),)
    assert equivalent(c, result.circuit).passed


def test_merge_respects_episode_boundaries():
    # u reads t between the two pairs, so only gates within one episode merge
    c = Circuit.parse(
        "line a\nline t target\nline u target\n"
        "v a -> t\nv a -> t\n"
        "cnot t u\n"
        "v a -> t\nv a -> t\n"
    )
    result = merge_pass(c)
    kinds = sorted(ch.kind for ch in result.changes)
    assert kinds == ["promote", "promote"]
    groups = sorted(ch.gate_indices for ch in result.changes)
    assert groups == [[0, 1], [3, 4]]
    assert equivalent(c, result.circuit).passed


def test_merge_groups_by_resolved_control():
    # the second gate's control line was rewritten in between; the resolved
    # expressions differ, so nothing merges
    c = Circuit.parse(
        "line a\nline b\nline t target\nv b -> t\ncnot a b\nv b -> t\n"
    )
    result = merge_pass(c)
    assert result.changes == []

    # undoing the rewrite restores a mergeable pair
    c2 = Circuit.parse(
        "line a\nline b\nline t target\n"
        "v b -> t\ncnot a b\ncnot a b\nv b -> t\n"
    )
    result2 = merge_pass(c2)
    assert len(result2.changes) == 1
    assert result2.changes[0].kind == "promote"


def test_mixed_roots_merge_at_the_finer_root():
    # a quarter-turn and an eighth-turn under one control: 2 + 1 eighths
    c = Circuit.parse(
        "line a\nline t target\nv a -> t\nq k=4 p=1 a -> t\n"
    )
    result = merge_pass(c)
    (change,) = result.changes
    assert change.kind == "merge"
    assert result.circuit.gates == (Gate(4, 3, ("a",), "t"),)


# -- reporting --------------------------------------------------------------------


def test_merge_result_text(fig2):
    text = merge_pass(fig2).to_text()
    assert "controlled gates: 10 -> 9" in text
    assert "promote gates [1, 5] on t -> cnot b t" in text


def test_merge_result_no_changes(fig2):
    result = merge_pass(load("fig5"))
    assert "no mergeable gate groups" in result.to_text()
    doc = result.to_dict()
    assert doc["changes"] == []
    assert doc["gate_counts"]["before"]["total_controlled"] == 7


def test_change_to_dict(fig2):
    (change,) = merge_pass(fig2).changes
    doc = change.to_dict()
    assert doc == {
        "kind": "promote",
        "target": "t",
        "gate_indices": [1, 5],
        "replacement": "cnot b t",
        "note": "contributions sum to NOT",
    }


# -- randomized soundness ------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_merge_sound_on_random_circuits(seed):
    rng = random.Random(seed)
    for _ in range(50):
        c = random_valid_circuit(rng, max_lines=4, max_gates=12)
        result = merge_pass(c)           # merge_pass always proves its rewrite
        assert total(result.circuit) <= total(c)
        again = merge_pass(result.circuit)
        assert again.circuit == result.circuit


# -- one evaluation of the input ------------------------------------------------------


def test_merge_pass_evaluates_its_input_once(fig2, memo_info):
    assert merge_pass(fig2).changes
    # the input once for its groups and, remembered, for the proof; the rewrite once
    info = memo_info()
    assert (info.hits, info.misses) == (1, 2)


@pytest.mark.parametrize("source", ["fig2", "random"])
def test_spec_merge_spec_evaluates_each_circuit_once(source, memo_info):
    # the benchmark's xor_cascades job: check the input, merge it, check the rewrite
    if source == "fig2":
        c = load("fig2")
    else:
        # the first seeded draw with a Boolean target that merge_pass rewrites
        rng = random.Random(1)
        while True:
            c = random_valid_circuit(rng)
            outcomes = evaluate(c).outcomes.values()
            specs = {oc.name: oc.value for oc in outcomes if oc.is_target and oc.value is not None}
            if specs and merge_pass(c).changes:
                break
        c = replace(c, specs=specs)
    # five lookups a run: the first evaluates the input and its rewrite once
    # each; both stay remembered, so the second evaluates nothing
    for expected in [(3, 2), (5, 0)]:
        start = memo_info()
        assert all(v.passed for v in check_spec(c))
        merged = merge_pass(c)
        assert merged.changes
        assert all(v.passed for v in check_spec(merged.circuit))
        info = memo_info()
        assert (info.hits - start.hits, info.misses - start.misses) == expected

"""Seeded random-circuit generation and the built-in self-test."""

import random

import pytest

from cnq import evaluate, random_circuit, random_valid_circuit, self_test


def test_random_circuit_is_seed_deterministic():
    a = random_circuit(random.Random(42))
    b = random_circuit(random.Random(42))
    assert a == b
    assert a != random_circuit(random.Random(43))


def test_random_circuit_respects_bounds():
    for seed in range(30):
        c = random_circuit(random.Random(seed), max_lines=3, max_gates=5)
        assert 2 <= len(c.lines) <= 3
        assert 1 <= len(c.gates) <= 5
        for g in c.gates:
            assert g.k in (1, 2, 4, 8)
            assert 1 <= g.p < 2 * g.k
            assert g.target not in g.controls


def test_random_valid_circuit_is_evaluable():
    rng = random.Random(5)
    for _ in range(20):
        evaluate(random_valid_circuit(rng))      # must not raise


def test_self_test_small_run():
    res = self_test(seed=0, count=25)
    assert res.passed
    assert res.circuits == 25
    assert res.failures == []


@pytest.mark.parametrize("count", [0, -5])
def test_self_test_refuses_to_check_no_circuits(count):
    with pytest.raises(ValueError, match="at least 1"):
        self_test(0, count)


def test_self_test_evaluates_each_draw_once(monkeypatch, memo_info):
    import cnq.fuzz

    draws = []
    real_draw = cnq.fuzz.random_circuit

    def draw(*args, **kwargs):
        draws.append(1)
        return real_draw(*args, **kwargs)

    monkeypatch.setattr(cnq.fuzz, "random_circuit", draw)
    assert self_test(seed=0, count=10).passed
    # each draw once, failed ones included; each accepted one reused by cross_check
    info = memo_info()
    assert (info.hits, info.misses) == (10, len(draws))

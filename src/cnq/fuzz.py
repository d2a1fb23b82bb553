"""Seeded random circuits and the calculus-versus-matrices self-test."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .circuit import Circuit, Gate, Line
from .errors import DEFAULT_SIM_GUARD, TargetInteractionError
from .symbolic import evaluate

ROOTS = (1, 2, 4, 8)


def random_circuit(
    rng: random.Random,
    *,
    max_lines: int = 5,
    max_gates: int = 20,
) -> Circuit:
    """A random circuit; may not be symbolically evaluable."""
    n = rng.randint(2, max_lines)
    names = [f"x{i}" for i in range(n)]
    lines = tuple(Line(name, rng.random() < 0.5) for name in names)
    gates = []
    for _ in range(rng.randint(1, max_gates)):
        k = rng.choice(ROOTS)
        p = rng.randrange(1, 2 * k)
        target = rng.choice(names)
        others = [nm for nm in names if nm != target]
        ctrls = rng.sample(others, rng.randint(0, min(2, len(others))))
        gates.append(Gate(k, p, ctrls, target))
    return Circuit(lines, gates)


def random_valid_circuit(rng: random.Random, **kwargs) -> Circuit:
    """The first ``random_circuit`` whose controls stay Boolean throughout.

    Its evaluation is remembered by ``evaluate``, so asking for it again
    right away costs no second evaluation.
    """
    for _ in range(1000):
        candidate = random_circuit(rng, **kwargs)
        try:
            evaluate(candidate)
        except TargetInteractionError:
            continue
        return candidate
    raise RuntimeError("could not draw an evaluable random circuit")


@dataclass
class SelfTestResult:
    circuits: int
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures


def self_test(
    seed: int, count: int = 200, *, guard: int = DEFAULT_SIM_GUARD, **kwargs
) -> SelfTestResult:
    """Cross-check ``count`` >= 1 seeded random circuits against simulation.

    ``guard`` is ``cross_check``'s simulation guard; ``kwargs`` go to
    ``random_circuit``.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    from .oracle import cross_check     # loads numpy; kept off ``import cnq``

    rng = random.Random(seed)
    failures = []
    for i in range(count):
        circuit = random_valid_circuit(rng, **kwargs)
        res = cross_check(circuit, evaluate(circuit), guard=guard)
        if not res.passed:
            failures.append(f"circuit {i}: witness {res.witness}, {res.detail}\n{circuit}")
    return SelfTestResult(count, failures)

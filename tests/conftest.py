from pathlib import Path

import pytest

from cnq import Anf, Circuit, EpisodeTerm, MlPoly, TargetState

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_path(name: str) -> Path:
    return FIXTURES / f"{name}.cnq"


def load(name: str) -> Circuit:
    return Circuit.parse(fixture_path(name).read_text())


def poly(terms: dict[str, int]) -> MlPoly:
    """``poly({"a*b": 2, "1": 3})`` is 2ab + 3: each key is '*'-joined variables."""
    return MlPoly({frozenset(k.split("*")) - {"1"}: c for k, c in terms.items()})


def state(e: MlPoly, k: int, base: Anf = Anf.zero(), target: str = "t") -> TargetState:
    """A state of ``target`` at root ``k`` whose exponent is ``e`` mod 2k.

    Each monomial of ``e`` is one term, with no gates: a single monomial
    folds to itself, so the term adds its coefficient times that monomial.
    """
    terms = (EpisodeTerm(Anf([mono]), c, ()) for mono, c in e.terms.items())
    return TargetState(target, base, k, tuple(terms))


@pytest.fixture
def fig2() -> Circuit:
    return load("fig2")


@pytest.fixture
def fig6() -> Circuit:
    return load("fig6")


@pytest.fixture
def memo_info():
    """Clear ``evaluate``'s memo and return its ``cache_info``.

    Its misses count the evaluations made since; its hits the reports reused.
    """
    from cnq.symbolic import _evaluate_memo

    _evaluate_memo.cache_clear()
    return _evaluate_memo.cache_info

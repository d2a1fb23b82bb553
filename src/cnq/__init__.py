"""Symbolic calculus for circuits built from controlled roots of NOT.

The package evaluates, verifies and peephole-optimizes reversible
subcircuits whose gates apply Q^p under Boolean controls, where Q^k = NOT
and k is a power of two.  Instead of complex matrices it tracks, per
line, a Boolean base plus an integer exponent polynomial mod 2k; a dense
statevector oracle provides an independent numeric check.

The oracle, and numpy with it, loads on first use of one of its names
(``cnq.cross_check``, ``cnq.simulate``, ...), so symbolic work never pays
for it.
"""

import importlib

from .circuit import Circuit, Gate, Line
from .errors import (
    DEFAULT_SIM_GUARD,
    BadRootError,
    CnqError,
    LineMismatchError,
    ParseError,
    SelfControlError,
    SimulationLimitError,
    TargetInteractionError,
    UnboundVariableError,
    UndeclaredLineError,
    UnknownLineError,
    ZeroPowerError,
)
from .expr import (
    Anf,
    Assignment,
    MlPoly,
    display_anf,
    iter_assignments,
)
from .fuzz import random_circuit, random_valid_circuit, self_test
from .optimize import Change, MergeResult, merge_pass
from .symbolic import (
    Episode,
    EpisodeTerm,
    EquivVerdict,
    EvalReport,
    GateRecord,
    LineOutcome,
    SpecVerdict,
    TargetState,
    check_spec,
    equivalent,
    evaluate,
)

__version__ = "0.1.0"

# Names of ``oracle`` that ``__getattr__`` resolves on first access, as it
# does ``cnq.oracle`` itself.
_ORACLE_NAMES = (
    "CROSS_CHECK_ATOL",
    "CrossCheckResult",
    "StateVector",
    "apply_gate",
    "cross_check",
    "q_matrix",
    "simulate",
)


def __getattr__(name: str):
    if name != "oracle" and name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    oracle = importlib.import_module(".oracle", __name__)
    # cache every name, so later lookups are plain global reads
    globals().update({n: getattr(oracle, n) for n in _ORACLE_NAMES})
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_ORACLE_NAMES})


__all__ = [
    "Anf",
    "Assignment",
    "BadRootError",
    "CROSS_CHECK_ATOL",
    "Change",
    "Circuit",
    "CnqError",
    "CrossCheckResult",
    "DEFAULT_SIM_GUARD",
    "Episode",
    "EpisodeTerm",
    "EquivVerdict",
    "EvalReport",
    "Gate",
    "GateRecord",
    "Line",
    "LineMismatchError",
    "LineOutcome",
    "MergeResult",
    "MlPoly",
    "ParseError",
    "SelfControlError",
    "SimulationLimitError",
    "SpecVerdict",
    "StateVector",
    "TargetInteractionError",
    "TargetState",
    "UnboundVariableError",
    "UndeclaredLineError",
    "UnknownLineError",
    "ZeroPowerError",
    "apply_gate",
    "check_spec",
    "cross_check",
    "display_anf",
    "equivalent",
    "evaluate",
    "iter_assignments",
    "merge_pass",
    "q_matrix",
    "random_circuit",
    "random_valid_circuit",
    "self_test",
    "simulate",
]

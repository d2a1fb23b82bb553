"""Dense complex-matrix oracle for the symbolic calculus.

Everything here works on explicit statevectors of 2^n amplitudes and knows
nothing about the exponent calculus: gates are applied as 2x2 complex
matrices under basis-state controls.  ``cross_check`` is the bridge: it
replays a circuit on every basis input and compares the simulated state
with the tensor product predicted by an evaluation report.

Line order is significant: the first declared line is the most significant
bit of the basis index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate
from .errors import (
    BadRootError,
    LineMismatchError,
    SimulationLimitError,
    UnknownLineError,
)
from .expr import Assignment, MlPoly, iter_assignments, point_bit
from .symbolic import EvalReport, TargetState

# Dense simulation is refused beyond this many lines.
DEFAULT_SIM_GUARD = 12

CROSS_CHECK_ATOL = 1e-9


def q_matrix(k: int, p: int) -> np.ndarray:
    """The 2x2 matrix of Q^p where Q is the k-th root of NOT.

    Q's eigenvectors are those of NOT with eigenvalues 1 and exp(i*pi/k),
    which gives the closed form below.  p may be any integer; p = k yields
    NOT and p = 2k the identity.
    """
    if not isinstance(k, int) or k < 1:
        raise BadRootError(f"root index must be a positive integer, got {k}")
    w = np.exp(1j * np.pi * p / k)
    d = (1 + w) / 2
    o = (1 - w) / 2
    return np.array([[d, o], [o, d]], dtype=np.complex128)


@dataclass(frozen=True)
class StateVector:
    """2^n complex amplitudes over named lines (first line = high bit)."""

    lines: tuple[str, ...]
    amps: np.ndarray

    @classmethod
    def basis(cls, lines: tuple[str, ...], point: Assignment) -> "StateVector":
        n = len(lines)
        idx = 0
        for j, name in enumerate(lines):
            if point_bit(point, name):
                idx |= 1 << (n - 1 - j)
        amps = np.zeros(1 << n, dtype=np.complex128)
        amps[idx] = 1.0
        return cls(lines, amps)

    def line_axis(self, name: str) -> int:
        try:
            return self.lines.index(name)
        except ValueError:
            raise UnknownLineError(f"state has no line {name!r}") from None

    def amplitudes(self) -> dict[str, complex]:
        """The amplitudes of modulus at least 1e-12, keyed by basis bits."""
        n = len(self.lines)
        return {
            format(idx, f"0{n}b"): amp
            for idx, amp in enumerate(self.amps)
            if abs(amp) >= 1e-12
        }

    def dump(self) -> str:
        return "\n".join(
            f"|{bits}> {amp.real:+.12f} {amp.imag:+.12f}"
            for bits, amp in self.amplitudes().items()
        )


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply Q^p on the target axis of every control-satisfying amplitude."""
    sel: list = [slice(None)] * len(state.lines)
    for c in gate.controls:
        sel[state.line_axis(c)] = 1
    t_ax = state.line_axis(gate.target)
    if not isinstance(sel[t_ax], slice):
        raise UnknownLineError(f"gate targets its own control {gate.target!r}")
    d, o = q_matrix(gate.k, gate.p)[0]
    out = state.amps.copy()
    amps = out.reshape((2,) * len(state.lines))
    sel[t_ax] = 0
    lo = tuple(sel)
    sel[t_ax] = 1
    hi = tuple(sel)
    amps[lo], amps[hi] = d * amps[lo] + o * amps[hi], o * amps[lo] + d * amps[hi]
    return StateVector(state.lines, out)


def simulate(
    circuit: Circuit, point: Assignment, *, guard: int = DEFAULT_SIM_GUARD
) -> StateVector:
    """Run the circuit on one basis input and return the final statevector."""
    n = len(circuit.lines)
    if n > guard:
        raise SimulationLimitError(f"{n} lines exceed the simulation guard ({guard})")
    state = StateVector.basis(circuit.line_names, point)
    for g in circuit.gates:
        state = apply_gate(state, g)
    return state


@dataclass
class CrossCheckResult:
    passed: bool
    inputs_checked: int
    witness: dict[str, int] | None = None
    detail: str | None = None

    def to_dict(self) -> dict:
        return {
            "verdict": "PASS" if self.passed else "FAIL",
            "inputs_checked": self.inputs_checked,
            "witness": self.witness,
            "detail": self.detail,
        }


def cross_check(
    circuit: Circuit,
    report: EvalReport,
    *,
    guard: int = DEFAULT_SIM_GUARD,
    atol: float = CROSS_CHECK_ATOL,
) -> CrossCheckResult:
    """Compare simulation with a symbolic report on every basis input.

    The report predicts a product state.  A residual line holds Q^E(x)
    applied to the basis state of its base value; a Boolean line is the
    case K = 1, E = 0 with its Anf value as the base.  Each amplitude must
    agree within ``atol``.  ``simulate`` enforces the simulation guard.
    """
    names = circuit.line_names
    if set(report.outcomes) != set(names):
        raise LineMismatchError(
            f"report lines {sorted(report.outcomes)} do not match "
            f"circuit lines {sorted(names)}"
        )
    states = [
        oc.state if oc.value is None else TargetState(oc.value, 1, MlPoly.zero())
        for oc in (report.outcomes[name] for name in names)
    ]

    count = 0
    for pt in iter_assignments(names):
        sim = simulate(circuit, pt, guard=guard).amps
        pred = np.ones(1, dtype=np.complex128)
        for st in states:
            e = st.exponent.evaluate(pt) % (2 * st.k_root)
            pred = np.outer(pred, q_matrix(st.k_root, e)[:, st.base.evaluate(pt)]).ravel()
        count += 1
        err = float(np.max(np.abs(sim - pred)))
        if err > atol:
            return CrossCheckResult(
                False, count, dict(pt), f"max amplitude error {err:.3e} exceeds {atol:g}"
            )
    return CrossCheckResult(True, count)

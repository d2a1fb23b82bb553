"""Complex-matrix oracle for the symbolic calculus.

The simulation side knows nothing about the exponent calculus: gates are
applied as 2x2 complex matrices under basis-state controls, by one in-place
update of the target axis (``_update``).  ``simulate`` runs one basis input
on a dense statevector of 2^n amplitudes.  ``_sweep`` runs every basis
input at once: a line stays a column of bits until a gate could put it in
superposition, and from then on it is one axis of a joint block of
amplitudes that all such lines share, so entangled states are simulated
exactly.  The block's last axis is the input rows, so every slice a gate
update touches is a run of contiguous rows, one per input.

``cross_check`` is the bridge: it compares the swept states on every
basis input with the tensor product predicted by an evaluation report,
and confirms each input that may fail with dense ``simulate``.  A line
whose predicted exponent is 0, as on every Boolean line, is predicted as
a column of bits, and a classical swept line is compared with it bit for
bit; complex amplitudes are built for it only where the sweep made it
active or to confirm a flagged input.

Line order is significant: the first declared line is the most significant
bit of the basis index.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .circuit import Circuit, Gate
from .errors import (
    DEFAULT_SIM_GUARD,
    BadRootError,
    LineMismatchError,
    SimulationLimitError,
    UnboundVariableError,
    UnknownLineError,
)
from .expr import Assignment, MlPoly, point_bit
from .symbolic import EvalReport, TargetState

CROSS_CHECK_ATOL = 1e-9


def _check_guard(n: int, guard: int) -> None:
    if n > guard:
        raise SimulationLimitError(f"{n} lines exceed the simulation guard ({guard})")


def _check_root(k: int) -> None:
    if not isinstance(k, int) or k < 1:
        raise BadRootError(f"root index must be a positive integer, got {k}")


def _turn(k: int, p):
    """The entries ``d, o`` of Q^p = [[d, o], [o, d]], Q the k-th root of NOT.

    Q's eigenvectors are those of NOT with eigenvalues 1 and exp(i*pi/k),
    which gives the closed form below.  p may be any integer, or an integer
    array for one pair of entries per element; p = k yields NOT and p = 2k
    the identity.
    """
    w = np.exp(1j * np.pi * (p % (2 * k)) / k)
    return (1 + w) / 2, (1 - w) / 2


# ``_turn`` for one gate's integer (k, p), computed once per distinct pair.
# The fuzzer's roots 1, 2, 4 and 8 give 26 pairs.
_gate_turn = functools.lru_cache(maxsize=64)(_turn)


def q_matrix(k: int, p: int) -> np.ndarray:
    """The 2x2 matrix of Q^p where Q is the k-th root of NOT."""
    _check_root(k)
    d, o = _turn(k, p)
    return np.array([[d, o], [o, d]], dtype=np.complex128)


@dataclass(frozen=True, slots=True)
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
        """The amplitudes of modulus at least 1e-12, keyed by basis bits.

        Each part is rounded to 12 decimals and a zero loses its sign
        (adding 0.0 turns -0.0 into 0.0), so what ``dump`` and
        ``cnq simulate --format structured`` print does not depend on the
        order of the floating-point sums behind it.
        """
        n = len(self.lines)
        return {
            format(idx, f"0{n}b"):
                complex(round(amp.real, 12) + 0.0, round(amp.imag, 12) + 0.0)
            for idx, amp in enumerate(self.amps)
            if abs(amp) >= 1e-12
        }

    def dump(self) -> str:
        return "\n".join(
            f"|{bits}> {amp.real:+.12f} {amp.imag:+.12f}"
            for bits, amp in self.amplitudes().items()
        )


def _update(amps: np.ndarray, axis, controls, target: str, o) -> None:
    """Apply Q^p = [[d, o], [o, d]] in place to ``target``'s axis where every control is 1.

    ``axis`` maps a line name to its axis of ``amps``; any axis it never
    names is left whole, as the sweep's last axis, the input rows, is.
    ``o`` is a scalar, or an array that broadcasts over the selected
    slices, such as one entry per row.  Each control and the target is
    selected by a length-one slice, so the two slices stay views that keep
    every axis, even when every axis is fixed.
    d + o = 1, so the update is lo -= o*(lo - hi), hi += o*(lo - hi): one
    slice-sized temporary, written back through the views.
    """
    sel: list = [slice(None)] * amps.ndim
    for c in controls:
        sel[axis(c)] = slice(1, 2)
    t_ax = axis(target)
    sel[t_ax] = slice(0, 1)
    lo = amps[tuple(sel)]
    sel[t_ax] = slice(1, 2)
    hi = amps[tuple(sel)]
    step = lo - hi
    step *= o
    lo -= step
    hi += step


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply Q^p on the target axis of every control-satisfying amplitude."""
    out = state.amps.copy()
    _, o = _gate_turn(gate.k, gate.p)
    _update(out.reshape((2,) * len(state.lines)), state.line_axis, gate.controls, gate.target, o)
    return StateVector(state.lines, out)


def simulate(
    circuit: Circuit, point: Assignment, *, guard: int = DEFAULT_SIM_GUARD
) -> StateVector:
    """Run the circuit on one basis input and return the final statevector."""
    _check_guard(len(circuit.lines), guard)
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


# -- the all-inputs sweep ----------------------------------------------------------

# A sweep chunk holds at most this many joint amplitudes (16 MB), or one
# input's worth when a single input needs more.
_CHUNK_AMPS = 1 << 20


class _Sweep(NamedTuple):
    """Final states of a run of basis inputs, one row per input.

    A classical line is still a basis state on every input: ``bits`` holds
    its bit per row.  The active lines share ``block``, the joint amplitudes
    of shape (2^len(active), rows), first active line most significant,
    with the rows innermost.
    """

    bits: dict[str, np.ndarray]
    active: tuple[str, ...]
    block: np.ndarray


def _and(columns: dict[str, np.ndarray], names, size: int) -> np.ndarray:
    """The AND of the named bool columns (all True for no names).

    For one name this is that column itself, so no caller writes into it.
    """
    cols = []
    for v in names:
        try:
            cols.append(columns[v])
        except KeyError:
            raise UnboundVariableError(f"no value for variable {v!r}") from None
    if not cols:
        return np.ones(size, dtype=bool)
    return functools.reduce(np.logical_and, cols)


def _input_bits(names: tuple[str, ...], rows: range) -> dict[str, np.ndarray]:
    """Each line's input bit over ``rows``, basis indices in counting order."""
    idx = np.arange(rows.start, rows.stop, dtype=np.int64)
    n = len(names)
    return {name: (idx >> (n - 1 - j)) & 1 == 1 for j, name in enumerate(names)}


def _stays_classical(gate: Gate, axis) -> bool:
    """Whether ``gate`` leaves its target classical, given the active lines' ``axis`` map."""
    return gate.is_not_family and gate.target not in axis and axis.keys().isdisjoint(gate.controls)


def _active_lines(circuit: Circuit) -> list[str]:
    """The lines the sweep activates, in order; they depend only on the gates."""
    active: dict[str, None] = {}
    for g in circuit.gates:
        if not _stays_classical(g, active):
            active[g.target] = None
    return list(active)


def _sweep(circuit: Circuit, inputs: dict[str, np.ndarray], size: int) -> _Sweep:
    """Run the circuit at once on the ``size`` basis inputs whose bits ``inputs`` holds.

    The joint block has shape (2,) * len(active) + (size,): one axis per
    active line, in order of activation, and the input rows last, so that
    each slice ``_update`` reads or writes is a run of contiguous rows.
    A NOT-family gate on classical lines XORs its control product into the
    target's bits.  Any other gate first activates a classical target,
    splitting the block on the target's bit into one new array, then
    applies ``_update`` in place to the block, selecting the ``1`` slice
    of each active control's axis; rows whose classical controls fail get
    o = 0, a per-row factor that broadcasts over the last axis, which
    leaves them as they are.  ``inputs`` is left unchanged.
    """
    bits = dict(inputs)
    axis: dict[str, int] = {}       # each active line's axis of the block, in order
    block = np.ones(size, dtype=np.complex128)
    for g in circuit.gates:
        if _stays_classical(g, axis):
            bits[g.target] = bits[g.target] ^ _and(bits, g.controls, size)
            continue
        if g.target not in axis:
            col = bits.pop(g.target)
            grown = np.empty(block.shape[:-1] + (2, size), dtype=np.complex128)
            np.multiply(block, ~col, out=grown[..., 0, :])
            np.multiply(block, col, out=grown[..., 1, :])
            block = grown
            axis[g.target] = len(axis)
        _, o = _gate_turn(g.k, g.p)
        classical = [c for c in g.controls if c in bits]
        if classical:
            o = _and(bits, classical, size) * o
        _update(block, axis.__getitem__, [c for c in g.controls if c in axis], g.target, o)
    return _Sweep(bits, tuple(axis), block.reshape(-1, size))


# -- the prediction --------------------------------------------------------------


def _predict(state: TargetState, inputs: dict[str, np.ndarray], size: int):
    """The predicted state Q^E(x)|base(x)> per input.

    Where E is 0 on every input (every coefficient a multiple of 2K, as on
    a Boolean line) this is the basis state |base(x)>, returned as its bool
    column, which may be an input column itself.  Otherwise it is the
    2-vector as two complex columns.
    """
    k = state.k_root
    _check_root(k)
    e = None
    for mono, c in state.exponent.terms.items():
        if c % (2 * k):
            if e is None:
                e = np.zeros(size, dtype=np.int64)
            e += (c % (2 * k)) * _and(inputs, mono, size)
    cols = [_and(inputs, mono, size) for mono in state.base.monomials]
    base = functools.reduce(np.logical_xor, cols) if cols else np.zeros(size, dtype=bool)
    if e is None:
        return base
    d, o = _turn(k, e)
    return np.where(base, o, d), np.where(base, d, o)


def _pair(pred, rows=slice(None)) -> tuple:
    """A prediction's two complex entries over ``rows``: a basis state's are 1 - bit and bit."""
    if isinstance(pred, tuple):
        return pred[0][rows], pred[1][rows]
    bit = pred[rows]
    return (~bit).astype(np.complex128), bit.astype(np.complex128)


def _flagged(circuit: Circuit, inputs, size: int, preds, delta: float) -> np.ndarray:
    """Which of the ``size`` inputs have a factor off its prediction by more than delta.

    ``inputs`` holds each line's input bits and ``preds`` its predictions,
    both over the same rows.  A classical line against a basis-state
    prediction is off exactly where its bit differs from the predicted
    bit.  The predicted product of the active lines is subtracted from the
    swept block in place, its last factor one slice at a time, so besides
    the block only a half-block temporary is ever held.  The block has its
    rows innermost, so each factor and each subtraction runs over
    contiguous rows.
    """
    bits, active, block = _sweep(circuit, inputs, size)
    flagged = np.zeros(size, dtype=bool)
    for name, bit in bits.items():
        pred = preds[name]
        if isinstance(pred, tuple):
            p0, p1 = pred
            flagged |= np.maximum(np.abs(p0 - ~bit), np.abs(p1 - bit)) > delta
        else:
            flagged |= bit != pred
    if active:                  # with none, the block is all ones, as predicted
        joint = np.ones((1, size), dtype=np.complex128)
        for name in active[:-1]:
            pair = np.stack(_pair(preds[name]))
            joint = (joint[:, None, :] * pair[None, :, :]).reshape(-1, size)
        halves = block.reshape(-1, 2, size)
        for b, pred in enumerate(_pair(preds[active[-1]])):
            halves[:, b, :] -= joint * pred
        flagged |= np.max(np.abs(block), axis=0) > delta
    return flagged


def cross_check(
    circuit: Circuit,
    report: EvalReport,
    *,
    guard: int = DEFAULT_SIM_GUARD,
) -> CrossCheckResult:
    """Compare simulation with a symbolic report on every basis input.

    The report predicts a product state.  A residual line holds Q^E(x)
    applied to the basis state of its base value; a Boolean line is the
    case K = 1, E = 0 with its Anf value as the base.  Each amplitude must
    agree within atol = ``CROSS_CHECK_ATOL`` (1e-9).

    All inputs are simulated at once by ``_sweep``, in chunks, and compared
    factor by factor: each classical line's bit and the active block
    against the predicted 2-vectors and their outer product.  A line whose
    exponent is 0 on every input is predicted as its base bit; a classical
    line is off such a prediction where bit != base, which is the test
    |p - bit| > delta itself, because p0 = 1 - base and p1 = base are
    exactly 0 or 1 and so |p - bit| is exactly 0 or 1.  If no factor
    is off by more than delta = atol / (2(n+1)), the dense error is at most
    (1+delta)^n - 1 + delta < atol, so only flagged inputs can fail (this
    needs atol far above rounding error, as 1e-9 is).  Each flagged input
    is re-run through dense ``simulate`` in counting order against the
    chunk's own predictions, and the first whose error exceeds atol is the
    witness.  A passing check never calls ``simulate``.  Circuits above
    ``guard`` lines are refused before any work.
    """
    names = circuit.line_names
    if set(report.outcomes) != set(names):
        raise LineMismatchError(
            f"report lines {sorted(report.outcomes)} do not match "
            f"circuit lines {sorted(names)}"
        )
    n = len(names)
    _check_guard(n, guard)
    states = [
        oc.state if oc.value is None else TargetState(oc.value, 1, MlPoly.zero())
        for oc in (report.outcomes[name] for name in names)
    ]
    delta = CROSS_CHECK_ATOL / (2 * (n + 1))
    chunk = max(1, _CHUNK_AMPS >> len(_active_lines(circuit)))
    for start in range(0, 1 << n, chunk):
        rows = range(start, min(start + chunk, 1 << n))
        inputs = _input_bits(names, rows)
        size = len(rows)
        preds = {name: _predict(st, inputs, size) for name, st in zip(names, states)}
        for r in np.flatnonzero(_flagged(circuit, inputs, size, preds, delta)):
            point = {name: int(inputs[name][r]) for name in names}
            pred = np.ones(1, dtype=np.complex128)
            for line_pred in preds.values():
                pred = np.outer(pred, _pair(line_pred, r)).ravel()
            err = float(np.max(np.abs(simulate(circuit, point, guard=guard).amps - pred)))
            if err > CROSS_CHECK_ATOL:
                detail = f"max amplitude error {err:.3e} exceeds {CROSS_CHECK_ATOL:g}"
                return CrossCheckResult(False, start + int(r) + 1, point, detail)
    return CrossCheckResult(True, 1 << n)

"""Symbolic circuit evaluation over the exponent calculus.

Every line starts holding its own input variable.  NOT-family gates on a
Boolean line just XOR the resolved control product into its Anf.  Any other
gate turns the line into a :class:`TargetState`: the line's value is
Q^E(x) applied to a Boolean base, where Q is the K-th root of NOT and E is
a multilinear integer polynomial kept canonical mod 2K.  Because roots of
the same NOT commute, E is  sum of a * arith(control)  over the distinct
resolved controls, in any order: each taint episode sums its gates' powers
per control (rebasing the sums to the finest root so far, since Q_{2K}
squared is Q_K and moving from root K to K' multiplies exponents by K'/K)
and expands E once, when the line is observed as a control or at the end.
That per-control table, with each control's gates, is the report's
``episodes``: the one record of which gates each episode absorbed.

A target state *collapses* back to a Boolean function exactly when every
canonical coefficient of E lies in {0, K}: then E = K * arith(f) pointwise
mod 2K for the Anf ``f`` collecting the coefficient-K monomials, so the
line's value is base XOR f.  Coefficients and values agree here because
the coefficient/value transform is unimodular, making "all values in
{0, K} mod 2K" and "all coefficients in {0, K} mod 2K" equivalent.

Controls must be Boolean: resolving a control on a tainted line first
attempts a collapse and raises ``E_TARGET_INTERACTION`` if none exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Mapping
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from .circuit import Circuit
from .errors import LineMismatchError, TargetInteractionError
from .expr import Anf, MlPoly, display_anf


@dataclass(frozen=True, slots=True)
class TargetState:
    """Q^exponent applied to a Boolean base value (Q the k_root-th root of NOT)."""

    base: Anf
    k_root: int
    exponent: MlPoly

    def rebased(self, k_new: int) -> "TargetState":
        """Express the same state over a finer root: exponents scale by k_new/k_root.

        ``k_new`` must be ``k_root`` times a power of two.  The exponent is
        kept canonical, so the state's own root returns it as is.
        """
        factor, rest = divmod(k_new, self.k_root)
        if factor < 1 or rest or factor & (factor - 1):
            raise ValueError(f"cannot rebase root {self.k_root} onto {k_new}")
        if factor == 1:
            return self
        m = 2 * k_new
        terms = {
            mono: r for mono, c in self.exponent.terms.items() if (r := c * factor % m)
        }
        return TargetState(self.base, k_new, MlPoly._wrap(terms))

    def absorb(self, k: int, p: int, control: Anf) -> "TargetState":
        """Add one gate's contribution p * arith(control) at root k.

        The term p * (k2/k) * arith mod 2*k2 depends only on arith mod 2k,
        so the control is folded mod the gate's own 2k: a V gate keeps only
        terms of degree <= 2 even inside a finer-root episode.  The rebased
        exponent is canonical, so only the control's terms are added and
        reduced, in one copy; the receiver is left unchanged.
        """
        k2 = max(self.k_root, k)
        scale, m = p * (k2 // k), 2 * k2
        terms = dict(self.rebased(k2).exponent.terms)
        for mono, c in control.to_arith(2 * k).terms.items():
            c2 = (terms.get(mono, 0) + scale * c) % m
            if c2:
                terms[mono] = c2
            else:
                terms.pop(mono, None)
        return TargetState(self.base, k2, MlPoly._wrap(terms))

    def collapse(self) -> Anf | None:
        """The Boolean value of this state, or None if it has none.

        Zero coefficients are never stored, so the {0, K} test reduces to
        "every stored coefficient equals K".
        """
        k = self.k_root
        if any(c != k for c in self.exponent.terms.values()):
            return None
        return self.base ^ Anf(self.exponent.terms.keys())

    def normalized_exponent(self, k_common: int | None = None) -> MlPoly:
        """Exponent with the base folded in: the state is Q^result applied to 0.

        Two states are the same single-qubit function of the inputs iff
        their normalized exponents agree coefficientwise at a common root.
        K * arith(base) mod 2K depends only on arith(base) mod 2, which is
        the base's own monomials.
        """
        st = self.rebased(k_common) if k_common else self
        e = st.exponent + st.k_root * st.base.to_arith(2)
        return e.reduce_mod(2 * st.k_root)

    def __str__(self) -> str:
        return f"root k={self.k_root}, exponent {self.exponent}, base {self.base}"


@dataclass(frozen=True, slots=True)
class LineOutcome:
    """Final value of one line: a Boolean form and/or the exponent state.

    ``value`` is None when the line still holds a fractional power of NOT.
    For tainted lines ``state`` records the target state at the line's most
    recent collapse attempt, successful or not; it is None for lines that
    never left the Boolean domain.
    """

    name: str
    is_target: bool
    value: Anf | None
    state: TargetState | None

    @property
    def status(self) -> str:
        """``pure`` (never tainted), ``collapsed`` (Boolean again) or ``residual``."""
        if self.value is None:
            return "residual"
        return "pure" if self.state is None else "collapsed"


@dataclass(frozen=True, slots=True)
class GateRecord:
    """Trace entry: the control one gate resolved to; ``EvalReport.episodes`` holds its episode."""

    index: int
    target: str
    resolved_control: Anf


# The two episode records are named tuples: as immutable as a frozen
# dataclass, but about a tenth of its cost to define on each `import cnq`.
class EpisodeTerm(NamedTuple):
    """One resolved control of a taint episode and its gates' indices, in order.

    ``power`` is the sum of p * (K/k) over ``gates`` mod 2K, K the
    episode's root; it is 0 when the gates cancel.
    """

    control: Anf
    power: int
    gates: tuple[int, ...]


class Episode(NamedTuple):
    """A line's stretch off the Boolean domain, up to a read as a control or the end.

    Its exponent is the sum of power * arith(control) over ``terms`` (in
    order of first gate) mod 2 * ``k_root``, the finest root of its gates.
    """

    target: str
    k_root: int
    terms: tuple[EpisodeTerm, ...]


@dataclass(frozen=True, slots=True)
class EvalReport:
    """One evaluation of a circuit: line outcomes, a trace record per gate, the episodes.

    ``episodes`` lists every taint episode in the order they ended.  A
    report is immutable, so ``evaluate`` may hand the same one to every
    caller: ``outcomes`` is a read-only copy of the mapping it is given,
    ``trace`` and ``episodes`` are tuples.
    """

    outcomes: Mapping[str, LineOutcome]
    trace: tuple[GateRecord, ...] = ()
    episodes: tuple[Episode, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "outcomes", MappingProxyType(dict(self.outcomes)))
        object.__setattr__(self, "trace", tuple(self.trace))
        object.__setattr__(self, "episodes", tuple(self.episodes))

    @property
    def warnings(self) -> list[str]:
        """One line per residual line, in line order."""
        return [
            f"line {name!r} has no Boolean output form ({oc.state})"
            for name, oc in self.outcomes.items()
            if oc.value is None
        ]

    def to_dict(self) -> dict:
        lines = {}
        for name, oc in self.outcomes.items():
            entry: dict = {
                "role": "target" if oc.is_target else "control",
                "status": oc.status,
                "value": None if oc.value is None else str(oc.value),
            }
            if oc.state is not None:
                entry["k_root"] = oc.state.k_root
                entry["exponent"] = str(oc.state.exponent)
                entry["base"] = str(oc.state.base)
            lines[name] = entry
        return {"lines": lines, "warnings": self.warnings}

    def to_text(self) -> str:
        out = []
        width = max(len(n) for n in self.outcomes) if self.outcomes else 0
        for name, oc in self.outcomes.items():
            tag = f"{name:<{width}}" + (" [target]" if oc.is_target else " " * 9)
            if oc.value is None:
                out.append(f"{tag} : no Boolean form ({oc.state})")
            else:
                out.append(f"{tag} : {display_anf(oc.value)}")
                if oc.state is not None:
                    out.append(f"{'':<{width}}             collapsed from {oc.state}")
        for w in self.warnings:
            out.append(f"warning: {w}")
        return "\n".join(out)


# The memo is the one way a second question about a circuit reuses its
# evaluation.  Every pipeline has at most two circuits in flight, an input and
# its rewrite, so two entries let check_spec, merge_pass and its proof share them.
_EVAL_MEMO_SIZE = 2


def evaluate(circuit: Circuit) -> EvalReport:
    """Run the circuit symbolically, tracing every gate; raises on non-Boolean control use.

    The reports of the last two circuits evaluated are remembered, and this
    is how ``check_spec``, ``equivalent`` and ``merge_pass`` reuse an
    evaluation: an equal circuit, specs included, gets the same report
    again.  A failed evaluation is not remembered.
    """
    return _evaluate_memo(circuit)


class _Episode:
    """An open taint episode of a line: its base, root K and per-control sums.

    ``powers`` maps each resolved control to its total power a mod 2K at
    the finest root K so far, and ``gates`` to the indices of its gates; a
    total of 0 stays in the table.  The exponent is expanded only by
    ``state``.
    """

    __slots__ = ("target", "base", "k", "powers", "gates")

    def __init__(self, target: str, base: Anf, k: int) -> None:
        self.target, self.base, self.k = target, base, k
        self.powers: dict[Anf, int] = {}
        self.gates: dict[Anf, list[int]] = {}

    def add(self, index: int, k: int, p: int, control: Anf) -> None:
        """Add gate ``index``, Q_k^p under ``control``, first rescaling onto a finer root."""
        if k > self.k:
            factor, self.k = k // self.k, k
            self.powers = {c: a * factor for c, a in self.powers.items()}
        self.powers[control] = (self.powers.get(control, 0) + p * (self.k // k)) % (2 * self.k)
        self.gates.setdefault(control, []).append(index)

    def state(self) -> TargetState:
        """The episode's state, absorbing each control with a nonzero total once.

        For a = 2^v * odd, a * arith(control) mod 2K depends only on arith
        mod 2K / 2^v, so the control is folded at root K / 2^v: a total of
        K folds mod 2, which is the control's own monomials.
        """
        st = TargetState(self.base, self.k, MlPoly.zero())
        for control, a in self.powers.items():
            if a:
                v = (a & -a).bit_length() - 1
                st = st.absorb(self.k >> v, a >> v, control)
        return st

    def frozen(self) -> Episode:
        """The episode's table, as the report keeps it once the episode ends."""
        terms = (EpisodeTerm(c, a, tuple(self.gates[c])) for c, a in self.powers.items())
        return Episode(self.target, self.k, tuple(terms))


def _evaluate(circuit: Circuit) -> EvalReport:
    # each line starts as its own variable; Circuit has checked every name
    states: dict[str, Anf | _Episode] = {
        ln.name: Anf._from_monomials(frozenset((frozenset((ln.name,)),)))
        for ln in circuit.lines
    }
    last_state: dict[str, TargetState] = {}
    trace: list[GateRecord] = []
    episodes: list[Episode] = []

    for i, g in enumerate(circuit.gates):
        ctrl = None if g.controls else Anf.one()
        for cname in g.controls:
            s = states[cname]
            if isinstance(s, _Episode):
                ep, s = s, s.state()
                v = s.collapse()
                if v is None:
                    raise TargetInteractionError(
                        f"line {cname!r} drives a control while holding a "
                        f"fractional power of NOT ({s})",
                        gate_index=i,
                    )
                episodes.append(ep.frozen())
                last_state[cname] = s
                states[cname] = s = v
            ctrl = s if ctrl is None else ctrl & s

        tstate = states[g.target]
        if g.is_not_family and isinstance(tstate, Anf):
            states[g.target] = tstate ^ ctrl
        else:
            if isinstance(tstate, Anf):
                states[g.target] = tstate = _Episode(g.target, tstate, g.k)
            tstate.add(i, g.k, g.p, ctrl)
        trace.append(GateRecord(i, g.target, ctrl))

    outcomes: dict[str, LineOutcome] = {}
    for ln in circuit.lines:
        value = states[ln.name]
        if isinstance(value, _Episode):
            episodes.append(value.frozen())
            last_state[ln.name] = st = value.state()
            value = st.collapse()
        outcomes[ln.name] = LineOutcome(ln.name, ln.is_target, value, last_state.get(ln.name))
    return EvalReport(outcomes, trace, episodes)


_evaluate_memo = lru_cache(maxsize=_EVAL_MEMO_SIZE)(_evaluate)


@dataclass
class SpecVerdict:
    line: str
    passed: bool
    expected: Anf
    actual_value: Anf | None
    actual_state: TargetState | None
    code: str | None = None            # E_NO_COLLAPSE when no Boolean form exists
    witness: dict[str, int] | None = None     # None only on a PASS

    def to_dict(self) -> dict:
        return {
            "line": self.line,
            "verdict": "PASS" if self.passed else "FAIL",
            "expected": str(self.expected),
            "actual": None if self.actual_value is None else str(self.actual_value),
            "code": self.code,
            "witness": self.witness,
        }


def check_spec(circuit: Circuit) -> list[SpecVerdict]:
    """Compare every spec line against the evaluated output of its line.

    Equality is canonical-form equality of Anfs.  A failing verdict always
    carries a witness, the first assignment (counting order over the
    sorted variables) where the two functions differ or, for a line with
    no Boolean form, where its exponent leaves {0, K}; ``_first_witness``
    reads it off the canonical form, so no input is enumerated.
    """
    if not circuit.specs:
        raise ValueError("circuit has no spec lines to check")
    report = evaluate(circuit)
    verdicts = []
    for name in circuit.line_names:
        if name not in circuit.specs:
            continue
        want = circuit.specs[name]
        oc = report.outcomes[name]
        if oc.value is None:
            e, k = oc.state.exponent, oc.state.k_root
            witness = _first_witness(e.variables(), [m for m, c in e.terms.items() if c != k])
            verdicts.append(
                SpecVerdict(name, False, want, None, oc.state, "E_NO_COLLAPSE", witness)
            )
        elif oc.value == want:
            verdicts.append(SpecVerdict(name, True, want, oc.value, oc.state))
        else:
            got = oc.value
            witness = _first_witness(want.variables() | got.variables(), (want ^ got).monomials)
            verdicts.append(
                SpecVerdict(name, False, want, oc.value, oc.state, witness=witness)
            )
    return verdicts


def _first_witness(variables: Iterable[str], off: Iterable[frozenset[str]]) -> dict[str, int]:
    """The first point, in counting order over the sorted variables, whose value leaves A.

    ``off`` holds the monomials of a canonical polynomial mod m whose
    coefficients lie outside a subgroup A of Z_m, at least one of them: a
    mismatch's want XOR got mod 2 with A = {0}, or an exponent mod 2K with
    A = {0, K}.  Ordering monomials by their indicator points, that
    first point is the indicator of the least monomial of ``off``.  Each
    of its proper submonomials is a smaller point, so its coefficient
    lies in A; A is closed under sums, so the value there leaves A.  A
    smaller point contains only smaller monomials, so its value stays in
    A.  This is the unimodular coefficient/value argument of ``collapse``.
    """
    vs = sorted(variables)
    first = min(off, key=lambda m: [v in m for v in vs])
    return {v: int(v in first) for v in vs}


@dataclass
class EquivVerdict:
    passed: bool
    details: dict[str, str]     # line name -> "match" or a mismatch description


def equivalent(c1: Circuit, c2: Circuit) -> EquivVerdict:
    """Do both circuits compute the same value on every line?

    Line roles are compared before anything is evaluated.  Boolean outputs
    compare as Anfs.  Two residual states compare by normalized exponent
    after rebasing to the larger root; coefficientwise equality mod 2K
    decides pointwise equality because only the zero polynomial vanishes
    everywhere mod 2K.  A residual never equals a Boolean form (some input
    leaves it strictly between basis states).
    """
    roles1 = {ln.name: ln.is_target for ln in c1.lines}
    roles2 = {ln.name: ln.is_target for ln in c2.lines}
    if roles1 != roles2:
        raise LineMismatchError(
            f"circuits do not share lines/roles: {sorted(roles1)} vs {sorted(roles2)}"
        )
    r1, r2 = evaluate(c1), evaluate(c2)
    details: dict[str, str] = {}
    for name in c1.line_names:
        o1, o2 = r1.outcomes[name], r2.outcomes[name]
        if o1.value is not None and o2.value is not None:
            if o1.value == o2.value:
                details[name] = "match"
            else:
                details[name] = f"{o1.value} != {o2.value}"
        elif o1.value is None and o2.value is None:
            k = max(o1.state.k_root, o2.state.k_root)
            e1 = o1.state.normalized_exponent(k)
            e2 = o2.state.normalized_exponent(k)
            if e1 == e2:
                details[name] = "match"
            else:
                details[name] = (
                    f"residual states differ at root k={k}: {e1} != {e2}"
                )
        else:
            boolean = o1 if o1.value is not None else o2
            residual = o1 if o1.value is None else o2
            details[name] = (
                f"Boolean form {boolean.value} vs residual ({residual.state})"
            )
    return EquivVerdict(all(d == "match" for d in details.values()), details)

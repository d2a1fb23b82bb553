"""Symbolic circuit evaluation over the exponent calculus.

Every line starts holding its own input variable.  NOT-family gates on a
Boolean line just XOR the resolved control product into its Anf.  Any other
gate starts a taint episode: the line's value is Q^E(x) applied to a
Boolean base, where Q is the K-th root of NOT and E is a multilinear
integer polynomial kept canonical mod 2K.  Because roots of the same NOT
commute, E is  sum of a * arith(control)  over the distinct resolved
controls, in any order: an episode sums its gates' powers per control
(rebasing the sums to the finest root so far, since Q_{2K} squared is Q_K
and moving from root K to K' multiplies exponents by K'/K).  When the line
is observed as a control, or at the end, the episode ends as one
:class:`TargetState`: that table, with each control's gates, and E folded
from it.  The report's ``episodes`` lists these states; a line's outcome
holds its last one.

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

from dataclasses import dataclass, field
from collections.abc import Iterable, Mapping
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from .circuit import Circuit
from .errors import LineMismatchError, TargetInteractionError
from .expr import Anf, MlPoly, display_anf


# A named tuple: as immutable as a frozen dataclass, but about a tenth of its
# cost to define on each `import cnq`.
class EpisodeTerm(NamedTuple):
    """One resolved control of a taint episode and its gates' indices, in order.

    ``power`` is the sum of p * (K/k) over ``gates`` mod 2K, K the
    episode's root; it is 0 when the gates cancel.
    """

    control: Anf
    power: int
    gates: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class TargetState:
    """A taint episode of line ``target``: Q^exponent applied to a Boolean base.

    Q is the ``k_root``-th root of NOT.  ``terms`` holds one ``EpisodeTerm``
    per resolved control, in order of first gate, and the exponent is
    derived from them; equality compares the four given fields.
    """

    target: str
    base: Anf
    k_root: int
    terms: tuple[EpisodeTerm, ...] = ()
    exponent: MlPoly = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        """The exponent: sum of power * arith(control) mod 2K, folding each control once.

        For a = 2^v * odd, a * arith(control) mod 2K depends only on arith
        mod 2K / 2^v, the control's fold: a power of K folds mod 2, which is
        the control's own monomials, and a zero power is not folded at all.
        """
        m, acc = 2 * self.k_root, {}
        for control, a, _ in self.terms:
            if a := a % m:
                for mono, c in control.to_arith(m // (a & -a)).terms.items():
                    acc[mono] = (acc.get(mono, 0) + a * c) % m
        exponent = MlPoly._wrap({mono: c for mono, c in acc.items() if c})
        object.__setattr__(self, "exponent", exponent)

    def rebased(self, k_new: int) -> "TargetState":
        """Express the same state over a finer root: powers scale by k_new/k_root.

        ``k_new`` must be ``k_root`` times a power of two; each term keeps its gates.
        """
        factor, rest = divmod(k_new, self.k_root)
        if factor < 1 or rest or factor & (factor - 1):
            raise ValueError(f"cannot rebase root {self.k_root} onto {k_new}")
        if factor == 1:
            return self
        terms = tuple(t._replace(power=t.power * factor) for t in self.terms)
        return TargetState(self.target, self.base, k_new, terms)

    def collapse(self) -> Anf | None:
        """The Boolean value of this state, or None if it has none.

        Zero coefficients are never stored, so the {0, K} test reduces to
        "every stored coefficient equals K".
        """
        k = self.k_root
        if any(c != k for c in self.exponent.terms.values()):
            return None
        return self.base ^ Anf._from_monomials(frozenset(self.exponent.terms))

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
    ``state`` is the line's last taint episode, the same object as its
    entry in ``EvalReport.episodes``; it is None for lines that never left
    the Boolean domain.
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
class EvalReport:
    """One evaluation of a circuit: line outcomes, the trace, the episodes.

    ``trace[i]`` is the Anf gate i's controls resolved to.  ``episodes``
    holds every taint episode's ``TargetState``, in the order they ended.
    A report is immutable, so ``evaluate`` may hand the same one to every
    caller: ``outcomes`` is a read-only copy of the mapping it is given,
    ``trace`` and ``episodes`` are tuples.
    """

    outcomes: Mapping[str, LineOutcome]
    trace: tuple[Anf, ...] = ()
    episodes: tuple[TargetState, ...] = ()

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
    """An open taint episode of a line: its base, root K and per-control table.

    ``table`` maps each resolved control, in order of first gate, to
    ``[a, gates]``: its total power a mod 2K at the finest root K so far
    and the indices of its gates.  A total of 0 stays in the table.
    ``end`` turns it into the report's ``TargetState``.
    """

    __slots__ = ("target", "base", "k", "table")

    def __init__(self, target: str, base: Anf, k: int) -> None:
        self.target, self.base, self.k = target, base, k
        self.table: dict[Anf, list] = {}

    def add(self, index: int, k: int, p: int, control: Anf) -> None:
        """Add gate ``index``, Q_k^p under ``control``, first rescaling onto a finer root."""
        if k > self.k:
            factor, self.k = k // self.k, k
            for row in self.table.values():
                row[0] *= factor
        row = self.table.setdefault(control, [0, []])
        row[0] = (row[0] + p * (self.k // k)) % (2 * self.k)
        row[1].append(index)

    def end(self) -> TargetState:
        """The episode's state, which expands its exponent."""
        terms = (EpisodeTerm(c, a, tuple(g)) for c, (a, g) in self.table.items())
        return TargetState(self.target, self.base, self.k, tuple(terms))


def _evaluate(circuit: Circuit) -> EvalReport:
    # each line starts as its own variable; Circuit has checked every name
    states: dict[str, Anf | _Episode] = {
        ln.name: Anf._from_monomials(frozenset((frozenset((ln.name,)),)))
        for ln in circuit.lines
    }
    trace: list[Anf] = []
    episodes: list[TargetState] = []

    for i, g in enumerate(circuit.gates):
        ctrl = None if g.controls else Anf.one()
        for cname in g.controls:
            s = states[cname]
            if isinstance(s, _Episode):
                episodes.append(s := s.end())
                if (v := s.collapse()) is None:
                    raise TargetInteractionError(
                        f"line {cname!r} drives a control while holding a "
                        f"fractional power of NOT ({s})",
                        gate_index=i,
                    )
                states[cname] = s = v
            ctrl = s if ctrl is None else ctrl & s

        tstate = states[g.target]
        if g.is_not_family and isinstance(tstate, Anf):
            states[g.target] = tstate ^ ctrl
        else:
            if isinstance(tstate, Anf):
                states[g.target] = tstate = _Episode(g.target, tstate, g.k)
            tstate.add(i, g.k, g.p, ctrl)
        trace.append(ctrl)

    # states keeps the line order, so the episodes still open end in it
    episodes += (s.end() for s in states.values() if isinstance(s, _Episode))
    last = {st.target: st for st in episodes}
    outcomes: dict[str, LineOutcome] = {}
    for ln in circuit.lines:
        value, st = states[ln.name], last.get(ln.name)
        value = st.collapse() if isinstance(value, _Episode) else value
        outcomes[ln.name] = LineOutcome(ln.name, ln.is_target, value, st)
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

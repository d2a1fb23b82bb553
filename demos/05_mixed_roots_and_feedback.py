"""Mixed gate roots and targets that feed controls.

One circuit drives two target lines with eighth-turns (W), quarter-turns
(V) and CNOTs.  Each taint episode of a target line sums its gates'
powers per resolved control, and the report keeps that table.  Line c is
tainted by V gates, returns to a Boolean value, and is then read as a
control for line d: the evaluator collapses it on demand, which ends c's
episode.  Exponents for different roots combine by rebasing, scaling a
coarser exponent onto the finer root.
"""

from pathlib import Path

from cnq import Anf, Circuit, EpisodeTerm, MlPoly, TargetState, check_spec, evaluate

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

circuit = Circuit.parse((FIXTURES / "fig6.cnq").read_text())
print("== the circuit ==")
print(circuit)

print("== the taint episodes: each control's total power and its gates ==")
report = evaluate(circuit)
for ep in report.episodes:
    print(f"line {ep.target}, root k={ep.k_root}, totals mod {2 * ep.k_root}:")
    for term in ep.terms:
        print(f"  {str(term.control):<9} total {term.power}  gates {list(term.gates)}")

print()
print("== outcomes ==")
print(report.to_text())

print()
print("== rebasing bridges the two roots ==")
c_state = report.outcomes["c"].state
print(f"line c finished at      {c_state}")
fine = c_state.rebased(4)
print(f"over the circuit root:  {fine}")
assert fine.exponent == MlPoly({frozenset("ab"): 4})

print()
print("== collapse on demand ==")
print(f"gate 8 reads line c as a control; it resolved to: {report.trace[8]}")
print("that read ends c's episode, so it is listed before d's, which ends with the circuit")
assert [ep.target for ep in report.episodes] == ["c", "d"]
print("a non-collapsible control would have raised E_TARGET_INTERACTION instead")

print()
print("== both specs hold ==")
for v in check_spec(circuit):
    print(f"spec {v.line}: {'PASS' if v.passed else 'FAIL'}  ({v.expected})")

print()
print("== the same state, written two ways ==")
s1 = evaluate(Circuit.parse("line a\nline t target\nv a -> t\n")).outcomes["t"].state
# one term per control: power 1 on a, power 2 on t, no gates
s2 = TargetState("t", Anf.zero(), 2, (EpisodeTerm(Anf.var("a"), 1, ()),
                                      EpisodeTerm(Anf.var("t"), 2, ())))
print(f"V^a on base t:        normalized exponent {s1.normalized_exponent()}")
print(f"Q^(a+2t) on base 0:   normalized exponent {s2.normalized_exponent()}")
assert s1.normalized_exponent() == s2.normalized_exponent()
print("equal: folding the base into the exponent is a complete invariant")

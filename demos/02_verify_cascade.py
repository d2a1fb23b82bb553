"""Symbolic verification of a Toffoli-style cascade without any matrices.

The circuit applies controlled square roots of NOT (V gates).  Each V
under control x adds x to the target's exponent polynomial mod 4; the
target returns to a Boolean value exactly when every exponent coefficient
equals 2, and the new value XORs in the monomials.
"""

from pathlib import Path

from cnq import Circuit, check_spec, evaluate

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

circuit = Circuit.parse((FIXTURES / "fig2.cnq").read_text())
print("== the circuit ==")
print(circuit)

print("== symbolic outcome ==")
report = evaluate(circuit)
print(report.to_text())

state = report.outcomes["t"].state
print()
print(f"the target's exponent polynomial: {state.exponent}  (mod {2 * state.k_root})")
print("every coefficient equals k=2, so the line collapses to a Boolean value")

print()
print("== spec checking ==")
for v in check_spec(circuit):
    print(f"spec {v.line}: {'PASS' if v.passed else 'FAIL'}  expected {v.expected}")

print()
print("== a wrong spec earns a witness ==")
# The witness is read off the canonical form, with no input enumerated: in
# counting order, the first input where the two sides differ is the
# indicator of the least monomial of expected ^ actual.
broken_text = (FIXTURES / "broken.cnq").read_text()
for wrong in ("t ^ a&b", "t ^ a ^ c"):
    broken = Circuit.parse(broken_text.replace("spec t = t ^ a&b", f"spec t = {wrong}"))
    (v,) = check_spec(broken)
    diff = v.expected ^ v.actual_value
    (first,) = [m for m in diff.monomials if all(v.witness[x] == (x in m) for x in v.witness)]
    print(f"spec {v.line}: {'PASS' if v.passed else 'FAIL'}")
    print(f"  expected {v.expected}")
    print(f"  actual   {v.actual_value}")
    print(f"  expected ^ actual = {diff}; its least monomial is {'&'.join(sorted(first))}")
    print(f"  first differing assignment: {v.witness}")

"""The dense statevector oracle and the calculus-versus-matrices bridge.

The simulator knows nothing about exponent polynomials: it multiplies
2x2 complex matrices into statevectors.  ``cross_check`` runs a circuit
on every basis input in one sweep, where a line stays a column of bits
until a gate could put it in superposition, and compares amplitudes
against the tensor product the symbolic report predicts, so each side
independently checks the other.  An input that may fail is confirmed
with the dense ``simulate`` shown below.
"""

from pathlib import Path

import numpy as np

from cnq import Circuit, cross_check, evaluate, q_matrix, simulate

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

print("== gate matrices ==")
for k, label in [(1, "NOT"), (2, "V = sqrt(NOT)"), (4, "W = sqrt(V)")]:
    print(f"{label}:")
    print(np.round(q_matrix(k, 1), 6))
print()

v = q_matrix(2, 1)
print("V @ V == NOT:", np.allclose(v @ v, q_matrix(1, 1)))
print("V @ V* == I: ", np.allclose(v @ v.conj().T, np.eye(2)))
print()

print("== simulating a basis input ==")
circuit = Circuit.parse((FIXTURES / "fig2.cnq").read_text())
out = simulate(circuit, {"a": 1, "b": 1, "c": 0, "t": 0})
print("input |1100> produced:")
print(out.dump())
print("(the target flipped: b&(a^c) = 1 on this input)")
print()

print("== a line stuck between basis states ==")
lonely = Circuit.parse((FIXTURES / "lonely_v.cnq").read_text())
out = simulate(lonely, {"a": 1, "t": 0})
print("one V under a=1 leaves the target in column 0 of V:")
print(out.dump())
print()

print("== cross-checking all fixtures ==")
for path in sorted(FIXTURES.glob("*.cnq")):
    if path.stem == "interaction":
        continue                       # refuses to evaluate, by design
    c = Circuit.parse(path.read_text())
    res = cross_check(c, evaluate(c))
    print(f"{path.stem:10s} {('PASS (%d inputs)' % res.inputs_checked)}")
    assert res.passed

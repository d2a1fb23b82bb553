"""The two expression domains and the bridge between them.

Boolean functions live as XOR-of-ANDs normal forms (Anf); gate exponents
live as multilinear integer polynomials (MlPoly).  The bridge is exact:
x ^ y maps to x + y - 2xy, and the mapping is invertible through
subset-sum (Moebius) interpolation.
"""

from cnq import Anf, MlPoly, iter_assignments

a, b, c = Anf.var("a"), Anf.var("b"), Anf.var("c")

print("== XOR-of-ANDs forms ==")
f = (a & b) ^ (b & c)
print(f"f          = {f}")
print(f"f ^ f      = {f ^ f}")
print(f"f & (a^1)  = {f & (a ^ Anf.one())}")

print()
print("== the arithmetic bridge ==")
print(f"arith(a ^ b)        = {(a ^ b).to_arith()}")
print(f"arith(1 ^ a)        = {(Anf.one() ^ a).to_arith()}")
print(f"arith(a ^ b ^ a&b)  = {(a ^ b ^ (a & b)).to_arith()}")
print(f"arith(f)            = {f.to_arith()}")

print()
print("== both sides agree pointwise ==")
p = f.to_arith()
for pt in iter_assignments(["a", "b", "c"]):
    bits = "".join(str(pt[v]) for v in "abc")
    assert f.evaluate(pt) == p.evaluate(pt)
    print(f"  abc={bits}  f={f.evaluate(pt)}  arith={p.evaluate(pt)}")


def moebius(variables, table):
    """Coefficient of S = sum over T in S of (-1)^|S - T| * table[T]."""
    coeffs = dict(table)
    for v in variables:
        for s in coeffs:
            if v in s:
                coeffs[s] -= coeffs[s - {v}]
    return MlPoly(coeffs)


print()
print("== Moebius interpolation inverts evaluation ==")
q = MlPoly({frozenset("ab"): 2, frozenset("bc"): 2})
table = {
    frozenset(v for v in "abc" if pt[v]): q.evaluate(pt) for pt in iter_assignments("abc")
}
back = moebius("abc", table)
print(f"q           = {q}")
print(f"recovered   = {back}")
assert back == q

print()
print("== only the zero polynomial vanishes everywhere mod m ==")
r = 4 * (a ^ b).to_arith()
print(f"r           = {r}")
print(f"r mod 4     = {r.reduce_mod(4)}  (drops to zero: r is 0 mod 4 pointwise)")
print(f"r mod 8     = {r.reduce_mod(8)}  (nonzero: some point must witness it)")
witness = next(
    pt for pt in iter_assignments(["a", "b"]) if r.evaluate(pt) % 8 != 0
)
print(f"witness     = {witness}  where r = {r.evaluate(witness)}")

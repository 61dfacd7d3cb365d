#!/usr/bin/env python3
"""Units of finite commutative rings, from first principles.

Every finite commutative ring splits into local factors; for a local ring
with maximal ideal m and residue field F_q the units decompose as
A* = F_q* x (1 + m), with 1 + m the adjoint group of the radical ring m.
This script recomputes both sides on the shipped corpus and shows the
decision this powers: the finite-ring search assigns G's cyclic factors to
local factors F_q* x H and keeps only one-units H that the small-Sylow rule
allows.
"""

from fuchs import (FinAbGroup, LocalData, build_corpus, decide_finite,
                   localize, maximal_ideal_ring, unit_group,
                   verify_local_formula)

print(f"{'ring':<22}{'|A|':>5}  {'local':<14}{'A*':<24}{'formula'}")
for A in build_corpus():
    data = localize(A)
    if not isinstance(data, LocalData):
        print(f"{A.name:<22}{A.order():>5}  splits at e={data.idempotent}")
        continue
    units = unit_group(A)
    ok = verify_local_formula(A)
    print(f"{A.name:<22}{A.order():>5}  ({data.p},{data.lam})-type"
          f"{'':<6}{str(units):<24}{'ok' if ok else 'FAIL'}")

print("\none worked identity: Z/9Z")
A = [r for r in build_corpus() if r.name == "Z/9Z"][0]
data = localize(A)
m = maximal_ideal_ring(A, data)
print(f"  m = 3Z/9Z, (m,+) = {m.additive_group()}, 1+m = {m.adjoint_group()}")
print(f"  A* = {unit_group(A)} = Z/2 x (1+m)")

print("\nthe decision the formula feeds, one local factor at a time:")
v = decide_finite(FinAbGroup.from_orders([24, 5, 5]))
print(f"  {v.query}: {v.kind}")
for f in v.certificate["factors"]:
    print(f"    ({f['p']},{f['lam']})-type factor: F* = {f['units']}, 1+m = {f['H']}")
v = decide_finite(FinAbGroup.from_orders([600, 5, 5]))
print(f"  {v.query}: {v.kind}")
line = next(e for e in v.obstruction["trace"]
            if (e.get("p"), e.get("lam"), e.get("H")) == (5, 2, "Z/25Z"))
print(f"    {line['reason']}")

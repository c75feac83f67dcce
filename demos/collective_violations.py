"""Many parties, two collective measurements: where violations switch on.

For permutationally invariant two-body Bell expressions the classical bound
is computable exactly for thousands of parties: a deterministic strategy only
enters through how many parties answer +1 on each setting, which collapses
the 4^n strategy search to an O(n^2) grid.  On the quantum side the tailored
Bell operator acts on the (n+1)-dimensional symmetric sector and is
tridiagonal in the Dicke basis, so its ground value is cheap too.

The family scanned here has classical bound 2n.  Nothing violates it at
n = 2..4: the best measurement angle degenerates to theta = 0 where the
operator is effectively classical.  From n = 5 on a genuine violation
appears and grows, while the violation relative to the bound levels off.

A second family is tailored to half-filled Dicke states.  Those violate it
for every even n tried, with the absolute margin creeping up toward 1 and
the relative margin shrinking - collective measurements keep seeing the
entanglement, but ever less sharply against the growing bound.
"""

from bellscope import classical_bound_symmetric, dicke_violation, max_violation, murcia

print("family with bound 2n, scanned over parties")
print(f"{'n':>4} {'beta_C':>8} {'Q_v':>12} {'Q_v/beta_C':>12} {'theta*':>8}")
for n in (2, 3, 4, 5, 6, 8, 12, 20, 50, 100, 400):
    expr = murcia(n)
    bound, _ = classical_bound_symmetric(expr)
    assert bound == 2 * n
    mv = max_violation(expr)
    print(f"{n:>4} {float(bound):>8.0f} {mv.violation:>12.6f} "
          f"{mv.violation / float(bound):>12.3e} {mv.theta:>8.4f}")

print("\nexpressions tailored to half-filled Dicke states (even n)")
print(f"{'n':>4} {'beta_C':>8} {'violation':>12} {'relative':>12}")
for n in (4, 6, 10, 16, 24, 40):
    dv = dicke_violation(n)
    margin = float(dv.violation)
    print(f"{n:>4} {dv.bound:>8.0f} {margin:>12.6f} {margin / dv.bound:>12.3e}")
print("\nabsolute margin approaches 1 from below; relative margin decays")

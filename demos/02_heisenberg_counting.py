"""Counting rational points in the quaternionic Heisenberg group.

Enumerates shear orbits of admissible primitive triples (a, alpha, c)
with n(c) <= s over the Hurwitz order, compares against the brute-force
oracle, and fits the growth exponent (the count grows like s^5).
"""

from heisquat.constants import ArithmeticData, mertens_constant, mertens_kappa
from heisquat.counting import brute_force_counts, count_table, psi_count, scan_summary
from heisquat.orders import builtin_order

hur = builtin_order("hurwitz")

# Small values, cross-checked against the independent oracle (one pass
# of each over every c with n(c) <= 5 gives all five counts).
levels = (1, 2, 3, 4, 5)
psi = scan_summary(hur, levels).counts
oracle = brute_force_counts(hur, levels)
for s in levels:
    print(f"Psi({s}) = {psi[s]:6d}   oracle {oracle[s]:6d}   match={psi[s] == oracle[s]}")

# One of the 24 orbits at s = 1, as an explicit canonical triple.
count, triples = psi_count(hur, 1)
print("a canonical triple at s = 1:", triples[0].coords())

# Growth exponent over a dyadic grid (the asymptotic is kappa * s^5).
data = ArithmeticData(hur.D_A, len(hur.units))
ref = mertens_constant(data)
kappa = mertens_kappa(data)
table = count_table(hur, scan_summary(hur, [2, 4, 8, 16]).counts)
print("rows:", [(str(s), c) for s, c in table.rows])
print(f"fitted slope of log Psi vs log s: {table.slope:.3f}")
print("closed-form reference constant:", table.reference_symbolic,
      f"= {ref.value():.3e}")
print("empirical constant Psi(16)/16^5:",
      f"{table.rows[-1][1] / 16 ** 5:.4f}")
print("exact leading constant kappa = lim Psi(s)/s^5 from the orbit law:",
      kappa, f"= {kappa.value():.4f};",
      f"Psi(16)/(kappa 16^5) = {table.rows[-1][1] / (kappa.value() * 16 ** 5):.3f}")
print("kappa / closed form =", kappa / ref, "= 8 m_A, so the closed form is",
      "not the limit of this N(O)-orbit count; whether the factor belongs to",
      "the orbits counted, to m_A or to the closed form is open")

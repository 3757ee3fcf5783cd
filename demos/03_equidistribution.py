"""Equidistribution of the canonical representatives in the fundamental cell.

The canonical representatives' Heisenberg coordinates are bucketed into
the 2^7 dyadic half-cells of the fundamental domain; under the Haar
measure every cell carries exactly 1/128 of the mass, so the max-cell
discrepancy measures how uniform the point set has become.
"""

from heisquat.counting import histogram_report, scan_summary
from heisquat.orders import builtin_order

hur = builtin_order("hurwitz")

# one scan gives the histograms at every level
hists = scan_summary(hur, [], [1, 4, 8, 16]).hists
for s in (4, 8, 16):
    rep = histogram_report(s, hists[s])
    top = max(rep.observed)
    print(f"s = {s:3d}: {rep.total:7d} points, "
          f"max cell {top} (uniform would be {rep.total / 128:.1f}), "
          f"discrepancy {rep.discrepancy:.4f}")

# The degenerate base case: all 24 representatives at s = 1 share the
# origin cell, so the discrepancy is as bad as possible.
rep1 = histogram_report(1, hists[1])
print(f"s =   1: degenerate sample, discrepancy {rep1.discrepancy:.4f}"
      f" (= 1 - 1/128 = {1 - 1 / 128:.4f})")

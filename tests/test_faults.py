"""Single-site faults and the checks that catch them.

Each row of FAULTS applies one fault with monkeypatch, with no edit to the
source, runs a command (or, in row (c), a check of the tests) at s <= 4
and names the check that must catch the fault: the AssertionError it
raises, matched by its message.  The rows, by the check that catches
them: (a) the oracle's exact canonicalisation of its spot triples, (b)
the scan's orbit law, (c) the tests' Fraction recomputation of each
representative's cell, (d) the oracle's per-alpha trace relation, (e) its
coverage of the c list by cosets and (g) its residue shifts shared by the
members of a coset.  Row (f), a checkpoint histogram permuted within its
count, has no check yet.
"""

import numpy as np
import pytest

from heisquat import counting
from heisquat.counting import brute_force_counts, scan_summary
from heisquat.heisenberg import FundamentalDomain
from heisquat.lattices import kernel_basis
from heisquat.orders import builtin_order

from conftest import assert_buckets_name_their_cells


def _keep_one_imprimitive_triple(monkeypatch):
    """_primitive_mask keeps the first triple it rejects, if any."""
    mask = counting._primitive_mask

    def faulty(*args):
        keep = mask(*args)
        keep.flat[np.argmin(keep)] = True
        return keep

    monkeypatch.setattr(counting, "_primitive_mask", faulty)


def _repeat_a_coset(monkeypatch):
    """_right_coset_representatives returns the last coset but one twice
    and drops the last: its last representative is replaced by -1 times
    the one before, a member of the coset before it."""
    reps_of = counting._right_coset_representatives

    def faulty(order, C):
        reps = reps_of(order, C).copy()
        reps[-1] = -reps[-2]
        return reps

    monkeypatch.setattr(counting, "_right_coset_representatives", faulty)


def _flip_a_vertical_bit(monkeypatch):
    """_half_cell_bits flips the low bit of its first row when it reads
    the three vertical numerators: that triple's bucket names the cell3
    half beside its own."""
    bits_of = counting._half_cell_bits

    def faulty(V, side):
        bits = bits_of(V, side)
        if V.shape[1] == 3 and bits.size:
            bits[0] ^= 1
        return bits

    monkeypatch.setattr(counting, "_half_cell_bits", faulty)


def _perturb_cell_shift(array, column):
    """The fault: _cell_shifts adds 1 to one column of L (the matrix of
    y -> conj(WT) y) or of off (n(WT) h c), at window cell 5 only."""
    def fault(monkeypatch):
        shifts_of = counting._cell_shifts

        def faulty(order, c):
            WT, L, off = shifts_of(order, c)
            L, off = L.copy(), off.copy()
            if array == "L":
                L[5, :, column] += 1
            else:
                off[..., 5, column] += 1
            return WT, L, off

        monkeypatch.setattr(counting, "_cell_shifts", faulty)
    return fault


def _residue_mover(order, c):
    """(x, ctx): an x of O with tr(conj(x) c) = 0 whose cell3 numerators
    x . Pnum are not all 0 mod Pden, or None, with the _CContext of c.  A
    unit c has no such x (its trace kernel is Im(O) c, of numerators in
    Pden Z^3), so the faults that add x move the cosets of n(c) >= 2."""
    ctx = counting._CContext(FundamentalDomain(order), c)
    moved = [x for x in kernel_basis([[t] for t in order.trace_pairing(c).tolist()])
             if (np.array(x) @ ctx.Pnum % ctx.Pden).any()]
    return (np.array(moved[0]) if moved else None), ctx


def _move_a_members_residues(monkeypatch):
    """_cell_shifts adds to off, for the second member of a coset and
    window cell 5 only, an x of _residue_mover: that member's shifts keep
    the trace relation, and its a residues in cell 5 move."""
    shifts_of = counting._cell_shifts

    def faulty(order, c):
        WT, L, off = shifts_of(order, c)
        if len(off) > 1:
            x, _ = _residue_mover(order, c[1])
            if x is not None:
                off = off.copy()
                off[1, 5] += x
        return WT, L, off

    monkeypatch.setattr(counting, "_cell_shifts", faulty)


def _move_every_members_residues(monkeypatch):
    """_cell_shifts adds x v_j to off of every member c v_j of a coset, in
    every window cell, for the x of _residue_mover of c.  x v_j is in the
    trace kernel of c v_j, with the numerators of x, so every member keeps
    the trace relation and the residue shifts t of the first, and every
    t, the middle cell's too, moves by x . Pnum.  The in-domain a's are
    not read from t, so the counts do not move."""
    shifts_of = counting._cell_shifts

    def faulty(order, c):
        WT, L, off = shifts_of(order, c)
        x, ctx = _residue_mover(order, c[0])
        if x is not None:
            # x v_j = x conj(c) c v_j / n(c), for each member c v_j
            xv = counting._exact_rows(x @ order.right_mul(order.conjugates(c[0])),
                                      order.right_mul(c), ctx.nc)
            off = off + xv[:, None, :]
        return WT, L, off

    monkeypatch.setattr(counting, "_cell_shifts", faulty)


FAULTS = [
    # (a) the oracle's exact canonicalisation of its spot triples, against
    # the representative that their residue shifts t claim
    pytest.param(_move_every_members_residues, lambda order: brute_force_counts(order, [4]),
                 "canonicalises off its representative",
                 id="a-cell-shifts-move-every-members-residues"),
    # (b) the scan's _lawful check of every fresh count against the law
    pytest.param(_keep_one_imprimitive_triple, lambda order: scan_summary(order, [4]),
                 "off the orbit law", id="b-primitive-mask-keeps-one-imprimitive-triple"),
    # (c) the Fraction recomputation of each representative's cell, a test
    # check: no production check reads a histogram
    pytest.param(_flip_a_vertical_bit, lambda order: assert_buckets_name_their_cells(order, 4),
                 "names another cell", id="c-half-cell-bits-flips-one-vertical-bit"),
    # (d) the oracle's per-alpha trace relation on the shift it adds to a
    *[pytest.param(_perturb_cell_shift(array, column),
                   lambda order: brute_force_counts(order, [4]),
                   "oracle shift breaks the trace relation",
                   id=f"d-cell-shifts-{array}-column-{column}")
      for array in ("L", "off") for column in range(4)],
    # (g) the oracle's check that every member of a coset has the residue
    # shifts t of its first member, whose spot triples alone are
    # canonicalised
    pytest.param(_move_a_members_residues, lambda order: brute_force_counts(order, [4]),
                 "disagree on residue shifts", id="g-cell-shifts-move-one-members-residues"),
    # (e) the oracle's coverage check of its cosets against its c list
    pytest.param(_repeat_a_coset, lambda order: brute_force_counts(order, [4]),
                 "do not cover the c list", id="e-right-cosets-repeat-one-and-drop-one"),
]


@pytest.mark.parametrize("fault, run, check", FAULTS)
def test_fault_is_caught(monkeypatch, fault, run, check):
    order = builtin_order("hurwitz")
    run(order)
    fault(monkeypatch)
    with pytest.raises(AssertionError, match=check):
        run(order)


def test_a_fault_raised_in_a_pool_worker_reaches_the_caller(monkeypatch, pool_runs):
    # row (a) through a pool of two workers, started at any predicted work
    monkeypatch.setattr(counting, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(counting, "_POOL_MIN_ROWS", 0)
    _move_every_members_residues(monkeypatch)
    with pytest.raises(AssertionError, match="canonicalises off its representative"):
        brute_force_counts(builtin_order("hurwitz"), [4])
    assert pool_runs == [2]

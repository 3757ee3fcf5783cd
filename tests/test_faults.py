"""Single-site faults and the checks that catch them.

Each row of FAULTS applies one fault with monkeypatch, with no edit to the
source, runs a command at s <= 4 and names the check that must catch the
fault: the AssertionError it raises, matched by its message.
"""

import numpy as np
import pytest

from heisquat import counting
from heisquat.counting import brute_force_counts, scan_summary
from heisquat.orders import builtin_order


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


FAULTS = [
    # (b) the scan's _lawful check of every fresh count against the law
    pytest.param(_keep_one_imprimitive_triple, lambda order: scan_summary(order, [4]),
                 "off the orbit law", id="b-primitive-mask-keeps-one-imprimitive-triple"),
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

"""The association order of the statistics kernel's short reductions.

The kernel writes its 4-entry sums and its 8-entry minimum as arithmetic
on whole ``[N]`` columns, in the order numpy's own row reductions use, and
keeps numpy's pairwise sum for the 8-entry table mass, so that every
reported float keeps its bits.  Each site is checked here against plain
Python float arithmetic in its stated order, on seeded rows whose
magnitudes spread over 1e-8 to 1e8, where a different order changes the
last bits of many rows.  A failure names the site that moved.
"""

import math
import re

import numpy as np
import pytest

from jointmeas.estimate import x_inaccuracies
from jointmeas.qcore import _row_sums
from jointmeas.scenario import SIGNS, negative_entry_checks

SIZES = [1, 2, 7, 720]


def spread_rows(seed: int, size: int, width: int, signed: bool = True) -> np.ndarray:
    """Seeded ``[size, width]`` entries with magnitudes spread over 1e+-8."""
    rng = np.random.default_rng([seed, size, width])
    values = rng.standard_normal((size, width)) * 10.0 ** rng.uniform(-8.0, 8.0, (size, width))
    return values if signed else np.abs(values)


def left_fold(values) -> float:
    total = values[0]
    for value in values[1:]:
        total += value
    return total


def pairwise_eight(c) -> float:
    return ((c[0] + c[1]) + (c[2] + c[3])) + ((c[4] + c[5]) + (c[6] + c[7]))


@pytest.mark.parametrize("size", SIZES)
def test_row_sums_add_four_entries_left_to_right(size):
    """``qcore._row_sums``, behind the quasi-table mass of ``_statistics``,
    is ``((r0 + r1) + r2) + r3`` in every row, as numpy's ``sum(axis=1)``."""
    rows = spread_rows(1, size, 4)
    got = _row_sums(rows)
    assert got.tolist() == [left_fold(row) for row in rows.tolist()]
    assert np.array_equal(got, rows.sum(axis=1))


def test_four_entry_orders_differ_on_spread_rows():
    """The rows above tell the orders apart: a pairwise sum of the same 4
    entries differs from the left fold on many of them."""
    rows = spread_rows(1, 720, 4).tolist()
    moved = sum(left_fold(r) != (r[0] + r[1]) + (r[2] + r[3]) for r in rows)
    assert moved > len(rows) // 10


@pytest.mark.parametrize("size", SIZES)
def test_eight_entry_sums_are_pairwise(size):
    """numpy adds the 8 entries of a row pairwise, the order the mass of
    ``scenario.joint_tables`` keeps; a left fold over 8 entries, which a
    reduction down the C-ordered transpose would give, differs on many
    rows, so ``_row_sums`` is not for 8 entries."""
    rows = spread_rows(2, size, 8)
    assert rows.sum(axis=1).tolist() == [pairwise_eight(row) for row in rows.tolist()]
    if size == 720:
        moved = sum(left_fold(row) != pairwise_eight(row) for row in rows.tolist())
        assert moved > size // 10


@pytest.mark.parametrize("kinds", [1, 2])
@pytest.mark.parametrize("size", SIZES)
def test_x_inaccuracies_add_the_four_terms_left_to_right(size, kinds):
    """``estimate.x_inaccuracies``: eps^2 is the left fold of the terms
    ``(x - f(w))^2 p_MH(x, w)`` over (x, w) = (+,+), (+,-), (-,+), (-,-)."""
    mh = spread_rows(3, size, 4, signed=False).reshape(size, 2, 2)
    f = np.random.default_rng([4, size, kinds]).uniform(-2.0, 2.0, (size, kinds, 2))
    got = np.stack([x_inaccuracies(mh, f[:, k], []) for k in range(kinds)], axis=1)
    want, moved = [], 0
    for mh_row, f_row in zip(mh.tolist(), f.tolist()):
        for f_k in f_row:
            terms = [(x - f_k[w]) * (x - f_k[w]) * mh_row[i][w]
                     for i, x in enumerate(SIGNS.tolist()) for w in range(2)]
            want.append(math.sqrt(left_fold(terms)))
            moved += want[-1] != math.sqrt((terms[0] + terms[1]) + (terms[2] + terms[3]))
    assert got.ravel().tolist() == want
    if size == 720:
        # the square root hides some of the moved bits, not all
        assert moved > len(want) // 20


@pytest.mark.parametrize("size", SIZES)
def test_negative_entry_check_takes_the_row_minimum(size):
    """``scenario.negative_entry_checks`` flags a table whose smallest entry
    is below -1e-9 and quotes that entry."""
    flat = spread_rows(5, size, 8) * 1e-8
    ((bad, fire),) = negative_entry_checks(flat)
    lows = [min(row) for row in flat.tolist()]
    assert bad.tolist() == [low < -1e-9 for low in lows]
    for i in np.flatnonzero(bad)[:20].tolist():
        with pytest.raises(ValueError, match=re.escape(f"negative probability {lows[i]:.3e} in")):
            fire(i)

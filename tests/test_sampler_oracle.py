"""The raw-word bound sampler against the float inverse CDF it replaces.

``Generator.random`` turns a raw Philox word ``w`` into ``(w >> 11) * 2**-53``;
``np.searchsorted`` over the cumulative sums then picks the cell.  The sampler
compares the raw word itself against ``t << 11`` for each threshold
``t < 2**53``; it must pick the same cell on every slab and every word,
including the words just either side of each of its thresholds.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from bellsim.harness import _cells, _word_bounds  # noqa: E402
from bellsim.probability import TOL  # noqa: E402

SHORTFALL = (0.56339548, 0.18519426, 0.25141026, 0.0)


@st.composite
def slabs(draw):
    """Valid four-cell slices, with any cells (but not all) exactly zero."""
    weights = draw(st.lists(st.floats(1e-9, 1.0), min_size=4, max_size=4))
    live = draw(st.lists(st.booleans(), min_size=4, max_size=4).filter(any))
    w = np.where(live, weights, 0.0)
    return tuple(w / w.sum())


def fixed_cum(slab):
    """The running sums with the float shortfall fix: the live tail ends at exactly 1."""
    p = np.asarray(slab)
    cum = np.cumsum(p)
    cum[np.flatnonzero(p > TOL)[-1]:] = 1.0
    return cum


@hypothesis.settings(deadline=None, max_examples=300)
@hypothesis.given(slab=slabs(), extra=st.lists(st.integers(0, 2**64 - 1), max_size=16))
@hypothesis.example(slab=SHORTFALL, extra=[])
@hypothesis.example(slab=(0.0, 0.5, 0.25, 0.25), extra=[])
@hypothesis.example(slab=(0.5, 0.0, 0.0, 0.5), extra=[])
@hypothesis.example(slab=(0.25, 0.75, 0.0, 0.0), extra=[])
@hypothesis.example(slab=(0.5, 0.25, 0.25, 0.0), extra=[])  # the last threshold is exactly 2**53
@hypothesis.example(slab=(1.0, 0.0, 0.0, 0.0), extra=[])  # every threshold is 2**53
@hypothesis.example(slab=(0.25, 0.25, 0.25, 0.25), extra=[])  # every threshold is below 2**53
def test_threshold_cells_equal_the_float_inverse_cdf(slab, extra):
    cum = fixed_cum(slab)
    near = [
        h << 11
        for t in np.ceil(cum[:3] * 2.0**53).astype(np.int64).tolist()
        for h in (t - 1, t, t + 1)
        if 0 <= h < 2**53
    ]
    # the smallest word, the largest, and the largest whose 53-bit draw is below 1
    words = np.array([0, 2**64 - 1, (2**53 - 1) << 11, *near, *extra], dtype=np.uint64)
    expected = np.searchsorted(cum, (words >> 11) * 2.0**-53, side="right")

    (bounds,) = _word_bounds(np.array(slab))
    assert np.array_equal(_cells(words, bounds, np.zeros(len(words), dtype=np.uint8)), expected)
    # bound j marks the words past cell j; past the reachable bounds, no word is
    assert len(bounds) <= 3 and not np.any(expected > len(bounds))
    for j, bound in enumerate(bounds):
        assert np.array_equal(words >= bound, expected > j)
    assert np.all(np.asarray(slab)[expected] != 0.0)

"""The one correlator reduction and the one signed sum against the loops they replace.

Every artifact must keep its bytes, so ``correlators`` must give, bit for bit,
what the old per-cell loop gave, and ``chsh_sum`` what the old signed loops
gave, on tables with exact zero cells as well as on full ones.
"""

import struct

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from bellsim.models import OUTCOMES, chsh_sum, correlators  # noqa: E402


def old_correlator(slab):
    """The four-term loop every correlator used to run."""
    total = 0.0
    for ia, a in enumerate(OUTCOMES):
        for ib, b in enumerate(OUTCOMES):
            total += a * b * float(slab[ia, ib])
    return total


def bits(x):
    return struct.pack("<d", x)


@st.composite
def tables(draw):
    """``[x, y, a, b]`` tables with normalised slices, any cells (but not all) of a slice exactly zero."""
    nx, ny = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    weights = draw(st.lists(st.floats(1e-9, 1.0), min_size=nx * ny * 4, max_size=nx * ny * 4))
    live = draw(st.lists(st.booleans(), min_size=nx * ny * 4, max_size=nx * ny * 4))
    w = np.where(live, weights, 0.0).reshape(nx, ny, 2, 2)
    w[..., 0, 0] = np.where(w.sum(axis=(2, 3)) == 0.0, 1.0, w[..., 0, 0])
    return w / w.sum(axis=(2, 3), keepdims=True)


@hypothesis.settings(deadline=None, max_examples=300)
@hypothesis.given(table=tables())
@hypothesis.example(table=np.array([[[[0.0, 0.5], [0.5, 0.0]]]]))
@hypothesis.example(table=np.array([[[[0.0, 0.0], [0.0, 1.0]]]]))
def test_correlators_equal_the_old_loop_bit_for_bit(table):
    grid = correlators(table)
    assert grid.shape == table.shape[:2]
    for i, j in np.ndindex(*grid.shape):
        assert bits(float(grid[i, j])) == bits(old_correlator(table[i, j]))
        assert bits(float(correlators(table[i, j]))) == bits(old_correlator(table[i, j]))


@hypothesis.settings(deadline=None, max_examples=300)
@hypothesis.given(
    terms=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    weights=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
)
def test_chsh_sum_equals_the_old_signed_loops_bit_for_bit(terms, weights):
    signs = (1.0, 1.0, 1.0, -1.0)
    plain, weighted = 0.0, 0.0
    for term, sign, w in zip(terms, signs, weights):
        plain += sign * term
        weighted += w * sign * term
    assert bits(chsh_sum(terms)) == bits(plain)
    assert bits(chsh_sum(terms, weights)) == bits(weighted)

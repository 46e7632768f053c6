"""Each stock table and the behavior file against the cell rule it states, bit for bit.

Every artifact must keep its bytes, so each table must hold, in each cell
``[x, y, a, b]``, exactly the float its rule gives, and the behavior file must
list a pair's four cells in one fixed order and read back what was written.
"""

import csv
import io
import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from bellsim import Angle, behavior_from_csv, behavior_to_csv, harness, models, pr_box, singlet_behavior  # noqa: E402
from bellsim.angles import cos_between, setting_text  # noqa: E402

angles = st.builds(Angle.of, st.integers(-48, 48), st.integers(1, 24))
grids = st.lists(angles, min_size=1, max_size=4, unique=True)


@hypothesis.settings(deadline=None, max_examples=200)
@hypothesis.given(grid_a=grids, grid_b=st.none() | grids)
def test_singlet_table_is_its_cell_rule_bit_for_bit(grid_a, grid_b):
    table = singlet_behavior(grid_a, grid_b).table
    for (i, x), (j, y) in itertools.product(enumerate(grid_a), enumerate(grid_b or grid_a)):
        for (ia, a), (ib, b) in itertools.product(enumerate((1, -1)), repeat=2):
            want = 0.25 + (1.0 if a == -b else -1.0) * cos_between(x, y) / 4.0
            assert float(table[i, j, ia, ib]).hex() == want.hex(), (x, y, a, b)


def test_pr_box_is_the_xor_rule_on_all_sixteen_cells():
    # outcome bits +1 -> 0, -1 -> 1, which is each outcome's index on its axis
    table = pr_box().table
    for x, y, ia, ib in itertools.product((0, 1), repeat=4):
        assert float(table[x, y, ia, ib]).hex() == (0.5 if (ia ^ ib) == (x & y) else 0.0).hex()


@pytest.mark.parametrize("behavior", [
    pr_box(),
    singlet_behavior((Angle.of(0), Angle.of(1, 3)), (Angle.of(1, 8), Angle.of(-1, 4), Angle.of(1, 2))),
], ids=["pr-box", "singlet-2x3"])
def test_behavior_file_lists_each_pairs_cells_in_one_order(behavior):
    rows = list(csv.reader(io.StringIO(behavior_to_csv(behavior))))
    assert rows[0] == ["x", "y", "a", "b", "p"]
    want = [
        [setting_text(x), setting_text(y), str(a), str(b), repr(behavior.prob(x, y, a, b))]
        for x, y in itertools.product(behavior.grid_a, behavior.grid_b)
        for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1))
    ]
    assert rows[1:] == want


@hypothesis.settings(deadline=None, max_examples=100)
@hypothesis.given(grid_a=grids, grid_b=grids, shuffle=st.randoms(use_true_random=False))
def test_a_behavior_file_with_its_rows_shuffled_reads_back_bit_for_bit(grid_a, grid_b, shuffle):
    behavior = singlet_behavior(grid_a, grid_b)
    header, *rows = behavior_to_csv(behavior).splitlines(keepends=True)
    shuffle.shuffle(rows)
    back = behavior_from_csv(header + "".join(rows))
    assert sorted(back.grid_a) == sorted(grid_a) and sorted(back.grid_b) == sorted(grid_b)
    for x, y in behavior.pairs():
        assert back.slice(x, y).tobytes() == behavior.slice(x, y).tobytes(), (x, y)


def test_the_sampler_and_the_tables_share_one_cell_order():
    assert harness.CELL_OUTCOMES is models.CELL_OUTCOMES

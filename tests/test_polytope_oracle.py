"""Local-polytope membership against a linear-programming oracle.

A no-signaling behavior is local iff it is a convex mixture of the 16
deterministic strategies; ``linprog`` decides that directly, independently of
the facet inequalities ``check_factorizable`` evaluates.
"""

import numpy as np
import pytest

scipy_optimize = pytest.importorskip("scipy.optimize")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from bellsim import check_factorizable, deterministic_lhv_models, lhv_behavior, pr_box  # noqa: E402
from bellsim.models import Behavior  # noqa: E402

VERTICES = np.array([lhv_behavior(m).table.reshape(-1) for m in deterministic_lhv_models()])
BOX = pr_box().table


def lp_is_local(table: np.ndarray) -> bool:
    """Whether nonnegative vertex weights summing to 1 reproduce ``table``."""
    a_eq = np.vstack([VERTICES.T, np.ones(len(VERTICES))])
    b_eq = np.append(table.reshape(-1), 1.0)
    result = scipy_optimize.linprog(np.zeros(len(VERTICES)), A_eq=a_eq, b_eq=b_eq, bounds=(0, None))
    assert result.status in (0, 2), result.message  # solved or proven infeasible
    return result.status == 0


@hypothesis.settings(deadline=None, max_examples=60)
@hypothesis.given(
    weights=st.lists(st.floats(0.0, 1.0), min_size=16, max_size=16).filter(lambda w: sum(w) > 1e-3),
    box_fraction=st.floats(0.0, 1.0),
)
def test_facet_check_agrees_with_vertex_lp(weights, box_fraction):
    w = np.array(weights) / sum(weights)
    table = (1.0 - box_fraction) * (w @ VERTICES).reshape(BOX.shape) + box_fraction * BOX
    behavior = Behavior((0, 1), (0, 1), table)
    report = check_factorizable(behavior)
    hypothesis.assume(abs(report.max_facet - 2.0) > 1e-6)
    assert report.is_local == lp_is_local(behavior.table)

"""Kernel operations build their results without re-validating them.

``condition``, ``marginalize`` (through ``keep_only``), ``reorder``,
``relabel``, ``product``, ``condition_table`` and ``reweight`` skip the public
constructors' shape, sign and sum checks, since their operands already passed
them; ``condition`` and ``reweight`` also keep a given ``context`` of
conditioners unchecked.  Each result must still be exactly
what the public constructor accepts: rebuilding it through ``TaggedJoint(...)``
or ``ConditionalTable(...)`` raises nothing and gives an equal object, and its
array is read-only.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from bellsim.errors import ImpossibleEvidenceError  # noqa: E402
from bellsim.probability import (  # noqa: E402
    TOL,
    ConditionalTable,
    Conditioner,
    Modality,
    TaggedJoint,
    Variable,
    condition,
    condition_table,
    keep_only,
    product,
    reweight,
)

CONTEXT = (
    Conditioner(Variable.singleton("ψ0"), "ψ0", Modality.FACTUAL),
    Conditioner(Variable("c", (0, 1)), 1, Modality.COUNTERFACTUAL),
)
EXTRA = Conditioner(Variable.singleton("t0"), "t0", Modality.FACTUAL)


def weights(n):
    """``n`` non-negative weights, any of them (but not all) exactly zero."""
    return st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=n, max_size=n).filter(any)


@st.composite
def joints(draw):
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    free = tuple(Variable(f"v{i}", tuple(range(s))) for i, s in enumerate(sizes))
    w = np.array(draw(weights(int(np.prod(sizes))))).reshape(sizes)
    conds = draw(st.lists(st.sampled_from(CONTEXT), unique=True, max_size=2))
    return TaggedJoint(free, w / w.sum(), conds, draw(st.sampled_from(("", "A", "B"))))


def rebuilt(result):
    if isinstance(result, ConditionalTable):
        return ConditionalTable(result.free, result.given, result.array, result.conditioners, result.label)
    return TaggedJoint(result.free, result.array, result.conditioners, result.label)


def assert_valid(result):
    again = rebuilt(result)
    assert type(again) is type(result)
    for slot in type(result).__slots__:
        if slot != "array":
            assert getattr(again, slot) == getattr(result, slot), slot
    assert again.array.shape == result.array.shape
    assert np.array_equal(again.array, result.array)
    assert not result.array.flags.writeable
    assert result.free_names == tuple(v.name for v in result.free)
    if isinstance(result, ConditionalTable):
        assert result.given_names == tuple(v.name for v in result.given)


@hypothesis.settings(deadline=None, max_examples=200)
@hypothesis.given(d=joints(), data=st.data())
def test_kernel_results_pass_the_public_constructor(d, data):
    var = data.draw(st.sampled_from(d.free))
    perm = data.draw(st.permutations(d.free_names))
    mass = keep_only(d, [var.name])
    live = [v for v, m in zip(var.domain, mass.array) if m > TOL]
    value = data.draw(st.sampled_from(live))
    modality = data.draw(st.sampled_from(Modality))
    # a marginal over var that weighs only values the joint allows
    q = np.array(data.draw(weights(len(live))))
    spread = np.zeros(len(var.domain))
    spread[[var.index(v) for v in live]] = q / q.sum()
    ct = condition_table(d, var.name)

    results = [
        d.relabel(data.draw(st.sampled_from(("", "A", "B", "A∪B")))),
        d.reorder(perm),
        mass,
        condition(d, (var.name, value), modality),
        condition(d, (var.name, value), modality, context=d.conditioners[::-1] + (EXTRA,)),
        ct,
        product(ct, mass),
        product(ct, TaggedJoint((var,), spread)),
        reweight(d, var.name, spread),
        reweight(d, var.name, spread, context=d.conditioners[::-1] + (EXTRA,)),
    ]
    for result in results:
        assert_valid(result)
    assert product(ct, mass).reorder(d.free_names).equals(d)


@hypothesis.settings(deadline=None, max_examples=100)
@hypothesis.given(d=joints(), data=st.data())
def test_product_rejects_weight_on_a_value_of_probability_zero(d, data):
    axis = data.draw(st.integers(0, len(d.free) - 1))
    var = d.free[axis]
    dead = data.draw(st.sampled_from(var.domain))
    w = np.array(d.array)
    np.moveaxis(w, axis, 0)[var.index(dead)] = 0.0
    hypothesis.assume(w.sum() > 0.0)
    ct = condition_table(TaggedJoint(d.free, w / w.sum(), d.conditioners, d.label), var.name)
    q = np.array(data.draw(weights(len(var.domain))))
    q[var.index(dead)] += 0.5
    with pytest.raises(ImpossibleEvidenceError):
        product(ct, TaggedJoint((var,), q / q.sum()))

"""Kernel operations checked against hand arithmetic and brute-force oracles."""

import itertools
import math

import numpy as np
import pytest

from bellsim import (
    Behavior,
    ConditionalTable,
    Conditioner,
    ImpossibleEvidenceError,
    LhvModel,
    Modality,
    QUncertainty,
    TaggedJoint,
    Variable,
    bayes_invert,
    chsh_expectation,
    condition,
    condition_table,
    enumerate_factorizations,
    keep_only,
    marginalize,
    pr_box,
    pr_box_settings,
    product,
)
from bellsim.models import marginal_after_setting_average
from conftest import random_joint

TOL = 1e-12

A = Variable("a", (1, -1))
B = Variable("b", (1, -1))


def uniform_ab():
    return TaggedJoint((A, B), np.full((2, 2), 0.25))


def anti_correlated_ab(delta_radians=0.0):
    # joint for a spin-anticorrelated pair at angle difference delta
    c = math.cos(delta_radians)
    t = np.empty((2, 2))
    for ia, a in enumerate((1, -1)):
        for ib, b in enumerate((1, -1)):
            t[ia, ib] = 0.25 + (1.0 if a == -b else -1.0) * c / 4.0
    return TaggedJoint((A, B), t)


# -- condition -----------------------------------------------------------------


def test_condition_independent_uniform():
    d = condition(uniform_ab(), ("b", 1), Modality.FACTUAL)
    assert d.free_names == ("a",)
    assert d.prob({"a": 1}) == pytest.approx(0.5, abs=TOL)
    assert d.prob({"a": -1}) == pytest.approx(0.5, abs=TOL)


def test_condition_perfectly_anticorrelated():
    d = condition(anti_correlated_ab(0.0), ("a", 1))
    assert d.prob({"b": -1}) == pytest.approx(1.0, abs=TOL)
    assert d.prob({"b": 1}) == pytest.approx(0.0, abs=TOL)


def test_condition_zero_probability_errors():
    d = condition(anti_correlated_ab(0.0), ("a", 1))
    with pytest.raises(ImpossibleEvidenceError):
        condition(d.reorder(("b",)), ("b", 1))


def test_condition_prepends_conditioner_and_tags():
    d = condition(uniform_ab(), ("b", 1), Modality.COUNTERFACTUAL)
    assert d.conditioners[0].variable.name == "b"
    assert d.conditioners[0].modality is Modality.COUNTERFACTUAL


def test_modality_neutrality_of_value(rng):
    for _ in range(50):
        d = random_joint(rng)
        name = d.free_names[0]
        value = d.free[0].domain[0]
        try:
            f = condition(d, (name, value), Modality.FACTUAL)
            c = condition(d, (name, value), Modality.COUNTERFACTUAL)
        except ImpossibleEvidenceError:
            continue
        assert np.array_equal(f.array, c.array)
        assert f.conditioners[0].modality != c.conditioners[0].modality


# -- bayes ---------------------------------------------------------------------


def test_bayes_deterministic_likelihood():
    h = Variable("h", ("yes", "no"))
    e = Variable("e", ("seen", "unseen"))
    prior = TaggedJoint((h,), [0.5, 0.5])
    # evidence happens iff h is "yes"
    lik = ConditionalTable((e,), (h,), [[1.0, 0.0], [0.0, 1.0]])
    post = bayes_invert(prior, lik, "seen")
    assert post.prob({"h": "yes"}) == pytest.approx(1.0, abs=TOL)


def test_bayes_independent_evidence_keeps_prior():
    h = Variable("h", ("yes", "no"))
    e = Variable("e", ("seen", "unseen"))
    prior = TaggedJoint((h,), [0.3, 0.7])
    lik = ConditionalTable((e,), (h,), [[0.6, 0.6], [0.4, 0.4]])
    post = bayes_invert(prior, lik, "seen")
    assert post.prob({"h": "yes"}) == pytest.approx(0.3, abs=TOL)


def test_bayes_anticorrelated_pair_at_sixty_degrees():
    # oracle by direct normalization: p(b=-1 | a=+1) with likelihood
    # p(a|b) from the anti-correlated pair at delta = pi/3
    c = math.cos(math.pi / 3)
    p_plus_given_plus = (1.0 - c) / 2.0
    p_plus_given_minus = (1.0 + c) / 2.0
    expected = 0.5 * p_plus_given_minus / (0.5 * p_plus_given_plus + 0.5 * p_plus_given_minus)
    assert expected == pytest.approx(0.75, abs=TOL)  # (1 + cos pi/3)/2

    prior = TaggedJoint((B,), [0.5, 0.5])
    lik = ConditionalTable(
        (A,), (B,), [[p_plus_given_plus, p_plus_given_minus], [1 - p_plus_given_plus, 1 - p_plus_given_minus]]
    )
    post = bayes_invert(prior, lik, 1)
    assert post.prob({"b": -1}) == pytest.approx(expected, abs=TOL)


def test_bayes_zero_evidence_errors():
    h = Variable("h", ("yes", "no"))
    e = Variable("e", ("seen", "unseen"))
    prior = TaggedJoint((h,), [1.0, 0.0])
    lik = ConditionalTable((e,), (h,), [[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ImpossibleEvidenceError):
        bayes_invert(prior, lik, "seen")


def test_bayes_rejects_prior_weight_on_an_undefined_likelihood_slice():
    # p(e | h=yes) is undefined (all zero), so a prior that weighs h=yes is
    # not a marginal of any joint the likelihood came from
    h = Variable("h", ("yes", "no"))
    e = Variable("e", ("seen", "unseen"))
    prior = TaggedJoint((h,), [0.5, 0.5])
    lik = ConditionalTable((e,), (h,), [[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ImpossibleEvidenceError):
        bayes_invert(prior, lik, "seen")


def test_bayes_merges_conditioners_and_rejects_conflicting_ones():
    h = Variable("h", ("yes", "no"))
    e = Variable("e", ("seen", "unseen"))
    c, k = Variable("c", (0, 1)), Variable("k", (0, 1))
    lik = ConditionalTable((e,), (h,), [[0.6, 0.2], [0.4, 0.8]],
                           (Conditioner(c, 0, Modality.FACTUAL), Conditioner(k, 1, Modality.FACTUAL)), label="L")
    prior = TaggedJoint((h,), [0.5, 0.5], (Conditioner(c, 0, Modality.FACTUAL),), label="P")
    post = bayes_invert(prior, lik, "seen", Modality.COUNTERFACTUAL)
    assert [(x.variable.name, x.value, x.modality) for x in post.conditioners] == [
        ("e", "seen", Modality.COUNTERFACTUAL), ("c", 0, Modality.FACTUAL), ("k", 1, Modality.FACTUAL)]
    assert post.label == "L"
    assert post.prob({"h": "yes"}) == pytest.approx(0.75, abs=TOL)
    with pytest.raises(ValueError, match="conflicting conditioner 'c'"):
        bayes_invert(TaggedJoint((h,), [0.5, 0.5], (Conditioner(c, 1, Modality.FACTUAL),)), lik, "seen")


def test_bayes_agrees_with_condition(rng):
    for _ in range(100):
        d = random_joint(rng, n_vars=2)
        va, vb = d.free
        prior = marginalize(d, vb.name).reorder((va.name,))
        likelihood = condition_table(d, va.name)  # p(vb | va)
        for value in vb.domain:
            try:
                direct = keep_only(condition(d, (vb.name, value)), (va.name,))
            except ImpossibleEvidenceError:
                continue
            posterior = bayes_invert(prior, likelihood, value)
            assert np.allclose(direct.array, posterior.array, atol=TOL)


# -- marginalization -----------------------------------------------------------


def test_marginalize_anticorrelated_pair_is_even():
    for delta in (0.0, math.pi / 3, 1.234):
        d = marginalize(anti_correlated_ab(delta), "b")
        # oracle: sum the two cells by hand
        assert d.prob({"a": 1}) == pytest.approx(0.5, abs=TOL)
        assert d.prob({"a": -1}) == pytest.approx(0.5, abs=TOL)


def test_marginalize_singleton_is_identity():
    s = Variable("s", ("only",))
    d = TaggedJoint((A, s), [[0.4], [0.6]])
    m = marginalize(d, "s")
    assert m.free_names == ("a",)
    assert np.array_equal(m.array, np.array([0.4, 0.6]))


def test_marginalize_exact_ordered_sum(rng):
    for _ in range(200):
        d = random_joint(rng)
        name = d.free_names[-1]
        m = marginalize(d, name)
        axis = d.free_names.index(name)
        moved = np.moveaxis(d.array, axis, 0)
        acc = moved[0].copy()
        for k in range(1, moved.shape[0]):
            acc = acc + moved[k]
        assert np.array_equal(m.array, acc)  # bitwise: same fold order


def test_marginalize_commutes_with_independent_condition():
    # independent product: condition on a then marginalize b, vs reverse
    d = TaggedJoint((A, B), np.outer([0.3, 0.7], [0.6, 0.4]))
    left = marginalize(condition(d, ("a", 1)), "b")
    right = condition(marginalize(d, "b"), ("a", 1))
    assert np.allclose(left.array, right.array, atol=TOL)
    assert left.free_names == right.free_names == ()


def test_disjunction_reading_of_marginal(rng):
    # p(a | d) == p(a | b-or-not-b, d): summing first vs conditioning on
    # every b and mixing with weights p(b) agree
    d = random_joint(rng, n_vars=2)
    va, vb = d.free
    m = keep_only(d, (va.name,))
    mix = np.zeros(len(va.domain))
    pb = keep_only(d, (vb.name,))
    for value in vb.domain:
        cond = keep_only(condition(d, (vb.name, value)), (va.name,))
        mix += pb.prob({vb.name: value}) * cond.array
    assert np.allclose(m.array, mix, atol=TOL)


# -- product / condition_table round trip ---------------------------------------


def test_product_round_trip_random(rng):
    for _ in range(100):
        d = random_joint(rng)
        for name in d.free_names:
            ct = condition_table(d, name)
            marg = keep_only(d, (name,))
            back = product(ct, marg)
            assert back.equals(d.reorder(back.free_names))


def test_product_requires_matching_variables():
    d = uniform_ab()
    ct = condition_table(d, "b")
    wrong = TaggedJoint((Variable("z", (0, 1)),), [0.5, 0.5])
    with pytest.raises(ValueError):
        product(ct, wrong)


def test_product_of_independent_conditional_is_outer():
    d = TaggedJoint((A, B), np.outer([0.3, 0.7], [0.6, 0.4]))
    ct = condition_table(d, "b")  # p(a | b) == p(a), independent
    marg = keep_only(d, ("b",))
    back = product(ct, marg)
    assert np.allclose(back.array, np.outer([0.3, 0.7], [0.6, 0.4]), atol=TOL)


def test_product_merges_conditioning_context():
    ctx = Conditioner(Variable.singleton("bg"), "bg", Modality.FACTUAL)
    d = TaggedJoint((A, B), np.full((2, 2), 0.25), (ctx,))
    back = product(condition_table(d, "b"), keep_only(d, ("b",)))
    assert [c.variable.name for c in back.conditioners] == ["bg"]


# -- factorizations --------------------------------------------------------------


def test_chain_factorizations_two_variables():
    d = uniform_ab()
    descs = enumerate_factorizations(d)
    rendered = sorted(f.describe() for f in descs)
    assert rendered == ["p(a|b)p(b)", "p(b|a)p(a)"]


def test_chain_factorization_count_matches_permutations(rng):
    d = random_joint(rng, n_vars=4, max_domain=2)
    descs = enumerate_factorizations(d)
    assert len(descs) == math.factorial(4)
    # brute-force oracle: distinct permutations of the variable names
    perms = set(itertools.permutations(d.free_names))
    got = {tuple(b[0].name for b in f.blocks) for f in descs}
    assert got == perms


def _ordered_partition_count(n):
    # oracle: number of ordered set partitions of an n-set, by direct recursion
    if n == 0:
        return 1
    total = 0
    for k in range(1, n + 1):
        total += math.comb(n, k) * _ordered_partition_count(n - k)
    return total


def test_block_factorization_count_matches_recursion_oracle(rng):
    d = random_joint(rng, n_vars=4, max_domain=2)
    descs = enumerate_factorizations(d, ordered_blocks=True)
    assert len(descs) == _ordered_partition_count(4)  # 75 for n=4
    keys = {tuple(tuple(v.name for v in b) for b in f.blocks) for f in descs}
    assert len(keys) == len(descs)


def test_every_factorization_remultiplies(rng):
    for _ in range(25):
        d = random_joint(rng, n_vars=3, max_domain=3)
        for f in enumerate_factorizations(d, ordered_blocks=True):
            assert np.max(np.abs(f.remultiply(d) - d.array)) <= TOL


def test_factorization_remultiplies_with_zero_cells():
    d = anti_correlated_ab(0.0)  # has exact zeros
    for f in enumerate_factorizations(d, ordered_blocks=True):
        assert np.max(np.abs(f.remultiply(d) - d.array)) <= TOL


# -- rendering -------------------------------------------------------------------


def _post_detection_joint():
    out_b = Variable("±b", (1, -1))
    set_b = Variable("θb", ("y0", "y1"))
    conds = (
        Conditioner(Variable("±a", (1, -1)), 1, Modality.FACTUAL),
        Conditioner(Variable("θa", ("x0", "x1")), "x0", Modality.FACTUAL),
        Conditioner(Variable.singleton("ψ0"), "ψ0", Modality.FACTUAL),
        Conditioner(Variable.singleton("t±"), "t±", Modality.FACTUAL),
    )
    return TaggedJoint((out_b, set_b), np.full((2, 2), 0.25), conds, label="A")


def test_render_factual_only_uses_double_bar():
    assert _post_detection_joint().render() == "P_A(±b,θb‖±a,θa,ψ0,t±)"


def test_render_counterfactual_sits_between_bars():
    d = condition(_post_detection_joint(), ("θb", "y0"), Modality.COUNTERFACTUAL)
    assert d.render() == "P_A(±b|θb|±a,θa,ψ0,t±)"


def test_render_no_conditioners_at_all():
    d = TaggedJoint((A,), [0.5, 0.5], (), label="A")
    assert d.render() == "P_A(a)"


# -- invariants ------------------------------------------------------------------


def test_operations_keep_normalization(rng):
    for _ in range(100):
        d = random_joint(rng)
        assert abs(d.array.sum() - 1.0) <= TOL
        m = marginalize(d, d.free_names[0])
        assert abs(m.array.sum() - 1.0) <= TOL
        try:
            c = condition(d, (d.free_names[0], d.free[0].domain[0]))
            assert abs(c.array.sum() - 1.0) <= TOL
        except ImpossibleEvidenceError:
            pass


def test_degenerate_joint_is_legal_but_conditioning_errors():
    d = TaggedJoint((A, B), [[0.5, 0.5], [0.0, 0.0]])
    assert d.prob({"a": -1, "b": 1}) == 0.0
    with pytest.raises(ImpossibleEvidenceError):
        condition(d, ("a", -1))


def test_no_variable_both_free_and_conditioned():
    with pytest.raises(ValueError):
        TaggedJoint((A,), [0.5, 0.5], (Conditioner(A, 1, Modality.FACTUAL),))


# -- the one distribution check ------------------------------------------------

C3 = Variable("c", (0, 1, 2))
RESPONSE = (((1.0, 0.0), (0.0, 1.0)), ((0.5, 0.5), (0.5, 0.5)))  # [setting, lambda, outcome]


def _lhv_arrays(prior=(0.5, 0.5), response_a=RESPONSE, response_b=RESPONSE):
    return LhvModel((0, 1), prior, response_a, response_b).arrays()


def _chsh_prior(v):
    chsh_expectation(pr_box(), pr_box_settings(), v)


def _far_prior(v):
    marginal_after_setting_average(pr_box(), 0, v)


#: Every place that decides whether values form a distribution: a call that
#: returns the array it stores or returns (``None`` where it keeps none), a
#: valid input, and a flat index in the same slice as flat index 0.  The
#: conditional table's second slice is all zero, which it must accept.
DISTRIBUTION_SITES = {
    "TaggedJoint": (lambda v: TaggedJoint((A, C3), v).array, np.full((2, 3), 1 / 6), 1),
    "ConditionalTable": (lambda v: ConditionalTable((A,), (B,), v).array, [[0.4, 0.0], [0.6, 0.0]], 2),
    "Behavior": (lambda v: Behavior((0, 1), (0, 1), v).table, pr_box().table, 1),
    "LhvModel.prior": (lambda v: _lhv_arrays(prior=v)[0], [0.5, 0.5], 1),
    "LhvModel.response_a": (lambda v: _lhv_arrays(response_a=v)[1], RESPONSE, 1),
    "LhvModel.response_b": (lambda v: _lhv_arrays(response_b=v)[2], RESPONSE, 1),
    "chsh_expectation": (_chsh_prior, [0.25] * 4, 1),
    "marginal_after_setting_average": (_far_prior, [0.5, 0.5], 1),
    "QUncertainty": (lambda v: QUncertainty(C3, tuple(v)).array, [0.25, 0.5, 0.25], 1),
}


def _with_first(base, mate, value, move_mass=False):
    """``base`` with flat entry 0 set to ``value``; ``move_mass`` keeps its slice's sum."""
    v = np.array(base, dtype=float)
    flat = v.reshape(-1)
    if move_mass:
        flat[mate] += flat[0] - value
    flat[0] = value
    return v


@pytest.mark.parametrize("site", sorted(DISTRIBUTION_SITES))
def test_every_distribution_site_makes_the_one_check(site):
    build, base, mate = DISTRIBUTION_SITES[site]
    rejected = {
        "NaN": _with_first(base, mate, math.nan),
        "+inf": _with_first(base, mate, math.inf),
        "-inf": _with_first(base, mate, -math.inf),
        "entry -1e-9": _with_first(base, mate, -1e-9, move_mass=True),
        "slice sums to 0.9": _with_first(base, mate, np.ravel(base)[0] - 0.1),
        "wrong shape": np.append(base, 0.0),
    }
    accepted = []
    for label, values in rejected.items():
        try:
            build(values)
        except ValueError:
            continue
        accepted.append(label)
    assert accepted == []

    stored = build(base)
    assert stored is None or np.array_equal(stored, base)
    stored = build(_with_first(base, mate, -TOL / 2, move_mass=True))
    if stored is not None:
        assert stored.flat[0] == 0.0 and not stored.flags.writeable


def test_setting_average_rejects_weights_outside_the_simplex():
    with pytest.raises(ValueError):
        marginal_after_setting_average(pr_box(), 0, [1.5, -0.5])


def test_replaced_variables_and_uncertainties_are_checked_again():
    v = Variable("v", (0, 1))
    with pytest.raises(ValueError, match="duplicate"):
        v._replace(domain=(0, 0))
    q = QUncertainty(v, (1.0, 0.0))._replace(weights=(0.25, 0.75))
    assert q.array.tolist() == [0.25, 0.75] and not q.array.flags.writeable
    assert q.mode == 1  # its own mode, not the one it was replaced from
    assert q._replace(variable=Variable("w", ("lo", "hi"))).mode == "hi"
    with pytest.raises(ValueError):
        q._replace(weights=(0.5, 0.6))

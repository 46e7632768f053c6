"""Finite discrete probability tables with tagged conditioning slots.

A :class:`TaggedJoint` is a joint distribution over named finite variables
together with the assignments it is conditioned on.  Every conditioning slot
carries a :class:`Modality` tag: ``FACTUAL`` for propositions the owner has
locally verified, ``COUNTERFACTUAL`` for propositions merely posited "if
true".  The tag never changes a number -- conditioning is ordinary
probability conditioning either way -- it changes what may be *claimed*
about the result, and downstream code reads the claim off the tags.

Rendering uses a double-bar grammar that is a stable text format:
counterfactual slots sit between two single bars, factual slots follow a
double bar, e.g. ``P_A(±b|θb|±a,θa,ψ0,t±)`` or ``P_A(±b,θb‖±a,θa,ψ0,t±)``.

What counts as a distribution is decided once, by :func:`distribution`:
every table, weight vector and prior in bellsim passes that one check.

All tables are immutable after construction and every operation is a pure
function, so values may be shared freely across threads.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from enum import Enum
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ImpossibleEvidenceError

#: Tolerance for every normalization / equality comparison in bellsim.
TOL = 1e-12


class Modality(Enum):
    FACTUAL = "factual"
    COUNTERFACTUAL = "counterfactual"


class Variable(namedtuple("Variable", "name domain")):
    """A named proposition with an ordered finite domain.

    The domain order is fixed and meaningful: it is used for deterministic
    tie-breaking in argmax queries and for the fixed cell order of samplers.
    """

    __slots__ = ()

    def __new__(cls, name: str, domain: tuple):
        if not domain:
            raise ValueError(f"variable {name!r} needs a non-empty domain")
        if len(set(domain)) != len(domain):
            raise ValueError(f"variable {name!r} has duplicate domain values")
        return super().__new__(cls, name, domain)

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks again

    def index(self, value) -> int:
        try:
            return self.domain.index(value)
        except ValueError:
            raise ValueError(f"{value!r} not in domain of {self.name!r}: {self.domain}") from None

    @classmethod
    def singleton(cls, label: str) -> "Variable":
        return cls(label, (label,))


class Conditioner(NamedTuple):
    """One conditioning slot: a variable pinned to a value, with its tag."""

    variable: Variable
    value: Any
    modality: Modality


def _check_names(free, conditioners) -> None:
    names = [v.name for v in free]
    if len(set(names)) != len(names):
        raise ValueError("free variables must have distinct names")
    cond_names = [c.variable.name for c in conditioners]
    if len(set(cond_names)) != len(cond_names):
        raise ValueError("conditioners must have distinct names")
    overlap = set(names) & set(cond_names)
    if overlap:
        raise ValueError(f"variables both free and conditioned: {sorted(overlap)}")


def distribution(values, shape, axes=None, *, empty_slices=False) -> np.ndarray:
    """A read-only, C-contiguous float copy of ``values``, checked to be a distribution.

    The copy must have exactly ``shape``, no entry below ``-TOL`` (entries in
    ``[-TOL, 0)`` are stored as 0), and every slice over ``axes`` -- the whole
    array when ``None`` -- must sum to 1 within ``TOL``; with
    ``empty_slices`` a slice may also sum to 0.  A NaN fails every
    comparison and an infinity fails the sum, so non-finite entries are
    rejected too.
    """
    arr = np.array(values, dtype=float, order="C")
    if arr.shape != shape:
        raise ValueError(f"probability array shape {arr.shape} does not match {shape}")
    if not arr.min(initial=0.0) >= -TOL:
        raise ValueError("probability entry below zero or not a number")
    np.maximum(arr, 0.0, out=arr)
    with np.errstate(over="ignore"):  # a sum past the float range is inf, and fails below
        sums = arr.sum(axis=axes)
    ok = abs(sums - 1.0) <= TOL
    if empty_slices:
        ok |= sums <= TOL
    if not ok.all():
        raise ValueError(f"probabilities sum to {float(np.asarray(sums)[~ok][0])!r}, not 1")
    arr.setflags(write=False)
    return arr


def _store(table, array, free, conditioners, label, free_names=None, given=None):
    """Set ``table``'s fields, its array made C-contiguous and read-only, and return it.

    Every table is stored here, whether a public constructor checked it or a
    kernel operation built it: so every array is laid out alike and later
    reductions over it add in the same order; no other reference may write it.
    A caller that knows the names of ``free`` passes them as ``free_names``,
    and otherwise they are built from ``free``.  A :class:`ConditionalTable`
    also takes its ``given`` variables.
    """
    array = np.asarray(array, order="C")
    array.setflags(write=False)
    table.array, table.free, table.conditioners, table.label = array, free, conditioners, label
    table.free_names = tuple([v.name for v in free]) if free_names is None else free_names
    if given is not None:
        table.given, table.given_names = given, tuple([v.name for v in given])
    return table


def _trusted(cls, array, free, conditioners, label, free_names=None, given=None):
    """A ``cls`` built positionally from the result of a kernel operation, without re-validating it.

    ``condition``, ``marginalize``, ``reorder``, ``relabel``, ``product``,
    ``condition_table``, ``reweight``, ``observers.receive`` and
    ``observers.pool`` only slice, sum, permute, relabel, renormalize or
    multiply tables or weights that already passed the public checks, so
    their results have the right shape, no negative entry and the right sums
    by construction.  The fields are stored by :func:`_store`.
    """
    return _store(object.__new__(cls), array, free, conditioners, label, free_names, given)


class TaggedJoint:
    """Joint distribution over free variables, given tagged conditioners."""

    __slots__ = ("free", "free_names", "conditioners", "array", "label")

    def __init__(
        self,
        free: Sequence[Variable],
        probabilities,
        conditioners: Sequence[Conditioner] = (),
        label: str = "",
    ):
        free = tuple(free)
        conditioners = tuple(conditioners)
        _check_names(free, conditioners)
        _store(self, distribution(probabilities, tuple(len(v.domain) for v in free)), free, conditioners, label)

    # -- lookups ---------------------------------------------------------

    def variable(self, name: str) -> Variable:
        for v in self.free:
            if v.name == name:
                return v
        raise KeyError(f"{name!r} is not a free variable of {self.render()}")

    def conditioned_value(self, name: str):
        for c in self.conditioners:
            if c.variable.name == name:
                return c.value
        raise KeyError(f"{name!r} is not a conditioner of {self.render()}")

    def prob(self, assignment: Mapping[str, Any]) -> float:
        """Probability of a full assignment of the free variables."""
        idx = tuple(v.index(assignment[v.name]) for v in self.free)
        return float(self.array[idx])

    # -- structure helpers ------------------------------------------------

    def relabel(self, label: str) -> "TaggedJoint":
        return _trusted(TaggedJoint, self.array, self.free, self.conditioners, label, self.free_names)

    def reorder(self, names: Sequence[str]) -> "TaggedJoint":
        """Permute the free variables into the given name order."""
        if sorted(names) != sorted(self.free_names):
            raise ValueError(f"reorder names {list(names)} must be a permutation of {self.free_names}")
        perm = [self.free_names.index(n) for n in names]
        free = tuple(self.free[i] for i in perm)
        return _trusted(TaggedJoint, np.transpose(self.array, perm), free, self.conditioners, self.label)

    def equals(self, other: "TaggedJoint") -> bool:
        """Entrywise equality, to ``TOL``, after aligning axes by variable name.

        Conditioners must match as (name, value) pairs; modality is ignored
        because the tag never carries numerical content.
        """
        if sorted(self.free, key=lambda v: v.name) != sorted(other.free, key=lambda v: v.name):
            return False

        def key(c):
            return (c.variable.name, c.value)

        if sorted(map(key, self.conditioners), key=repr) != sorted(map(key, other.conditioners), key=repr):
            return False
        return bool(np.max(np.abs(self.array - other.reorder(self.free_names).array), initial=0.0) <= TOL)

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Double-bar grammar: ``P_<obs>(<free>|<counterfactual>|<factual>)``.

        An empty counterfactual slot collapses the two bars into ``‖``; with
        no conditioners at all the bars disappear entirely.
        """
        head = f"P_{self.label}" if self.label else "P"
        free = ",".join(self.free_names)
        cf = ",".join(c.variable.name for c in self.conditioners if c.modality is Modality.COUNTERFACTUAL)
        fact = ",".join(c.variable.name for c in self.conditioners if c.modality is Modality.FACTUAL)
        if not self.conditioners:
            return f"{head}({free})"
        if cf:
            return f"{head}({free}|{cf}|{fact})"
        return f"{head}({free}‖{fact})"

    def __repr__(self):
        return f"<TaggedJoint {self.render()}>"


class ConditionalTable:
    """``p(free | given)`` on finite domains, with a conditioning context.

    The array axes are ordered free variables first, then given variables.
    Slices whose marginal vanished are stored as all-zero: the conditional is
    undefined there, and any product with a marginal must put zero mass on
    such slices (:func:`product`, and so :func:`bayes_invert`, raise
    :class:`ImpossibleEvidenceError` otherwise).  Variables are looked up by
    their string names throughout the kernel, and the free, given and
    conditioning names must all differ, as a :class:`TaggedJoint`'s do.
    """

    __slots__ = ("free", "free_names", "given", "given_names", "array", "conditioners", "label")

    def __init__(self, free, given, table, conditioners=(), label=""):
        free = tuple(free)
        given = tuple(given)
        conditioners = tuple(conditioners)
        _check_names(free + given, conditioners)
        shape = tuple(len(v.domain) for v in free + given)
        array = distribution(table, shape, tuple(range(len(free))), empty_slices=True)
        _store(self, array, free, conditioners, label, given=given)


# ---------------------------------------------------------------------------
# operations


def condition(d: TaggedJoint, assignment, modality: Modality = Modality.FACTUAL, *,
              context: tuple | None = None) -> TaggedJoint:
    """Move a free variable into the conditioners, pinned to ``value``, ahead of ``context``.

    Numerically this is plain conditioning by the product rule regardless of
    the tag.  Conditioning on a zero-probability assignment raises
    :class:`ImpossibleEvidenceError`; for factual receptions the caller turns
    that into a realism violation.  ``context``, the conditioners kept after
    the new one, is ``d``'s own unless given; a caller that gives it keeps
    every name distinct, as nothing checks it again.
    """
    name, value = assignment
    var = d.variable(name)
    axis = d.free_names.index(name)
    slab = np.take(d.array, var.index(value), axis=axis)
    norm = float(slab.sum())
    if norm <= TOL:
        raise ImpossibleEvidenceError(
            f"assignment {var.name}={value!r} has probability {norm:.3e} under {d.render()}"
        )
    rest, names = d.free[:axis] + d.free[axis + 1 :], d.free_names[:axis] + d.free_names[axis + 1 :]
    conds = (Conditioner(var, value, modality),) + (d.conditioners if context is None else context)
    return _trusted(TaggedJoint, slab / norm, rest, conds, d.label, names)


def marginalize(d: TaggedJoint, variable: str) -> TaggedJoint:
    """Sum a free variable out, by an ordered left-to-right fold.

    The result reads as "probability of the rest and (v or not v)": the
    disjunction over the full domain is certainly true, so nothing but the
    summed variable changes.
    """
    var = d.variable(variable)
    axis = d.free.index(var)
    moved = np.moveaxis(d.array, axis, 0)
    acc = np.array(moved[0], dtype=float, copy=True)
    for k in range(1, moved.shape[0]):
        acc = acc + moved[k]
    rest = d.free[:axis] + d.free[axis + 1 :]
    return _trusted(TaggedJoint, acc, rest, d.conditioners, d.label)


def keep_only(d: TaggedJoint, names: Iterable[str]) -> TaggedJoint:
    """Marginalize out every free variable not listed, then order as listed."""
    keep = list(names)
    out = d
    for n in list(out.free_names):
        if n not in keep:
            out = marginalize(out, n)
    return out.reorder([n for n in keep if n in out.free_names])


def condition_table(d: TaggedJoint, variable: str) -> ConditionalTable:
    """Rewrite the joint as ``p(rest | v)`` over v's whole domain."""
    var = d.variable(variable)
    axis = d.free.index(var)
    moved = np.moveaxis(d.array, axis, -1)
    n = len(var.domain)
    norms = moved.reshape(-1, n).sum(axis=0)
    out = np.divide(moved, norms, out=np.zeros_like(moved), where=norms > TOL)
    rest = d.free[:axis] + d.free[axis + 1 :]
    return _trusted(ConditionalTable, out, rest, d.conditioners, d.label, None, (var,))


def product(conditional: ConditionalTable, marginal: TaggedJoint) -> TaggedJoint:
    """Recombine ``p(rest | v)`` with a marginal over v into a joint.

    The conditional's given variables must be exactly the marginal's free
    variables.  Conditioning contexts are merged and must agree wherever they
    overlap.  A marginal that puts weight on a given value whose conditional
    slice is undefined (all zero) raises :class:`ImpossibleEvidenceError`:
    the joint gave that value probability zero.
    """
    if sorted(conditional.given_names) != sorted(marginal.free_names):
        raise ValueError(
            f"conditioning variables {conditional.given_names} do not match "
            f"marginal's free variables {marginal.free_names}"
        )
    aligned = marginal.reorder(conditional.given_names)
    undefined = conditional.array.reshape(-1, *aligned.array.shape).sum(axis=0) <= TOL
    stray = float(aligned.array[undefined].sum())
    if stray > TOL:
        raise ImpossibleEvidenceError(
            f"marginal puts {stray:.3e} on values of {', '.join(conditional.given_names)} "
            f"that have probability zero"
        )
    out = conditional.array * aligned.array
    merged = list(conditional.conditioners)
    have = {c.variable.name: c for c in merged}
    for c in marginal.conditioners:
        prev = have.get(c.variable.name)
        if prev is None:
            merged.append(c)
        elif prev.value != c.value:
            raise ValueError(f"conflicting conditioner {c.variable.name!r}")
    free = conditional.free + conditional.given
    merged = tuple(merged)
    _check_names(free, merged)
    return _trusted(TaggedJoint, out, free, merged, conditional.label or marginal.label)


def reweight(d: TaggedJoint, variable: str, weights, *, context: tuple | None = None) -> TaggedJoint:
    """Jeffrey's rule on the live support: ``product(condition_table(d, v), q')`` in ``d``'s own axis order.

    It is one rescale of the table by ``q'(v) / p(v)`` along v's axis, for
    checked weights ``q`` kept on the values whose marginal ``p(v)`` is live
    and renormalised, ``q'(v) ∝ q(v)·[p(v) > 0]``; with no dead value ``q'`` is
    ``q`` and the rescale a plain ``/``.  The marginal is one ``np.add.reduce``
    over the other axes, and the scale is broadcast along v's axis by a
    ``reshape``; v is looked up by name alone, and :meth:`TaggedJoint.variable`
    runs only to raise for a name that is not free.  Weights with no mass on a
    live value raise :class:`ImpossibleEvidenceError`.  The result's conditioners are
    ``context``, ``d``'s own unless given; a caller that gives it keeps every
    name distinct, as nothing checks it again.
    """
    if variable not in d.free_names:
        d.variable(variable)  # raises the KeyError that names the table
    axis, ndim = d.free_names.index(variable), d.array.ndim
    marginal = np.add.reduce(d.array, axis=(*range(axis), *range(axis + 1, ndim)))
    if min(marginal.tolist()) > TOL:  # every value live; a Python min of a few floats beats ndarray.all()
        scale = weights / marginal
    else:
        live = marginal > TOL
        weights = np.where(live, weights, 0.0)
        mass = float(weights.sum())
        if mass <= TOL:
            raise ImpossibleEvidenceError(f"weights put no mass on the values of {variable} of nonzero probability")
        scale = np.divide(weights / mass, marginal, out=np.zeros(len(marginal)), where=live)
    scale = scale.reshape((-1,) + (1,) * (ndim - 1 - axis))  # along v's axis, broadcast over the rest
    conds = d.conditioners if context is None else context
    return _trusted(TaggedJoint, d.array * scale, d.free, conds, d.label, d.free_names)


def bayes_invert(prior: TaggedJoint, likelihood: ConditionalTable, observed,
                 modality: Modality = Modality.FACTUAL) -> TaggedJoint:
    """Posterior over the prior's variables given one observed value.

    ``likelihood`` must be ``p(b | a...)`` with a single free variable b and
    given variables exactly the prior's free variables; the result is
    ``p(a... | b=observed) = p(b|a...) p(a...) / p(b)``: :func:`product` then
    :func:`condition`, in the prior's axis order, with their rules.  A prior
    weight on an undefined likelihood slice, or evidence of probability zero,
    raises :class:`ImpossibleEvidenceError`; a conditioner pinned to two values
    raises ``ValueError``.
    """
    if len(likelihood.free) != 1:
        raise ValueError("likelihood must have exactly one free variable")
    (b,) = likelihood.free
    return condition(product(likelihood, prior), (b.name, observed), modality).reorder(prior.free_names)


# ---------------------------------------------------------------------------
# factorization enumeration


class Factorization(NamedTuple):
    """Chain-rule rewrite ``p(B1|B2..Bm) p(B2|B3..Bm) ... p(Bm)``.

    Blocks are disjoint groups of free variables; an all-singleton block list
    is an ordinary chain ordering.
    """

    blocks: tuple

    def describe(self) -> str:
        parts = []
        for k, block in enumerate(self.blocks):
            head = ",".join(v.name for v in block)
            tail = ",".join(v.name for b in self.blocks[k + 1 :] for v in b)
            parts.append(f"p({head}|{tail})" if tail else f"p({head})")
        return "".join(parts)

    def remultiply(self, d: TaggedJoint) -> np.ndarray:
        """Evaluate the chain and return the joint array aligned to ``d``.

        Factors on zero-probability context cells use the 0/0 -> 0
        convention, so the product reproduces the original table exactly on
        its support and stays zero off it.
        """
        arr = d.array
        axes = {v.name: i for i, v in enumerate(d.free)}

        def marg(keep_names):
            drop = tuple(i for n, i in axes.items() if n not in keep_names)
            return arr.sum(axis=drop, keepdims=True) if drop else arr

        result = np.ones((1,) * arr.ndim)
        suffix: set = set()
        for block in reversed(self.blocks):
            names = {v.name for v in block}
            upper = marg(suffix | names)
            lower = marg(suffix) if suffix else np.ones((1,) * arr.ndim)
            with np.errstate(divide="ignore", invalid="ignore"):
                factor = np.where(lower > 0.0, upper / np.where(lower > 0.0, lower, 1.0), 0.0)
            result = result * factor
            suffix |= names
        return result


def enumerate_factorizations(d: TaggedJoint, ordered_blocks: bool = False) -> tuple:
    """All chain-rule rewrites of the joint.

    With ``ordered_blocks=False``: the n! single-variable chain orderings.
    With ``ordered_blocks=True``: every ordered partition of the variables
    into blocks, from the single-block identity to the fully factored chains.
    """
    if not d.free:
        raise ValueError("cannot factorize a joint with no free variables")
    if not ordered_blocks:
        return tuple(
            Factorization(tuple((v,) for v in perm)) for perm in itertools.permutations(d.free)
        )

    def partitions(items):
        if not items:
            yield ()
            return
        first, rest = items[0], items[1:]
        for r in range(len(rest) + 1):
            for extra in itertools.combinations(rest, r):
                block = (first,) + extra
                remainder = tuple(v for v in rest if v not in extra)
                for tail in partitions(remainder):
                    yield (block,) + tail

    out = []
    for part in partitions(d.free):
        for ordering in itertools.permutations(part):
            out.append(Factorization(ordering))
    return tuple(out)

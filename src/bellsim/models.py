"""Correlation sources for two-wing experiments and their locality diagnostics.

A :class:`Behavior` is the conditional table ``p(a, b | x, y)`` over binary
outcomes on a finite grid of settings per wing.  This module provides the
stock sources (entangled singlet, the maximally nonlocal box, hidden-variable
mixtures), correlators and the signed four-term combination, the
marginal-setting-independence check, and exact membership in the local
polytope for the two-setting/two-outcome scenario.
"""

from __future__ import annotations

import csv
import io
import itertools
from typing import NamedTuple

import numpy as np

from .angles import Angle, cos_between, setting_from_text, setting_text
from .errors import MissingDataError, UnsupportedScenarioError
from .probability import TOL, distribution

#: Fixed outcome order for every table axis: index 0 is +1, index 1 is -1.
OUTCOMES = (1, -1)

#: Fixed order of a setting pair's four cells ``(a, b)``, row-major over the
#: ``[a, b]`` axes, for every table, sampler and file: in the threshold sampler,
#: cell ``j + 1`` starts where the running sum of cells ``0 .. j`` ends.
CELL_OUTCOMES = tuple(itertools.product(OUTCOMES, repeat=2))

FACET_TOL = 1e-9

#: Signs of the signed sum's four terms, in the order of :meth:`ChshSettings.pairs`.
CHSH_SIGNS = (1.0, 1.0, 1.0, -1.0)


def _grid_index(grid: tuple, setting) -> int:
    try:
        return grid.index(setting)
    except ValueError:
        raise ValueError(f"setting {setting!r} not in grid {grid}") from None


class Behavior:
    """``p(a, b | x, y)`` stored as an array indexed ``[x, y, a, b]``."""

    __slots__ = ("grid_a", "grid_b", "table")

    def __init__(self, grid_a, grid_b, table):
        self.grid_a = tuple(grid_a)
        self.grid_b = tuple(grid_b)
        self.table = distribution(table, (len(self.grid_a), len(self.grid_b), 2, 2), (2, 3))

    def slice(self, x, y) -> np.ndarray:
        """2x2 outcome table at a setting pair, rows a, columns b."""
        return self.table[_grid_index(self.grid_a, x), _grid_index(self.grid_b, y)]

    def prob(self, x, y, a, b) -> float:
        return float(self.slice(x, y)[OUTCOMES.index(a), OUTCOMES.index(b)])

    def pairs(self):
        return tuple(itertools.product(self.grid_a, self.grid_b))


class LhvModel(NamedTuple):
    """Hidden-variable mixture: prior over a finite cause, per-wing responses.

    ``response_a[x, lam, a]`` is ``p(a | x, lam)`` and likewise for b; the
    induced behavior factorizes through the cause by construction.
    """

    lambda_domain: tuple
    prior: tuple
    response_a: tuple  # shape (nx, nlam, 2) nested
    response_b: tuple  # shape (ny, nlam, 2) nested

    TABLES = ("prior", "response_a", "response_b")

    def table(self, field: str) -> np.ndarray:
        """One of the :attr:`TABLES` fields as an array, checked by :func:`distribution`."""
        values, nlam = getattr(self, field), len(self.lambda_domain)
        if field == "prior":
            return distribution(values, (nlam,))
        return distribution(values, (len(values), nlam, 2), 2)

    def arrays(self):
        return tuple(map(self.table, self.TABLES))


class ChshSettings(NamedTuple):
    """The four setting pairs entering the signed sum, signs (+, +, +, -).

    The single negative sign sits on the (x1, y1) term.
    """

    x0: object
    x1: object
    y0: object
    y1: object

    signs = CHSH_SIGNS  # not a field: the terms' signs, in the order of pairs()

    def pairs(self):
        return ((self.x0, self.y0), (self.x1, self.y0), (self.x0, self.y1), (self.x1, self.y1))

    def grids(self):
        """The two-setting grids ``((x0, x1), (y0, y1))`` these settings span."""
        return (self.x0, self.x1), (self.y0, self.y1)


# ---------------------------------------------------------------------------
# sources


def singlet_behavior(grid_a, grid_b=None) -> Behavior:
    """Entangled spin-anticorrelated pair measured at angle settings.

    ``p = 1/4 + (same-sign ? -1 : +1) * cos(x - y) / 4`` for outcomes in
    {+1, -1}; equal angles are perfectly anti-correlated.
    """
    grid_a = tuple(grid_a)
    grid_b = tuple(grid_b) if grid_b is not None else grid_a
    table = [
        0.25 + (1.0 if a == -b else -1.0) * c / 4.0
        for c in itertools.starmap(cos_between, itertools.product(grid_a, grid_b))
        for a, b in CELL_OUTCOMES
    ]
    return Behavior(grid_a, grid_b, np.reshape(table, (len(grid_a), len(grid_b), 2, 2)))


def pr_box() -> Behavior:
    """The no-signaling behavior that drives the signed sum to 4.

    Settings are binary labels {0, 1}; with outcomes mapped +1 -> 0, -1 -> 1,
    the outcome bits always satisfy ``a xor b = x and y`` (the outcomes differ
    exactly when ``x = y = 1``) and each admissible cell has weight 1/2.
    """
    table = [
        0.5 if (a != b) == (x & y) else 0.0
        for x, y in itertools.product((0, 1), repeat=2)
        for a, b in CELL_OUTCOMES
    ]
    return Behavior((0, 1), (0, 1), np.reshape(table, (2, 2, 2, 2)))


def lhv_behavior(model: LhvModel, grid_a=None, grid_b=None) -> Behavior:
    """Marginalize the hidden cause out of a factorizing model."""
    p, ra, rb = model.arrays()
    table = np.einsum("l,xla,ylb->xyab", p, ra, rb)
    grid_a = tuple(grid_a) if grid_a is not None else tuple(range(ra.shape[0]))
    grid_b = tuple(grid_b) if grid_b is not None else tuple(range(rb.shape[0]))
    return Behavior(grid_a, grid_b, table)


def deterministic_lhv_models():
    """All 16 deterministic response pairs of the two-setting scenario.

    Each wing's strategy is one of the four functions from a binary setting
    to a fixed outcome; the hidden domain is a single point.
    """
    outcomes = OUTCOMES
    strategies = list(itertools.product(outcomes, repeat=2))  # value at x=0, x=1
    models = []
    for sa, sb in itertools.product(strategies, repeat=2):
        ra = [[[1.0 if o == sa[x] else 0.0 for o in outcomes]] for x in range(2)]
        rb = [[[1.0 if o == sb[y] else 0.0 for o in outcomes]] for y in range(2)]
        models.append(LhvModel(("lam0",), (1.0,), tuple(map(tuple, ra)), tuple(map(tuple, rb))))
    return tuple(models)


# ---------------------------------------------------------------------------
# diagnostics


def correlators(table) -> np.ndarray:
    """``sum_ab a b t[..., a, b]`` for any table ``t`` whose last two axes are the outcomes.

    Every correlator in bellsim, analytic, counted or from a ledger, is this
    one reduction, so equal cells always give equal bits.
    """
    t = np.asarray(table)
    return ((t[..., 0, 0] - t[..., 0, 1]) - t[..., 1, 0]) + t[..., 1, 1]


def chsh_sum(terms, weights=None) -> float:
    """``sum_k w_k s_k terms[k]``, added in term order, with ``s`` the :data:`CHSH_SIGNS`.

    Every signed sum in bellsim is this one fold; ``weights`` defaults to 1.
    """
    total = 0.0
    for term, sign, w in zip(terms, CHSH_SIGNS, weights if weights is not None else (1.0,) * 4):
        total += float(w) * sign * float(term)
    return total


def correlator(behavior: Behavior, x, y) -> float:
    """Signed-outcome expectation ``sum_ab a b p(a,b|x,y)``; lies in [-1, 1]."""
    return float(correlators(behavior.slice(x, y)))


def chsh_value(behavior: Behavior, settings: ChshSettings) -> float:
    """The signed four-correlator sum; at most 2 for any factorizing model."""
    return chsh_sum([correlator(behavior, x, y) for x, y in settings.pairs()])


def chsh_expectation(behavior: Behavior, settings: ChshSettings, prior=None) -> float:
    """The same bound written as a single expectation over outcomes and settings.

    ``prior`` weights the four setting pairs (uniform by default, giving a
    quarter of the signed sum and a bound of 1/2 for factorizing models).
    """
    weights = distribution(prior if prior is not None else [0.25] * 4, (4,))
    return chsh_sum([correlator(behavior, x, y) for x, y in settings.pairs()], weights)


class NoSignalingReport(NamedTuple):
    max_deviation: float
    marginal_setting_independent: bool
    tol: float

    @property
    def passed(self) -> bool:
        return self.marginal_setting_independent


def marginal_spreads(table, n_per_pair=1.0) -> tuple:
    """The largest spread of ``p(a|x, y)`` over y and of ``p(b|x, y)`` over x.

    ``table`` is indexed ``[x, y, a, b]``: probabilities, or counts of
    ``n_per_pair[x, y]`` trials each, summed before they are divided.
    """
    n = np.asarray(n_per_pair, dtype=float)[..., None]
    pa, pb = table.sum(axis=3) / n, table.sum(axis=2) / n  # [x, y, a], [x, y, b]
    return (
        float(np.max(pa.max(axis=1) - pa.min(axis=1), initial=0.0)),
        float(np.max(pb.max(axis=0) - pb.min(axis=0), initial=0.0)),
    )


def check_no_signaling(behavior: Behavior) -> NoSignalingReport:
    """Check each wing's outcome marginal for dependence on the far setting.

    Despite the traditional name, what is tested is marginal measurement
    setting independence: ``p(a|x,y)`` must not vary with y, and ``p(b|x,y)``
    must not vary with x.
    """
    max_dev = max(marginal_spreads(behavior.table))
    return NoSignalingReport(max_dev, max_dev <= TOL, TOL)


class FactorizabilityReport(NamedTuple):
    is_local: bool
    max_facet: float
    worst_signs: tuple
    no_signaling: NoSignalingReport
    tol: float


def check_factorizable(behavior: Behavior) -> FactorizabilityReport:
    """Exact local-polytope membership for the two-setting/two-outcome case.

    A behavior admits a factorizing hidden-variable explanation iff it is
    marginally setting independent and every sign variant of the four-term
    facet stays within 2.  Larger grids are not supported here.
    """
    if len(behavior.grid_a) != 2 or len(behavior.grid_b) != 2:
        raise UnsupportedScenarioError(
            "local-polytope membership requires exactly two settings per wing"
        )
    ns = check_no_signaling(behavior)
    # the four terms in the order of ChshSettings.pairs: x0y0, x1y0, x0y1, x1y1
    terms = correlators(behavior.table).T.ravel()
    # a facet's signs, an odd number of them negative, go in as the fold's
    # weights times CHSH_SIGNS, so the fold's own signs cancel out
    max_facet, worst_signs = -1.0, None
    for signs in itertools.product((1.0, -1.0), repeat=4):
        if signs[0] * signs[1] * signs[2] * signs[3] >= 0:
            continue
        value = abs(chsh_sum(terms, np.multiply(signs, CHSH_SIGNS)))
        if value > max_facet:
            max_facet, worst_signs = value, signs
    is_local = bool(ns.passed and max_facet <= 2.0 + FACET_TOL)
    return FactorizabilityReport(is_local, max_facet, worst_signs, ns, FACET_TOL)


def marginal_after_setting_average(behavior: Behavior, x, far_prior) -> np.ndarray:
    """``sum_y p(a|x, y) p(y)``: the far-setting average of a wing marginal.

    Equals ``p(a|x, y')`` for every y' exactly when the marginal is setting
    independent; conflating the two in general confuses an average with an
    invariance.
    """
    weights = distribution(far_prior, (len(behavior.grid_b),))
    pa = behavior.table[_grid_index(behavior.grid_a, x)].sum(axis=2)  # [y, a]
    return np.einsum("y,ya->a", weights, pa)


# ---------------------------------------------------------------------------
# serialization: one row per (x, y, a, b) with its probability


def behavior_to_csv(behavior: Behavior) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["x", "y", "a", "b", "p"])
    for (x, y), cells in zip(behavior.pairs(), behavior.table.reshape(-1, 4).tolist()):
        for (a, b), p in zip(CELL_OUTCOMES, cells):
            writer.writerow([setting_text(x), setting_text(y), a, b, repr(p)])
    return out.getvalue()


def behavior_from_csv(text: str) -> Behavior:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or [c.strip() for c in rows[0]] != ["x", "y", "a", "b", "p"]:
        raise ValueError("behavior file must start with header x,y,a,b,p")
    grid_a, grid_b = [], []
    cells = {}
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 5:
            raise ValueError(f"line {line_no}: expected 5 columns")
        x = setting_from_text(row[0])
        y = setting_from_text(row[1])
        a, b = int(row[2]), int(row[3])
        if a not in OUTCOMES or b not in OUTCOMES:
            raise ValueError(f"line {line_no}: outcomes must be +1 or -1")
        if x not in grid_a:
            grid_a.append(x)
        if y not in grid_b:
            grid_b.append(y)
        if (x, y, a, b) in cells:
            raise ValueError(f"line {line_no}: cell x={setting_text(x)} y={setting_text(y)} a={a} b={b} "
                             f"repeats line {cells[(x, y, a, b)][0]}")
        cells[(x, y, a, b)] = line_no, float(row[4])
    table = []
    for x, y, (a, b) in itertools.product(grid_a, grid_b, CELL_OUTCOMES):
        try:
            table.append(cells[(x, y, a, b)][1])
        except KeyError:
            raise MissingDataError(
                f"behavior file lacks cell x={setting_text(x)} y={setting_text(y)} a={a} b={b}"
            ) from None
    return Behavior(grid_a, grid_b, np.reshape(table, (len(grid_a), len(grid_b), 2, 2)))


def optimal_singlet_settings() -> ChshSettings:
    """Angle choices that drive the singlet's signed sum to magnitude 2*sqrt(2)."""
    return ChshSettings(
        x0=Angle.of(0), x1=Angle.of(1, 2), y0=Angle.of(1, 4), y1=Angle.of(-1, 4)
    )


def pr_box_settings() -> ChshSettings:
    return ChshSettings(x0=0, x1=1, y0=0, y1=1)

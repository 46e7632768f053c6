"""Desk-scale simulator of two-observer correlation experiments.

Per-observer probability ledgers tag every conditioning slot as factual
(locally received) or counterfactual (posited), events propagate no faster
than light, and the standard nonlocality diagnostics run on both analytic
tables and sampled data.
"""

from .angles import Angle
from .config import ExperimentConfig, build_model, parse_config
from .errors import (
    ConfigError,
    ImpossibleEvidenceError,
    InvalidScheduleError,
    MissingDataError,
    RealismViolationError,
    SimulationError,
    UnsupportedScenarioError,
)
from .harness import (
    ChshEstimate,
    Dataset,
    EstimatedBehavior,
    TrialRecord,
    TrialTrace,
    ViolationClass,
    ViolationReport,
    classify_violation,
    dataset_to_csv,
    estimate_behavior,
    estimate_chsh,
    run_experiment,
    run_trial,
)
from .models import (
    Behavior,
    ChshSettings,
    LhvModel,
    behavior_from_csv,
    behavior_to_csv,
    check_factorizable,
    check_no_signaling,
    chsh_expectation,
    chsh_value,
    correlator,
    deterministic_lhv_models,
    lhv_behavior,
    optimal_singlet_settings,
    pr_box,
    pr_box_settings,
    singlet_behavior,
)
from .observers import (
    ObserverState,
    PooledState,
    QUncertainty,
    Stage,
    StageTable,
    init_beliefs,
    inquire,
    ledger_chsh_expectation,
    pool,
    receive,
    retrodict,
    stage_table,
)
from .probability import (
    ConditionalTable,
    Conditioner,
    Factorization,
    Modality,
    TaggedJoint,
    Variable,
    bayes_invert,
    condition,
    condition_table,
    enumerate_factorizations,
    keep_only,
    marginalize,
    product,
)
from .spacetime import (
    Detection,
    IntervalKind,
    Message,
    Schedule,
    SettingChoice,
    SpacetimeEvent,
    StatePreparation,
    Worldline,
    build_schedule,
    interval,
    reception_order,
    reception_time,
)

__version__ = "0.1.0"

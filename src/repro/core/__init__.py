"""Core game model: the paper's primary contribution.

Exports the building blocks of the alert-prioritization Stackelberg game
(Section II of Yan et al., ICDE 2018): alert types, entities, the
attack→type map, payoffs, audit policies, the detection kernel and the
:class:`AuditGame` facade.
"""

from .alert_types import AlertType, AlertTypeSet
from .attack_map import BENIGN, AttackTypeMap
from .detection import (
    OrderingPricer,
    pal_for_ordering,
    pal_for_orderings,
    realized_audit,
)
from .entities import Adversary, Event, Victim
from .pal_table import (
    LazyPalTable,
    PalEntryStore,
    PalTable,
    subset_table_pays,
)
from .game import AuditGame, make_game
from .objective import (
    REFRAIN,
    BestResponse,
    PolicyEvaluation,
    best_response_arrays,
    best_responses,
    evaluate_policy,
    expected_utility_matrix,
    utility_matrix_for_pal,
)
from .payoffs import PayoffModel
from .policy import (
    AuditPolicy,
    Ordering,
    PurePolicy,
    all_orderings,
    random_ordering,
    validate_thresholds,
)

__all__ = [
    "AlertType",
    "AlertTypeSet",
    "AttackTypeMap",
    "AuditGame",
    "AuditPolicy",
    "Adversary",
    "BENIGN",
    "BestResponse",
    "Event",
    "Ordering",
    "OrderingPricer",
    "LazyPalTable",
    "PalEntryStore",
    "PalTable",
    "PayoffModel",
    "PolicyEvaluation",
    "PurePolicy",
    "REFRAIN",
    "Victim",
    "all_orderings",
    "best_response_arrays",
    "best_responses",
    "evaluate_policy",
    "expected_utility_matrix",
    "make_game",
    "pal_for_ordering",
    "pal_for_orderings",
    "random_ordering",
    "realized_audit",
    "subset_table_pays",
    "utility_matrix_for_pal",
    "validate_thresholds",
]

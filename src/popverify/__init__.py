"""Verification toolkit for population protocols.

Multiset configurations, protocol specifications across six interaction
models, concrete protocol constructions, model-to-model compilers, an
exhaustive finite-population verifier, and a semilinear predicate engine,
all also reachable through the ``popverify`` command.
"""

from .models import (
    EmptyInput,
    InvalidModel,
    ModelKind,
    ProtocolSpec,
    RuleSet,
    compile_rules,
    generalize_kind,
    initial_config,
    specialization_chain,
    validate_model,
)
from .multiset import Multiset, NotIncluded
from .protocols import (
    AlphabetMismatch,
    KindMismatch,
    SetUnionProtocol,
    as_delayed_observation,
    build_delayed_transmission,
    build_modulo,
    build_set_union,
    build_simple_threshold,
    build_threshold_avg,
    detect,
    product,
)
from .semilinear import (
    And,
    Const,
    LinearSet,
    Member,
    Modulo,
    Not,
    Or,
    PredicateExpr,
    PredicateParseError,
    SemilinearSet,
    Threshold,
    brute_equivalent,
    dot,
    parse_predicate,
    simple_threshold,
)
from .transforms import (
    SimulationCertificate,
    io_add_mirrors,
    io_remove_mirrors,
    two_way_to_queued,
    two_way_to_queued_tokens,
)
from .verifier import (
    BudgetExceeded,
    ReachabilityGraph,
    Trace,
    UnstableAnalysis,
    Verdict,
    VerificationReport,
    enumerate_configs,
    enumerate_inputs,
    explore,
    fair_run,
    label_stability,
    local_fair_run,
    minimal_unstable,
    sweep,
    verdict,
)

__version__ = "0.1.0"

"""Structure, closedness classification, and shift topologization of
finite and stream semigroups."""

from .core import (
    DEFAULT_BUDGET,
    BoundedSet,
    Budget,
    CarrierSet,
    FiniteSemigroup,
    StreamSemigroup,
    adjoin_identity,
    adjoin_zero,
    build_finite,
    build_stream,
    center,
    central_idempotents,
    clifford_parts,
    direct_product,
    idempotents,
    is_finite,
    longest_chain,
    natural_order,
    power_projection,
    restrict,
)
from .predicates import FAILS, HOLDS, UNKNOWN, Verdict, evaluate_suite
from .classify import ClassificationReport, classify, implication_violations
from .topology import (
    EBase,
    ShiftNeighborhood,
    certify_topology,
    find_nonisolated_idempotent,
    is_regular,
    left_quotient,
    replay_certificate,
    shift,
    topologizability_verdict,
)
from .corpus import (
    ReportDocument,
    dedupe_iso,
    enumerate_classes,
    enumerate_finite,
    parse_cayley,
    read_report,
    scan_corpus,
    write_report,
)
from . import builders, errors

__version__ = "0.1.0"

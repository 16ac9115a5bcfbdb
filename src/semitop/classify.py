"""Closedness classification built from the characterization rules.

Each rule is a conjunction of predicate verdicts, valid as an equivalence
only over commutative inputs.  A finite input has every closedness
property, whatever its center: its images are finite, so closed in every
T1 space.  Noncommutative streams still get definite negatives through the
center: failure of a necessary condition on the center subsemigroup
refutes every closedness property downstream of it.  Everything else
stays Unknown rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import (
    DEFAULT_BUDGET,
    Budget,
    bounded_view,
    build_stream,
    is_finite,
    restrict,
)
from .predicates import (
    FAILS,
    HOLDS,
    UNKNOWN,
    Verdict,
    _declared,
    _guard_declaration,
    conjunction_status,
    evaluate_suite,
    negation_status,
)

THEOREM_RULES = {
    # closed in every host class between the zero-separation and T1 classes
    "C_closed": ("chain_finite", "nonsingular", "periodic", "group_bounded"),
    "ideally_projectively_closed": ("chain_finite", "group_bounded",
                                    "clifford_plus_finite"),
    "injective_T1S": ("commutative", "bounded", "nonsingular", "clifford_finite"),
    "injective_T2S": ("chain_finite", "group_finite", "bounded", "nonsingular",
                      "!clifford_singular"),
}

# one-idempotent specializations, which agree with the general rules
UNIPOTENT_RULES = {
    "unipotent_C_closed": ("bounded", "nonsingular"),
    "unipotent_injective_C_closed": ("bounded", "nonsingular", "group_finite"),
}

# sound one-way implications between the classified properties
CHAIN_EDGES = [
    ("absolute_T1S", "injective_T1S"),
    ("injective_T1S", "ideally_projectively_closed"),
    ("ideally_projectively_closed", "C_closed"),
    ("injective_T1S", "injective_T2S"),
    ("injective_T2S", "C_closed"),
]


@dataclass
class CenterAnalysis:
    """Necessary-condition analysis of the center subsemigroup."""

    empty: bool
    prefix_certified: bool
    suite: Optional[dict]
    closed_necessary: Optional[Verdict]
    injective_necessary: Optional[Verdict]
    center_finite: Verdict


@dataclass
class ClassificationReport:
    name: str
    commutative: Verdict
    unipotent: Verdict
    finite: Verdict
    suite: dict
    theorems: dict
    center: CenterAnalysis
    notes: list = field(default_factory=list)


def finiteness(S, budget=DEFAULT_BUDGET):
    """Is the carrier finite?  Exhaustion of the view's pool within
    ``elements`` codes certifies yes, and like every search answer must
    agree with a declared ``finite``; otherwise a declaration decides, else
    Unknown at bound."""
    if is_finite(S):
        return Verdict(HOLDS, "finite", {"kind": "finite", "size": S.size}, budget)
    probe = bounded_view(S, budget).pool.first(budget.elements + 1)
    if len(probe) <= budget.elements:
        _guard_declaration(S, "finite", HOLDS)
        return Verdict(HOLDS, "search",
                       {"kind": "enumerator_exhausted", "size": len(probe)}, budget)
    return _declared(S, "finite", budget, {"prefix_at_least": len(probe)}) or Verdict(
        UNKNOWN, "search", {"kind": "prefix_only", "prefix_at_least": len(probe)}, budget)


def center_subsemigroup(S, budget=DEFAULT_BUDGET):
    """A handle for the center, or None when it is empty (certified on
    finite handles; on streams, no central code among the first
    ``max(elements, steps)``), and whether the answer is exact.

    Commutative handles are their own center.  A finite handle restricts
    exactly; its center and commutativity come from one transposition of
    the table, kept on the handle.  A stream's handle enumerates the codes
    among the first ``depth`` of the view's pool that pass the view's
    pointwise centrality test.  That test is the stream's exact center test
    when it gives one, as a product reads its center off its factors, and
    costs no products; otherwise it is sound only at bound.  Declared
    center facts ride along via ``center_facts``."""
    if is_finite(S):
        if S.commutative:
            return S, True
        codes = S.center_codes
        if not codes:
            return None, True
        sub, _ = restrict(S, codes)
        return sub, True
    facts = S.declared_facts or {}
    if facts.get("commutative"):
        return S, False
    view = bounded_view(S, budget)
    codes = view.pool.where(view.central, view.depth)
    if not codes.first(1):
        return None, False
    return build_stream(f"center({S.name})", S.mul_fn, lambda: codes.walk(view.depth),
                        S.label_fn, declared_facts=S.center_facts or {}), False


def _pick_source(verdicts, status):
    verdicts = tuple(verdicts)
    if status == FAILS:
        for v in verdicts:
            if v.fails:
                return v.source
    if all(v.source == "finite" for v in verdicts):
        return "finite"
    if any(v.source == "declared" for v in verdicts):
        return "declared"
    return "search"


def _conjunction_verdict(suite, criteria, budget, extra_note=""):
    parts = []
    for crit in criteria:
        v = suite[crit.lstrip("!")]
        status = negation_status(v.status) if crit.startswith("!") else v.status
        parts.append((crit, status, v))
    status = conjunction_status(s for _, s, _ in parts)
    witness = {
        "kind": "conjunction",
        "criteria": list(criteria),
        "failing": [c for c, s, _ in parts if s == FAILS],
        "unknown": [c for c, s, _ in parts if s == UNKNOWN],
    }
    source = _pick_source([v for _, _, v in parts], status)
    return Verdict(status, source, witness, budget, note=extra_note)


def _center_blocked(kind, analysis, budget):
    """Definite negative propagated from the center, if any."""
    if kind in ("C_closed", "ideally_projectively_closed"):
        necessary = analysis.closed_necessary
    else:
        necessary = analysis.injective_necessary
    if necessary is not None and necessary.fails:
        return Verdict(FAILS, necessary.source,
                       {"kind": "center_necessary", "failing": necessary.witness},
                       budget, note="a necessary condition fails on the center")
    if kind == "absolute_T1S" and analysis.center_finite.fails:
        return Verdict(FAILS, analysis.center_finite.source,
                       {"kind": "center_infinite",
                        "evidence": analysis.center_finite.witness},
                       budget, note="the center is infinite")
    return None


def center_necessary_conditions(S, budget=DEFAULT_BUDGET, suite=None):
    """Evaluate the predicate suite on the center and derive the negatives
    it forces for the whole semigroup.  ``suite`` lets a caller share an
    already computed suite when the center is the whole carrier."""
    handle, exact = center_subsemigroup(S, budget)
    # on a stream, an infinite center may start past the probe, or go on past it
    scanned = max(budget.elements, budget.steps)
    if handle is None:
        # a probe that found no central code refutes no declared center:
        # an infinite one may start past it
        probe = {"kind": "center_probe_empty", "scanned": scanned}
        cfin = (Verdict(HOLDS, "finite", {"kind": "empty_center"}, budget) if exact
                else _declared(S, "center_finite", budget, probe)
                or Verdict(UNKNOWN, "search", probe, budget))
        return CenterAnalysis(empty=True, prefix_certified=not exact, suite=None,
                              closed_necessary=None, injective_necessary=None,
                              center_finite=cfin)
    if handle is S:
        csuite = suite or evaluate_suite(handle, budget)
        cfin = finiteness(S, budget)
    else:
        small = Budget(elements=min(128, budget.elements),
                       steps=min(2048, budget.steps))
        csuite = evaluate_suite(handle, small)
        if not (exact or bounded_view(S, budget).pool.dry) and len(
                bounded_view(handle, small).pool.first(small.elements + 1)) <= small.elements:
            # the handle ran out at the view's depth, not at the center's end
            cfin = Verdict(UNKNOWN, "search",
                           {"kind": "center_probe_capped", "scanned": scanned}, budget)
        else:
            cfin = finiteness(handle, small)
        if cfin.status == UNKNOWN:
            cfin = _declared(S, "center_finite", budget) or cfin
    closed = _conjunction_verdict(
        csuite, ("chain_finite", "periodic", "nonsingular"), budget,
        extra_note="necessary on the center for closedness")
    injective = _conjunction_verdict(
        csuite, ("chain_finite", "periodic", "nonsingular", "group_finite"), budget,
        extra_note="necessary on the center for injective closedness")
    return CenterAnalysis(empty=False, prefix_certified=not exact,
                          suite=csuite, closed_necessary=closed,
                          injective_necessary=injective, center_finite=cfin)


def classify(S, budget=DEFAULT_BUDGET, name=None):
    """Full classification: predicate suite, rule verdicts, center analysis."""
    suite = evaluate_suite(S, budget)
    commutative = suite["commutative"]
    unip = suite["unipotent"]
    fin = finiteness(S, budget)
    center = center_necessary_conditions(S, budget, suite=suite)
    notes = []
    theorems = {}
    # every image of a finite semigroup is finite, and a finite set is
    # closed in every T1 space: a table is absolutely T1S-closed, so it has
    # every closedness property below that one too
    finite_image = (Verdict(HOLDS, "finite", {"kind": "finite_image", "evidence": fin.witness},
                            budget, note="every image of a finite semigroup is finite")
                    if is_finite(S) else None)

    def inapplicable(source, note, **fields):
        return Verdict(UNKNOWN, source, {"kind": "inapplicable",
                                         "commutative": commutative.status, **fields},
                       budget, note=note)

    def does_not_apply(kind, reason, **fields):
        """A rule that needs commutativity: refuted by a finite image or the
        center when they can, else Unknown, saying why."""
        note = ("commutativity unknown" if commutative.status == UNKNOWN
                else "noncommutative: " + reason)
        return (finite_image or _center_blocked(kind, center, budget)
                or inapplicable(commutative.source, note, **fields))

    for kind, criteria in THEOREM_RULES.items():
        theorems[kind] = (_conjunction_verdict(suite, criteria, budget) if commutative.holds
                          else does_not_apply(kind, "equivalence unavailable, center passes"))

    # absolute closedness: for commutative inputs, exactly finiteness
    theorems["absolute_T1S"] = (
        Verdict(fin.status, fin.source,
                {"kind": "finiteness", "finite": fin.status,
                 "center_finite": center.center_finite.status, "evidence": fin.witness},
                budget) if commutative.holds
        else does_not_apply("absolute_T1S", "finiteness rule needs commutativity",
                            center_finite=center.center_finite.status))

    for kind, criteria in UNIPOTENT_RULES.items():
        theorems[kind] = (
            _conjunction_verdict(suite, criteria, budget) if unip.holds and commutative.holds
            else inapplicable(unip.source, "inapplicable: needs one idempotent and commutativity",
                              unipotent=unip.status))

    report = ClassificationReport(
        name=name or getattr(S, "name", f"finite[{getattr(S, 'size', '?')}]"),
        commutative=commutative, unipotent=unip, finite=fin, suite=suite,
        theorems=theorems, center=center, notes=notes)
    report.notes.extend(_consistency_notes(report))
    return report


def implication_violations(report):
    """Pairs breaking the one-way implications among definite verdicts."""
    t = report.theorems
    out = []
    for a, b in CHAIN_EDGES:
        if t[a].holds and t[b].fails:
            out.append((a, b))
    if (report.unipotent.holds and report.commutative.holds
            and t["unipotent_C_closed"].definite and t["C_closed"].definite
            and t["unipotent_C_closed"].status != t["C_closed"].status):
        out.append(("unipotent_C_closed", "C_closed"))
    return out


def _consistency_notes(report):
    broken = implication_violations(report)
    return [f"implication violated: {a} holds but {b} fails" for a, b in broken]

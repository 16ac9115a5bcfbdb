"""The per-layer plan: one span around each public call into a layer.

The plan is the same whatever the workload, so that every traced run
reports every per-layer metric; each layer is driven with the inputs of the
workload that exercises it.  Stream handles are counted copies, so the
``mul_calls`` figures are exact and repeat from run to run.  Certification
samples with seed 0 so those counts do not move with ``--seed`` either;
the finite tables come from ``--seed`` and are timed only.
"""

from __future__ import annotations

import dataclasses

from checks import check_stream_report
from tables import cayley_text, finite_inputs
from workloads import CLASSIFY_BUDGETS, KINDS, STREAMS, TOPOLOGY_BUDGET

# stream clifford_parts is cubic in the budget (about 9.4 s over the seven
# streams at 256) and on no command path, so it is measured at 128/2048
CLIFFORD_PARTS_BUDGET = (128, 2048)

PHASES = {
    "t0": "t0_pairs",
    "continuity": "continuity",
    "regularity": "regularity",
    "isolation": "isolation",
}


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    from semitop.predicates import PREDICATES

    names = [
        ("corpus.parse_cayley.s", "s"), ("corpus.enumerate_finite.s", "s"),
        ("corpus.dedupe_iso.s", "s"), ("corpus.scan_corpus.s", "s"),
        ("corpus.render_report.s", "s"), ("corpus.report_bytes", "bytes"),
        ("core.build_finite.s", "s"), ("core.build_finite.order4.s", "s"),
        ("core.structure.s", "s"),
    ]
    for fn in ("center", "clifford_parts", "central_idempotents"):
        names += [(f"core.{fn}.s", "s"), (f"core.{fn}.mul_calls", "count")]
    for p in PREDICATES:
        names += [(f"predicates.{p}.s", "s"), (f"predicates.{p}.mul_calls", "count")]
    names.append(("predicates.finite.s", "s"))
    for fn in ("classify", "center_necessary_conditions", "finiteness"):
        names += [(f"classify.{fn}.s", "s"), (f"classify.{fn}.mul_calls", "count")]
    names.append(("classify.finite.s", "s"))
    for fn in ("find_nonisolated_idempotent", "certify_topology"):
        names += [(f"topology.{fn}.s", "s"), (f"topology.{fn}.mul_calls", "count")]
    names.append(("topology.certify_topology.finite.s", "s"))
    for phase in ("t0", "continuity", "regularity", "isolation", "nonisolation"):
        names += [(f"topology.certify.{phase}.s", "s"),
                  (f"topology.certify.{phase}.mul_calls", "count")]
    for fn in ("replay_certificate", "topologizability_verdict"):
        names += [(f"topology.{fn}.s", "s"), (f"topology.{fn}.mul_calls", "count")]
    names.append(("trace.overhead_s", "s"))
    return names


def run_plan(tr, seed, problems):
    """Run every layer call once under tracer ``tr``.  Returns the number of
    calls made and the rendered report's size in bytes; contradictions
    found on the way go to ``problems``."""
    with tr.span("plan.finite"):
        calls, report_bytes = _finite(tr, seed)
    with tr.span("plan.enumerate"):
        calls += _enumerate(tr, problems)
    with tr.span("plan.streams"):
        calls += _streams(tr, problems)
    with tr.span("plan.topology"):
        calls += _topology(tr, problems)
    return calls, report_bytes


def _finite(tr, seed):
    from semitop.core import (
        build_finite,
        center,
        clifford_parts,
        idempotents,
        natural_order,
    )
    from semitop.corpus import (
        CorpusEntry,
        ReportDocument,
        parse_cayley,
        render_report,
        scan_corpus,
    )
    from semitop.predicates import evaluate_suite

    tables = finite_inputs(seed)
    handles = []
    for name, rows in tables:
        text = cayley_text(rows)
        with tr.span("corpus.parse_cayley"):
            S = parse_cayley(text)
        with tr.span("core.build_finite"):
            build_finite(rows)
        handles.append((name, S))
    for _name, S in handles:
        fresh = dataclasses.replace(S)
        with tr.span("core.structure"):
            idempotents(fresh)
            center(fresh)
            clifford_parts(fresh)
            natural_order(fresh)
        fresh = dataclasses.replace(S)
        with tr.span("predicates.finite"):
            evaluate_suite(fresh)
    entries = [CorpusEntry(id=name, source="file", semigroup=dataclasses.replace(S))
               for name, S in handles]
    with tr.span("corpus.scan_corpus"):
        records = scan_corpus(entries)
    with tr.span("corpus.render_report"):
        text = render_report(ReportDocument(config={"command": "classify"},
                                            entries=records))
    return 4 * len(tables) + 2, len(text.encode())


def _enumerate(tr, problems):
    from semitop.classify import classify
    from semitop.core import build_finite
    from semitop.corpus import dedupe_iso, enumerate_finite

    with tr.span("corpus.enumerate_finite"):
        labeled = list(enumerate_finite(4))
    with tr.span("core.build_finite.order4"):
        for S in labeled:
            build_finite(S.table)
    with tr.span("corpus.dedupe_iso"):
        classes = list(dedupe_iso(labeled))
    if (len(labeled), len(classes)) != (3492, 188):
        problems.append(f"layer plan: order 4 gave {len(labeled)} tables, "
                        f"{len(classes)} classes")
    with tr.span("classify.finite"):
        for S in labeled + classes:
            classify(dataclasses.replace(S))
    return 4


def _streams(tr, problems):
    from semitop import builders
    from semitop.classify import center_necessary_conditions, classify, finiteness
    from semitop.core import Budget, center, central_idempotents, clifford_parts
    from semitop.predicates import PREDICATES

    calls = 0
    for elems, steps in CLASSIFY_BUDGETS:
        budget = Budget(elems, steps)
        for name in STREAMS:
            S = tr.counted(builders.build(name))
            for pname, fn in PREDICATES.items():
                with tr.span(f"predicates.{pname}"):
                    fn(S, budget)
            with tr.span("classify.classify"):
                report = classify(S, budget)
            theorems = {k: {"status": v.status} for k, v in report.theorems.items()}
            problems += check_stream_report(
                {"id": name, "classification": {"theorems": theorems}},
                S.declared_facts, S.center_facts)
            with tr.span("classify.center_necessary_conditions"):
                center_necessary_conditions(S, budget)
            with tr.span("classify.finiteness"):
                finiteness(S, budget)
            with tr.span("core.center"):
                center(S, budget)
            with tr.span("core.central_idempotents"):
                central_idempotents(S, budget)
            calls += len(PREDICATES) + 5
    budget = Budget(*CLIFFORD_PARTS_BUDGET)
    for name in STREAMS:
        S = tr.counted(builders.build(name))
        with tr.span("core.clifford_parts"):
            clifford_parts(S, budget)
        calls += 1
    return calls


def _topology(tr, problems):
    from semitop import builders
    from semitop.core import Budget
    from semitop.errors import CertificationFailed
    from semitop.topology import (
        CertificationSample,
        EBase,
        certify_topology,
        find_nonisolated_idempotent,
        replay_certificate,
        topologizability_verdict,
    )

    budget = Budget(*TOPOLOGY_BUDGET)
    calls = 0
    flat = tr.counted(builders.build("flat"))
    with tr.span("topology.find_nonisolated_idempotent"):
        e, _ = find_nonisolated_idempotent(flat, budget)
    calls += 1
    for kind in KINDS:
        with tr.span("topology.certify_topology"):
            cert = certify_topology(flat, e, EBase(flat, e, kind, budget),
                                    budget=budget, seed=0)
        if cert.failures:
            problems.append(f"layer plan: flat {kind} certificate failures")
        try:
            with tr.span("topology.replay_certificate"):
                replay_certificate(flat, EBase(flat, e, kind, budget), cert)
        except CertificationFailed as exc:
            problems.append(f"layer plan: flat {kind} replay failed: {exc}")
        calls += 2
    # the phases of the kind-E certificate, one kept and the others zeroed;
    # nonisolation always runs and is the base, with every phase zeroed
    zeroed = dict.fromkeys(PHASES.values(), 0)
    for phase, field_name in list(PHASES.items()) + [("nonisolation", None)]:
        kept = dict(zeroed)
        if field_name is not None:
            kept[field_name] = getattr(CertificationSample(), field_name)
        with tr.span(f"topology.certify.{phase}"):
            certify_topology(flat, e, EBase(flat, e, "E", budget),
                             sample=CertificationSample(**kept), budget=budget, seed=0)
        calls += 1
    finite = builders.build("flat:255")
    for kind in KINDS:
        S = dataclasses.replace(finite)
        with tr.span("topology.certify_topology.finite"):
            certify_topology(S, 0, EBase(S, 0, kind, budget), budget=budget, seed=0)
        calls += 1
    for name in STREAMS:
        S = tr.counted(builders.build(name))
        with tr.span("topology.topologizability_verdict"):
            topologizability_verdict(S, budget)
        calls += 1
    return calls

"""Batch command-line surface: classify corpora, probe shift topologies,
enumerate small orders, and dump raw predicate suites.

Everything is deterministic under a fixed configuration: seeds default to 0,
reports are canonical JSON without timestamps, and records are sorted by
entry id.  Exit codes: 0 ok, 1 usage or bad input, 2 certification or
corpus-integrity failure, 3 witness not found, 4 size cap.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .builders import BUILDER_NAMES, build
from .core import Budget, bounded_view, is_finite
from .classify import classify
from .corpus import (
    COMMUTATIVE_ISO_CLASS_COUNTS,
    COMMUTATIVE_LABELED_COUNTS,
    ISO_CLASS_COUNTS,
    LABELED_COUNTS,
    ReportDocument,
    entry_from_builder,
    entry_from_file,
    enumerate_classes,
    render_report,
    scan_corpus,
    suite_record,
    write_report,
)
from .errors import (
    BadParameter,
    CertificationFailed,
    CorpusIntegrityError,
    NotFound,
    SemitopError,
    SizeCapExceeded,
)
from .predicates import evaluate_suite
from .topology import EBase, certify_topology, find_nonisolated_idempotent


def _common_flags(sub):
    sub.add_argument("--budget-elems", type=int, default=None,
                     help="carrier elements to enumerate (default 256)")
    sub.add_argument("--budget-steps", type=int, default=None,
                     help="operation steps for bounded searches (default 4096)")
    sub.add_argument("--budget", type=int, default=None,
                     help="shorthand for --budget-elems")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for randomized sampling (default 0)")
    sub.add_argument("--out", default=None, help="write the report here "
                     "instead of standard output")


# built once: a parser is a nest of reference cycles that only the cyclic
# collector frees, and in-process callers of main would leave one per call
@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="semitop",
        description="closedness classification and shift topologization "
                    "of finite and stream semigroups")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify inputs and write a report")
    p.add_argument("inputs", nargs="*", help="Cayley table files")
    p.add_argument("--builder", action="append", default=[],
                   metavar="SPEC", help="builder spec like cyclic:3 or natmin")
    _common_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("predicates", help="dump raw predicate suites")
    p.add_argument("inputs", nargs="*", help="Cayley table files")
    p.add_argument("--builder", action="append", default=[], metavar="SPEC")
    _common_flags(p)
    p.set_defaults(func=cmd_predicates)

    p = sub.add_parser("topology", help="select an anchor and certify the "
                       "shift topology it generates")
    p.add_argument("--builder", required=True, metavar="SPEC")
    p.add_argument("--kind", choices=("E", "H", "Z"), default="E",
                   help="neighborhood base family (default E)")
    p.add_argument("--e", type=int, default=None,
                   help="anchor idempotent code (default: selected)")
    _common_flags(p)
    p.set_defaults(func=cmd_topology)

    p = sub.add_parser("enumerate", help="exhaust an order and tally")
    p.add_argument("n", type=int, help="order to enumerate (at most 5)")
    p.add_argument("--commutative-only", action="store_true")
    p.add_argument("--dedupe-iso", action="store_true",
                   help="collapse isomorphism classes before tallying")
    _common_flags(p)
    p.set_defaults(func=cmd_enumerate)

    return parser


def _budget(args):
    for flag in ("budget_elems", "budget_steps", "budget"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise BadParameter(f"--{flag.replace('_', '-')} must be at least 1, got {value}")
    elems = args.budget_elems if args.budget_elems is not None else args.budget
    return Budget(elements=elems if elems is not None else 256,
                  steps=args.budget_steps if args.budget_steps is not None else 4096)


def _config(args, command, **extra):
    cfg = {"command": command, "budget": _budget(args).as_dict(), "seed": args.seed}
    cfg.update(extra)
    return cfg


def _collect_entries(args):
    entries = [entry_from_file(path) for path in args.inputs]
    for spec in args.builder:
        try:
            entries.append(entry_from_builder(spec))
        except BadParameter as exc:
            raise BadParameter(
                f"{exc}; known builders: {', '.join(BUILDER_NAMES)}") from None
    if not entries:
        raise BadParameter("nothing to analyze: give files or --builder specs")
    if len({e.id for e in entries}) != len(entries):
        raise BadParameter("corpus entry ids must be unique")
    return entries


def _emit(doc, args, summary_lines):
    if args.out:
        write_report(doc, args.out)
        for line in summary_lines:
            print(line)
    else:
        sys.stdout.write(render_report(doc))


def cmd_classify(args):
    budget = _budget(args)
    entries = _collect_entries(args)
    records = scan_corpus(entries, budget)
    doc = ReportDocument(
        config=_config(args, "classify",
                       inputs=[e.id for e in entries]),
        entries=records)
    lines = []
    for rec in records:
        theorems = rec["classification"]["theorems"]
        pairs = " ".join(f"{name}={theorems[name]['status']}"
                         for name in sorted(theorems))
        lines.append(f"{rec['id']}: {pairs}")
    _emit(doc, args, lines)
    return 0


def cmd_predicates(args):
    budget = _budget(args)
    entries = _collect_entries(args)
    records = []
    for entry in sorted(entries, key=lambda e: e.id):
        S = entry.semigroup
        record = {
            "id": entry.id,
            "kind": "finite" if is_finite(S) else "stream",
            "size": S.size if is_finite(S) else None,
            "suite": suite_record(evaluate_suite(S, budget)),
        }
        records.append(json.loads(json.dumps(record)))
    doc = ReportDocument(
        config=_config(args, "predicates", inputs=[e.id for e in entries]),
        entries=records)
    lines = []
    for rec in records:
        pairs = " ".join(f"{name}={rec['suite'][name]['status']}"
                         for name in sorted(rec["suite"]))
        lines.append(f"{rec['id']}: {pairs}")
    _emit(doc, args, lines)
    return 0


def cmd_topology(args):
    budget = _budget(args)
    try:
        S = build(args.builder)
    except BadParameter as exc:
        raise BadParameter(
            f"{exc}; known builders: {', '.join(BUILDER_NAMES)}") from None

    selection = None
    view = bounded_view(S, budget)
    if args.e is not None:
        e = args.e
    elif view.exact:
        e = min(view.idempotents)
    else:
        e, selection = find_nonisolated_idempotent(S, budget)

    base = EBase(S, e, args.kind, budget)
    cert = certify_topology(S, e, base, budget=budget, seed=args.seed)

    print(f"builder: {args.builder}")
    print(f"anchor: e={e} (label {S.label_fn(e)!r}) kind={args.kind}")
    if selection is not None:
        print(f"selection: pool={selection['pool']} "
              f"upset={selection['upset_size']} "
              f"position={selection['position']} "
              f"confirmed_at_bound={selection['confirmed_at_bound']}")
    for rec in cert.nonisolation:
        print(f"neighborhood {rec['params']}: meets {rec['met']} "
              f"of {rec['ground']} sampled points")
    definite_t0 = sum(1 for rec in cert.t0 if rec.get("definite"))
    print(f"t0: {definite_t0}/{len(cert.t0)} pairs separated definitely")
    print(f"continuity: {len(cert.continuity)} triples checked")
    holds = sum(1 for rec in cert.regularity if rec["status"] == "holds")
    print(f"regularity: {holds}/{len(cert.regularity)} moved points separated "
          "by disjoint opens")
    nondiscrete = any(rec["met"] > 0 for rec in cert.nonisolation)
    print(f"failures: {len(cert.failures)} unconfirmed: {cert.unconfirmed}")
    print("verdict: " + ("non-discrete at the anchor" if nondiscrete
                         else "discrete (every sampled neighborhood is trivial)"))

    if args.out:
        record = {
            "id": args.builder,
            "anchor": e,
            "kind": args.kind,
            "selection": selection,
            "certificate": cert.to_dict(),
        }
        doc = ReportDocument(
            config=_config(args, "topology", builder=args.builder,
                           kind=args.kind),
            entries=[record])
        write_report(doc, args.out)
    return 0


def _frozen_count(n, commutative_only, deduped):
    if deduped:
        table = COMMUTATIVE_ISO_CLASS_COUNTS if commutative_only else ISO_CLASS_COUNTS
    else:
        table = COMMUTATIVE_LABELED_COUNTS if commutative_only else LABELED_COUNTS
    return table[n]


def cmd_enumerate(args):
    # An exact structural verdict does not change under relabeling, so each
    # isomorphism class is classified once, in canonical form, and counts
    # with weight equal to its class size (1 when classes are the unit).
    budget = _budget(args)
    count = 0
    commutative = 0
    theorem_tally = {}
    predicate_tally = {}
    for S, size in enumerate_classes(args.n, commutative_only=args.commutative_only):
        weight = 1 if args.dedupe_iso else size
        count += weight
        if S.commutative:
            commutative += weight
        report = classify(S, budget)
        for tally, verdicts in ((theorem_tally, report.theorems),
                                (predicate_tally, report.suite)):
            for name, verdict in verdicts.items():
                tally.setdefault(name, {"holds": 0, "fails": 0, "unknown": 0})
                tally[name][verdict.status] += weight

    frozen = _frozen_count(args.n, args.commutative_only, args.dedupe_iso)
    variant = ("isomorphism classes" if args.dedupe_iso else "labeled semigroups")
    if args.commutative_only:
        variant = "commutative " + variant
    lines = [f"order {args.n}: {count} {variant}",
             f"frozen constant: {frozen} ({'match' if count == frozen else 'MISMATCH'})",
             f"commutative: {commutative}",
             "theorem tally (holds/fails/unknown):"]
    for name in sorted(theorem_tally):
        t = theorem_tally[name]
        lines.append(f"  {name}: {t['holds']}/{t['fails']}/{t['unknown']}")
    lines.append("predicate tally (holds/fails/unknown):")
    for name in sorted(predicate_tally):
        t = predicate_tally[name]
        lines.append(f"  {name}: {t['holds']}/{t['fails']}/{t['unknown']}")

    for line in lines:
        print(line)
    if args.out:
        record = {"id": f"order-{args.n}", "count": count, "frozen": frozen,
                  "commutative": commutative, "theorem_tally": theorem_tally,
                  "predicate_tally": predicate_tally}
        doc = ReportDocument(
            config=_config(args, "enumerate", n=args.n,
                           commutative_only=args.commutative_only,
                           dedupe_iso=args.dedupe_iso),
            entries=[record])
        write_report(doc, args.out)
    if count != frozen:
        raise CorpusIntegrityError(
            f"order-{args.n} count {count} disagrees with frozen constant {frozen}")
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; the contract reserves 2 for
        # certification failures, so fold usage into 1
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (CertificationFailed, CorpusIntegrityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotFound as exc:
        print(f"not found: {exc}", file=sys.stderr)
        return 3
    except SizeCapExceeded as exc:
        print(f"size cap: {exc}", file=sys.stderr)
        return 4
    except SemitopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

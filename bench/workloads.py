"""The four workloads: their inputs, operations and checks.

An operation is one call through a public entry point: ``cli.main`` run
in-process for every command-line path, and ``topologizability_verdict``,
which has no command.  Only the call is timed; parsing its output and
checking it happen afterwards.  A round is the same list of operations in
an order drawn from the seed, followed by the workload's known hangs, so
every round attempts the same operations and fails the same ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from typing import Callable

from checks import (
    check_certificate,
    check_enumeration,
    check_finite_report,
    check_stream_report,
    check_structure,
    check_topologizability,
)
from tables import cayley_text, finite_inputs

STREAMS = ("natmin", "natplus", "nullstream", "nilstream", "flat", "intadd",
           "prodcenter")
CLASSIFY_BUDGETS = ((256, 4096), (1024, 16384))
TOPOLOGY_BUDGET = (256, 4096)
KINDS = ("E", "H", "Z")


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class Setup:
    ops: list
    hangs: list = field(default_factory=list)


def cli_call(argv):
    """Run the command line in-process; returns (exit code, stdout, stderr)."""
    from semitop import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _exit_problems(name, result):
    code, _, err = result
    if code != 0:
        return [f"{name}: exit code {code}: {err.strip()[:200]}"]
    return []


def _single_entry(doc, name):
    entries = doc.get("entries", [])
    if len(entries) != 1:
        raise ValueError(f"{name}: expected one report entry, found {len(entries)}")
    return entries[0]


# ---------------------------------------------------------------------------

def setup_stream_classify(seed, workdir):
    from semitop import builders

    handles = {name: builders.build(name) for name in STREAMS}
    ops = []
    for elems, steps in CLASSIFY_BUDGETS:
        for name in STREAMS:
            argv = ("classify", "--builder", name, "--budget-elems", str(elems),
                    "--budget-steps", str(steps), "--seed", str(seed))
            S = handles[name]

            def check(result, name=name, S=S, elems=elems):
                problems = _exit_problems(name, result)
                if problems:
                    return problems
                doc = json.loads(result[1])
                if doc["config"]["budget"]["elements"] != elems:
                    return [f"{name}: report budget {doc['config']['budget']}"]
                entry = _single_entry(doc, name)
                return check_stream_report(entry, S.declared_facts, S.center_facts)

            ops.append(Op(f"classify {name} {elems}/{steps}",
                          lambda argv=argv: cli_call(argv), check))
    return Setup(ops, hangs=["classify-leftzero2xnatmin"])


def setup_finite_ingest(seed, workdir):
    from semitop.core import FiniteSemigroup, center, idempotents

    ops = []
    for name, rows in finite_inputs(seed):
        path = workdir / f"{name}.cayley"
        path.write_text(cayley_text(rows))
        argv = ("classify", str(path), "--seed", str(seed))

        def check(result, name=name, rows=rows):
            problems = _exit_problems(name, result)
            if problems:
                return problems
            entry = _single_entry(json.loads(result[1]), name)
            if entry["id"] != name:
                problems.append(f"{name}: report id {entry['id']}")
            problems += check_finite_report(entry, rows)
            # the structure maps on a handle of the same table, without
            # a second associativity check
            S = FiniteSemigroup(table=tuple(map(tuple, rows)),
                                labels=tuple(f"x{i}" for i in range(len(rows))))
            problems += check_structure(name, rows, idempotents(S).elements,
                                        center(S).elements)
            return problems

        ops.append(Op(f"classify {name}", lambda argv=argv: cli_call(argv), check))
    return Setup(ops)


def setup_enumerate_4(seed, workdir):
    import semitop  # noqa: F401  (import cost belongs to set-up)

    ops = []
    for deduped in (False, True):
        out = workdir / f"enumerate4{'-iso' if deduped else ''}.json"
        argv = ("enumerate", "4", "--seed", str(seed), "--out", str(out))
        argv += ("--dedupe-iso",) if deduped else ()

        def check(result, out=out, deduped=deduped):
            problems = _exit_problems("enumerate 4", result)
            if problems:
                return problems
            record = _single_entry(json.loads(out.read_text()), "enumerate 4")
            return check_enumeration(record, deduped)

        ops.append(Op(f"enumerate 4{' --dedupe-iso' if deduped else ''}",
                      lambda argv=argv: cli_call(argv), check))
    return Setup(ops)


def setup_topology_certify(seed, workdir):
    from semitop import builders
    from semitop.core import Budget
    from semitop.errors import CertificationFailed
    from semitop.topology import (
        EBase,
        TopologyCertificate,
        replay_certificate,
        topologizability_verdict,
    )

    budget = Budget(*TOPOLOGY_BUDGET)
    handles = {"flat": builders.build("flat"), "flat:255": builders.build("flat:255")}
    streams = dict(builders.stream_corpus())
    ops = []
    for spec in ("flat", "flat:255"):
        for kind in KINDS:
            out = workdir / f"topology-{spec.replace(':', '')}-{kind}.json"
            argv = ("topology", "--builder", spec, "--kind", kind,
                    "--budget-elems", str(budget.elements),
                    "--budget-steps", str(budget.steps),
                    "--seed", str(seed), "--out", str(out))

            def check(result, spec=spec, kind=kind, out=out):
                name = f"topology {spec} {kind}"
                problems = _exit_problems(name, result)
                if problems:
                    return problems
                if "failures: 0 " not in result[1]:
                    problems.append(f"{name}: summary does not report zero failures")
                record = _single_entry(json.loads(out.read_text()), name)
                problems += check_certificate(record, flat_anchor=True)
                S = handles[spec]
                cert = TopologyCertificate(**record["certificate"])
                try:
                    replay_certificate(S, EBase(S, record["anchor"], kind, budget), cert)
                except CertificationFailed as exc:
                    problems.append(f"{name}: replay failed: {exc}")
                return problems

            ops.append(Op(f"topology {spec} {kind}", lambda argv=argv: cli_call(argv),
                          check))
    for name, S in streams.items():
        def check(verdict, name=name, S=S):
            return check_topologizability(name, verdict.status, S.declared_facts)

        ops.append(Op(f"topologizability {name}",
                      lambda S=S: topologizability_verdict(S, budget), check))
    return Setup(ops, hangs=["topology-natmin", "topology-intadd-e0"])


SETUPS = {
    "stream-classify": setup_stream_classify,
    "finite-ingest": setup_finite_ingest,
    "enumerate-4": setup_enumerate_4,
    "topology-certify": setup_topology_certify,
}


def round_order(ops, seed):
    """The seed's fixed order of the operations within every round."""
    order = list(range(len(ops)))
    random.Random(seed).shuffle(order)
    return order

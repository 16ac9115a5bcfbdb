"""Acceptance gate: every release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print; each criterion also asserts, so a red line fails the suite.
"""

import time

import oracle_brute as ob
import lemma_suite
from finite_corpus import standard_finite_corpus

from semitop import cli
from semitop.builders import natplus, nullstream, flat_stream, natmin
from semitop.classify import classify, implication_violations
from semitop.core import Budget, bounded_view, power_projection
from semitop.corpus import (
    COMMUTATIVE_LABELED_COUNTS,
    LABELED_COUNTS,
    enumerate_finite,
)
from semitop.predicates import evaluate_suite, replay
from semitop.topology import EBase, certify_topology, topologizability_verdict


def _report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_lemma_suite_zero_violations():
    start = time.perf_counter()
    results = lemma_suite.run_suite(trials=1000, seed=0)
    elapsed = time.perf_counter() - start
    violations = sum(len(v) for v in results.values())
    ok = violations == 0 and elapsed < 30.0
    _report("lemma-suite",
            ok,
            f"{len(results)} clauses x 1000 trials, {violations} violations, "
            f"{elapsed:.1f}s (limit 30s)")


def test_exhaustive_small_orders_classify_closed():
    start = time.perf_counter()
    total = commutative_seen = 0
    problems = []
    for n in (1, 2, 3):
        count = 0
        for S in enumerate_finite(n):
            count += 1
            total += 1
            report = classify(S)
            if implication_violations(report):
                problems.append((n, S.table, "implication"))
            if S.commutative:
                commutative_seen += 1
                if not report.theorems["absolute_T1S"].holds:
                    problems.append((n, S.table, "absolute_T1S"))
                if not report.theorems["injective_T1S"].holds:
                    problems.append((n, S.table, "injective_T1S"))
        if count != LABELED_COUNTS[n]:
            problems.append((n, count, "count"))
    elapsed = time.perf_counter() - start
    expected_comm = sum(COMMUTATIVE_LABELED_COUNTS[n] for n in (1, 2, 3))
    ok = (not problems and commutative_seen == expected_comm
          and elapsed < 60.0)
    _report("exhaustive-small-orders",
            ok,
            f"{total} labeled semigroups of order <= 3, "
            f"{commutative_seen} commutative all closed, "
            f"{len(problems)} problems, {elapsed:.1f}s (limit 60s)")


def test_flat_stream_topologization_certificate():
    start = time.perf_counter()
    S = flat_stream()
    budget = Budget(256, 4096)
    verdict = topologizability_verdict(S, budget)
    problems = []
    if not (verdict.holds and verdict.witness["e"] == 0):
        problems.append("verdict")
    base = EBase(S, 0, "E", budget)
    cert = certify_topology(S, 0, base, budget=budget, seed=0)
    thin = [rec for rec in cert.nonisolation if rec["met"] < 200]
    if thin:
        problems.append(f"thin neighborhoods: {thin}")
    if len(cert.t0) != 100 or not all(r["definite"] for r in cert.t0):
        problems.append("t0")
    if len(cert.continuity) != 100:
        problems.append("continuity")
    if not cert.regularity or any(r["status"] != "holds" for r in cert.regularity):
        problems.append("regularity")
    moved = [r for r in cert.isolation if r["x"] != 0]
    if not all(r["isolated"] and r["definite"] for r in moved):
        problems.append("atom isolation")
    if cert.failures:
        problems.append("failures")
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 10.0
    _report("flat-topologization",
            ok,
            f"witness e=0, {len(cert.nonisolation)} neighborhoods met "
            f">= 200/256, t0 {len(cert.t0)}, continuity {len(cert.continuity)}, "
            f"regularity {len(cert.regularity)}, problems={problems}, "
            f"{elapsed:.1f}s (limit 10s)")


def test_negative_classifications_replay():
    problems = []

    S = natmin()
    suite = evaluate_suite(S, Budget(64, 4096))
    chain = suite["chain_finite"]
    if not (chain.fails and chain.witness["kind"] == "chain"
            and chain.witness["length"] >= 32):
        problems.append("natmin chain")
    elif not replay(S, "chain_finite", chain):
        problems.append("natmin replay")
    if not classify(S, Budget(64, 4096)).theorems["C_closed"].fails:
        problems.append("natmin C_closed")

    N = nullstream()
    nsg = evaluate_suite(N, Budget(32, 4096))["nonsingular"]
    evidence = (nsg.witness or {}).get("evidence", {})
    A = evidence.get("elements", [])
    products = {N.mul(x, y) for x in A for y in A}
    if not (nsg.fails and nsg.source == "declared"
            and evidence.get("kind") == "singular_prefix"
            and len(A) == 32 and len(products) == 1):
        problems.append("nullstream witness")
    elif not replay(N, "nonsingular", nsg):
        problems.append("nullstream replay")

    P = natplus()
    per = evaluate_suite(P, Budget(64, 4096))["periodic"]
    if not (per.fails and per.source == "declared"):
        problems.append("natplus periodic")
    elif not replay(P, "periodic", per):
        problems.append("natplus replay")
    x = next(P.enumerate_carrier())
    proj = power_projection(P, x, Budget(64, 64))
    if proj.status != "undefined_at_bound":
        problems.append("natplus projection")

    _report("negative-witnesses",
            not problems,
            "natmin chain>=32, nullstream |A|=32 AA singleton, natplus "
            f"declared aperiodic + projection undefined at 64; problems={problems}")


def test_subgroup_oracle_equivalence():
    checked = 0
    problems = []
    for name, S in standard_finite_corpus():
        if S.size > 6:
            continue
        t = [list(r) for r in S.table]
        view = bounded_view(S)
        for e in S.idempotent_codes:
            checked += 1
            if sorted(view.subgroup(e)) != ob.maximal_subgroup(t, e):
                problems.append((name, e))
    _report("subgroup-oracle",
            not problems,
            f"{checked} idempotents across the finite corpus (order <= 6) "
            f"match the brute-force maximal subgroup; problems={problems}")


def test_classification_reports_are_byte_identical(fixtures_dir, tmp_path):
    inputs = sorted(str(p) for p in fixtures_dir.glob("*.cayley"))
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    code1 = cli.main(["classify", *inputs, "--out", str(first)])
    code2 = cli.main(["classify", *inputs, "--out", str(second)])
    same = first.read_bytes() == second.read_bytes()
    _report("deterministic-reports",
            code1 == 0 and code2 == 0 and same,
            f"{len(inputs)} fixtures classified twice, "
            f"{first.stat().st_size} bytes, byte-identical={same}")

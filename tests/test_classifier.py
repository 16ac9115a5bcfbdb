"""Classification rules, center propagation, and implication consistency."""

import dataclasses
import itertools
import random
import tracemalloc

import pytest

from finite_corpus import relabeled_table, standard_finite_corpus
from metering import capped, counted

from semitop import cli
from semitop.builders import (
    adjoin_identity,
    cyclic_group,
    left_zero,
    natmin,
    stream_corpus,
    zero_semigroup,
)
from semitop.classify import center_necessary_conditions, classify, implication_violations
from semitop.core import (
    DEFAULT_BUDGET,
    Budget,
    FiniteSemigroup,
    build_finite,
    build_stream,
    direct_product,
)
from semitop.corpus import enumerate_finite
from semitop.errors import BadParameter
from semitop.predicates import FAILS, HOLDS, UNKNOWN, Verdict

BUDGET = Budget(64, 2048)
STREAMS = dict(stream_corpus())

THEOREM_KINDS = (
    "C_closed", "ideally_projectively_closed", "injective_T1S",
    "injective_T2S", "absolute_T1S",
)


def test_finite_commutative_inputs_get_definite_positives():
    for name, S in standard_finite_corpus():
        if not S.commutative:
            continue
        report = classify(S, name=name)
        for kind in THEOREM_KINDS:
            v = report.theorems[kind]
            assert v.holds, (name, kind, v.status, v.witness)


def test_noncommutative_finite_holds_every_closedness_property():
    # every image of a finite semigroup is finite, so closed in a T1 host
    for S in (left_zero(2), adjoin_identity(left_zero(2))):
        report = classify(S)
        assert report.commutative.fails
        for kind in THEOREM_KINDS:
            v = report.theorems[kind]
            assert v.holds and v.source == "finite", kind
            assert v.witness == {"kind": "finite_image",
                                 "evidence": {"kind": "finite", "size": S.size}}, kind


def test_chain_growth_refutes_closedness():
    report = classify(STREAMS["natmin"], BUDGET, name="natmin")
    v = report.theorems["C_closed"]
    assert v.fails and v.source == "search"
    assert v.witness["failing"] == ["chain_finite"]


def test_aperiodicity_refutes_closedness_by_declaration():
    report = classify(STREAMS["natplus"], BUDGET, name="natplus")
    v = report.theorems["C_closed"]
    assert v.fails and v.source == "declared"
    assert v.witness["failing"] == ["periodic"]


def test_singular_prefix_refutes_closedness():
    report = classify(STREAMS["nullstream"], BUDGET, name="nullstream")
    v = report.theorems["C_closed"]
    assert v.fails and v.source == "declared"
    assert v.witness["failing"] == ["nonsingular"]
    assert report.suite["nonsingular"].witness["evidence"]["kind"] == "singular_prefix"
    # one idempotent, so the unipotent specialization fires and agrees
    assert report.unipotent.holds
    assert report.theorems["unipotent_C_closed"].fails


def test_infinite_subgroup_refutes_injective_closedness():
    report = classify(STREAMS["intadd"], BUDGET, name="intadd")
    v = report.theorems["injective_T2S"]
    assert v.fails and v.source == "search"
    assert "group_finite" in v.witness["failing"]
    assert report.theorems["C_closed"].fails


def test_flat_stream_is_closed_but_not_injectively():
    report = classify(STREAMS["flat"], BUDGET, name="flat")
    assert report.theorems["C_closed"].holds
    assert report.theorems["C_closed"].source == "declared"
    v = report.theorems["injective_T1S"]
    assert v.fails and v.source == "search"
    assert v.witness["failing"] == ["clifford_finite"]
    # infinite, so absolute closedness fails outright
    assert report.theorems["absolute_T1S"].fails
    assert report.theorems["absolute_T1S"].source == "declared"


def test_noncommutative_stream_blocked_through_center():
    report = classify(STREAMS["prodcenter"], BUDGET, name="prodcenter")
    assert report.commutative.fails
    assert not report.center.empty
    for kind in THEOREM_KINDS:
        v = report.theorems[kind]
        assert v.fails, kind
        assert v.witness["kind"] == "center_necessary"
        assert "chain_finite" in v.witness["failing"]["failing"]


def test_empty_stream_center_is_unknown_not_a_hang():
    # no element of leftzero:2 x natmin is central, so an unbounded probe
    # would filter the infinite carrier forever
    S = capped(direct_product(left_zero(2), natmin()), 100_000)
    report = classify(S, Budget(256, 4096))
    assert report.commutative.fails and report.center.empty
    cfin = report.center.center_finite
    assert cfin.status == UNKNOWN and cfin.source == "search"
    assert cfin.witness == {"kind": "center_probe_empty", "scanned": 4096}
    assert report.theorems["absolute_T1S"].status == UNKNOWN


@pytest.mark.parametrize("elements,steps", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_a_declared_infinite_center_outlasts_an_empty_probe(elements, steps):
    # prodcenter's first central code is 2, past a probe of two codes; an
    # empty probe refutes no declared center, and an absolutely T1S-closed
    # semigroup has a finite center
    budget = Budget(elements, steps)
    report = classify(STREAMS["prodcenter"], budget)
    assert report.center.empty
    cfin = report.center.center_finite
    assert cfin.status == FAILS and cfin.source == "declared"
    assert cfin.witness["evidence"] == {"kind": "center_probe_empty",
                                        "scanned": max(elements, steps)}
    absolute = report.theorems["absolute_T1S"]
    assert absolute.status == FAILS and absolute.witness["kind"] == "center_infinite"


@pytest.mark.parametrize("elements,steps", [(-3, 4096), (0, 4096), (256, 0)])
def test_non_positive_budget_is_a_bad_parameter(elements, steps):
    # (-3, 4096) once reached classify and raised a raw ValueError from islice
    with pytest.raises(BadParameter):
        classify(natmin(), Budget(elements, steps))


def _contradicted(verdicts, facts):
    """The definite verdicts whose status differs from a declared fact."""
    return {name: v.status for name, v in verdicts.items()
            if name in facts and v.status != UNKNOWN and v.holds != bool(facts[name])}


@pytest.mark.parametrize("elements,steps", [(1, 1), (2, 8), (2, 16), (3, 16), (4, 64)])
@pytest.mark.parametrize("name", sorted(STREAMS))
def test_small_budgets_never_contradict_a_declared_fact(capsys, name, elements, steps):
    # a chain of ``elements`` codes, one idempotent at 1/1 and a comparable
    # pair of flat at 2/8, once refuted a declared chain_finite and made
    # classify exit 2; such a chain proves no infinite chain
    flags = ["--builder", name, "--budget-elems", str(elements), "--budget-steps", str(steps)]
    for command in ("classify", "predicates"):
        assert cli.main([command, *flags]) == 0, command
    capsys.readouterr()
    S = STREAMS[name]
    report = classify(S, Budget(elements, steps), name=name)
    verdicts = {**report.suite, "finite": report.finite,
                "center_finite": report.center.center_finite}
    assert _contradicted(verdicts, S.declared_facts) == {}
    assert _contradicted(report.center.suite or {}, S.center_facts) == {}


def test_intadd_classification_stays_under_its_multiplication_ceiling():
    # about 42 k products; the ceiling catches the subgroup certificate
    # recomputed by each Clifford predicate (about 210 k)
    S = capped(STREAMS["intadd"], 100_000)
    classify(S, Budget(256, 4096), name="intadd")


def test_stream_classification_stays_under_its_multiplication_ceilings():
    # 101,379 products on intadd at 1024/16384, 19,274 and 52,554 on
    # prodcenter at 256/4096 and 1024/16384, and 678,850 over the corpus at
    # both.  A subgroup certificate that scans the prefix for a witness, not
    # reading the one code of intadd's quotient 0/x, costs 364,035 and
    # 1,150,646; testing prodcenter's central codes against the window's
    # generators, not reading its center off its factors, costs 97,150 and
    # 167,306, and 871,478 over the corpus.
    total = 0
    for budget in (Budget(256, 4096), Budget(1024, 16384)):
        for name, plain in stream_corpus():
            S, meter = counted(plain)
            classify(S, budget, name=name)
            if name == "intadd" and budget.elements == 1024:
                assert meter.calls <= 110_000, meter.calls
            if name == "prodcenter":
                ceiling = 25_000 if budget.elements == 256 else 60_000
                assert meter.calls <= ceiling, (budget, meter.calls)
            total += meter.calls
    assert total <= 750_000, total


def test_chain_search_keeps_stream_classification_under_its_ceilings():
    # about 68 k and 53 k products; a pairwise chain search alone costs
    # 1024^2 = 1,048,576 on natmin and 1,054,702 on prodcenter, and testing
    # prodcenter's central candidates against the window's generators, not
    # reading its center off its factors, costs it 167 k in all
    for name, ceiling in (("natmin", 100_000), ("prodcenter", 110_000)):
        classify(capped(STREAMS[name], ceiling), Budget(1024, 16384), name=name)


def test_singular_evidence_keeps_null_classification_under_its_ceiling():
    # about 61 k products each; growing the singular sets to the element
    # budget scans 1024^2 pairs twice, 2,147,645 products in all
    for name in ("nullstream", "nilstream"):
        report = classify(capped(STREAMS[name], 100_000), Budget(1024, 16384),
                          name=name)
        evidence = report.suite["nonsingular"].witness["evidence"]
        assert len(evidence["elements"]) == 64, name


@pytest.mark.parametrize("budget", [Budget(64, 64), Budget(256, 4096), Budget(1024, 16384)])
@pytest.mark.parametrize("name", sorted(STREAMS))
def test_classify_reads_each_carrier_code_once(name, budget):
    # the view's pool is the one reader of the enumerator: its deepest
    # readers are the chain and singular searches and the center handle
    # (max(elements, steps) codes) and finiteness (elements + 1), and no
    # code is read twice.  Separate reads took 8,962 codes at 256/4096 and
    # 35,842 at 1024/16384.
    base, read = STREAMS[name], [0]

    def enumerate_carrier():
        for x in base.enumerate_carrier():
            read[0] += 1
            yield x

    classify(dataclasses.replace(base, enumerate_carrier=enumerate_carrier), budget, name=name)
    assert read[0] == max(budget.steps, budget.elements + 1)


@pytest.mark.parametrize("budget", [Budget(64, 1024), Budget(1024, 16384)])
def test_a_singular_prefix_refutes_nothing_without_a_declaration(budget):
    # a finite null semigroup given as a stream: every prefix is one
    # singular set, yet the semigroup is finite, so absolutely T1S-closed
    S = build_stream("zero100", lambda x, y: 0, lambda: iter(range(100)))
    report = classify(S, budget)
    for name in ("nonsingular", "clifford_singular"):
        assert report.suite[name].status == UNKNOWN, name
    for kind in THEOREM_KINDS:
        assert not report.theorems[kind].fails, kind


def test_finite_classify_takes_commutativity_from_its_suite(monkeypatch):
    # one transposition of each table settles the suite's commutativity and
    # the center analysis, which agrees with an analysis on its own
    transposed = []
    scan = FiniteSemigroup.center_codes.func
    monkeypatch.setattr(FiniteSemigroup.center_codes, "func",
                        lambda T: transposed.append(T) or scan(T))
    for name, S in standard_finite_corpus():
        fresh = build_finite([list(row) for row in S.table])
        transposed.clear()
        center = classify(fresh, BUDGET, name=name).center
        assert sum(T is fresh for T in transposed) == 1, name
        assert len(set(map(id, transposed))) == len(transposed), name
        alone = center_necessary_conditions(S, BUDGET)
        assert (center.empty, center.center_finite, center.closed_necessary,
                center.injective_necessary) == (
            alone.empty, alone.center_finite, alone.closed_necessary,
            alone.injective_necessary), name


def test_finite_classify_stays_under_its_memory_ceiling():
    # well under 0.1 MB; principal-ideal keys for every code, n frozensets
    # of up to n codes on each side, took 9.1 MB here
    S = cyclic_group(256)
    tracemalloc.start()
    try:
        classify(S, BUDGET, name="cyclic:256")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


def test_t2s_holding_where_closedness_fails_is_flagged():
    report = classify(STREAMS["flat"], BUDGET, name="flat")
    report.theorems["injective_T2S"] = Verdict(HOLDS, "search", None, BUDGET)
    report.theorems["C_closed"] = Verdict(FAILS, "search", None, BUDGET)
    assert ("injective_T2S", "C_closed") in implication_violations(report)


def test_unipotent_rule_agrees_with_general_rule():
    report = classify(zero_semigroup(4))
    assert report.unipotent.holds
    general = report.theorems["C_closed"].status
    special = report.theorems["unipotent_C_closed"].status
    assert general == special == HOLDS


def test_no_implication_violations_on_corpus():
    for name, S in standard_finite_corpus():
        assert implication_violations(classify(S, name=name)) == [], name
    for name, S in STREAMS.items():
        assert implication_violations(classify(S, BUDGET, name=name)) == [], name


def test_no_implication_violations_on_enumerated_order3():
    for S in enumerate_finite(3):
        report = classify(S)
        assert implication_violations(report) == []
        if S.commutative:
            assert report.theorems["absolute_T1S"].holds
            assert report.theorems["injective_T1S"].holds


def test_statuses_cover_all_three_values():
    seen = set()
    for name, S in STREAMS.items():
        for v in classify(S, BUDGET, name=name).theorems.values():
            seen.add(v.status)
    assert seen == {HOLDS, FAILS, UNKNOWN}


def _statuses(S, budget=DEFAULT_BUDGET):
    report = classify(S, budget)
    center = report.center
    return (report.commutative.status,
            {name: v.status for name, v in report.suite.items()},
            {name: v.status for name, v in report.theorems.items()},
            center.empty, center.center_finite.status,
            {name: v.status for name, v in (center.suite or {}).items()})


@pytest.mark.parametrize("budget", [Budget(64, 1024), Budget(256, 4096)])
def test_opposite_product_keeps_every_status(budget):
    # a homomorphism X -> Y is one X^op -> Y^op, and Y^op is a T1
    # topological semigroup on the same space, so the opposite semigroup
    # gets the same statuses; Z(X^op) = Z(X), so it keeps X's center test.
    # The division oracle is dropped: it divides on the other side
    S = STREAMS["prodcenter"]
    mul = S.mul_fn
    opposite = dataclasses.replace(S, mul_fn=lambda x, y: mul(y, x), division_oracle=None)
    assert opposite.center_fn is S.center_fn
    assert _statuses(opposite, budget) == _statuses(S, budget)


def test_classification_is_invariant_under_relabeling():
    # `enumerate` classifies one canonical table per isomorphism class and
    # weights it by the class size, which rests on this property
    for S in enumerate_finite(3):
        want = _statuses(S)
        for perm in itertools.permutations(range(3)):
            assert _statuses(build_finite(relabeled_table(S.table, perm))) == want
    rng = random.Random(4)
    perms = list(itertools.permutations(range(4)))[1:]
    for S in enumerate_finite(4):
        R = build_finite(relabeled_table(S.table, rng.choice(perms)))
        assert _statuses(R) == _statuses(S), S.table

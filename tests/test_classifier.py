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
from semitop.errors import BadParameter, CorpusIntegrityError
from semitop.predicates import FAILS, HOLDS, PREDICATES, UNKNOWN, Verdict

BUDGET = Budget(64, 2048)
STREAMS = dict(stream_corpus())

THEOREM_KINDS = (
    "C_closed", "ideally_projectively_closed", "injective_T1S",
    "injective_T2S", "absolute_T1S",
)


def _stripped(name):
    """The stream ``name`` with its declarations emptied, so every stream
    search runs (the center handle keeps its declared facts)."""
    return dataclasses.replace(STREAMS[name], declared_facts={})


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
    # the declared infinite chain refutes; the chain the search finds on
    # the stripped stream is evidence, and refutes nothing
    report = classify(STREAMS["natmin"], BUDGET, name="natmin")
    v = report.theorems["C_closed"]
    assert v.fails and v.source == "declared"
    assert v.witness["failing"] == ["chain_finite"]
    chain = classify(_stripped("natmin"), BUDGET).suite["chain_finite"]
    assert chain.status == UNKNOWN and chain.source == "search"
    assert chain.witness["kind"] == "chain" and chain.witness["length"] == BUDGET.elements


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
    singular = classify(_stripped("nullstream"), BUDGET).suite["nonsingular"]
    assert singular.status == UNKNOWN and singular.witness["kind"] == "singular_prefix"
    # one idempotent, so the unipotent specialization fires and agrees
    assert report.unipotent.holds
    assert report.theorems["unipotent_C_closed"].fails


def test_infinite_subgroup_refutes_injective_closedness():
    report = classify(STREAMS["intadd"], BUDGET, name="intadd")
    v = report.theorems["injective_T2S"]
    assert v.fails and v.source == "declared"
    assert "group_finite" in v.witness["failing"]
    assert report.theorems["C_closed"].fails
    growth = classify(_stripped("intadd"), BUDGET).suite["group_finite"]
    assert growth.status == UNKNOWN and growth.witness["kind"] == "subgroup_growth"


def test_flat_stream_is_closed_but_not_injectively():
    report = classify(STREAMS["flat"], BUDGET, name="flat")
    assert report.theorems["C_closed"].holds
    assert report.theorems["C_closed"].source == "declared"
    v = report.theorems["injective_T1S"]
    assert v.fails and v.source == "declared"
    assert v.witness["failing"] == ["clifford_finite"]
    growth = classify(_stripped("flat"), BUDGET).suite["clifford_finite"]
    assert growth.status == UNKNOWN and growth.witness["kind"] == "clifford_growth"
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


@pytest.mark.parametrize("budget", [Budget(64, 1024), Budget(256, 4096)])
@pytest.mark.parametrize("name", ["natplus", "intadd"])
def test_a_conjunction_with_unknown_criteria_does_not_hold(name, budget):
    # with only commutativity declared, a conjunction's criteria may all be
    # unknown; that once read as holds, against the declared stream's fails
    declared = classify(STREAMS[name], budget).theorems
    S = dataclasses.replace(STREAMS[name], declared_facts={"commutative": True})
    # each run takes at most 25,602 products
    for kind, v in classify(capped(S, 40_000), budget).theorems.items():
        assert v.status in (UNKNOWN, declared[kind].status), (kind, v.witness)
        if v.witness["kind"] == "conjunction" and v.witness["unknown"]:
            assert not v.holds, (kind, v.witness)


def test_rules_that_need_commutativity_say_when_it_is_unknown():
    # absolute_T1S once called a stream of unknown commutativity noncommutative
    S = dataclasses.replace(STREAMS["natplus"], declared_facts={}, center_facts={})
    report = classify(S, Budget(64, 1024))
    assert report.commutative.status == UNKNOWN
    for kind in THEOREM_KINDS:
        v = report.theorems[kind]
        assert v.witness["kind"] == "inapplicable" and v.note == "commutativity unknown", kind


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_a_declaration_reads_alike_from_every_entry_point(name):
    # direct calls, the suite and the center suite answer a declared fact
    # that no stream search could refute from the one short-circuit in
    # predicates, as the declaration itself
    S, budget = STREAMS[name], Budget(256, 4096)
    report = classify(S, budget)
    assert report.suite == {p: fn(S, budget) for p, fn in PREDICATES.items()}
    for suite, facts in ((report.suite, S.declared_facts), (report.center.suite, S.center_facts)):
        for p, v in suite.items():
            if p in ("commutative", "unipotent") or p not in facts:
                continue
            want = {"kind": "declared", "fact": p, "value": bool(facts[p])}
            if p == "bounded" and facts[p]:
                want["n"] = facts["bound_exponent"]
            assert v.source == "declared" and v.witness == want, (p, v.witness)


@pytest.mark.parametrize("name", ["natmin", "prodcenter"])
def test_a_handle_declaring_none_classifies_as_one_declaring_nothing(name):
    # the dataclass default, or dataclasses.replace, may leave None where
    # build_stream writes {}; the center probe once read None.get and raised
    # AttributeError
    budget = Budget(64, 1024)
    got = classify(dataclasses.replace(STREAMS[name], declared_facts=None), budget)
    assert got == classify(dataclasses.replace(STREAMS[name], declared_facts={}), budget)


def test_a_carrier_that_runs_dry_contradicts_a_declared_infinite_one():
    # finiteness checks its search answer against a declaration, like every
    # predicate; it once reported finite and absolute_T1S as holds
    liar = build_stream("liar", min, lambda: iter(range(5)),
                        declared_facts={"finite": False, "commutative": True})
    with pytest.raises(CorpusIntegrityError, match="declared finite=False"):
        classify(liar, Budget(64, 1024))


def test_intadd_classification_stays_under_its_multiplication_ceiling():
    # the stripped stream runs every Clifford predicate: 35,847 products at
    # 256/4096 and 111,879 at 1024/16384.  A subgroup certificate that
    # scans the prefix for a witness, not reading the one code of intadd's
    # quotient 0/x, costs 52,359 and 374,535
    for budget, ceiling in ((Budget(256, 4096), 45_000), (Budget(1024, 16384), 130_000)):
        classify(capped(_stripped("intadd"), ceiling), budget, name="intadd")


def test_stream_classification_stays_under_its_multiplication_ceilings():
    # a declared fact answers every predicate but the two guards at no
    # product, so the declared streams pay for commutative's scan of
    # 2 * steps products, unipotent's squares and the probes: 33,792
    # products on intadd at 1024/16384, 6,210 and 6,978 on prodcenter at
    # 256/4096 and 1024/16384, and 267,396 over the corpus at both.
    # Testing prodcenter's central codes against the window's generators,
    # not reading its center off its factors, costs 17,336 and 18,104.
    total = 0
    for budget in (Budget(256, 4096), Budget(1024, 16384)):
        for name, plain in stream_corpus():
            S, meter = counted(plain)
            classify(S, budget, name=name)
            if name == "intadd" and budget.elements == 1024:
                assert meter.calls <= 40_000, meter.calls
            if name == "prodcenter":
                ceiling = 8_000 if budget.elements == 256 else 9_000
                assert meter.calls <= ceiling, (budget, meter.calls)
            total += meter.calls
    assert total <= 300_000, total


def test_chain_search_keeps_stream_classification_under_its_ceilings():
    # the stripped streams run the chain search: 94,234 and 48,950
    # products; a pairwise chain search alone costs 1024^2 = 1,048,576 on
    # natmin and 1,054,702 on prodcenter
    for name, ceiling in (("natmin", 100_000), ("prodcenter", 110_000)):
        classify(capped(_stripped(name), ceiling), Budget(1024, 16384), name=name)


def test_singular_evidence_keeps_null_classification_under_its_ceiling():
    # the stripped streams run the singular searches: 86,970 products
    # each; growing the singular sets to the element budget scans 1024^2
    # pairs twice, 2,147,645 products in all
    for name in ("nullstream", "nilstream"):
        report = classify(capped(_stripped(name), 100_000), Budget(1024, 16384),
                          name=name)
        witness = report.suite["nonsingular"].witness
        assert witness["kind"] == "singular_prefix" and len(witness["elements"]) == 64, name


@pytest.mark.parametrize("budget", [Budget(64, 64), Budget(256, 4096), Budget(1024, 16384)])
@pytest.mark.parametrize("name", sorted(STREAMS))
def test_classify_reads_each_carrier_code_once(name, budget):
    # the view's pool is the one reader of the enumerator: on the stripped
    # stream its deepest readers are the chain and singular searches and
    # the center handle (max(elements, steps) codes) and finiteness
    # (elements + 1); on the declared stream, which runs no chain or
    # singular search, finiteness, or prodcenter's center handle at
    # 256/4096, whose finiteness probe reads 129 central codes, one code in
    # three.  No code is read twice.  Separate reads took 8,962 codes at
    # 256/4096 and 35,842 at 1024/16384.
    declared_depth = 387 if (name, budget.elements) == ("prodcenter", 256) else budget.elements + 1
    for base, depth in ((STREAMS[name], declared_depth),
                        (_stripped(name), max(budget.steps, budget.elements + 1))):
        read = [0]

        def enumerate_carrier(base=base):
            for x in base.enumerate_carrier():
                read[0] += 1
                yield x

        classify(dataclasses.replace(base, enumerate_carrier=enumerate_carrier), budget,
                 name=name)
        assert read[0] == depth, base.declared_facts


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

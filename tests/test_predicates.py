"""Predicate verdicts: finite certainties, stream searches, declarations."""

import dataclasses
import itertools

import pytest

import oracle_brute as ob
from finite_corpus import standard_finite_corpus
from metering import counted

from semitop import core, predicates

from semitop.builders import (
    adjoin_identity,
    chain_semilattice,
    cyclic_group,
    flat_stream,
    intadd,
    left_zero,
    natmin,
    natplus,
    nullstream,
    stream_corpus,
    zero_semigroup,
)
from semitop.classify import classify
from semitop.core import Budget, build_finite, build_stream, direct_product
from semitop.corpus import enumerate_finite
from semitop.errors import CorpusIntegrityError
from semitop.predicates import (
    FAILS,
    HOLDS,
    UNKNOWN,
    Verdict,
    bounded,
    chain_finite,
    check_suite_consistency,
    clifford_finite,
    commutative,
    conjunction_status,
    evaluate_suite,
    group_finite,
    least_uniform_exponent,
    negation_status,
    nonsingular,
    periodic,
    replay,
    unipotent,
)

BUDGET = Budget(64, 1024)


def _stripped(S):
    """``S`` with its declarations emptied, so every stream search runs."""
    return dataclasses.replace(S, declared_facts={})


def test_exact_views_run_no_stream_search(monkeypatch):
    # a finite table's verdicts are read off its exact view, never searched
    def boom(*args):
        raise AssertionError("stream search on an exact view")

    monkeypatch.setattr(predicates, "_chain_search", boom)
    monkeypatch.setattr(predicates, "_singular_search", boom)
    monkeypatch.setattr(core.Prefix, "orbit_profile", property(boom))
    for name, S in standard_finite_corpus():
        for pname, v in evaluate_suite(S, BUDGET).items():
            assert v.definite and v.source == "finite", (name, pname)


def test_three_valued_connectives():
    assert conjunction_status([HOLDS, HOLDS]) == HOLDS
    assert conjunction_status([HOLDS, UNKNOWN]) == UNKNOWN
    assert conjunction_status([UNKNOWN, FAILS]) == FAILS
    assert conjunction_status([]) == HOLDS
    assert negation_status(HOLDS) == FAILS
    assert negation_status(UNKNOWN) == UNKNOWN


def test_conjunction_status_of_a_generator_or_iterator_reads_it_once():
    # a generator drained by the Fails check once read as all([]), so every
    # conjunction with no failing criterion came out Holds
    rank = {FAILS: 0, UNKNOWN: 1, HOLDS: 2}
    for n in range(4):
        for statuses in itertools.product((HOLDS, FAILS, UNKNOWN), repeat=n):
            want = min(statuses, key=rank.__getitem__, default=HOLDS)
            assert conjunction_status(s for s in statuses) == want, statuses
            assert conjunction_status(iter(statuses)) == want, statuses
            assert conjunction_status(list(statuses)) == want, statuses


def test_least_uniform_exponent_matches_oracle():
    for name, S in standard_finite_corpus():
        if S.size > 6:
            continue
        t = [list(r) for r in S.table]
        assert least_uniform_exponent(S) == ob.least_uniform_exponent(t), name


def test_bounded_reports_least_exponent():
    v = bounded(cyclic_group(6))
    assert v.holds and v.witness["n"] == 6
    assert bounded(zero_semigroup(4)).witness["n"] == 2


def test_finite_suite_statuses_are_definite():
    for name, S in standard_finite_corpus():
        suite = evaluate_suite(S, BUDGET)
        for pname, v in suite.items():
            assert v.definite, (name, pname)
            assert v.source == "finite", (name, pname)


def test_natmin_chain_refutation():
    # the declaration refutes; a chain of 32 codes found by the search on
    # the stripped stream is evidence only
    assert chain_finite(natmin(), Budget(32, 4096)).source == "declared"
    S = _stripped(natmin())
    v = chain_finite(S, Budget(32, 4096))
    assert v.status == UNKNOWN and v.source == "search"
    assert v.witness["kind"] == "chain" and v.witness["length"] >= 32
    assert replay(S, "chain_finite", v)


def test_nullstream_singularity():
    # a singular set is evidence: only the declared fact refutes
    v = nonsingular(nullstream(), Budget(32, 4096))
    assert v.fails and v.source == "declared"
    S = _stripped(nullstream())
    v = nonsingular(S, Budget(32, 4096))
    assert v.status == UNKNOWN and v.source == "search"
    assert v.witness["kind"] == "singular_prefix" and v.witness["length"] == 32
    assert replay(S, "nonsingular", v)


def test_natplus_periodicity_only_by_declaration():
    v = periodic(natplus(), BUDGET)
    assert v.fails and v.source == "declared"
    assert replay(natplus(), "periodic", v)


def test_flat_stream_clifford_growth():
    S = _stripped(flat_stream())
    v = clifford_finite(S, Budget(64, 4096))
    assert v.status == UNKNOWN and v.source == "search"
    assert v.witness["kind"] == "clifford_growth" and v.witness["count"] >= 32
    assert replay(S, "clifford_finite", v)


def test_intadd_group_growth_is_witnessed():
    # the whole carrier is one subgroup, so the growth search fills its
    # budget; no finite prefix proves the subgroup infinite
    v = group_finite(_stripped(intadd()), BUDGET)
    assert v.status == UNKNOWN and v.source == "search"
    assert v.witness["kind"] == "subgroup_growth"
    assert v.witness["count"] >= BUDGET.elements // 2


def test_unipotent_pair_witness():
    v = unipotent(natmin(), BUDGET)
    assert v.fails
    x, y = v.witness["pair"]
    S = natmin()
    assert S.mul(x, x) == x and S.mul(y, y) == y and x != y


def _stream(name):
    for n, S in stream_corpus():
        if n == name:
            return S
    raise LookupError(name)


def test_commutative_search_on_streams():
    assert commutative(natmin(), BUDGET).holds  # declared
    v = commutative(_stream("prodcenter"), BUDGET)
    assert v.fails and v.witness["kind"] == "noncommuting_pair"


def test_contradictory_declaration_is_rejected():
    # two idempotents are a finite proof against unipotent; a chain of 32
    # codes proves no infinite chain, so chain_finite keeps its declared
    # value, and the search, run once the fact is stripped, finds the chain
    # as evidence
    base = natmin()
    liar = build_stream("liar", base.mul_fn, base.enumerate_carrier,
                        declared_facts={"chain_finite": True, "unipotent": True})
    with pytest.raises(CorpusIntegrityError):
        predicates.unipotent(liar, Budget(32, 4096))
    v = chain_finite(liar, Budget(32, 4096))
    assert v.holds and v.source == "declared"
    assert v.witness == {"kind": "declared", "fact": "chain_finite", "value": True}
    v = chain_finite(_stripped(liar), Budget(32, 4096))
    assert v.status == UNKNOWN
    assert v.witness == {"kind": "chain", "elements": list(range(32)), "length": 32}


def test_declared_bound_exponent_is_spot_checked():
    # Z/5 under addition has uniform exponent 5, not the declared 3
    liar = build_stream("liar2", lambda x, y: (x + y) % 5,
                        lambda: iter(range(5)),
                        declared_facts={"bounded": True, "bound_exponent": 3})
    with pytest.raises(CorpusIntegrityError):
        bounded(liar, BUDGET)


# the two stream searches with a finite refuting witness, a noncommuting
# pair and an idempotent pair; every other declared fact answers unsearched
GUARDED = ("commutative", "unipotent")


def _liars():
    """(predicate, stream, error) for streams whose declaration a finite
    witness refutes."""
    nat = natmin()
    yield pytest.param("commutative", build_stream(
        "leftzero-stream", lambda x, y: x, nat.enumerate_carrier,
        declared_facts={"commutative": True}), "commutative", id="noncommuting-pair")
    yield pytest.param("unipotent", build_stream(
        "two-idempotents", nat.mul_fn, nat.enumerate_carrier,
        declared_facts={"unipotent": True}), "unipotent", id="idempotent-pair")
    # Z/5 under addition has uniform exponent 5, not the declared 3
    yield pytest.param("bounded", build_stream(
        "bound3", lambda x, y: (x + y) % 5, lambda: iter(range(5)),
        declared_facts={"bounded": True, "bound_exponent": 3}), "bound exponent 3",
        id="bound-exponent")


@pytest.mark.parametrize("entry", ["predicate", "evaluate_suite", "classify"])
@pytest.mark.parametrize("name,liar,error", list(_liars()))
def test_every_entry_point_keeps_the_guard_on_a_declaration(name, liar, error, entry):
    run = {"predicate": predicates.PREDICATES[name], "evaluate_suite": evaluate_suite,
           "classify": classify}[entry]
    with pytest.raises(CorpusIntegrityError, match=error):
        run(liar, BUDGET)


@pytest.mark.parametrize("budget", [Budget(64, 1024), Budget(1024, 16384)])
def test_a_declared_evidence_only_fact_costs_no_product(monkeypatch, budget):
    # a declared bound exponent costs its check on the first SAMPLE_SIZE
    # codes, at most two products each for an exponent of 1 or 2, and no
    # orbit profile
    def boom(*args):
        raise AssertionError("orbit profile of a declared bound")

    monkeypatch.setattr(core.Prefix, "orbit_profile", property(boom))
    for name, plain in stream_corpus():
        for pname, fn in predicates.PREDICATES.items():
            if pname in GUARDED or pname not in plain.declared_facts:
                continue
            S, meter = counted(plain)
            v = fn(S, budget)
            assert v.source == "declared" and v.holds == plain.declared_facts[pname]
            ceiling = 2 * core.SAMPLE_SIZE if pname == "bounded" and v.holds else 0
            assert meter.calls <= ceiling, (name, pname, meter.calls)


def test_suite_consistency_holds_everywhere():
    for name, S in stream_corpus():
        evaluate_suite(S, BUDGET)  # raises CorpusIntegrityError on violation


def test_finite_clifford_part_with_a_long_chain_is_flagged():
    suite = evaluate_suite(zero_semigroup(2), BUDGET)
    suite["chain_finite"] = Verdict(FAILS, "search", None, BUDGET)
    with pytest.raises(CorpusIntegrityError, match="clifford_finite holds"):
        check_suite_consistency(suite, "synthetic")


def _null_monoid():
    """Zero 0, identity 1 and atoms 2, 3, ... whose products are all 0,
    with its subgroup union declared and nothing else, so the singular
    searches run."""
    def mul(x, y):
        return y if x == 1 else x if y == 1 else 0

    return build_stream("nullmonoid", mul, lambda: itertools.count(0),
                        declared_facts={"clifford_part_codes": [0, 1]})


@pytest.mark.parametrize("name,kind", [("nonsingular", "singular_prefix"),
                                       ("clifford_singular", "singular_into_subgroups")])
def test_replay_checks_declared_singular_evidence_pairwise(name, kind):
    # a declared fact answers these predicates without a search, so the
    # singular evidence replayed is the undeclared search's witness
    S = _null_monoid()
    v = predicates.PREDICATES[name](S, Budget(32, 1024))
    assert v.status == UNKNOWN and v.source == "search" and v.witness["kind"] == kind
    assert replay(S, name, v)
    # the identity in place of one atom: its square leaves the product set
    elements = v.witness["elements"][:-1] + [1]
    corrupt = v.witness | {"elements": elements}
    assert not replay(S, name, Verdict(v.status, v.source, corrupt, v.budget))


def test_replay_rejects_inflated_chain_length():
    S = _stripped(natmin())
    v = chain_finite(S, Budget(32, 4096))
    assert v.witness["kind"] == "chain"
    fake = Verdict(v.status, v.source, v.witness | {"length": 99}, v.budget)
    assert not replay(S, "chain_finite", fake)


def _as_stream(name, S):
    return build_stream(name, S.mul, lambda n=S.size: iter(range(n)))


def _pairwise_greedy(S, budget):
    pool = list(itertools.islice(S.enumerate_carrier(),
                                 max(budget.elements, budget.steps)))
    return ob.greedy_chain(S.mul, pool, budget.elements, budget.steps)


SMALL_BUDGETS = [Budget(2, 8), Budget(3, 16), Budget(4, 64), Budget(8, 64)]


@pytest.mark.parametrize("n", [3, 4])
def test_chain_search_matches_the_pairwise_greedy_on_small_tables(n):
    for k, S in enumerate(enumerate_finite(n)):
        T = _as_stream(f"table{n}.{k}", S)
        for budget in SMALL_BUDGETS:
            assert predicates._chain_search(T, budget) == _pairwise_greedy(T, budget), (
                n, k, budget)


def _rectangular_band(rows, cols):
    """(i, j)(k, l) = (i, l) on the codes i * cols + j."""
    n = rows * cols
    return build_finite([[x - x % cols + y % cols for y in range(n)] for x in range(n)])


@pytest.mark.parametrize("name,S", [
    ("leftzero:5", left_zero(5)),
    ("rectangular 3x4", _rectangular_band(3, 4)),
    ("leftzero:2+one x chain:9", direct_product(adjoin_identity(left_zero(2)),
                                                chain_semilattice(9))),
])
def test_chain_search_matches_the_pairwise_greedy_on_bands(name, S):
    # accepted pairs here are often left- or right-zero pairs, which the
    # natural order cannot place, so the full scan of ``side`` is exercised
    T = _as_stream(name, S)
    for budget in SMALL_BUDGETS + [Budget(16, 256), Budget(32, 1024)]:
        assert predicates._chain_search(T, budget) == _pairwise_greedy(T, budget), (
            name, budget)


@pytest.mark.parametrize("budget", [Budget(64, 1024), Budget(256, 4096)])
def test_chain_search_matches_the_pairwise_greedy_on_streams(budget):
    for name, S in stream_corpus():
        assert predicates._chain_search(S, budget) == _pairwise_greedy(S, budget), name


def test_chain_search_bisects_the_natural_order():
    # 1024 codes under min: about 17 products each, against 1024 pairwise
    S, meter = counted(natmin())
    found, best = predicates._chain_search(S, Budget(1024, 16384))
    assert found == list(range(1024)) and best == 1024
    assert meter.calls < 25_000


def test_replay_checks_every_pair_of_a_chain():
    # min, except that 0 * 3 leaves the pair: every pair of neighbours, in
    # the witness and in the order, still fits.  No semigroup breaks this
    # way (the natural order is transitive), so the sanity check is off.
    def mul(x, y):
        return 7 if {x, y} == {0, 3} else min(x, y)

    broken = build_stream("broken", mul, lambda: iter(range(8)), check=0)
    witness = {"kind": "chain", "elements": [0, 1, 2, 3], "length": 4}
    v = Verdict(FAILS, "search", witness, BUDGET)
    assert replay(natmin(), "chain_finite", v)
    assert not replay(broken, "chain_finite", v)

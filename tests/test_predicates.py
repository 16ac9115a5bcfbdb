"""Predicate verdicts: finite certainties, stream searches, declarations."""

import pytest

import oracle_brute as ob

from semitop import core, predicates

from semitop.builders import (
    cyclic_group,
    flat_stream,
    intadd,
    natmin,
    natplus,
    nullstream,
    standard_finite_corpus,
    stream_corpus,
    zero_semigroup,
)
from semitop.core import Budget, build_stream
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
    v = chain_finite(natmin(), Budget(32, 4096))
    assert v.fails and v.source == "search"
    assert v.witness["length"] >= 32
    assert replay(natmin(), "chain_finite", v)


def test_nullstream_singularity():
    v = nonsingular(nullstream(), Budget(32, 4096))
    assert v.fails and v.source == "search"
    w = v.witness
    assert w["kind"] == "singular_prefix" and w["length"] == 32
    assert replay(nullstream(), "nonsingular", v)


def test_natplus_periodicity_only_by_declaration():
    v = periodic(natplus(), BUDGET)
    assert v.fails and v.source == "declared"
    assert replay(natplus(), "periodic", v)


def test_flat_stream_clifford_growth():
    v = clifford_finite(flat_stream(), Budget(64, 4096))
    assert v.fails and v.source == "search"
    assert v.witness["count"] >= 32
    assert replay(flat_stream(), "clifford_finite", v)


def test_intadd_group_growth_is_witnessed():
    # the whole carrier is one subgroup, so the growth search refutes directly
    v = group_finite(intadd(), BUDGET)
    assert v.fails and v.source == "search"
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
    base = natmin()
    liar = build_stream("liar", base.mul_fn, base.enumerate_carrier,
                        declared_facts={"chain_finite": True})
    with pytest.raises(CorpusIntegrityError):
        chain_finite(liar, Budget(32, 4096))


def test_declared_bound_exponent_is_spot_checked():
    # Z/5 under addition has uniform exponent 5, not the declared 3
    liar = build_stream("liar2", lambda x, y: (x + y) % 5,
                        lambda: iter(range(5)),
                        declared_facts={"bounded": True, "bound_exponent": 3})
    with pytest.raises(CorpusIntegrityError):
        bounded(liar, BUDGET)


def test_suite_consistency_holds_everywhere():
    for name, S in stream_corpus():
        evaluate_suite(S, BUDGET)  # raises CorpusIntegrityError on violation


def test_finite_clifford_part_with_a_long_chain_is_flagged():
    suite = evaluate_suite(zero_semigroup(2), BUDGET)
    suite["chain_finite"] = Verdict(FAILS, "search", None, BUDGET)
    with pytest.raises(CorpusIntegrityError, match="clifford_finite holds"):
        check_suite_consistency(suite, "synthetic")


def test_replay_rejects_inflated_chain_length():
    v = chain_finite(natmin(), Budget(32, 4096))
    from semitop.predicates import Verdict
    fake = Verdict(v.status, v.source, v.witness | {"length": 99}, v.budget)
    assert not replay(natmin(), "chain_finite", fake)

"""Left quotients, shift neighborhoods, anchored bases, and certification."""

import dataclasses
import itertools

import pytest

import lemma_suite
from metering import capped

from semitop.builders import (
    chain_semilattice,
    cyclic_group,
    flat_finite,
    flat_stream,
    intadd,
    m3,
    natmin,
    natplus,
    nilstream,
    nullstream,
)
from semitop.core import Budget, CarrierSet
from semitop.errors import (
    BadParameter,
    CertificationFailed,
    Inapplicable,
    NoDivisionOracle,
    NotFound,
    NotIdempotent,
)
from semitop.predicates import HOLDS, UNKNOWN
from semitop.topology import (
    CertificationSample,
    EBase,
    certify_topology,
    ebase_Z,
    find_nonisolated_idempotent,
    is_regular,
    left_quotient,
    replay_certificate,
    shift,
    sufficient_regularity,
    topologizability_verdict,
    validate_remote_base,
)

BUDGET = Budget(256, 4096)


@dataclasses.dataclass
class CustomBase:
    """A constant family given by explicit member sets, with no refinement
    rule: what ``validate_remote_base`` accepts besides an ``EBase``."""

    S: object
    e: int
    members: list

    def member_sets(self):
        return list(enumerate(self.members))


def _set(elements):
    s = frozenset(elements)
    return CarrierSet(lambda x: x in s, lambda: iter(sorted(s)), exact=True)


# -- left quotients ----------------------------------------------------------

def test_left_quotient_finite_is_exhaustive():
    S = m3()  # identity 0, a=1 with a*a = zero = 2
    q = left_quotient(S, 2, 2)
    members, done = q.prefix(10)
    assert done and q.exact
    assert sorted(members) == [x for x in S.elements() if S.mul(x, 2) == 2]


def test_left_quotient_without_oracle_is_marked_inexact():
    S = natmin()
    q = left_quotient(S, 3, 5, BUDGET)
    assert not q.exact
    members, _ = q.prefix(8)
    assert members and all(S.mul(x, 5) == 3 for x in members)
    with pytest.raises(NoDivisionOracle):
        left_quotient(S, 3, 5, BUDGET, require_exact=True)


def test_left_quotient_uses_division_oracle():
    S = flat_stream()
    q = left_quotient(S, 0, 4, BUDGET, require_exact=True)
    assert q.exact
    assert q.member(7) and not q.member(4)  # everything but the divisor maps to 0
    own, done = left_quotient(S, 4, 4, BUDGET).prefix(5)
    assert own == [4] and done


def test_left_quotient_rejects_non_idempotent_divisor():
    with pytest.raises(NotIdempotent):
        left_quotient(cyclic_group(4), 0, 1)
    with pytest.raises(NotIdempotent):
        left_quotient(natplus(), 2, 1, BUDGET)


# -- shift neighborhoods -----------------------------------------------------

def test_shift_of_moved_point_is_singleton():
    S = flat_stream()
    # 1/2 is empty, so the neighborhood of 1 anchored at 2 is just {1}
    nb = shift(S, 2, 1, _set({2, 3}), BUDGET)
    members, done = nb.prefix(10)
    assert members == [1] and done
    assert nb.membership(5)[0] == "no"


def test_shift_membership_witnesses():
    S = flat_stream()
    nb = shift(S, 0, 0, _set({5}), BUDGET)
    status, witness = nb.membership(0)
    assert status == "yes" and witness == ("base",)
    status, witness = nb.membership(5)  # 5 is idempotent, 5*0 == 0, 5 in U
    assert status == "yes" and witness == (5, 5)
    assert nb.check_witness(5, witness)
    assert not nb.check_witness(5, (3, 5))


def test_shift_definite_no_needs_exhausted_factors():
    S = flat_stream()
    nb = shift(S, 3, 3, _set({4}), BUDGET)  # {3} | {3}*{4} == {3, 0}
    assert nb.membership(0)[0] == "yes"
    assert nb.membership(7)[0] == "no"
    # unbounded quotient, tiny scan: exclusion cannot be certified
    wide = shift(S, 0, 0, _set({5}), Budget(4, 4))
    assert wide.membership(9, pair_scan=4)[0] == "unknown"


# -- anchored base families --------------------------------------------------

def test_idempotent_base_member_excludes_upsets():
    base = EBase(flat_stream(), 0, "E", BUDGET)
    m = base.member((1, 2))
    assert not m.member(1) and not m.member(2)
    assert m.member(0) and m.member(5)


def test_power_base_on_a_finite_group_collapses_to_identity():
    zs = ebase_Z(cyclic_group(2), 0, n=2)
    assert zs.exact and zs.prefix(10) == ([0], True)


def test_subgroup_base_on_finite_flat():
    S = flat_finite(3)
    base = EBase(S, 0, "H")
    members, done = base.member((1,)).prefix(10)
    assert done and sorted(members) == [0, 2, 3]


def test_base_parameter_validation():
    with pytest.raises(BadParameter):
        EBase(flat_finite(3), 0, "Q")
    with pytest.raises(NotIdempotent):
        EBase(cyclic_group(4), 1, "E")
    base = EBase(cyclic_group(4), 0, "E")
    with pytest.raises(BadParameter):
        base.member((1,))  # not idempotent
    with pytest.raises(BadParameter):
        EBase(flat_finite(3), 1, "E").member((0,))  # 0 lies below the anchor


def test_refinement_lands_in_the_intersection():
    base = EBase(flat_stream(), 0, "E", BUDGET)
    joint = base.refine((1,), (2,))
    assert joint == (1, 2)
    inter = base.member(joint)
    a, b = base.member((1,)), base.member((2,))
    pre, _ = inter.prefix(16)
    assert all(a.member(x) and b.member(x) for x in pre)
    zbase = EBase(flat_stream(), 0, "Z", BUDGET)
    assert zbase.refine((2, (1,)), (3, ())) == (6, (1,))


@pytest.mark.parametrize("S", [flat_stream(), flat_finite(7)],
                         ids=["flat", "flat:7"])
def test_power_base_membership_matches_a_fresh_scan(S):
    queries = [10, 3, 5, 200, 300, 1, 256, 300, 250, 257, 7, 5, 0, 256, 10]
    for params in [(1, ()), (2, (5,)), (3, (1, 2)), (1, (3,))]:
        member = EBase(S, 0, "Z", BUDGET).member(params)
        fresh = EBase(S, 0, "Z", BUDGET).member(params).enumerate_fn()
        reference = set(itertools.islice(fresh, BUDGET.elements))
        assert [member.member(y) for y in queries] == [
            y in reference for y in queries]


# -- base-law validation -----------------------------------------------------

def test_builtin_base_satisfies_the_laws():
    S = flat_stream()
    report = validate_remote_base(S, EBase(S, 0, "E", BUDGET), sample=8,
                                  budget=BUDGET)
    assert report.ok and not report.violations and not report.unconfirmed
    assert report.checked["pairs"] > 0 and report.checked["law2_triples"] > 0


def test_undirected_family_is_rejected():
    S = flat_finite(3)
    bad = CustomBase(S, 0, [_set({0, 1}), _set({0, 2})])
    report = validate_remote_base(S, bad, sample=4)
    assert not report.ok
    assert any(v["law"] == 1 for v in report.violations)


# -- regularity --------------------------------------------------------------

def test_moved_point_is_separated_from_the_anchor():
    S = flat_stream()
    base = EBase(S, 0, "E", BUDGET)
    verdict = is_regular(S, 0, base, 5, BUDGET)
    assert verdict.holds and verdict.witness["kind"] == "regularity"
    # the constructed parameter shields the fixing idempotent of b
    assert verdict.witness["params"]["F"] == [5]


def test_regularity_is_inapplicable_for_fixed_points():
    S = flat_stream()
    base = EBase(S, 0, "E", BUDGET)
    with pytest.raises(Inapplicable):
        is_regular(S, 0, base, 0, BUDGET)


def test_sufficient_hypotheses_for_builtin_bases():
    S = flat_stream()
    sr = sufficient_regularity(S, 0, EBase(S, 0, "E", BUDGET), mode="E",
                               sample=8, budget=BUDGET)
    assert sr["ok"] and sr["refuted"] == []
    assert sr["hypotheses"]["central_idempotents_well_founded"] == "declared"
    srz = sufficient_regularity(S, 0, EBase(S, 0, "Z", BUDGET), mode="Z",
                                sample=8, budget=BUDGET)
    assert srz["ok"]
    assert srz["hypotheses"]["nonsingular"] == HOLDS
    assert srz["hypotheses"]["eventually_clifford"] == HOLDS


# -- certification and replay ------------------------------------------------

SAMPLE = CertificationSample(ground=8, t0_pairs=10, continuity=10, regularity=4,
                             isolation=4, neighborhoods=3, pair_scan=256)


def test_certified_chain_replays_cleanly():
    S = chain_semilattice(3)
    base = EBase(S, 0, "E")
    cert = certify_topology(S, 0, base, SAMPLE)
    assert cert.failures == [] and cert.unconfirmed == 0
    assert all(rec["definite"] for rec in cert.t0)
    assert all(rec["status"] == HOLDS for rec in cert.regularity)
    assert replay_certificate(S, base, cert)


def test_tampered_certificate_is_rejected():
    S = chain_semilattice(3)
    base = EBase(S, 0, "E")
    cert = certify_topology(S, 0, base, SAMPLE)
    cert.nonisolation[0]["met"] += 1
    with pytest.raises(CertificationFailed):
        replay_certificate(S, base, cert)


def test_flat_stream_certifies_at_scale():
    S = flat_stream()
    base = EBase(S, 0, "E", BUDGET)
    cert = certify_topology(S, 0, base, budget=BUDGET)
    assert cert.failures == []
    assert len(cert.t0) == 100 and all(r["definite"] for r in cert.t0)
    assert all(r["met"] > 0 for r in cert.nonisolation)
    assert replay_certificate(S, base, cert)


# -- anchor selection and the headline verdict -------------------------------

def test_anchor_selection_on_flat_stream():
    e, evidence = find_nonisolated_idempotent(flat_stream(), BUDGET)
    assert e == 0
    assert evidence["confirmed_at_bound"]
    assert evidence["upset_size"] == evidence["pool"]
    assert all(n["others_met"] > 0 for n in evidence["neighborhoods"])


def test_truncated_chain_selection_is_flagged():
    e, evidence = find_nonisolated_idempotent(natmin(), BUDGET)
    # the pick sits at the tail of the enumeration prefix: chain artifact
    assert not evidence["confirmed_at_bound"]
    assert evidence["position"] == e


def test_selection_requires_an_infinite_carrier():
    with pytest.raises(NotFound):
        find_nonisolated_idempotent(flat_finite(3))
    with pytest.raises(NotFound):
        find_nonisolated_idempotent(natplus(), BUDGET)


def test_topologizability_verdicts():
    holds = topologizability_verdict(flat_stream(), BUDGET)
    assert holds.holds and holds.witness["e"] == 0
    assert holds.witness["selection"]["confirmed_at_bound"]
    unknown = topologizability_verdict(natmin(), Budget(64, 2048))
    assert unknown.status == UNKNOWN
    assert "ez_chain_finite" in unknown.witness["missing"]
    finite = topologizability_verdict(flat_finite(3))
    assert finite.status == UNKNOWN
    assert finite.witness["kind"] == "inapplicable"


@pytest.mark.parametrize("make", [natplus, nullstream, nilstream, intadd])
def test_commutative_verdict_stays_under_its_multiplication_ceiling(make):
    # about 260 products; the ceiling catches an n^2 center scan of a
    # stream declared commutative (131 k at 256 codes)
    topologizability_verdict(capped(make(), 1_000), BUDGET)


# -- randomized law suite ----------------------------------------------------

def test_shift_laws_hold_on_the_finite_corpus():
    results = lemma_suite.run_suite(trials=200, seed=0)
    bad = {name: v for name, v in results.items() if v}
    assert not bad, bad


def test_flat_certification_stays_under_its_multiplication_ceiling():
    # each certificate costs about 0.9 M products; the ceilings catch a
    # center scan per sampled moved point (about 17 M) and a Z member scan
    # restarted on every miss (a Z replay of about 1.4 M)
    for kind in "EHZ":
        calls = 0
        plain = flat_stream()

        def counted(x, y, _mul=plain.mul_fn):
            nonlocal calls
            calls += 1
            return _mul(x, y)

        S = dataclasses.replace(plain, mul_fn=counted)
        cert = certify_topology(S, 0, EBase(S, 0, kind, BUDGET), budget=BUDGET,
                                seed=0)
        assert calls < 1_000_000, (kind, calls)
        if kind == "Z":
            calls = 0
            assert replay_certificate(S, EBase(S, 0, kind, BUDGET), cert)
            assert calls < 500_000, calls

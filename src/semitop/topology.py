"""Shift-generated semigroup topologies and their sampled certification.

Fix a central idempotent e.  The set of left factors moving e to b,
b/e = {x : x*e == b}, turns any set U into a neighborhood candidate for b
via the shift {b} | (b/e)*U.  A downward-directed family of central
subsemigroups living inside e/e (an "anchored base" at e) then generates
a T0 semigroup topology whose basic neighborhoods are exactly these
shifts.

Carriers may be infinite, so sets here are lazy: a membership predicate
plus a bounded enumerator.  Set equality is never tested; every claim
about the generated topology is certified on samples, with exactness
flags saying when a bounded answer happens to be complete.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .core import (
    DEFAULT_BUDGET,
    CarrierSet,
    bounded_view,
    carrier_prefix,
    central_idempotents,
    is_finite,
    power,
)
from .errors import (
    BadParameter,
    CertificationFailed,
    CorpusIntegrityError,
    Inapplicable,
    NoDivisionOracle,
    NotFound,
    NotIdempotent,
)
from .predicates import FAILS, HOLDS, UNKNOWN, Verdict

# evidence threshold: an up-set this large at the bound counts as
# "infinite-looking" when hunting for a non-isolated idempotent
NONISOLATION_TAU = 32


def _leq(S, x, y):
    """Natural order among idempotents: x <= y iff xy == yx == x."""
    return S.mul(x, y) == x and S.mul(y, x) == x


# ---------------------------------------------------------------------------
# left quotients and shifts

def left_quotient(S, b, e, budget=DEFAULT_BUDGET, require_exact=False):
    """The set {x : x*e == b} of left factors carrying e to b.

    Membership is always decided exactly; what varies is the enumerator.
    Finite handles and oracle-backed streams enumerate the whole set.
    Other streams scan a bounded carrier prefix, and the result is marked
    inexact; with ``require_exact`` that case raises instead."""
    if S.mul(e, e) != e:
        raise NotIdempotent(f"{e} is not idempotent")
    if is_finite(S):
        members = tuple(x for x in S.elements() if S.mul(x, e) == b)
        mset = frozenset(members)
        return CarrierSet(lambda x: x in mset, lambda: iter(members), exact=True)
    if S.division_oracle is not None:
        return S.division_oracle(b, e)
    if require_exact:
        raise NoDivisionOracle(f"{S.name} has no left-division oracle")
    scan = max(budget.elements, budget.steps)

    def gen():
        return (x for x in itertools.islice(S.enumerate_carrier(), scan)
                if S.mul(x, e) == b)

    return CarrierSet(lambda x: S.mul(x, e) == b, gen, exact=False)


@dataclass
class ShiftNeighborhood:
    """The shifted set {b} | (b/e)*U, the basic neighborhood of b.

    ``membership`` answers in three tiers: the base point; an O(1)
    witness (y, y) for idempotent members of both the quotient and U; and
    a bounded product scan.  A "no" is definite only when both factor
    enumerations were exhausted inside the scan."""

    S: object
    e: int
    b: int
    U: CarrierSet
    quotient: CarrierSet
    budget: object = DEFAULT_BUDGET

    def membership(self, y, pair_scan=None):
        if y == self.b:
            return "yes", ("base",)
        S = self.S
        if S.mul(y, y) == y and self.quotient.member(y) and self.U.member(y):
            return "yes", (y, y)
        scan = pair_scan if pair_scan is not None else self.budget.steps
        side = max(2, int(scan ** 0.5) + 1)
        qpre, qdone = self.quotient.prefix(side)
        upre, udone = self.U.prefix(side)
        for q in qpre:
            for u in upre:
                if S.mul(q, u) == y:
                    return "yes", (q, u)
        # an exhausted empty factor empties the product set by itself
        complete = ((qdone and udone) or (qdone and not qpre)
                    or (udone and not upre))
        return ("no", None) if complete else ("unknown", None)

    def contains(self, y, pair_scan=None):
        return self.membership(y, pair_scan)[0] == "yes"

    def check_witness(self, y, witness):
        if witness == ("base",):
            return y == self.b
        q, u = witness
        return (self.quotient.member(q) and self.U.member(u)
                and self.S.mul(q, u) == y)

    def prefix(self, limit, pair_scan=None):
        """Members discovered by a bounded diagonal product scan."""
        scan = pair_scan if pair_scan is not None else self.budget.steps
        side = max(2, int(scan ** 0.5) + 1)
        qpre, qdone = self.quotient.prefix(side)
        upre, udone = self.U.prefix(side)
        out = [self.b]
        seen = {self.b}
        for q in qpre:
            for u in upre:
                p = self.S.mul(q, u)
                if p not in seen:
                    seen.add(p)
                    out.append(p)
                    if len(out) >= limit:
                        return out, False
        return out, ((qdone and udone) or (qdone and not qpre)
                     or (udone and not upre))


def shift(S, e, b, U, budget=DEFAULT_BUDGET):
    """Build the neighborhood {b} | (b/e)*U for a set-like U."""
    if not isinstance(U, CarrierSet):
        members = tuple(U)
        mset = frozenset(members)
        U = CarrierSet(lambda x: x in mset, lambda: iter(members), exact=True)
    quotient = left_quotient(S, b, e, budget)
    return ShiftNeighborhood(S, e, b, U, quotient, budget)


# ---------------------------------------------------------------------------
# anchored base families at a central idempotent

class EBase:
    """The three built-in families of basic sets anchored at e.

    kind "E": idempotent central members of e/e, minus the up-set of a
    finite idempotent set F.  kind "H": central subgroup members of e/e
    whose subgroup idempotent avoids the up-set of F.  kind "Z": n-th
    powers of central members of e/e whose power projection avoids the
    up-set of F.  Parameters are F for E and H, (n, F) for Z.

    F must avoid the down-set of e; for kinds E and H it must consist of
    central idempotents, for kind Z of idempotents (centrality is not
    required there, matching the asymmetry of the three definitions).

    Centrality, subgroup membership and the central idempotents come from
    the handle's bounded view at the base's budget (``view``), so every
    base and certificate on one handle scans the center once."""

    def __init__(self, S, e, kind="E", budget=DEFAULT_BUDGET):
        if kind not in ("E", "H", "Z"):
            raise BadParameter(f"unknown base kind {kind!r}")
        if S.mul(e, e) != e:
            raise NotIdempotent(f"{e} is not idempotent")
        self.S = S
        self.e = e
        self.kind = kind
        self.budget = budget
        self.view = bounded_view(S, budget)
        if not self.view.central(e):
            raise BadParameter(f"{e} is not central (at bound)")
        self._memo_members = {}

    # -- parameter handling

    def _check_f(self, F):
        S = self.S
        for f in F:
            if S.mul(f, f) != f:
                raise BadParameter(f"parameter {f} is not idempotent")
            if _leq(S, f, self.e):
                raise BadParameter(f"parameter {f} lies below the anchor {self.e}")
            if self.kind in ("E", "H") and not self.view.central(f):
                raise BadParameter(f"parameter {f} is not central (at bound)")

    def normalize(self, params):
        if self.kind == "Z":
            n, F = params
            if n < 1:
                raise BadParameter("power degree must be >= 1")
            F = tuple(sorted(set(F)))
            self._check_f(F)
            return (n, F)
        F = tuple(sorted(set(params)))
        self._check_f(F)
        return F

    def refine(self, p1, p2):
        """Parameters of a member inside the intersection of two members."""
        if self.kind == "Z":
            (n1, f1), (n2, f2) = self.normalize(p1), self.normalize(p2)
            return (n1 * n2, tuple(sorted(set(f1) | set(f2))))
        f1, f2 = self.normalize(p1), self.normalize(p2)
        return tuple(sorted(set(f1) | set(f2)))

    def default_params(self):
        return (1, ()) if self.kind == "Z" else ()

    def parameter_pool(self):
        """Idempotents usable inside F, from the enumeration prefix."""
        view = self.view
        pool = view.idempotents if self.kind == "Z" else view.central_idempotents
        return tuple(f for f in pool if not _leq(self.S, f, self.e))

    def sample_params(self, rng, count, max_f=4):
        """Deterministic parameter sample; the unconstrained member first.

        Attempts are bounded: a small pool simply yields fewer parameter
        sets than asked for."""
        pool = list(self.parameter_pool())
        out = [self.default_params()]
        attempts = 0
        while len(out) < count and pool and attempts < 8 * count:
            attempts += 1
            k = rng.randint(1, min(max_f, len(pool)))
            F = tuple(sorted(rng.sample(pool, k)))
            p = (rng.randint(1, 4), F) if self.kind == "Z" else F
            if p not in out:
                out.append(p)
        return out

    def describe(self, params):
        if self.kind == "Z":
            n, F = params
            return {"kind": "Z", "n": n, "F": list(F)}
        return {"kind": self.kind, "F": list(params)}

    # -- membership machinery

    def _in_quotient(self, x):
        return self.S.mul(x, self.e) == self.e

    def _above_some(self, F, f):
        return any(_leq(self.S, g, f) for g in F)

    def member(self, params):
        """The instantiated basic set as a lazy CarrierSet."""
        params = self.normalize(params)
        if params in self._memo_members:
            return self._memo_members[params]
        S = self.S
        central = self.view.central
        if self.kind == "E":
            F = params

            def pred(x):
                return (self._in_quotient(x) and S.mul(x, x) == x
                        and central(x) and not self._above_some(F, x))

            def gen():
                return (x for x in self._carrier_iter() if pred(x))

            out = CarrierSet(pred, gen, exact=self.view.central_exact)
        elif self.kind == "H":
            F = params

            def pred(x):
                if not (self._in_quotient(x) and central(x)):
                    return False
                f = self.view.subgroup_idempotent(x)
                return f is not None and not self._above_some(F, f)

            def gen():
                return (x for x in self._carrier_iter() if pred(x))

            out = CarrierSet(pred, gen, exact=self.view.exact)
        else:
            n, F = params

            def qualifies(z):
                if not (self._in_quotient(z) and central(z)):
                    return False
                pi = self._power_idempotent(z)
                return (pi is not None and central(pi)
                        and not self._above_some(F, pi))

            def gen():
                seen = set()
                for z in self._carrier_iter():
                    if qualifies(z):
                        y = power(S, z, n)
                        if y not in seen:
                            seen.add(y)
                            yield y

            # members are the first budget.elements values gen() yields;
            # one scan serves every query, advanced only as far as needed
            known = set()
            scan = itertools.islice(gen(), self.budget.elements)

            def pred(y):
                if y in known:
                    return True
                for v in scan:
                    known.add(v)
                    if v == y:
                        return True
                return False

            out = CarrierSet(pred, gen, exact=self.view.exact)
        self._memo_members[params] = out
        return out

    def _carrier_iter(self):
        S = self.S
        return iter(S.elements()) if is_finite(S) else S.enumerate_carrier()

    def _power_idempotent(self, z):
        """Idempotent reached by the powers of z, or None at bound."""
        from .core import power_projection
        pp = power_projection(self.S, z, self.budget)
        return pp.idempotent if pp.status == "defined" else None

    def neighborhood(self, b, params):
        return shift(self.S, self.e, b, self.member(params), self.budget)


def ebase_E(S, e, F=(), budget=DEFAULT_BUDGET):
    return EBase(S, e, "E", budget).member(tuple(F))


def ebase_H(S, e, F=(), budget=DEFAULT_BUDGET):
    return EBase(S, e, "H", budget).member(tuple(F))


def ebase_Z(S, e, n=1, F=(), budget=DEFAULT_BUDGET):
    return EBase(S, e, "Z", budget).member((n, tuple(F)))


# ---------------------------------------------------------------------------
# validation of arbitrary (custom) indexed families

@dataclass
class ValidationReport:
    ok: bool
    checked: dict
    violations: list
    unconfirmed: list


def validate_remote_base(S, base, sample=16, budget=DEFAULT_BUDGET, seed=0):
    """Sampled check of the two base laws on ``base``: an ``EBase``, or
    any constant family with an anchor ``e`` and ``member_sets()``, a list
    of (index, CarrierSet) pairs.

    Law 1 (directedness and confinement): every pair of members must
    contain a third inside their intersection, itself inside e/e and the
    center.  Law 2 (shift compatibility): for sampled x, y and target
    member W there must be members U, V with V inside W, U*y inside y*W,
    and u*b*v inside b*W for b in y/e.  Violations carry the offending
    tuple; bounded searches that merely fail to confirm land in
    ``unconfirmed``."""
    rng = random.Random(seed)
    violations = []
    unconfirmed = []
    scan = max(8, budget.elements // 8)
    e = base.e

    if isinstance(base, EBase):
        plist = base.sample_params(rng, 4, max_f=3)
        pairs = [(p1, p2) for p1 in plist for p2 in plist]
        instantiate = base.member
        refine = base.refine
    else:
        sets = base.member_sets()
        pairs = [(i, j) for i, _ in sets for j, _ in sets]
        bysets = dict(sets)
        instantiate = lambda i: bysets[i]
        refine = None

    checked = {"pairs": 0, "law2_triples": 0}
    for p1, p2 in pairs:
        checked["pairs"] += 1
        a_set, b_set = instantiate(p1), instantiate(p2)
        if refine is not None:
            candidates = [refine(p1, p2)]
        else:
            candidates = [p for p, _ in base.member_sets()]
        placed = False
        for cp in candidates:
            c_set = instantiate(cp)
            cpre, _ = c_set.prefix(scan)
            bad = next((c for c in cpre
                        if not (a_set.member(c) and b_set.member(c)
                                and S.mul(c, e) == e)), None)
            if bad is None:
                placed = True
                break
        if not placed:
            witness = None
            for cp in candidates:
                cpre, _ = instantiate(cp).prefix(scan)
                witness = next((c for c in cpre
                                if not (a_set.member(c) and b_set.member(c)
                                        and S.mul(c, e) == e)), witness)
            violations.append({"law": 1, "pair": (p1, p2), "element": witness})

    ground = carrier_prefix(S, min(sample * 4, budget.elements))
    plist = (base.sample_params(rng, 3, max_f=2) if isinstance(base, EBase)
             else [p for p, _ in base.member_sets()])
    for _ in range(sample):
        x = rng.choice(ground)
        y = rng.choice(ground)
        wp = rng.choice(plist)
        checked["law2_triples"] += 1
        W = instantiate(wp)
        U = V = W  # members are central subsemigroups, so this choice works
        wpre, wdone = W.prefix(scan)
        upre, _ = U.prefix(scan)
        ok = True
        for u in upre:
            uy = S.mul(u, y)
            if not any(S.mul(y, w) == uy for w in wpre):
                if wdone:
                    violations.append({"law": 2, "x": x, "y": y, "params": wp,
                                       "element": u, "clause": "Uy"})
                else:
                    unconfirmed.append({"law": 2, "x": x, "y": y, "clause": "Uy"})
                ok = False
                break
        if not ok:
            continue
        qpre, _ = left_quotient(S, y, e, budget).prefix(max(2, scan // 2))
        for b in qpre[:4]:
            for u in upre[:4]:
                for v in wpre[:4]:
                    ubv = S.mul(S.mul(u, b), v)
                    if not any(S.mul(b, w) == ubv for w in wpre):
                        if wdone:
                            violations.append({"law": 2, "x": x, "y": y,
                                               "params": wp, "b": b,
                                               "element": (u, v),
                                               "clause": "UbV"})
                        else:
                            unconfirmed.append({"law": 2, "x": x, "y": y,
                                                "clause": "UbV"})
    return ValidationReport(ok=not violations, checked=checked,
                            violations=violations, unconfirmed=unconfirmed)


# ---------------------------------------------------------------------------
# regularity

def _least_fixing_idempotent(S, b, pool):
    """The least member of {x in pool : b*x == b}, via the semilattice
    product of all of them (the pool holds central idempotents)."""
    fixing = [x for x in pool if S.mul(b, x) == b]
    if not fixing:
        return None
    least = fixing[0]
    for x in fixing[1:]:
        least = S.mul(least, x)
    return least


def is_regular(S, e, base, b, budget=DEFAULT_BUDGET):
    """Find a basic set V whose shifted products avoid b: b not in (be/e)*V.

    Only meaningful for b moved by e (b != be); otherwise Inapplicable.
    The first candidate comes from the regularity construction: F is the
    least central idempotent fixing b, forcing products to stay above it
    while b is not.  A candidate survives when a bounded product scan
    finds no hit; the verdict is definite only if the scan was
    exhaustive.  The central idempotents come from the base's view, at the
    base's budget (callers pass that budget)."""
    be = S.mul(b, e)
    if be == b:
        raise Inapplicable("b is fixed by e; nothing to separate")
    least = _least_fixing_idempotent(S, b, base.view.central_idempotents)
    if least is not None and _leq(S, least, e):
        raise CertificationFailed(
            "regularity-construction",
            {"b": b, "least": least, "note": "fixing idempotent below anchor"})
    candidates = []
    if base.kind == "Z":
        candidates.append((1, (least,) if least is not None else ()))
    else:
        candidates.append((least,) if least is not None else ())
    rng = random.Random(0)
    for p in base.sample_params(rng, 6, max_f=3):
        if p not in candidates:
            candidates.append(p)
    quotient = left_quotient(S, be, e, budget)
    side = max(2, int(budget.steps ** 0.5) + 1)
    tried = 0
    for params in candidates:
        try:
            params = base.normalize(params)
        except BadParameter:
            continue
        tried += 1
        V = base.member(params)
        qpre, qdone = quotient.prefix(side)
        vpre, vdone = V.prefix(side)
        hit = any(S.mul(q, v) == b for q in qpre for v in vpre)
        if hit:
            continue
        exhaustive = qdone and vdone
        return Verdict(HOLDS, "finite" if exhaustive else "search",
                       {"kind": "regularity", "params": base.describe(params),
                        "pairs_checked": len(qpre) * len(vpre),
                        "exhaustive": exhaustive}, budget)
    return Verdict(UNKNOWN, "search",
                   {"kind": "search_exhausted", "candidates": tried}, budget)


def sufficient_regularity(S, e, base, mode="E", sample=16,
                          budget=DEFAULT_BUDGET, seed=0):
    """Check the hypotheses under which the base is provably regular.

    Modes E and H need the central idempotent order to have no infinite
    descent, and members avoiding the up-set of any finite F inside the
    central subgroup union.  Mode Z additionally needs nonsingularity and
    every element power-convergent, with members made of high powers.
    The report records each hypothesis as confirmed, refuted, or
    unconfirmed at the bound."""
    from .predicates import eventually_clifford, nonsingular

    rng = random.Random(seed)
    hypotheses = {}
    declared = (S.declared_facts or {}) if not is_finite(S) else {}

    def wf_status(fact_key):
        if is_finite(S):
            return "confirmed"
        if fact_key in declared:
            return "declared" if declared[fact_key] else "refuted"
        return "unconfirmed"

    if mode in ("E", "H"):
        hypotheses["central_idempotents_well_founded"] = wf_status("ez_chain_finite")
    else:
        hypotheses["idempotents_well_founded"] = wf_status("ez_chain_finite")
        hypotheses["nonsingular"] = nonsingular(S, budget).status
        hypotheses["eventually_clifford"] = eventually_clifford(S, budget).status

    ground = carrier_prefix(S, min(64, budget.elements))
    pool = list(base.parameter_pool())
    checks = []
    scan = max(8, budget.elements // 8)
    for _ in range(sample):
        b = rng.choice(ground)
        if S.mul(b, e) == b:
            continue
        k = rng.randint(0, min(3, len(pool)))
        F = tuple(sorted(rng.sample(pool, k))) if k else ()
        params = (rng.randint(1, 3), F) if base.kind == "Z" else F
        try:
            V = base.member(params)
        except BadParameter:
            continue
        vpre, _ = V.prefix(scan)
        bad = None
        for v in vpre:
            if base.kind in ("E", "H"):
                f = v if S.mul(v, v) == v else base.view.subgroup_idempotent(v)
                if f is None or any(_leq(S, g, f) for g in F):
                    bad = v
                    break
        checks.append({"b": b, "params": base.describe(params),
                       "members_checked": len(vpre), "violation": bad})
    refuted = [k for k, v in hypotheses.items() if v in ("refuted", FAILS)]
    return {"mode": mode, "hypotheses": hypotheses, "samples": checks,
            "refuted": refuted,
            "ok": not refuted and all(c["violation"] is None for c in checks)}


# ---------------------------------------------------------------------------
# certification of the generated topology

@dataclass
class CertificationSample:
    ground: int = 256
    t0_pairs: int = 100
    continuity: int = 100
    regularity: int = 64
    isolation: int = 64
    neighborhoods: int = 8
    max_f: int = 32
    pair_scan: int = 4096

    def as_dict(self):
        return dict(self.__dict__)


@dataclass
class TopologyCertificate:
    """Sampled evidence that the generated topology behaves as proved.

    Every record carries enough data to replay against raw multiplication
    and membership; ``failures`` holds definite contradictions (which
    indicate a bug, since the claims are theorems) and ``unconfirmed``
    counts bounded checks that could not come to a definite answer."""

    e: int
    kind: str
    config: dict
    t0: list = field(default_factory=list)
    continuity: list = field(default_factory=list)
    regularity: list = field(default_factory=list)
    isolation: list = field(default_factory=list)
    nonisolation: list = field(default_factory=list)
    discreteness: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    unconfirmed: int = 0

    def to_dict(self):
        return {
            "e": self.e, "kind": self.kind, "config": self.config,
            "t0": self.t0, "continuity": self.continuity,
            "regularity": self.regularity, "isolation": self.isolation,
            "nonisolation": self.nonisolation,
            "discreteness": self.discreteness,
            "failures": self.failures, "unconfirmed": self.unconfirmed,
        }


def _separates(S, base, x, y, params, pair_scan):
    """Can a basic neighborhood of x certifiably exclude y?"""
    if S.mul(x, base.e) != x:
        # the quotient x/e is empty, so every neighborhood of x is {x}
        return {"definite": True, "reason": "moved_point"}
    nb = base.neighborhood(x, params)
    status, _ = nb.membership(y, pair_scan)
    if status == "no":
        return {"definite": True, "reason": "excluded"}
    if status == "unknown":
        return {"definite": False, "reason": "excluded_at_bound"}
    return None


def certify_topology(S, e, base, sample=None, budget=DEFAULT_BUDGET, seed=0):
    """Certify, on samples, the separation, continuity, regularity, and
    isolation structure of the topology generated by the base at e.

    Definite contradictions raise CertificationFailed through the record
    lists; undecidable-at-bound checks only bump ``unconfirmed``."""
    sample = sample or CertificationSample()
    rng = random.Random(seed)
    cert = TopologyCertificate(e=e, kind=base.kind,
                               config={"sample": sample.as_dict(),
                                       "budget": budget.as_dict(),
                                       "seed": seed})
    ground = carrier_prefix(S, sample.ground)
    plist = base.sample_params(rng, sample.neighborhoods, sample.max_f)

    # T0: each sampled pair must be split by a basic neighborhood
    for _ in range(sample.t0_pairs):
        x, y = rng.sample(ground, 2)
        record = None
        for who, other in ((x, y), (y, x)):
            for params in plist:
                res = _separates(S, base, who, other, params, sample.pair_scan)
                if res is not None:
                    record = {"x": x, "y": y, "open_around": who,
                              "params": base.describe(base.normalize(params)),
                              **res}
                    break
            if record and record["definite"]:
                break
        if record is None:
            cert.unconfirmed += 1
            record = {"x": x, "y": y, "open_around": None, "definite": False,
                      "reason": "no_separation_at_bound"}
        elif not record["definite"]:
            cert.unconfirmed += 1
        cert.t0.append(record)

    # continuity: products of members of shifted neighborhoods stay inside
    # the shifted target; the witness choice U = V = W always works because
    # members are central subsemigroups
    side = max(2, int(sample.pair_scan ** 0.25) + 1)
    for _ in range(sample.continuity):
        a, b = rng.choice(ground), rng.choice(ground)
        wp = base.normalize(rng.choice(plist))
        ab = S.mul(a, b)
        na = base.neighborhood(a, wp)
        nb = base.neighborhood(b, wp)
        target = base.neighborhood(ab, wp)
        apre, _ = na.prefix(side)
        bpre, _ = nb.prefix(side)
        confirmed = unconfirmed = 0
        for xa in apre:
            for yb in bpre:
                status, _ = target.membership(S.mul(xa, yb), sample.pair_scan)
                if status == "yes":
                    confirmed += 1
                elif status == "unknown":
                    unconfirmed += 1
                else:
                    failure = {"claim": "continuity", "a": a, "b": b,
                               "params": base.describe(wp),
                               "product_of": (xa, yb)}
                    cert.failures.append(failure)
                    raise CertificationFailed("continuity", failure)
        cert.unconfirmed += unconfirmed
        cert.continuity.append({"a": a, "b": b, "params": base.describe(wp),
                                "U": base.describe(wp), "V": base.describe(wp),
                                "pairs": len(apre) * len(bpre),
                                "confirmed": confirmed,
                                "unconfirmed": unconfirmed})

    # regularity: separate each sampled moved point from the anchor
    moved = [b for b in ground if S.mul(b, e) != b]
    rng.shuffle(moved)
    for b in moved[:sample.regularity]:
        verdict = is_regular(S, e, base, b, budget)
        if verdict.status == UNKNOWN:
            cert.unconfirmed += 1
        cert.regularity.append({"b": b, "status": verdict.status,
                                **verdict.witness})

    # isolation: points moved by e have singleton neighborhoods; for the
    # others, sampled basic neighborhoods meeting more ground points are
    # evidence against isolation
    for x in ground[:sample.isolation]:
        if S.mul(x, e) != x:
            cert.isolation.append({"x": x, "isolated": True, "definite": True})
            continue
        meets = 0
        for params in plist[:2]:
            nbx = base.neighborhood(x, params)
            members, _ = nbx.prefix(8)
            meets = max(meets, len([m for m in members if m != x]))
        cert.isolation.append({"x": x, "isolated": meets == 0,
                               "definite": False, "witness_points": meets})

    # non-isolation of the anchor: every sampled basic neighborhood of e
    # keeps many ground points
    for params in plist:
        params = base.normalize(params)
        nbe = base.neighborhood(e, params)
        met = sum(1 for g in ground if g != e and nbe.contains(g, 64))
        cert.nonisolation.append({"params": base.describe(params), "met": met,
                                  "ground": len(ground)})

    # the non-isolated subspace is discrete: every other point of a basic
    # neighborhood of e is moved by e, hence isolated
    nbe = base.neighborhood(e, base.default_params())
    members, _ = nbe.prefix(64)
    bad = [a for a in members if a != e and S.mul(a, e) == a]
    if bad:
        failure = {"claim": "discreteness", "points": bad}
        cert.failures.append(failure)
        raise CertificationFailed("discreteness", failure)
    cert.discreteness.append({"point": e, "neighbors_checked": len(members) - 1,
                              "all_isolated": True})
    return cert


def replay_certificate(S, base, cert):
    """Re-derive every certificate record from raw operations."""
    e = cert.e
    for rec in cert.t0:
        if rec["open_around"] is None:
            continue
        who = rec["open_around"]
        other = rec["y"] if who == rec["x"] else rec["x"]
        if rec["reason"] == "moved_point":
            if S.mul(who, e) == who:
                raise CertificationFailed("replay-t0", rec)
        elif rec["definite"]:
            params = _params_from_desc(rec["params"])
            nb = base.neighborhood(who, params)
            if nb.membership(other)[0] != "no":
                raise CertificationFailed("replay-t0", rec)
    for rec in cert.regularity:
        if rec["status"] != HOLDS:
            continue
        params = _params_from_desc(rec["params"])
        be = S.mul(rec["b"], e)
        V = base.member(params)
        quotient = left_quotient(S, be, e, base.budget)
        side = max(2, int(base.budget.steps ** 0.5) + 1)
        qpre, _ = quotient.prefix(side)
        vpre, _ = V.prefix(side)
        if any(S.mul(q, v) == rec["b"] for q in qpre for v in vpre):
            raise CertificationFailed("replay-regularity", rec)
    for rec in cert.nonisolation:
        params = _params_from_desc(rec["params"])
        nbe = base.neighborhood(e, params)
        ground = carrier_prefix(S, rec["ground"])
        met = sum(1 for g in ground if g != e and nbe.contains(g, 64))
        if met != rec["met"]:
            raise CertificationFailed("replay-nonisolation", rec)
    for rec in cert.isolation:
        if rec["definite"] and rec["isolated"] and S.mul(rec["x"], e) == rec["x"]:
            raise CertificationFailed("replay-isolation", rec)
    return True


def _params_from_desc(desc):
    if desc["kind"] == "Z":
        return (desc["n"], tuple(desc["F"]))
    return tuple(desc["F"])


# ---------------------------------------------------------------------------
# non-isolated anchors and the topologizability verdict

def find_nonisolated_idempotent(S, budget=DEFAULT_BUDGET, tau=NONISOLATION_TAU):
    """Select a central idempotent that the generated topologies cannot
    isolate: one maximal among those whose up-set looks infinite.

    Works on the enumerated prefix, so the up-set threshold ``tau`` is
    evidence, not proof.  A selection landing in the last ``tau`` prefix
    positions is flagged: it is likely an artifact of truncating an
    infinite ascending chain.  Raises NotFound when the central
    semilattice is finite or no candidate qualifies at the bound."""
    if is_finite(S):
        raise NotFound("finite carrier: the central semilattice is finite")
    pool = list(central_idempotents(S, budget).elements)
    if len(pool) < tau:
        raise NotFound(f"only {len(pool)} central idempotents at bound")
    upset_size = {f: sum(1 for g in pool if _leq(S, f, g)) for f in pool}
    candidates = [f for f in pool if upset_size[f] >= tau]
    if not candidates:
        raise NotFound("no central idempotent with a large up-set at bound")
    cset = set(candidates)
    eligible = [f for f in candidates
                if all(g == f or not _leq(S, f, g) for g in cset)]
    if not eligible:
        raise NotFound("no maximal candidate at bound")
    e = min(eligible)
    position = pool.index(e)
    confirmed = position < len(pool) - tau
    base = EBase(S, e, "E", budget)
    meets = []
    rng = random.Random(0)
    for params in base.sample_params(rng, 3, max_f=2):
        member = base.member(base.normalize(params))
        count = sum(1 for g in pool if g != e and member.member(g))
        meets.append({"params": base.describe(base.normalize(params)),
                      "others_met": count})
    evidence = {"pool": len(pool), "candidates": len(candidates),
                "upset_size": upset_size[e], "position": position,
                "confirmed_at_bound": confirmed, "neighborhoods": meets}
    return e, evidence


def _chain_evidence(S, pool, target):
    """Longest descending chain found greedily inside the idempotent pool.

    Descends one covering step at a time by always picking the element
    with the smallest up-set among those below, so that a totally ordered
    pool yields its full length rather than collapsing to the bottom."""
    if not pool:
        return []
    sizes = {f: sum(1 for g in pool if _leq(S, f, g)) for f in pool}
    seeds = sorted(pool, key=lambda f: (sizes[f], f))[:4]
    best = []
    for seed in seeds:
        chain = [seed]
        current = seed
        while len(chain) < target:
            below = [c for c in pool if c != current and _leq(S, c, current)]
            if not below:
                break
            current = min(below, key=lambda c: (sizes[c], c))
            chain.append(current)
        if len(chain) > len(best):
            best = chain
        if len(best) >= target:
            break
    return best


def topologizability_verdict(S, budget=DEFAULT_BUDGET):
    """Does S carry a nondiscrete Hausdorff zero-dimensional semigroup
    topology, witnessed by a shift topology at a non-isolated anchor?

    Holds needs the central semilattice to be chain-finite (declared;
    search can only refute) and infinite (declared, with prefix
    evidence), plus a successful anchor selection.  Finite carriers are
    Unknown-inapplicable: the question concerns infinite carriers."""
    if is_finite(S):
        ez = central_idempotents(S, budget)
        return Verdict(UNKNOWN, "finite",
                       {"kind": "inapplicable", "ez_size": len(ez)}, budget,
                       note="finite carrier: any topology of interest is discrete")
    declared = S.declared_facts or {}
    pool = list(central_idempotents(S, budget).elements)
    chain = _chain_evidence(S, pool, budget.elements)
    missing = []

    if len(chain) >= budget.elements:
        if declared.get("ez_chain_finite") is True:
            raise CorpusIntegrityError(
                f"{S.name}: declared chain-finite central semilattice, but a "
                f"chain of length {len(chain)} was found")
        chain_v = Verdict(FAILS, "search",
                          {"kind": "chain", "length": len(chain),
                           "elements": chain[:8]}, budget)
    elif "ez_chain_finite" in declared:
        value = bool(declared["ez_chain_finite"])
        chain_v = Verdict(HOLDS if value else FAILS, "declared",
                          {"kind": "declared", "fact": "ez_chain_finite",
                           "value": value,
                           "evidence": {"longest_chain_found": len(chain)}},
                          budget)
    else:
        chain_v = Verdict(UNKNOWN, "search",
                          {"kind": "chain_at_bound", "length": len(chain)}, budget)

    if "ez_infinite" in declared:
        value = bool(declared["ez_infinite"])
        if value and len(pool) < 2:
            raise CorpusIntegrityError(
                f"{S.name}: declared infinite central semilattice, but only "
                f"{len(pool)} central idempotents were found at bound")
        infinite_v = Verdict(HOLDS if value else FAILS, "declared",
                             {"kind": "declared", "fact": "ez_infinite",
                              "value": value,
                              "evidence": {"prefix_count": len(pool)}}, budget)
    else:
        infinite_v = Verdict(UNKNOWN, "search",
                             {"kind": "prefix_count", "count": len(pool)}, budget)

    if not chain_v.holds:
        missing.append("ez_chain_finite")
    if not infinite_v.holds:
        missing.append("ez_infinite")
    if missing:
        return Verdict(UNKNOWN, "search",
                       {"kind": "missing_hypotheses", "missing": missing,
                        "ez_chain_finite": chain_v.status,
                        "ez_infinite": infinite_v.status}, budget,
                       note="hypotheses not established: " + ", ".join(missing))
    try:
        e, evidence = find_nonisolated_idempotent(S, budget)
    except NotFound as exc:
        return Verdict(UNKNOWN, "search",
                       {"kind": "selection_failed", "reason": str(exc)}, budget)
    return Verdict(HOLDS, "declared",
                   {"kind": "witness_topology", "e": e, "base_kind": "E",
                    "selection": evidence}, budget)

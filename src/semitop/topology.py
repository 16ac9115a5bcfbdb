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
import weakref
from dataclasses import dataclass, field
from functools import cached_property

from .core import (
    DEFAULT_BUDGET,
    CarrierSet,
    bounded_view,
    longest_chain,
    power,
    power_projection,
)
from .errors import (
    BadParameter,
    CertificationFailed,
    Inapplicable,
    NotFound,
    NotIdempotent,
)
from .predicates import HOLDS, UNKNOWN, Verdict, _declared

# evidence threshold: an up-set this large at the bound counts as
# "infinite-looking" when hunting for a non-isolated idempotent
NONISOLATION_TAU = 32


# ---------------------------------------------------------------------------
# left quotients and shifts

def left_quotients(S, e, budget=DEFAULT_BUDGET):
    """The map b -> b/e = {x : x*e == b} of left factors carrying e to b.

    Membership is always decided exactly; what varies is the enumerator.
    A division oracle (the contract is on ``StreamSemigroup``) lists each
    quotient whole, in carrier order.  Otherwise the view's pool is grouped
    by x*e in one pass to its ``depth``, on first use, and each quotient
    lists its group in pool order, complete only if the pool ran dry.  Each
    b/e is built once."""
    if S.mul(e, e) != e:
        raise NotIdempotent(f"{e} is not idempotent")
    view = bounded_view(S, budget)
    oracle, mul, pool, depth = view.division_oracle, S.mul, view.pool, view.depth
    groups, quotients = None, {}

    def grouped(b):
        nonlocal groups
        if groups is None:
            by_image = {}
            for x in pool.walk(depth):
                by_image.setdefault(mul(x, e), []).append(x)
            groups = by_image
        members = groups.get(b, ())
        return CarrierSet(lambda x: mul(x, e) == b, lambda: iter(members), (pool, depth))

    def quotient(b):
        if b not in quotients:
            quotients[b] = grouped(b) if oracle is None else oracle(b, e)
        return quotients[b]

    return quotient


def left_quotient(S, b, e, budget=DEFAULT_BUDGET):
    """The set b/e = {x : x*e == b}; see ``left_quotients``."""
    return left_quotients(S, e, budget)(b)


class _ProductScan:
    """The products q*u of two factor prefixes in row-major order, walked
    only as far as a query needs.  ``first`` maps each distinct product to
    the first pair giving it, in order of discovery; ``complete`` says
    whether the products are the whole shift."""

    def __init__(self, mul, qpre, upre, complete):
        self.mul, self.qpre, self.upre = mul, qpre, upre
        self.complete = complete
        self.first = {}
        self._at = (0, 0)

    def advance(self, stop):
        """Walk on until ``stop(p)`` holds for a new product p; False when
        the grid ends first.  The position moves only after a product is
        recorded, so a multiplication that raises loses nothing."""
        mul, qpre, upre, first = self.mul, self.qpre, self.upre, self.first
        i, j = self._at
        for i in range(i, len(qpre)):
            q = qpre[i]
            for j in range(j, len(upre)):
                u = upre[j]
                p = mul(q, u)
                if p not in first:
                    first[p] = (q, u)
                    if stop(p):
                        self._at = (i, j + 1)
                        return True
            j = 0
        self._at = (len(qpre), 0)
        return False


@dataclass
class ShiftNeighborhood:
    """The shifted set {b} | (b/e)*U, the basic neighborhood of b.

    ``membership`` answers from the base point; then from an O(1) witness
    (y, y) for idempotent members of both the quotient and U; then from
    the bounded product scan of quotient prefix times U prefix, about
    sqrt(pair_scan) codes each.  The scan is one per width, kept with the
    neighborhood and shared by ``membership`` and ``prefix``: each product
    is computed once, with its first pair (q, u) in row-major order, and
    the scan goes on only as far as an answer needs.  A "no" is definite
    only when both factor enumerations were exhausted inside the scan."""

    S: object
    e: int
    b: int
    U: CarrierSet
    quotient: CarrierSet
    budget: object = DEFAULT_BUDGET
    _scans: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def _scan(self, pair_scan):
        """The product scan at the width of ``pair_scan``.  Its products
        are the whole shift when both factors were exhausted, or one was
        exhausted and empty (which empties the products by itself)."""
        scan = pair_scan if pair_scan is not None else self.budget.steps
        side = max(2, int(scan ** 0.5) + 1)
        grid = self._scans.get(side)
        if grid is None:
            qpre, qdone = self.quotient.prefix(side)
            upre, udone = self.U.prefix(side)
            complete = ((qdone and udone) or (qdone and not qpre)
                        or (udone and not upre))
            grid = self._scans[side] = _ProductScan(self.S.mul, qpre, upre,
                                                    complete)
        return grid

    def membership(self, y, pair_scan=None):
        if y == self.b:
            return "yes", ("base",)
        S = self.S
        if S.mul(y, y) == y and self.quotient.member(y) and self.U.member(y):
            return "yes", (y, y)
        grid = self._scan(pair_scan)
        if y in grid.first or grid.advance(lambda p: p == y):
            return "yes", grid.first[y]
        return ("no", None) if grid.complete else ("unknown", None)

    def contains(self, y, pair_scan=None):
        return self.membership(y, pair_scan)[0] == "yes"

    def check_witness(self, y, witness):
        if witness == ("base",):
            return y == self.b
        q, u = witness
        return (self.quotient.member(q) and self.U.member(u)
                and self.S.mul(q, u) == y)

    def prefix(self, limit, pair_scan=None):
        """b, then the members the product scan discovers, until ``limit``
        points (at least one besides b); whether they are all of them."""
        grid = self._scan(pair_scan)
        b, first = self.b, grid.first
        want = max(limit - 1, 1)

        def enough(_=None):
            return len(first) - (b in first) >= want

        found = enough() or grid.advance(enough)
        out = [b, *itertools.islice((p for p in first if p != b), want)]
        return out, (False if found else grid.complete)


def shift(S, e, b, U, budget=DEFAULT_BUDGET):
    """Build the neighborhood {b} | (b/e)*U for a set-like U."""
    if not isinstance(U, CarrierSet):
        U = CarrierSet.of(U)
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

    A base carries its whole context: the handle ``S``, the anchor ``e``
    (one of the codes of ``view``), the ``kind`` and the
    ``budget``, so ``is_regular`` reads them from it.  Centrality, subgroup
    membership and the central idempotents come from the handle's bounded
    view at the base's budget (``view``), so every base and certificate on
    one handle scans the center once.

    A base computes each product of a certificate at most once: it admits
    each code once for all its members (``_admission``), which then filter
    the admitted codes by F alone, through the view's order index; it
    keeps one member per parameter set, one left quotient and one
    ``ShiftNeighborhood`` per point and parameter set, the regularity
    columns and candidates, the parameter pool and the sets checked.
    These memos hold the handle and the view but never the base, so a
    dropped base still frees everything at once."""

    def __init__(self, S, e, kind="E", budget=DEFAULT_BUDGET):
        if kind not in ("E", "H", "Z"):
            raise BadParameter(f"unknown base kind {kind!r}")
        self.view = view = bounded_view(S, budget)
        if e not in view.codes:
            n = len(view.codes)
            span = f"0..{n - 1}" if view.exact else f"the first {n} codes"
            raise BadParameter(f"anchor {e} outside {span}")
        if S.mul(e, e) != e:
            raise NotIdempotent(f"{e} is not idempotent")
        self.S = S
        self.e = e
        self.kind = kind
        self.budget = budget
        if not self.view.central(e):
            raise BadParameter(f"{e} is not central (at bound)")
        self._admission = _admission(S, e, kind, view, budget)
        self._quotient = left_quotients(S, e, budget)
        self._memo_members = {}
        self._neighborhoods = {}
        self._columns = {}
        self._checked = set()

    # -- parameter handling

    def _check_f(self, F):
        if F in self._checked:
            return
        S, view = self.S, self.view
        for f in F:
            if S.mul(f, f) != f:
                raise BadParameter(f"parameter {f} is not idempotent")
            if view.leq(f, self.e):
                raise BadParameter(f"parameter {f} lies below the anchor {self.e}")
            if self.kind in ("E", "H") and not view.central(f):
                raise BadParameter(f"parameter {f} is not central (at bound)")
        self._checked.add(F)

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

    def default_params(self):
        return (1, ()) if self.kind == "Z" else ()

    def parameter_pool(self):
        """Idempotents usable inside F, from the enumeration prefix."""
        return self._pool

    @cached_property
    def _pool(self):
        view = self.view
        pool = view.idempotents if self.kind == "Z" else view.central_idempotents
        return tuple(f for f in pool if not view.leq(f, self.e))

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

    @cached_property
    def _regularity_params(self):
        """The sampled candidates of ``is_regular``, the same at every point."""
        return self.sample_params(random.Random(0), 6, max_f=3)

    def describe(self, params):
        if self.kind == "Z":
            n, F = params
            return {"kind": "Z", "n": n, "F": list(F)}
        return {"kind": self.kind, "F": list(params)}

    # -- membership machinery

    def member(self, params):
        """The instantiated basic set as a lazy CarrierSet read off the
        admitted codes: kinds E and H keep those whose idempotent lies above
        no member of F, kind Z takes powers of those.  Its tests close over
        the admission memo and the view, not over the base, and kind Z's
        test reaches its own set by a weak reference, so no member is in a
        reference cycle: a dropped base frees its members, and the tables
        they reach, at once."""
        params = self.normalize(params)
        if params in self._memo_members:
            return self._memo_members[params]
        S, view, budget = self.S, self.view, self.budget
        admit, admitted = self._admission
        # the admitted codes are at most view.depth, so a reader of one more
        # finds their end, and with it whether the pool ran dry
        reach = view.depth + 1
        n, F = params if self.kind == "Z" else (None, params)

        above_some = view.above_some(F)

        def pred(x):
            f = admit(x)
            return f is not None and not above_some(f)

        if n is None:
            out = admitted.where(pred, reach)
        else:
            def gen():
                seen = set()
                for z in filter(pred, admitted.walk(reach)):
                    y = power(S, z, n)
                    if y not in seen:
                        seen.add(y)
                        yield y

            # members are the first budget.elements values gen() yields
            out = CarrierSet(None, gen, (admitted, reach))
            own = weakref.ref(out)
            out.member = lambda y: own().among_first(y, budget.elements)
        self._memo_members[params] = out
        return out

    def neighborhood(self, b, params):
        """The shift {b} | (b/e)*V of the member V at ``params``, one per
        point and parameter set, so its product scans are shared."""
        params = self.normalize(params)
        key = (b, params)
        if key not in self._neighborhoods:
            self._neighborhoods[key] = ShiftNeighborhood(
                self.S, self.e, b, self.member(params), self._quotient(b),
                self.budget)
        return self._neighborhoods[key]


def _admission(S, e, kind, view, budget):
    """The kind test of ``EBase``'s members, run once per code: ``admit``
    maps a central x in e/e to x itself for kind E (when idempotent), to
    x's subgroup idempotent for kind H, to the central idempotent x's powers
    reach for kind Z, and any other code to None.  Centrality goes first
    when a center test makes it free.  Also returns the admitted codes among
    the first ``view.depth`` of the view's pool, read lazily."""
    mul, memo = S.mul, {}

    def screen(x):
        return mul(x, e) == e and (kind != "E" or mul(x, x) == x)

    def idempotent(x):
        if kind != "Z":
            return x if kind == "E" else view.subgroup_idempotent(x)
        pp = power_projection(S, x, budget)
        return pp.idempotent if pp.status == "defined" and view.central(pp.idempotent) else None

    def admit(x):
        if x not in memo:
            if view.central_exact:
                passes = view.central(x) and screen(x)
            else:
                passes = screen(x) and view.central(x)
            memo[x] = idempotent(x) if passes else None
        return memo[x]

    return admit, view.pool.where(lambda x: admit(x) is not None, view.depth)


# ---------------------------------------------------------------------------
# regularity

def _least_fixing_idempotent(view, b):
    """The least central idempotent x of the view with b*x == b, via the
    semilattice product of all of them.  With a center test that is b
    itself when b is one of them: b*x == b makes b <= x for central x."""
    if view.central_exact and b in view.central_order:
        return b
    mul = view.mul
    fixing = [x for x in view.central_idempotents if mul(b, x) == b]
    if not fixing:
        return None
    least = fixing[0]
    for x in fixing[1:]:
        least = mul(least, x)
    return least


def _regularity_scan(base, b, be):
    """The bounded scan behind regularity at a point b with be == b*e.

    Returns a test of member parameters V: None when some product q*v hits
    b, for q in the prefix of (be)/e and v in the prefix of V, else the
    pairs checked and whether both prefixes were exhausted.  It asks
    whether b lies in the column {q*v : q} of each v; the columns are kept
    on the base by (be, v), so every moved point with the same be shares
    them, in ``is_regular`` and ``replay_certificate`` alike."""
    mul = base.S.mul
    side = max(2, int(base.budget.steps ** 0.5) + 1)
    qpre, qdone = base._quotient(be).prefix(side)
    columns = base._columns

    def column(v):
        if (be, v) not in columns:
            columns[be, v] = frozenset(mul(q, v) for q in qpre)
        return columns[be, v]

    def avoids(params):
        vpre, vdone = base.member(params).prefix(side)
        if any(b in column(v) for v in vpre):
            return None
        return len(qpre) * len(vpre), qdone and vdone

    return avoids


def is_regular(base, b):
    """Find a basic set V of ``base`` whose shifted products avoid b:
    b not in (be/e)*V, with S, e and the budget read off the base.

    Only meaningful for b moved by e (b != be); otherwise Inapplicable.
    The first candidate comes from the regularity construction: F is the
    least central idempotent fixing b, forcing products to stay above it
    while b is not.  A candidate survives when a bounded product scan
    finds no hit; the verdict is definite only if the scan was
    exhaustive."""
    S, e, budget = base.S, base.e, base.budget
    be = S.mul(b, e)
    if be == b:
        raise Inapplicable("b is fixed by e; nothing to separate")
    least = _least_fixing_idempotent(base.view, b)
    if least is not None and base.view.leq(least, e):
        raise CertificationFailed(
            "regularity-construction",
            {"b": b, "least": least, "note": "fixing idempotent below anchor"})
    candidates = []
    if base.kind == "Z":
        candidates.append((1, (least,) if least is not None else ()))
    else:
        candidates.append((least,) if least is not None else ())
    for p in base._regularity_params:
        if p not in candidates:
            candidates.append(p)
    avoids = _regularity_scan(base, b, be)
    tried = 0
    for params in candidates:
        try:
            params = base.normalize(params)
        except BadParameter:
            continue
        tried += 1
        found = avoids(params)
        if found is None:
            continue
        pairs, exhaustive = found
        return Verdict(HOLDS, "finite" if exhaustive else "search",
                       {"kind": "regularity", "params": base.describe(params),
                        "pairs_checked": pairs,
                        "exhaustive": exhaustive}, budget)
    return Verdict(UNKNOWN, "search",
                   {"kind": "search_exhausted", "candidates": tried}, budget)


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
    ground = base.view.pool.first(sample.ground)
    plist = base.sample_params(rng, sample.neighborhoods, sample.max_f)

    # T0: a basic neighborhood must split each sampled pair (a one-point ground has none)
    for _ in range(sample.t0_pairs if len(ground) > 1 else 0):
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
        verdict = is_regular(base, b)
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
        b = rec["b"]
        avoids = _regularity_scan(base, b, S.mul(b, e))
        if avoids(_params_from_desc(rec["params"])) is None:
            raise CertificationFailed("replay-regularity", rec)
    for rec in cert.nonisolation:
        params = _params_from_desc(rec["params"])
        nbe = base.neighborhood(e, params)
        ground = base.view.pool.first(rec["ground"])
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
    view = bounded_view(S, budget)
    if view.exact:
        raise NotFound("finite carrier: the central semilattice is finite")
    pool = list(view.central_idempotents)
    if len(pool) < tau:
        raise NotFound(f"only {len(pool)} central idempotents at bound")
    # f's up-set holds f and the members of its up-list
    up = view.up_lists
    candidates = [f for f in pool if len(up[f]) + 1 >= tau]
    if not candidates:
        raise NotFound("no central idempotent with a large up-set at bound")
    below_some = {g for f in candidates for g in view.central_order[f]}
    eligible = [f for f in candidates if f not in below_some]
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
                "upset_size": len(up[e]) + 1, "position": position,
                "confirmed_at_bound": confirmed, "neighborhoods": meets}
    return e, evidence


def topologizability_verdict(S, budget=DEFAULT_BUDGET):
    """Does S carry a nondiscrete Hausdorff zero-dimensional semigroup
    topology, witnessed by a shift topology at a non-isolated anchor?

    Holds needs the central semilattice to be chain-finite (declared;
    search neither proves nor refutes it) and infinite (declared, with prefix
    evidence), plus a successful anchor selection.  Finite carriers are
    Unknown-inapplicable: the question concerns infinite carriers."""
    view = bounded_view(S, budget)
    pool = view.central_idempotents
    if view.exact:
        return Verdict(UNKNOWN, "finite",
                       {"kind": "inapplicable", "ez_size": len(pool)}, budget,
                       note="finite carrier: any topology of interest is discrete")
    # the pool is at most ``elements`` codes, so is the chain
    chain = len(longest_chain(view.central_order))
    missing = []

    # a chain of ``elements`` codes proves no infinite chain, so search
    # refutes nothing: only a declaration decides
    chain_v = _declared(S, "ez_chain_finite", budget, {"longest_chain_found": chain}) or Verdict(
        UNKNOWN, "search", {"kind": "chain_at_bound", "length": chain}, budget)

    # a prefix with fewer than two central idempotents refutes no infinite
    # semilattice: the count is evidence only
    infinite_v = _declared(S, "ez_infinite", budget, {"prefix_count": len(pool)}) or Verdict(
        UNKNOWN, "search", {"kind": "prefix_count", "count": len(pool)}, budget)

    if not chain_v.holds:
        missing.append("ez_chain_finite")
    if not infinite_v.holds:
        missing.append("ez_infinite")
    if missing:
        return Verdict(UNKNOWN, "search",
                       {"kind": "missing_hypotheses", "missing": missing,
                        "ez_chain_finite": chain_v.status,
                        "ez_infinite": infinite_v.status,
                        "chain": chain_v.witness}, budget,
                       note="hypotheses not established: " + ", ".join(missing))
    try:
        e, evidence = find_nonisolated_idempotent(S, budget)
    except NotFound as exc:
        return Verdict(UNKNOWN, "search",
                       {"kind": "selection_failed", "reason": str(exc)}, budget)
    return Verdict(HOLDS, "declared",
                   {"kind": "witness_topology", "e": e, "base_kind": "E",
                    "selection": evidence}, budget)

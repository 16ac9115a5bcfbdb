"""Structural predicates with three-valued verdicts and replayable evidence.

Every predicate reads its handle through the bounded view and returns
Holds, Fails, or Unknown with the evidence that justifies it.  The view's
``exact`` flag decides the source: answers on an exact view (a finite
table) are final, source "finite".  On a stream a definite search answer
(source "search") must not be contradicted by a declared fact (that is a
corpus integrity error); when search is inconclusive a declared fact
decides with source "declared", else the verdict is Unknown with the
search residue attached.

Budget convention for the searches here: ``elements`` caps enumerated
prefixes and witness sizes, ``steps`` caps examined candidates in greedy
growth and exponent steps in orbit walks.  The chain and singular searches
scan the first ``max(elements, steps)`` codes of the view's ``pool``, which
reads the stream's enumerator once for every reader of the view.  Growing
a witness of k codes
costs the chain search O(k log k) products when the witness is a chain in
the natural order, plus a full scan of the witness for each accepted pair
the order cannot compare; the singular searches check every pair, O(k^2).
No finite prefix proves a set infinitely singular, so a singular set found
(for ``nonsingular`` or ``clifford_singular``) is evidence, not proof: it
settles as Unknown, a declared fact decides and carries it as
``evidence``, and its size is capped at ``min(elements, SAMPLE_SIZE)``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .core import (
    DEFAULT_BUDGET,
    SAMPLE_SIZE,
    Budget,
    Prefix,
    bounded_view,
    natural_order,
    power,
)
from .errors import CorpusIntegrityError

HOLDS = "holds"
FAILS = "fails"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Verdict:
    status: str
    source: str  # "finite" | "search" | "declared"
    witness: Optional[dict]
    budget: Budget
    note: str = ""

    @property
    def holds(self):
        return self.status == HOLDS

    @property
    def fails(self):
        return self.status == FAILS

    @property
    def definite(self):
        return self.status != UNKNOWN

    def to_dict(self):
        return {
            "status": self.status,
            "source": self.source,
            "witness": self.witness,
            "budget": self.budget.as_dict(),
            "note": self.note,
        }


def conjunction_status(statuses):
    """Three-valued AND: any Fails wins, all Holds needed for Holds.
    ``statuses`` may be any iterable; it is read once."""
    statuses = tuple(statuses)
    if any(s == FAILS for s in statuses):
        return FAILS
    if all(s == HOLDS for s in statuses):
        return HOLDS
    return UNKNOWN


def negation_status(status):
    return {HOLDS: FAILS, FAILS: HOLDS, UNKNOWN: UNKNOWN}[status]


def _facts(S):
    return getattr(S, "declared_facts", None) or {}


def _declared(S, name, budget, evidence=None):
    facts = _facts(S)
    if name not in facts:
        return None
    value = bool(facts[name])
    witness = {"kind": "declared", "fact": name, "value": value}
    if evidence is not None:
        witness["evidence"] = evidence
    return Verdict(HOLDS if value else FAILS, "declared", witness, budget)


def _guard_declaration(S, name, search_status):
    """A definite search result must agree with any declared fact."""
    facts = _facts(S)
    if name in facts:
        declared_status = HOLDS if facts[name] else FAILS
        if declared_status != search_status:
            raise CorpusIntegrityError(
                f"{getattr(S, 'name', 'stream')}: declared {name}={facts[name]} "
                f"contradicted by search ({search_status})")


def _settle(S, name, view, status, witness, evidence=True):
    """The one verdict tail, in the order of the module docstring; a
    declared verdict carries ``witness`` as evidence when ``evidence``."""
    budget = view.budget
    if view.exact:
        return Verdict(status, "finite", witness, budget)
    if status != UNKNOWN:
        _guard_declaration(S, name, status)
        return Verdict(status, "search", witness, budget)
    return _declared(S, name, budget, witness if evidence else None) or Verdict(
        UNKNOWN, "search", witness, budget)


# ---------------------------------------------------------------------------
# greedy searches on streams

def _chain_search(S, budget):
    """Grow a set whose pairwise products (diagonal included) stay inside
    the pair, restarting from each seed until the candidate budget runs out.
    The candidates, the view's first ``max(elements, steps)`` codes, run
    deeper than the target so sparse chains are still reached.  Returns
    (witness elements or None, best length seen).

    Such a set is made of idempotents, each pair comparable in the natural
    order (e <= f iff ef = fe = e) or a left- or right-zero pair.  Members
    met only comparable are kept ascending in ``line``; the order is
    transitive in every semigroup, so a candidate that fits between two
    neighbours of ``line`` fits all of it, and bisection replaces the scan.
    The rest go to ``side``, which every candidate checks in full.  So the
    pairwise greedy's candidates are accepted, in the same order, at
    O(k log k) products on a chain in the natural order plus a full scan
    per incomparable accepted pair.  ``replay`` still checks every pair."""
    mul = S.mul
    pool = bounded_view(S, budget).pool.first(max(budget.elements, budget.steps))
    target = budget.elements
    examined = 0
    best = 0

    def fits(x, c):
        return mul(x, c) in (x, c) and mul(c, x) in (x, c)

    def slot(x, line):
        """x's index in ``line``, -1 to put x in ``side``, None to reject."""
        lo, hi = 0, len(line)
        while lo < hi:
            mid = (lo + hi) // 2
            c = line[mid]
            xc = mul(x, c)
            if xc not in (x, c):
                return None
            cx = mul(c, x)
            if cx not in (x, c):
                return None
            if xc != cx:
                return -1 if all(fits(x, d) for d in line) else None
            if xc == c:  # c <= x
                lo = mid + 1
            else:
                hi = mid
        return lo

    for start in range(len(pool)):
        chain, line, side = [], [], []
        for x in pool[start:] + pool[:start]:
            examined += 1
            if mul(x, x) == x and all(fits(x, c) for c in side):
                at = slot(x, line)
                if at is not None:
                    chain.append(x)
                    if at < 0:
                        side.append(x)
                    else:
                        line.insert(at, x)
                    if len(chain) >= target:
                        return chain, len(chain)
            if examined >= budget.steps:
                return None, max(best, len(chain))
        best = max(best, len(chain))
    return None, best


def _singular_search(S, budget):
    """Grow a set A of ``min(elements, SAMPLE_SIZE)`` codes with A*A equal
    to one fixed constant (the seed's square).  Returns (elements, constant,
    length) or (None, None, best length)."""
    mul = S.mul
    pool = bounded_view(S, budget).pool.first(max(budget.elements, budget.steps))
    target = min(budget.elements, SAMPLE_SIZE)
    examined = 0
    best = 0
    for seed in pool:
        c = mul(seed, seed)
        group = [seed]
        for x in pool:
            if x == seed:
                continue
            examined += 1
            if mul(x, x) == c and all(
                    mul(x, a) == c and mul(a, x) == c for a in group):
                group.append(x)
                if len(group) >= target:
                    return group, c, len(group)
            if examined >= budget.steps:
                return None, None, max(best, len(group))
        best = max(best, len(group))
    return None, None, best


def _clifford_members(view, sample_idempotents=4):
    """Codes certified inside some subgroup: every idempotent plus the
    members of the first few subgroups, or every certified code on an
    exact view."""
    idem = view.idempotents
    sampled = set(idem if view.exact else idem[:sample_idempotents])
    return set(idem) | {x for x, e in view.subgroup_of.items() if e in sampled}


# ---------------------------------------------------------------------------
# the predicates

def chain_finite(S, budget=DEFAULT_BUDGET):
    """Every infinite subset has a pair multiplying outside itself.

    Trivial on exact views; the evidence records the longest chain in the
    idempotent order.  On streams a long-enough chain refutes."""
    view = bounded_view(S, budget)
    if view.exact:
        longest = natural_order(S).longest_chain()
        return _settle(S, "chain_finite", view, HOLDS,
                       {"kind": "finite", "longest_idempotent_chain": list(longest)})
    found, best = _chain_search(S, budget)
    if found is not None:
        witness = {"kind": "chain", "elements": list(found), "length": len(found)}
        # a chain of ``elements`` codes proves no infinite chain: a declared
        # chain-finite stream keeps its fact, with the chain as evidence
        if _facts(S).get("chain_finite"):
            return _declared(S, "chain_finite", budget, witness)
        return _settle(S, "chain_finite", view, FAILS, witness)
    return _settle(S, "chain_finite", view, UNKNOWN,
                   {"kind": "search_exhausted", "best_chain_length": best})


def nonsingular(S, budget=DEFAULT_BUDGET):
    """No infinite subset with a one-element product set."""
    view = bounded_view(S, budget)
    if view.exact:
        return _settle(S, "nonsingular", view, HOLDS, {"kind": "finite"})
    elems, const, best = _singular_search(S, budget)
    if elems is not None:
        witness = {"kind": "singular_prefix", "elements": list(elems),
                   "product": const, "length": len(elems)}
    else:
        witness = {"kind": "search_exhausted", "best_singular_length": best}
    return _settle(S, "nonsingular", view, UNKNOWN, witness)


def periodic(S, budget=DEFAULT_BUDGET):
    """Every element has an idempotent power."""
    return _power_limit(S, "periodic", budget)


def eventually_clifford(S, budget=DEFAULT_BUDGET):
    """Every element has a power inside a subgroup."""
    return _power_limit(S, "eventually_clifford", budget)


def _power_limit(S, name, budget):
    """Holds on exact views: finite semigroups are periodic, so some power
    is idempotent.  On streams neither direction is decidable by search:
    divergence may resolve past the cap, and a fully periodic prefix says
    nothing about the rest."""
    view = bounded_view(S, budget)
    if view.exact:
        return _settle(S, name, view, HOLDS, {"kind": "finite"})
    exponents, divergent, cap = view.orbit_profile
    evidence = {"kind": "orbit_profile", "divergent_at_bound": divergent[:8],
                "step_cap": cap}
    if name == "periodic":
        evidence["inspected"] = len(exponents) + len(divergent)
    return _settle(S, name, view, UNKNOWN, evidence)


def least_uniform_exponent(S):
    """Smallest n making every x^n idempotent on a finite handle: x^n is
    idempotent iff n reaches x's index and is a multiple of its period."""
    lcm = math.lcm(*(period for _, period, _ in S.orbits))
    top = max(index for index, _, _ in S.orbits)
    return lcm * ((top + lcm - 1) // lcm)


def bounded(S, budget=DEFAULT_BUDGET):
    """One exponent n makes every x^n idempotent; reports the least n."""
    view = bounded_view(S, budget)
    if view.exact:
        return _settle(S, "bounded", view, HOLDS,
                       {"kind": "uniform_exponent", "n": least_uniform_exponent(S)})
    exponents, divergent, cap = view.orbit_profile
    evidence = {"kind": "orbit_profile", "divergent_at_bound": divergent[:8],
                "max_exponent_seen": max(exponents.values(), default=None),
                "step_cap": cap}
    verdict = _settle(S, "bounded", view, UNKNOWN, evidence)
    if verdict.holds:
        n = _facts(S).get("bound_exponent", evidence["max_exponent_seen"])
        if n is not None:
            for x in view.codes[:SAMPLE_SIZE]:
                xn = power(S, x, n)
                if S.mul(xn, xn) != xn:
                    raise CorpusIntegrityError(
                        f"{S.name}: declared bound exponent {n} fails at {x}")
            verdict = Verdict(HOLDS, "declared", {**verdict.witness, "n": n}, budget)
    return verdict


def group_finite(S, budget=DEFAULT_BUDGET):
    """All subgroups finite; witnesses name the largest subgroup inspected
    (every one on an exact view, those of the first four idempotents on a
    stream)."""
    view = bounded_view(S, budget)
    idem = view.idempotents if view.exact else view.idempotents[:4]
    size, e = max(((len(view.subgroup(f)), f) for f in idem), default=(0, None))
    if view.exact:
        status, witness = HOLDS, {"kind": "finite", "largest_subgroup": size,
                                  "at_idempotent": e}
    # half the element budget of certified members counts as growth
    # evidence at bound (the prefix boundary can clip a few inverses)
    elif size >= max(2, budget.elements // 2):
        status, witness = FAILS, {"kind": "subgroup_growth", "idempotent": e,
                                  "count": size, "sample": list(view.subgroup(e)[:32])}
    else:
        status, witness = UNKNOWN, {"kind": "search_exhausted"}
    return _settle(S, "group_finite", view, status, witness, evidence=False)


def group_bounded(S, budget=DEFAULT_BUDGET):
    """All subgroups of bounded exponent."""
    view = bounded_view(S, budget)
    if view.exact:
        # a subgroup member's orbit is its cycle, so its period is its order
        exponent = math.lcm(*(period for index, period, _ in S.orbits if index == 1))
        return _settle(S, "group_bounded", view, HOLDS,
                       {"kind": "finite", "exponent": exponent})
    # unboundedness of a subgroup is not witnessable at a bound
    return _settle(S, "group_bounded", view, UNKNOWN, {"kind": "not_searchable"},
                   evidence=False)


def clifford(S, budget=DEFAULT_BUDGET):
    """Every element lies in a subgroup."""
    view = bounded_view(S, budget)
    members = _clifford_members(view)
    if not view.exact:
        status, witness = UNKNOWN, {"kind": "certified_fraction",
                                    "certified": len(members),
                                    "prefix": len(view.codes)}
    elif residue := [x for x in view.codes if x not in members]:
        status, witness = FAILS, {"kind": "residue", "sample": residue[:8],
                                  "size": len(residue)}
    else:
        status, witness = HOLDS, {"kind": "finite"}
    return _settle(S, "clifford", view, status, witness)


def clifford_finite(S, budget=DEFAULT_BUDGET):
    """The union of subgroups is finite."""
    view = bounded_view(S, budget)
    members = _clifford_members(view)
    if view.exact:
        status, witness = HOLDS, {"kind": "finite", "size": len(members)}
    elif len(members) >= max(2, budget.elements // 2):
        status, witness = FAILS, {"kind": "clifford_growth", "count": len(members),
                                  "sample": sorted(members)[:32]}
    else:
        status, witness = UNKNOWN, {"kind": "search_exhausted",
                                    "certified": len(members)}
    return _settle(S, "clifford_finite", view, status, witness, evidence=False)


def clifford_plus_finite(S, budget=DEFAULT_BUDGET):
    """All but finitely many elements lie in subgroups."""
    # an infinite residue cannot be certified by search (membership in the
    # subgroup union is only semi-decidable), so streams rely on declarations
    view = bounded_view(S, budget)
    uncertified = len(view.codes) - len(_clifford_members(view))
    if view.exact:
        status, witness = HOLDS, {"kind": "finite", "residue_size": uncertified}
    else:
        status, witness = UNKNOWN, {"kind": "uncertified_fraction",
                                    "uncertified": uncertified,
                                    "prefix": len(view.codes)}
    return _settle(S, "clifford_plus_finite", view, status, witness)


def clifford_singular(S, budget=DEFAULT_BUDGET):
    """Some infinite set outside the subgroup union multiplies into it.

    The evidence is a set A of up to ``min(elements, SAMPLE_SIZE)`` codes
    disjoint from the subgroup union (by declared part codes when
    available) with A*A inside it; only a declared fact settles."""
    view = bounded_view(S, budget)
    if view.exact:
        return _settle(S, "clifford_singular", view, FAILS, {"kind": "finite"})
    declared_part = _facts(S).get("clifford_part_codes")
    part = set(declared_part) if declared_part is not None else _clifford_members(view)
    mul = S.mul

    def in_part(x):
        return x in part or mul(x, x) == x

    candidates = [x for x in view.codes if not in_part(x)]
    # the pool excludes the subgroup union, so cap the target by what exists
    target = max(2, min(budget.elements, SAMPLE_SIZE, len(candidates)))
    group = []
    examined = 0
    for x in candidates:
        examined += 1
        if examined > budget.steps:
            break
        if in_part(mul(x, x)) and all(
                in_part(mul(x, a)) and in_part(mul(a, x)) for a in group):
            group.append(x)
            if len(group) >= target:
                break
    if len(group) >= target and declared_part is not None:
        witness = {"kind": "singular_into_subgroups", "elements": group[:32],
                   "length": len(group), "products_within": sorted(part)}
    else:
        witness = {"kind": "search_exhausted", "best_length": len(group)}
    return _settle(S, "clifford_singular", view, UNKNOWN, witness)


def unipotent(S, budget=DEFAULT_BUDGET):
    """Exactly one idempotent."""
    view = bounded_view(S, budget)
    idem = view.idempotents
    if len(idem) >= 2:
        status, witness = FAILS, {"kind": "idempotent_pair", "pair": list(idem[:2])}
    elif view.exact:
        status, witness = HOLDS, {"kind": "finite", "idempotent": idem[0]}
    else:
        status, witness = UNKNOWN, {"kind": "search_exhausted",
                                    "idempotents_seen": len(idem)}
    return _settle(S, "unipotent", view, status, witness)


def commutative(S, budget=DEFAULT_BUDGET):
    """Every pair commutes; a stream checks at most ``steps`` pairs.  An
    exact view scans only to name the first noncommuting pair in code
    order: the least noncentral x, with the first code it does not commute
    with, which lies above x since every code below x is central."""
    view = bounded_view(S, budget)
    if view.exact:
        pairs = ((x, y) for x in view.codes if not view.central(x) for y in view.codes)
    else:
        pairs = itertools.islice(itertools.combinations(view.codes, 2), budget.steps)
    mul = S.mul
    pair = next(((x, y) for x, y in pairs if mul(x, y) != mul(y, x)), None)
    if pair is not None:
        status, witness = FAILS, {"kind": "noncommuting_pair", "pair": list(pair)}
    elif view.exact:
        status, witness = HOLDS, {"kind": "finite"}
    else:
        checked = min(budget.steps, math.comb(len(view.codes), 2))
        status, witness = UNKNOWN, {"kind": "search_exhausted", "pairs_checked": checked}
    return _settle(S, "commutative", view, status, witness)


PREDICATES = {
    "chain_finite": chain_finite,
    "nonsingular": nonsingular,
    "periodic": periodic,
    "bounded": bounded,
    "group_finite": group_finite,
    "group_bounded": group_bounded,
    "clifford": clifford,
    "clifford_finite": clifford_finite,
    "clifford_plus_finite": clifford_plus_finite,
    "clifford_singular": clifford_singular,
    "eventually_clifford": eventually_clifford,
    "unipotent": unipotent,
    "commutative": commutative,
}

# sound implications among definite verdicts; checked after every suite
IMPLICATIONS = [
    ("bounded", "periodic"),
    ("group_finite", "group_bounded"),
    ("clifford", "eventually_clifford"),
    ("clifford_finite", "group_finite"),
    ("clifford_finite", "chain_finite"),
]


def check_suite_consistency(suite, name="semigroup"):
    for antecedent, consequent in IMPLICATIONS:
        a, c = suite[antecedent], suite[consequent]
        if a.holds and c.fails:
            raise CorpusIntegrityError(
                f"{name}: {antecedent} holds but {consequent} fails")


def evaluate_suite(S, budget=DEFAULT_BUDGET):
    """All predicates at once, cross-checked for forced implications."""
    suite = {name: fn(S, budget) for name, fn in PREDICATES.items()}
    check_suite_consistency(suite, getattr(S, "name", "finite"))
    return suite


# ---------------------------------------------------------------------------
# witness replay

SINGULAR_KINDS = ("singular_prefix", "singular_into_subgroups")


def _singular_holds(S, w):
    """Check a singular set pairwise: every product equals the recorded
    constant, or lands in the recorded part while no element does."""
    elems = w["elements"]
    if w["kind"] == "singular_prefix":
        c = w["product"]
        return len(elems) >= w["length"] and all(
            S.mul(x, y) == c for x in elems for y in elems)
    part = set(w["products_within"])
    return all(S.mul(x, y) in part for x in elems for y in elems) and all(
        x not in part for x in elems)


def replay(S, name, verdict, budget=None):
    """Re-check a verdict's evidence from scratch.  Returns True when the
    witness still certifies the claimed status."""
    budget = budget or verdict.budget
    w = verdict.witness or {}
    kind = w.get("kind")
    if verdict.source == "finite":
        fresh = PREDICATES[name](S, budget)
        return fresh.status == verdict.status
    if kind == "declared" or verdict.source == "declared":
        fact = w.get("fact", name)
        facts = _facts(S)
        if fact not in facts or bool(facts[fact]) != w.get("value"):
            return False
        evidence = w.get("evidence") or {}
        if evidence.get("kind") in SINGULAR_KINDS and not _singular_holds(S, evidence):
            return False
        fresh = PREDICATES[name](S, budget)  # search must still not contradict
        return fresh.status == verdict.status
    if kind == "chain":
        elems = w["elements"]
        return len(elems) >= w["length"] and all(
            S.mul(x, y) in (x, y) for x in elems for y in elems)
    if kind in SINGULAR_KINDS:
        return _singular_holds(S, w)
    if kind == "subgroup_growth":
        e = w["idempotent"]
        certified = set(Prefix(S, budget).subgroup(e))
        return S.mul(e, e) == e and all(x in certified for x in w["sample"])
    if kind == "clifford_growth":
        members = _clifford_members(Prefix(S, budget))
        return all(x in members for x in w["sample"])
    if kind == "idempotent_pair":
        e, f = w["pair"]
        return e != f and S.mul(e, e) == e and S.mul(f, f) == f
    if kind == "noncommuting_pair":
        x, y = w["pair"]
        return S.mul(x, y) != S.mul(y, x)
    if kind in ("search_exhausted", "orbit_profile", "not_searchable",
                "certified_fraction", "uncertified_fraction"):
        return verdict.status == UNKNOWN
    return False


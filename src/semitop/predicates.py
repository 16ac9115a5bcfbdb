"""Structural predicates with three-valued verdicts and replayable evidence.

Every predicate returns Holds, Fails, or Unknown together with the evidence
that justifies it.  On finite handles answers are exact (source "finite").
On streams a bounded search runs first; a definite search answer wins and
must not be contradicted by a declared fact (that is a corpus integrity
error).  When search is inconclusive a declared fact decides with source
"declared", else the verdict is Unknown with the search residue attached.

Budget convention for the searches here: ``elements`` caps enumerated
prefixes and witness sizes, ``steps`` caps examined candidates in greedy
growth and exponent steps in orbit walks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import (
    DEFAULT_BUDGET,
    Budget,
    Prefix,
    _orbit,
    bounded_view,
    carrier_prefix,
    clifford_parts,
    is_finite,
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
    """Three-valued AND: any Fails wins, all Holds needed for Holds."""
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


# ---------------------------------------------------------------------------
# greedy searches on streams

def _chain_search(S, budget):
    """Grow a set whose pairwise products (diagonal included) stay inside
    the pair, restarting from each seed until the candidate budget runs out.
    The candidate pool is deeper than the target so sparse chains are still
    reached.  Returns (witness elements or None, best length seen)."""
    pool = carrier_prefix(S, max(budget.elements, budget.steps))
    target = budget.elements
    examined = 0
    best = 0
    for start in range(len(pool)):
        chain = []
        for x in pool[start:] + pool[:start]:
            examined += 1
            if S.mul(x, x) == x and all(
                    S.mul(x, c) in (x, c) and S.mul(c, x) in (x, c) for c in chain):
                chain.append(x)
                if len(chain) >= target:
                    return chain, len(chain)
            if examined >= budget.steps:
                return None, max(best, len(chain))
        best = max(best, len(chain))
    return None, best


def _singular_search(S, budget):
    """Grow a set A with A*A equal to one fixed constant (the seed's
    square).  Returns (elements, constant) or (None, best length)."""
    pool = carrier_prefix(S, max(budget.elements, budget.steps))
    target = budget.elements
    examined = 0
    best = 0
    for seed in pool:
        c = S.mul(seed, seed)
        group = [seed]
        for x in pool:
            if x == seed:
                continue
            examined += 1
            if S.mul(x, x) == c and all(
                    S.mul(x, a) == c and S.mul(a, x) == c for a in group):
                group.append(x)
                if len(group) >= target:
                    return group, c, len(group)
            if examined >= budget.steps:
                return None, None, max(best, len(group))
        best = max(best, len(group))
    return None, None, best


def _clifford_members(view, sample_idempotents=4):
    """Prefix codes certified inside some subgroup: every idempotent plus
    the members of the first few subgroups."""
    sampled = set(view.idempotents[:sample_idempotents])
    return set(view.idempotents) | {x for x, e in view.subgroup_of.items()
                                    if e in sampled}


# ---------------------------------------------------------------------------
# the predicates

def chain_finite(S, budget=DEFAULT_BUDGET):
    """Every infinite subset has a pair multiplying outside itself.

    Trivial on finite handles; the evidence records the longest chain in
    the idempotent order.  On streams a long-enough chain refutes."""
    if is_finite(S):
        longest = natural_order(S).longest_chain()
        return Verdict(HOLDS, "finite",
                       {"kind": "finite", "longest_idempotent_chain": list(longest)},
                       budget)
    found, best = _chain_search(S, budget)
    if found is not None:
        _guard_declaration(S, "chain_finite", FAILS)
        return Verdict(FAILS, "search",
                       {"kind": "chain", "elements": list(found), "length": len(found)},
                       budget)
    residue = {"kind": "search_exhausted", "best_chain_length": best}
    return _declared(S, "chain_finite", budget, residue) or Verdict(
        UNKNOWN, "search", residue, budget)


def nonsingular(S, budget=DEFAULT_BUDGET):
    """No infinite subset with a one-element product set."""
    if is_finite(S):
        return Verdict(HOLDS, "finite", {"kind": "finite"}, budget)
    elems, const, best = _singular_search(S, budget)
    if elems is not None:
        _guard_declaration(S, "nonsingular", FAILS)
        return Verdict(FAILS, "search",
                       {"kind": "singular_prefix", "elements": list(elems),
                        "product": const, "length": len(elems)}, budget)
    residue = {"kind": "search_exhausted", "best_singular_length": best}
    return _declared(S, "nonsingular", budget, residue) or Verdict(
        UNKNOWN, "search", residue, budget)


def periodic(S, budget=DEFAULT_BUDGET):
    """Every element has an idempotent power."""
    if is_finite(S):
        return Verdict(HOLDS, "finite", {"kind": "finite"}, budget)
    exponents, divergent, cap = bounded_view(S, budget).orbit_profile
    evidence = {"kind": "orbit_profile", "inspected": len(exponents) + len(divergent),
                "divergent_at_bound": divergent[:8], "step_cap": cap}
    # neither direction is decidable by search: divergence may resolve past
    # the cap, and a fully periodic prefix says nothing about the rest
    return _declared(S, "periodic", budget, evidence) or Verdict(
        UNKNOWN, "search", evidence, budget)


def _lcm(values):
    from math import gcd
    out = 1
    for v in values:
        out = out * v // gcd(out, v)
    return out


def least_uniform_exponent(S):
    """Smallest n making every x^n idempotent, from orbit indices/periods."""
    orbits = [_orbit(S, x, S.size + 1) for x in S.elements()]
    lcm = _lcm(period for _, _, period in orbits)
    top = max(index for _, index, _ in orbits)
    return lcm * ((top + lcm - 1) // lcm)


def bounded(S, budget=DEFAULT_BUDGET):
    """One exponent n makes every x^n idempotent; reports the least n."""
    if is_finite(S):
        n = least_uniform_exponent(S)
        return Verdict(HOLDS, "finite", {"kind": "uniform_exponent", "n": n}, budget)
    exponents, divergent, cap = bounded_view(S, budget).orbit_profile
    evidence = {"kind": "orbit_profile", "divergent_at_bound": divergent[:8],
                "max_exponent_seen": max(exponents.values(), default=None),
                "step_cap": cap}
    verdict = _declared(S, "bounded", budget, evidence)
    if verdict is not None and verdict.holds:
        n = _facts(S).get("bound_exponent", evidence["max_exponent_seen"])
        if n is not None:
            for x in bounded_view(S, budget).codes[:64]:
                xn = power(S, x, n)
                if S.mul(xn, xn) != xn:
                    raise CorpusIntegrityError(
                        f"{S.name}: declared bound exponent {n} fails at {x}")
            witness = dict(verdict.witness)
            witness["n"] = n
            verdict = Verdict(HOLDS, "declared", witness, budget)
    return verdict or Verdict(UNKNOWN, "search", evidence, budget)


def group_finite(S, budget=DEFAULT_BUDGET):
    """All subgroups finite; witnesses name the offending idempotent."""
    if is_finite(S):
        biggest = max(((len(S.h_partition[e]), e) for e in S.idempotent_codes),
                      default=(0, None))
        return Verdict(HOLDS, "finite",
                       {"kind": "finite", "largest_subgroup": biggest[0],
                        "at_idempotent": biggest[1]}, budget)
    view = bounded_view(S, budget)
    for e in view.idempotents[:4]:
        members = list(view.subgroup(e))
        # half the element budget of certified members counts as growth
        # evidence at bound (the prefix boundary can clip a few inverses)
        if len(members) >= max(2, budget.elements // 2):
            _guard_declaration(S, "group_finite", FAILS)
            return Verdict(FAILS, "search",
                           {"kind": "subgroup_growth", "idempotent": e,
                            "count": len(members), "sample": members[:32]}, budget)
    return _declared(S, "group_finite", budget) or Verdict(
        UNKNOWN, "search", {"kind": "search_exhausted"}, budget)


def group_bounded(S, budget=DEFAULT_BUDGET):
    """All subgroups of bounded exponent."""
    if is_finite(S):
        # a subgroup member's orbit is its cycle, so its period is its order
        orders = [_orbit(S, x, S.size + 1)[2] for x in S.subgroup_idempotent]
        return Verdict(HOLDS, "finite",
                       {"kind": "finite", "exponent": _lcm(orders)}, budget)
    # unboundedness of a subgroup is not witnessable at a bound
    return _declared(S, "group_bounded", budget) or Verdict(
        UNKNOWN, "search", {"kind": "not_searchable"}, budget)


def clifford(S, budget=DEFAULT_BUDGET):
    """Every element lies in a subgroup."""
    if is_finite(S):
        residue = clifford_parts(S).residue
        if residue:
            return Verdict(FAILS, "finite",
                           {"kind": "residue", "sample": list(residue[:8]),
                            "size": len(residue)}, budget)
        return Verdict(HOLDS, "finite", {"kind": "finite"}, budget)
    view = bounded_view(S, budget)
    members = _clifford_members(view)
    evidence = {"kind": "certified_fraction", "certified": len(members),
                "prefix": len(view.codes)}
    return _declared(S, "clifford", budget, evidence) or Verdict(
        UNKNOWN, "search", evidence, budget)


def clifford_finite(S, budget=DEFAULT_BUDGET):
    """The union of subgroups is finite."""
    if is_finite(S):
        part = set(S.subgroup_idempotent)
        return Verdict(HOLDS, "finite", {"kind": "finite", "size": len(part)}, budget)
    members = _clifford_members(bounded_view(S, budget))
    if len(members) >= max(2, budget.elements // 2):
        _guard_declaration(S, "clifford_finite", FAILS)
        sample = sorted(members)[:32]
        return Verdict(FAILS, "search",
                       {"kind": "clifford_growth", "count": len(members),
                        "sample": sample}, budget)
    return _declared(S, "clifford_finite", budget) or Verdict(
        UNKNOWN, "search", {"kind": "search_exhausted", "certified": len(members)},
        budget)


def clifford_plus_finite(S, budget=DEFAULT_BUDGET):
    """All but finitely many elements lie in subgroups."""
    if is_finite(S):
        residue = clifford_parts(S).residue
        return Verdict(HOLDS, "finite",
                       {"kind": "finite", "residue_size": len(residue)}, budget)
    # an infinite residue cannot be certified by search (membership in the
    # subgroup union is only semi-decidable), so streams rely on declarations
    view = bounded_view(S, budget)
    members = _clifford_members(view)
    evidence = {"kind": "uncertified_fraction",
                "uncertified": len(view.codes) - len(members),
                "prefix": len(view.codes)}
    return _declared(S, "clifford_plus_finite", budget, evidence) or Verdict(
        UNKNOWN, "search", evidence, budget)


def clifford_singular(S, budget=DEFAULT_BUDGET):
    """Some infinite set outside the subgroup union multiplies into it.

    The Holds-witness is a bound-sized set A disjoint from the subgroup
    union (by declared part codes when available) with A*A inside it."""
    if is_finite(S):
        return Verdict(FAILS, "finite", {"kind": "finite"}, budget)
    view = bounded_view(S, budget)
    members = _clifford_members(view)
    declared_part = _facts(S).get("clifford_part_codes")
    part = set(declared_part) if declared_part is not None else members

    def in_part(x):
        return x in part or S.mul(x, x) == x

    candidates = [x for x in view.codes if not in_part(x)]
    # the pool excludes the subgroup union, so cap the target by what exists
    target = max(2, min(budget.elements, len(candidates)))
    group = []
    examined = 0
    for x in candidates:
        examined += 1
        if examined > budget.steps:
            break
        if in_part(S.mul(x, x)) and all(
                in_part(S.mul(x, a)) and in_part(S.mul(a, x)) for a in group):
            group.append(x)
            if len(group) >= target:
                break
    if len(group) >= target and declared_part is not None:
        _guard_declaration(S, "clifford_singular", HOLDS)
        return Verdict(HOLDS, "search",
                       {"kind": "singular_into_subgroups", "elements": group[:32],
                        "length": len(group),
                        "products_within": sorted(set(declared_part))}, budget)
    evidence = {"kind": "search_exhausted", "best_length": len(group)}
    return _declared(S, "clifford_singular", budget, evidence) or Verdict(
        UNKNOWN, "search", evidence, budget)


def eventually_clifford(S, budget=DEFAULT_BUDGET):
    """Every element has a power inside a subgroup."""
    if is_finite(S):
        # finite semigroups are periodic, so some power is idempotent
        return Verdict(HOLDS, "finite", {"kind": "finite"}, budget)
    exponents, divergent, cap = bounded_view(S, budget).orbit_profile
    evidence = {"kind": "orbit_profile", "divergent_at_bound": divergent[:8],
                "step_cap": cap}
    return _declared(S, "eventually_clifford", budget, evidence) or Verdict(
        UNKNOWN, "search", evidence, budget)


def unipotent(S, budget=DEFAULT_BUDGET):
    """Exactly one idempotent."""
    if is_finite(S):
        idem = S.idempotent_codes
        if len(idem) == 1:
            return Verdict(HOLDS, "finite", {"kind": "finite", "idempotent": idem[0]},
                           budget)
        return Verdict(FAILS, "finite",
                       {"kind": "idempotent_pair", "pair": list(idem[:2])}, budget)
    idem = bounded_view(S, budget).idempotents
    if len(idem) >= 2:
        _guard_declaration(S, "unipotent", FAILS)
        return Verdict(FAILS, "search",
                       {"kind": "idempotent_pair", "pair": list(idem[:2])}, budget)
    evidence = {"kind": "search_exhausted", "idempotents_seen": len(idem)}
    return _declared(S, "unipotent", budget, evidence) or Verdict(
        UNKNOWN, "search", evidence, budget)


def commutative(S, budget=DEFAULT_BUDGET):
    if is_finite(S):
        if S.commutative:
            return Verdict(HOLDS, "finite", {"kind": "finite"}, budget)
        pair = next((x, y) for x in S.elements() for y in S.elements()
                    if S.mul(x, y) != S.mul(y, x))
        return Verdict(FAILS, "finite",
                       {"kind": "noncommuting_pair", "pair": list(pair)}, budget)
    pre = bounded_view(S, budget).codes
    examined = 0
    for i, x in enumerate(pre):
        for y in pre[i + 1:]:
            examined += 1
            if S.mul(x, y) != S.mul(y, x):
                _guard_declaration(S, "commutative", FAILS)
                return Verdict(FAILS, "search",
                               {"kind": "noncommuting_pair", "pair": [x, y]}, budget)
            if examined >= budget.steps:
                break
        if examined >= budget.steps:
            break
    evidence = {"kind": "search_exhausted", "pairs_checked": examined}
    return _declared(S, "commutative", budget, evidence) or Verdict(
        UNKNOWN, "search", evidence, budget)


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
        fresh = PREDICATES[name](S, budget)  # search must still not contradict
        return fresh.status == verdict.status
    if kind == "chain":
        elems = w["elements"]
        return len(elems) >= w["length"] and all(
            S.mul(x, y) in (x, y) for x in elems for y in elems)
    if kind == "singular_prefix":
        elems, c = w["elements"], w["product"]
        return len(elems) >= w["length"] and all(
            S.mul(x, y) == c for x in elems for y in elems)
    if kind == "subgroup_growth":
        e = w["idempotent"]
        certified = set(Prefix(S, budget).subgroup(e))
        return S.mul(e, e) == e and all(x in certified for x in w["sample"])
    if kind == "clifford_growth":
        members = _clifford_members(Prefix(S, budget))
        return all(x in members for x in w["sample"])
    if kind == "singular_into_subgroups":
        part = set(w["products_within"])
        elems = w["elements"]
        ok_products = all(S.mul(x, y) in part for x in elems for y in elems)
        ok_outside = all(x not in part for x in elems)
        return ok_products and ok_outside
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

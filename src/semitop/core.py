"""Semigroup handles and the structural maps everything else builds on.

A finite semigroup is a dense Cayley table over codes 0..n-1.  An infinite
semigroup appears as a stream: a multiplication on arbitrary-precision
integer codes plus an injective enumerator of the carrier.  Operations that
must terminate on streams take an explicit budget and say whether their
answer is exact or only a certified prefix.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Optional

from .errors import (
    BadParameter,
    MalformedTable,
    NonAssociative,
)


@dataclass(frozen=True)
class Budget:
    """Caps for bounded work: carrier elements to enumerate, operation steps."""

    elements: int = 256
    steps: int = 4096

    def __post_init__(self):
        for name, value in self.as_dict().items():
            if value < 1:
                raise BadParameter(f"budget {name} must be at least 1, got {value}")

    def as_dict(self):
        return {"elements": self.elements, "steps": self.steps}


DEFAULT_BUDGET = Budget()


@dataclass(frozen=True)
class BoundedSet:
    """A computed subset of the carrier.

    ``exact`` is True when the elements are provably the whole set (always
    the case on finite handles).  On streams the elements are a certified
    prefix and membership beyond it is undecided.
    """

    elements: tuple
    exact: bool = True

    @cached_property
    def _members(self):
        return frozenset(self.elements)

    def __contains__(self, x):
        return x in self._members

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


@dataclass
class CarrierSet:
    """A lazily described subset: membership predicate plus enumerator.

    The enumerator may be infinite.  It is started once: the codes it has
    yielded are kept, and ``first``, ``walk``, ``prefix`` and
    ``among_first`` advance it only past them.  ``over`` is (source, depth)
    when it reads the first ``depth`` codes of another set, as ``where``
    does; a scan that stops at ``depth`` is never exhaustion.
    """

    member: Callable[[int], bool]
    enumerate_fn: Callable[[], Iterator[int]]
    over: Optional[tuple] = field(default=None, repr=False, compare=False)
    _codes: list = field(default_factory=list, init=False, repr=False, compare=False)
    _live: Iterator[int] = field(init=False, repr=False, compare=False)
    _ended: bool = field(default=False, init=False, repr=False, compare=False)
    _at: Optional[dict] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._live = self.enumerate_fn()

    @classmethod
    def of(cls, members):
        """The exact finite set of ``members`` in the order given, read in full."""
        members = tuple(members)
        out = cls(frozenset(members).__contains__, lambda: iter(members))
        out._fill(len(members) + 1)
        return out

    def where(self, pred, limit):
        """The members among this set's first ``limit`` that pass ``pred``."""
        return CarrierSet(pred, lambda: filter(pred, self.walk(limit)), (self, limit))

    @property
    def dry(self):
        """Whether every member has been read, by the codes read so far."""
        source, depth = self.over or (None, 0)
        return self._ended and (source is None or len(source._codes) <= depth and source.dry)

    def _fill(self, count):
        """Keep the first ``count`` members, or all of them if there are
        fewer; whether there are ``count``."""
        codes = self._codes
        if len(codes) < count and not self._ended:
            start = len(codes)
            try:
                codes.extend(itertools.islice(self._live, count - start))
            except BaseException:
                # an enumerator that raised is finished but not exhausted:
                # the next call starts afresh rather than read it as the end
                self._codes, self._live, self._at = [], self.enumerate_fn(), None
                raise
            self._ended = len(codes) < count
            if self._at is not None:
                for i in range(start, len(codes)):
                    self._at.setdefault(codes[i], i)
        return len(codes) >= count

    def first(self, limit):
        """The first ``limit`` members, or all of them if there are fewer;
        the enumeration advances no further."""
        self._fill(limit)
        return self._codes[:limit]

    def walk(self, limit):
        """The first ``limit`` members one at a time; the enumeration
        advances only as far as the caller reads."""
        at = 0
        while at < limit and self._fill(at + 1):
            yield self._codes[at]
            at += 1

    def prefix(self, limit):
        """The first ``limit`` members, and whether they are all of them."""
        ended = not self._fill(limit + 1)
        return self._codes[:limit], ended and self.dry

    def among_first(self, y, limit):
        """Whether y is one of the first ``limit`` members; the enumeration
        advances only until y turns up.  The codes read are looked up in a
        map from each to its first position, made on the first call and
        kept up by ``_fill``."""
        if self._at is None:
            # later positions go in first, so the first one stays
            self._at = {x: i for i, x in reversed(list(enumerate(self._codes)))}
        while y not in self._at:
            if len(self._codes) >= limit or not self._fill(len(self._codes) + 1):
                return False
        return self._at[y] < limit


@dataclass(frozen=True)
class FiniteSemigroup:
    """A Cayley table with its labels; like a stream it has a ``name``, a
    ``label_fn`` and, declaring nothing, ``declared_facts`` and
    ``center_facts``."""

    table: tuple
    labels: tuple

    declared_facts = center_facts = None
    name = property(lambda self: f"finite[{len(self.table)}]")
    label_fn = property(lambda self: self.labels.__getitem__)

    @property
    def size(self):
        return len(self.table)

    def elements(self):
        return range(len(self.table))

    def mul(self, x, y):
        return self.table[x][y]

    @cached_property
    def commutative(self):
        """The table equals its transpose: every code is central."""
        return len(self.center_codes) == len(self.table)

    @cached_property
    def idempotent_codes(self):
        return tuple(x for x in self.elements() if self.table[x][x] == x)

    @cached_property
    def center_codes(self):
        """The codes z whose row equals their column: z*x == x*z for all x.
        The columns come one at a time, as the rows of the transpose."""
        t = self.table
        return tuple(z for z, column in enumerate(zip(*t)) if t[z] == column)

    @cached_property
    def orbits(self):
        """(index, period, idempotent power) of each code x: the powers x,
        x^2, ... first repeat at x^(index + period) == x^index, and the one
        idempotent among them is x^m, m the multiple of the period in
        [index, index + period).  x * x^k is row x at x^k, so each orbit is
        walked once, along its own row."""
        out = []
        for x, row in enumerate(self.table):
            seen = {}
            p = x
            while p not in seen:
                seen[p] = len(seen)
                p = row[p]
            index, period = seen[p] + 1, len(seen) - seen[p]
            out.append((index, period, list(seen)[-(-index // period) * period - 1]))
        return tuple(out)

    @cached_property
    def subgroup_idempotent(self):
        """Map from each code in a subgroup to that subgroup's identity.
        x lies in a subgroup iff its index is 1: then <x> is a cyclic group,
        and a group holds the powers of its members, among them x^(k+1) == x
        for k the order of x.  The identity is x's idempotent power."""
        return {x: e for x, (index, _, e) in enumerate(self.orbits) if index == 1}

    @cached_property
    def subgroups(self):
        """Map from each idempotent to its maximal subgroup, in code order."""
        out = {e: [] for e in self.idempotent_codes}
        for x, e in self.subgroup_idempotent.items():
            out[e].append(x)
        return {e: tuple(members) for e, members in out.items()}


def generators(t):
    """A generating set of the table ``t``, found greedily: the codes that
    are no product come first, then, while right multiplication by the
    generators leaves some code unreached, the least unreached code.

    Every code is then a left-normed product of generators, even when ``t``
    does not associate; each (reached code, generator) product is formed
    once, so the search costs O(n * |generators|) lookups."""
    n = len(t)
    image = set().union(*t)
    gens = [x for x in range(n) if x not in image]
    reached = set(gens)
    frontier = list(gens)
    least = 0
    while True:
        while frontier:
            row = t[frontier.pop()]
            for g in gens:
                y = row[g]
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
        if len(reached) == n:
            return gens
        while least in reached:
            least += 1
        g = least
        gens.append(g)
        # the codes closed so far owe one product each with the new generator
        fresh = {t[x][g] for x in reached}
        fresh.add(g)
        fresh -= reached
        reached |= fresh
        frontier = list(fresh)


def build_finite(table, labels=None):
    """Validate a Cayley table (row index = left factor) and wrap it.

    Raises MalformedTable on shape or range problems and NonAssociative
    with a witness triple if some (a*b)*c differs from a*(b*c): the
    lexicographically first such triple.

    A table of at most 256 codes whose rows are ``bytes``, as
    ``parse_cayley`` reads them, is checked in C: each row's length, and
    one ``translate`` that deletes every code from the joined rows must
    leave nothing.  Any other table, or a bytes table that fails, takes
    the loop, which names the first bad row or entry.

    Associativity is Light's test (Clifford & Preston, *The Algebraic
    Theory of Semigroups* I, section 1.2): the middles m with (x*m)*y ==
    x*(m*y) for all x, y are closed under the product, so checking the
    middles of one generating set suffices.  Up to 256 codes the rows are
    ``bytes``, the checked rows themselves when they came as bytes, and
    ``_associates`` reads a row through another with one
    ``bytes.translate``, mapped over the rows in C; larger tables take the
    row loop of ``_first_failure``.  Either way a failing table is then
    scanned over every middle by ``_first_failure``, which names the
    lexicographically first triple.
    """
    rows = list(table)
    n = len(rows)
    if n == 0:
        raise MalformedTable("empty table")
    encoded = (n <= 256 and all(type(row) is bytes and len(row) == n for row in rows)
               and not b"".join(rows).translate(None, bytes(range(n))))
    t = tuple(map(tuple, rows))
    if not encoded:
        codes = frozenset(range(n))
        for row in t:
            if len(row) != n:
                raise MalformedTable(f"row of length {len(row)} in a table of size {n}")
            # a row of plain ints in range passes in C, in about half the time
            # of the loop; any other row takes the loop, which names the first
            # bad entry and accepts ints' subclasses
            if list(map(type, row)).count(int) == n and codes.issuperset(row):
                continue
            for v in row:
                if not isinstance(v, int) or not 0 <= v < n:
                    raise MalformedTable(f"entry {v!r} out of range 0..{n - 1}")
    # (a*b)*c == a*(b*c) for all c at once: row a*b must equal row a read
    # through row b.  Only a failing table pays for the scan over every
    # middle, which finds the first triple.
    gens = generators(t)
    if n > 256:
        associates = _first_failure(t, gens) is None
    else:
        associates = _associates(rows if encoded else list(map(bytes, t)), gens)
    if not associates:
        a, b = _first_failure(t, range(n))
        c = next(c for c in range(n) if t[t[a][b]][c] != t[a][t[b][c]])
        raise NonAssociative(a, b, c)
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    else:
        labels = tuple(str(l) for l in labels)
        if len(labels) != n:
            raise MalformedTable("label count does not match table size")
    return FiniteSemigroup(table=t, labels=labels)


def _associates(rows, middles):
    """Whether row a*b equals row a read through row b for every code a
    and every b in ``middles``: (a*b)*c == a*(b*c) for all a, c.

    ``rows`` are the table's rows as ``bytes``, so at most 256 codes.
    Each is padded to a translation table whose byte v is a*v, so row a
    read through row b is ``rows[b].translate(pads[a])``.  Row a read
    through row b depends only on row a at the image I_b of row b.  So
    each row is first read at b and at I_b, ``key.translate(pads[a])``
    with key = b then I_b: rows with one key have one product a*b and read
    alike through row b, and one row per key is read in full."""
    # the padding is never read: translation looks up codes only
    pads = [row.ljust(256) for row in rows]
    for b in middles:
        key = bytes((b, *set(rows[b])))
        by_key = dict(zip(map(key.translate, pads), pads))
        if (list(map(rows[b].translate, by_key.values()))
                != [rows[k[0]] for k in by_key]):
            return False
    return True


def _first_failure(t, middles):
    """The first (a, b), a in code order and b in ``middles`` order, whose
    row a*b differs from row a read through row b; None if there is none.

    Row a read through row b depends only on row a at the image I_b of
    row b.  So the first row a with a given z = a*b is read through row b
    in full and compared with row z; a later row with the same z passes
    exactly when its restriction to I_b equals that first row's.  One
    middle is checked at a time, over the rows before the first failure
    found so far, so only one middle's first rows are held."""
    found = None
    for b in middles:
        # an itemgetter of one key returns the entry itself; the one row of
        # the 1x1 table is its own restriction and composite
        restrict, compose = ((operator.itemgetter(*set(t[b])), operator.itemgetter(*t[b]))
                             if len(t) > 1 else (tuple, tuple))
        first = {}
        for a, ta in enumerate(t if found is None else t[:found[0]]):
            z = ta[b]
            known = first.get(z)
            if known is None:
                if t[z] == compose(ta):
                    first[z] = ta
                    continue
            elif restrict(known) == restrict(ta):
                continue
            found = a, b
            break
    return found


@dataclass
class StreamSemigroup:
    """An infinite (or lazily given) semigroup.

    ``enumerate_carrier`` must return a fresh injective iterator over the
    carrier codes each call.  ``division_oracle(b, y)``, when the family
    has one, is the ``CarrierSet`` {x : x*y == b} for every code y: its
    membership is exact, it enumerates in the carrier's own order, and it
    never filters an endless carrier for a member that may not come, so a
    finite quotient runs dry.  ``center_fn(x)``, when the family has one,
    decides exactly whether x lies in the center Z(S); without it a stream
    declared commutative is its own center, and any other stream's
    centrality is only tested against a window of its first codes.
    ``declared_facts`` carries ground-truth property values the builder
    vouches for, and ``center_facts`` optionally does the same for the
    center subsemigroup.
    ``mul`` is ``mul_fn`` itself, so a product is one call; it is not a
    field, and ``dataclasses.replace`` binds it to the copy's ``mul_fn``.
    """

    name: str
    mul_fn: Callable[[int, int], int]
    enumerate_carrier: Callable[[], Iterator[int]]
    label_fn: Callable[[int], str] = str
    division_oracle: Optional[Callable[[int, int], CarrierSet]] = None
    center_fn: Optional[Callable[[int], bool]] = None
    declared_facts: dict = field(default_factory=dict)
    center_facts: Optional[dict] = None
    _views: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.mul = self.mul_fn



def build_stream(name, mul_fn, enumerate_carrier, label_fn=str, division_oracle=None,
                 center_fn=None, declared_facts=None, center_facts=None, check=64):
    """Wrap a stream after probabilistic sanity checks on a small prefix:
    the enumerator must not repeat codes and sampled triples must associate."""
    s = StreamSemigroup(name=name, mul_fn=mul_fn, enumerate_carrier=enumerate_carrier,
                        label_fn=label_fn, division_oracle=division_oracle,
                        center_fn=center_fn, declared_facts=dict(declared_facts or {}),
                        center_facts=center_facts)
    seen = []
    for x in itertools.islice(enumerate_carrier(), check):
        seen.append(x)
    if len(set(seen)) != len(seen):
        raise BadParameter(f"stream {name}: enumerator repeats a code in its first {check}")
    k = min(len(seen), 8)
    for a in seen[:k]:
        for b in seen[:k]:
            ab = mul_fn(a, b)
            for c in seen[:k]:
                if mul_fn(ab, c) != mul_fn(a, mul_fn(b, c)):
                    raise NonAssociative(a, b, c)
    return s


def _center_test(S):
    """The exact center test of stream S: its ``center_fn``, or every code
    when S is declared commutative; None when it has neither."""
    if S.center_fn is None and (S.declared_facts or {}).get("commutative"):
        return lambda x: True
    return S.center_fn


# ---------------------------------------------------------------------------
# handle helpers

def is_finite(S):
    return isinstance(S, FiniteSemigroup)


def power(S, x, n):
    """x^n for n >= 1 by square-and-multiply."""
    if n < 1:
        raise BadParameter("exponent must be >= 1")
    acc = None
    base = x
    while n:
        if n & 1:
            acc = base if acc is None else S.mul(acc, base)
        n >>= 1
        if n:
            base = S.mul(base, base)
    return acc


# ---------------------------------------------------------------------------
# the bounded view: one per handle and budget

# how many leading codes a view samples: the orbit profile, the window a
# centrality test answers for, and the cap on a singular witness
SAMPLE_SIZE = 64


class Prefix:
    """What a stream shows inside one budget, each fact computed once.

    ``pool`` is the one bounded reader of the stream's enumerator: a
    ``CarrierSet`` over the carrier that keeps the codes it has read and
    reads on only as far as its deepest reader asks.  ``codes`` is its
    first ``budget.elements`` codes.  Finiteness reads ``elements + 1``,
    every other scan at most ``depth``, ``max(elements, steps)``: the
    predicates' searches, and through ``pool.where`` the center handle and
    the left quotients and basic sets of a topology.  The rest derives from
    ``codes`` on first use, so predicates, classifier and topology share
    one enumeration, one center scan and one subgroup certificate.  Stream
    answers hold at the bound only (``exact`` is False).

    A stream keeps its views, so a view keeps only what it uses of the
    stream, never the handle: a dropped handle frees its views at once,
    without waiting for the cyclic collector."""

    exact = False

    def __init__(self, S, budget=DEFAULT_BUDGET):
        self.mul, self.budget, self.depth = S.mul, budget, max(budget.elements, budget.steps)
        # membership in a stream's carrier is not decided
        self.pool = CarrierSet(None, S.enumerate_carrier)
        self.division_oracle, self._center_fn = S.division_oracle, _center_test(S)
        self._central, self._subgroup = {}, {}

    @cached_property
    def codes(self):
        return tuple(self.pool.first(self.budget.elements))

    @cached_property
    def idempotents(self):
        return tuple(x for x in self.codes if self.mul(x, x) == x)

    @cached_property
    def _idempotent_set(self):
        return frozenset(self.idempotents)

    @cached_property
    def _code_set(self):
        return frozenset(self.codes)

    @cached_property
    def center(self):
        """With a center test (``central_exact``), the codes that pass it,
        at no product.  Otherwise the codes commuting with every code: on a
        stream neither an under- nor an over-approximation of the center."""
        if self.central_exact:
            return tuple(filter(self._center_fn, self.codes))
        mul, pre = self.mul, self.codes
        return tuple(z for z in pre if all(mul(z, x) == mul(x, z) for x in pre))

    @cached_property
    def central_idempotents(self):
        cen = set(self.center)
        return tuple(x for x in self.idempotents if x in cen)

    @cached_property
    def central_order(self):
        """The natural order on ``central_idempotents`` as down-lists: each
        f maps to the other g with g*f == f*g == g, in pool order.  With a
        center test they commute, so one product m = g*f per unordered pair
        decides both directions: g <= f if m == g, f <= g if m == f.
        Without one, each ordered pair takes two products."""
        mul, pool = self.mul, self.central_idempotents
        if not self.central_exact:
            return {f: [g for g in pool if g != f and mul(g, f) == g == mul(f, g)] for f in pool}
        down = {f: [] for f in pool}
        # the pairs run through their earlier member in pool order, so f
        # gets the g before it in pool order, then those after it
        for g, f in itertools.combinations(pool, 2):
            m = mul(g, f)
            if m == g:
                down[f].append(g)
            elif m == f:
                down[g].append(f)
        return down

    @cached_property
    def up_lists(self):
        """The inverse of ``central_order``: each g maps to the f above it."""
        up = {g: [] for g in self.central_order}
        for f, down in self.central_order.items():
            for g in down:
                up[g].append(f)
        return up

    def leq(self, g, f):
        """g <= f, g*f == f*g == g: read off ``central_order`` when both
        are indexed.  Otherwise g*f == g, and f*g == g unless a center test
        (``central_exact``) finds g central, so that g*f == f*g."""
        order = self.central_order
        if g in order and f in order:
            return g == f or g in order[f]
        return self.mul(g, f) == g and (
            self.central_exact and self.central(g) or self.mul(f, g) == g)

    def above_some(self, F):
        """The test of f: some g in F has g <= f.  F is read once.  An
        indexed f is looked up in the up-set of F's indexed members, read
        off their up-lists once; F's others are tested as ``leq`` tests
        them, each split once into central (one product) or not (two)."""
        order, mul, exact = self.central_order, self.mul, self.central_exact
        F = tuple(F)
        up = {f for g in F if g in order for f in (g, *self.up_lists[g])}
        tests = [(g, exact and self.central(g)) for g in F]
        rest = [(g, one) for g, one in tests if g not in order]

        def test(f):
            pairs = rest if f in order else tests
            return f in up or bool(pairs) and any(
                mul(g, f) == g and (one or mul(f, g) == g) for g, one in pairs)

        return test

    @property
    def central_exact(self):
        """Whether ``central`` is exact: a table's view tests its center,
        and a stream gives a center test or is declared commutative, so
        that every code passes."""
        return self._center_fn is not None

    @cached_property
    def _window_generators(self):
        """A set G inside the window W of the first ``SAMPLE_SIZE`` codes
        whose generated subsemigroup contains W.  Each step adds the last
        code of W not yet reached and closes the reached set under every
        product that lands in W, each ordered pair multiplied once, so G
        costs at most |W|^2 + |W| products."""
        mul, window = self.mul, self.codes[:SAMPLE_SIZE]
        inside = frozenset(window)
        generators, reached, seen, closed = [], [], set(), 0
        for w in reversed(window):
            if w in seen:
                continue
            generators.append(w)
            seen.add(w)
            reached.append(w)
            # reached[:closed] is closed under products landing in W
            while closed < len(reached):
                n = reached[closed]
                for r in reached[:closed + 1]:
                    for p in (mul(n, r), mul(r, n)):
                        if p in inside and p not in seen:
                            seen.add(p)
                            reached.append(p)
                closed += 1
        return tuple(generators)

    def central(self, x):
        """Is x central?  With a center test (``central_exact``) the answer
        is exact and costs no product.  Otherwise it is whether x commutes
        with the first ``SAMPLE_SIZE`` codes, which can only over-accept.
        x is then tested against ``_window_generators`` alone: if x
        commutes with a and b it commutes with ab, since
        x(ab) = (ax)b = a(bx) = (ab)x, so x commutes with G iff it commutes
        with the subsemigroup <G>, which contains the window W; and G lies
        inside W.  So the answer is the one a test against all of W gives."""
        if self._center_fn is not None:
            return self._center_fn(x)
        if x not in self._central:
            mul = self.mul
            self._central[x] = all(mul(x, g) == mul(g, x)
                                   for g in self._window_generators)
        return self._central[x]

    @cached_property
    def orbit_profile(self):
        """(exponents, divergent, cap): the least n making x^n idempotent
        for each of the first ``SAMPLE_SIZE`` codes, and the codes whose
        orbit shows none within the per-code step cap."""
        sample = self.codes[:SAMPLE_SIZE]
        cap = max(8, self.budget.steps // max(1, len(sample)))
        mul = self.mul
        exponents, divergent = {}, []
        for x in sample:
            p = x
            for n in range(1, cap + 1):
                if mul(p, p) == p:
                    exponents[x] = n
                    break
                p = mul(p, x)
            else:
                divergent.append(x)
        return exponents, divergent, cap

    def subgroup_idempotent(self, x):
        """The idempotent f of x's subgroup, or None with no certificate in
        the prefix: f fixes x on both sides, and x == f or some code v has
        x*v == v*x == f.  Then x is H-related to f, so at most one f
        qualifies.  An idempotent is its own f: a prefix code is known as
        one at no product, a code past the prefix at one.

        Certificates come in pairs.  When x is a prefix code with witness
        v and f*v == v (then v*f == v*x*v == f*v == v), x is v's witness,
        so f qualifies for v; as f is the only idempotent that can, it is
        the one v's own scan would find, and v's entry is recorded without
        that scan.

        With a division oracle, a quotient f/x = {v : v*x == f} that runs
        dry within ``len(codes) + 1`` members stands in for the scan: only
        its prefix codes are tested.  It lists them in carrier order, the
        order of the scan, so the same v is found."""
        if x in self._subgroup:
            return self._subgroup[x]
        mul, pre = self.mul, self.codes
        if x in self._idempotent_set or x not in self._code_set and mul(x, x) == x:
            self._subgroup[x] = x
            return x
        for f in self.idempotents:
            if mul(f, x) == x and mul(x, f) == x:
                witnesses = pre
                if self.division_oracle is not None:
                    quotient, dry = self.division_oracle(f, x).prefix(len(pre))
                    if dry:
                        witnesses = [v for v in quotient if v in self._code_set]
                for v in witnesses:
                    if mul(x, v) == f and mul(v, x) == f:
                        self._subgroup[x] = f
                        if v not in self._subgroup and x in self._code_set and mul(f, v) == v:
                            self._subgroup[v] = f
                        return f
        self._subgroup[x] = None
        return None

    @cached_property
    def subgroup_of(self):
        """Map from each certified code to its subgroup idempotent."""
        return {x: f for x in self.codes
                if (f := self.subgroup_idempotent(x)) is not None}

    def subgroup(self, e):
        """The codes certified inside the subgroup of e, in code order."""
        return tuple(x for x in self.codes if self.subgroup_of.get(x) == e)


class _FinitePrefix(Prefix):
    """The exhausted case: ``codes``, ``idempotents``, ``center``, the
    center test, ``central_order`` and the subgroup maps read off the
    handle, the center from the transpose of the table, the order from its
    rows and the subgroups from its orbit table.
    ``pool`` ranges over the codes 0..n-1, and ``depth`` takes them all."""

    exact = True
    division_oracle = None

    def __init__(self, S, budget=DEFAULT_BUDGET):
        self.S, self.mul, self.budget = S, S.mul, budget

    codes = property(lambda self: self.S.elements())
    depth = property(lambda self: self.S.size)
    idempotents = property(lambda self: self.S.idempotent_codes)
    center = property(lambda self: self.S.center_codes)
    subgroup_of = property(lambda self: self.S.subgroup_idempotent)

    @cached_property
    def pool(self):
        return CarrierSet.of(self.codes)

    @cached_property
    def _center_fn(self):
        return frozenset(self.S.center_codes).__contains__

    @cached_property
    def central_order(self):
        return _table_order(self.S.table, self.central_idempotents)

    def subgroup_idempotent(self, x):
        return self.S.subgroup_idempotent.get(x)

    def subgroup(self, e):
        return self.S.subgroups.get(e, ())


def bounded_view(S, budget=DEFAULT_BUDGET):
    """The view of ``S`` at ``budget``.  A stream keeps its views in
    ``_views``, which ``dataclasses.replace`` does not copy.  A finite
    handle's view is a fresh adapter: kept, it would close a reference
    cycle that holds the tables until a full garbage collection."""
    if is_finite(S):
        return _FinitePrefix(S, budget)
    if budget not in S._views:
        S._views[budget] = Prefix(S, budget)
    return S._views[budget]


# ---------------------------------------------------------------------------
# idempotents, center, natural partial order

def idempotents(S, budget=DEFAULT_BUDGET):
    view = bounded_view(S, budget)
    return BoundedSet(view.idempotents, exact=view.exact)


def center(S, budget=DEFAULT_BUDGET):
    """Elements commuting with everything: exact on finite handles,
    certified against the prefix on streams (see ``Prefix.center``)."""
    view = bounded_view(S, budget)
    return BoundedSet(view.center, exact=view.exact)


def central_idempotents(S, budget=DEFAULT_BUDGET):
    """The central idempotents, a commuting family closed under product."""
    view = bounded_view(S, budget)
    return BoundedSet(view.central_idempotents, exact=view.exact)


def longest_chain(down):
    """One longest chain of the natural order e <= f iff ef == fe == e,
    given as ``down``, which maps each element, in element order, to the
    others below it.  The chain is listed bottom to top: the first longest
    in element order by its top, and below each element the first, in
    element order, of those with the longest chain under them.

    An element below another has the smaller down-set, so in order of
    down-set size each element's longest chain is known before those of
    the elements above it; each keeps the element it steps down to."""
    if not down:
        return ()
    length, step = {}, {}
    for e in sorted(down, key=lambda e: len(down[e])):
        if down[e]:
            f = max(down[e], key=length.__getitem__)
            length[e], step[e] = length[f] + 1, f
        else:
            length[e] = 1
    e = max(down, key=length.__getitem__)
    out = [e]
    while e in step:
        e = step[e]
        out.append(e)
    return tuple(reversed(out))


def natural_order(S):
    """The natural partial order on the idempotents of a finite handle, as
    the down-list of each; a stream's order is its view's
    ``central_order``."""
    _require_finite(S, "natural_order")
    return _table_order(S.table, S.idempotent_codes)


def _table_order(t, elems):
    """The natural order on the idempotents ``elems`` of the table ``t`` as
    down-lists, each e mapping to the other f with f*e == e*f == f in the
    order of ``elems``, read off the rows at no product."""
    return {e: [f for f in elems if row[f] == f != e and t[f][e] == f]
            for e, row in zip(elems, map(t.__getitem__, elems))}


# ---------------------------------------------------------------------------
# subgroups

@dataclass
class CliffordDecomposition:
    """Union of subgroup H-classes, indexed by their idempotents.

    ``classes`` maps each idempotent to its maximal subgroup, ``subgroup_of``
    sends a member to its idempotent, ``central_part`` restricts to central
    idempotents, and ``residue`` is everything outside all subgroups (only
    meaningful in full when ``exact``)."""

    idempotents: tuple
    classes: dict
    subgroup_of: dict
    central_part: tuple
    residue: tuple
    exact: bool


def clifford_parts(S, budget=DEFAULT_BUDGET):
    """The subgroups as the view certifies them; on a stream the residue
    holds the prefix codes with no certificate at the bound."""
    view = bounded_view(S, budget)
    classes = {e: view.subgroup(e) for e in view.idempotents}
    sub = dict(view.subgroup_of)
    cen = set(view.center)
    central = tuple(sorted(x for x, e in sub.items() if e in cen))
    residue = tuple(x for x in view.codes if x not in sub)
    return CliffordDecomposition(view.idempotents, classes, sub, central, residue,
                                 exact=view.exact)


# ---------------------------------------------------------------------------
# powers: projection to idempotents

@dataclass(frozen=True)
class PowerProjection:
    """Where the powers of an element eventually land.

    When some power enters a subgroup H-class, ``idempotent`` is that
    class's identity (independent of which power was found) and
    ``exponent`` is the least witnessed entry point.  Otherwise the status
    says whether non-membership is certified (finite exhaustion) or the
    walk merely hit its budget."""

    status: str  # "defined" | "undefined_at_bound"
    idempotent: Optional[int]
    exponent: Optional[int]


def power_projection(S, x, budget=DEFAULT_BUDGET):
    if is_finite(S):
        # x^n lies in a subgroup exactly when n reaches the orbit's index
        index, _, e = S.orbits[x]
        return PowerProjection("defined", e, index)
    orbit = []
    p = x
    for _ in range(budget.steps):
        orbit.append(p)
        if S.mul(p, p) == p:
            e = p
            # cheap two-sided certificates pull earlier powers into H_e;
            # m = len(orbit) always qualifies since e*e == e
            for m, q in enumerate(orbit, start=1):
                if S.mul(e, q) == q and S.mul(q, e) == q:
                    return PowerProjection("defined", e, m)
        p = S.mul(p, x)
    return PowerProjection("undefined_at_bound", None, None)


# ---------------------------------------------------------------------------
# constructions on finite handles

def adjoin_identity(S):
    """S with a fresh two-sided identity appended (always fresh, even when
    S already has one)."""
    _require_finite(S, "adjoin_identity")
    n = S.size
    rows = [list(row) + [i] for i, row in enumerate(S.table)]
    rows.append(list(range(n)) + [n])
    return build_finite(rows, labels=S.labels + ("1+",))


def adjoin_zero(S):
    """S with a fresh absorbing element appended."""
    _require_finite(S, "adjoin_zero")
    n = S.size
    rows = [list(row) + [n] for row in S.table]
    rows.append([n] * (n + 1))
    return build_finite(rows, labels=S.labels + ("0+",))


def restrict(S, subset):
    """The subsemigroup on ``subset`` (must be product-closed).

    Returns the restricted handle together with the tuple of original
    codes in the new code order."""
    _require_finite(S, "restrict")
    keep = tuple(sorted(set(subset)))
    pos = {x: i for i, x in enumerate(keep)}
    rows = []
    for x in keep:
        row = []
        for y in keep:
            p = S.mul(x, y)
            if p not in pos:
                raise BadParameter(f"subset not closed: {x}*{y} = {p} escapes")
            row.append(pos[p])
        rows.append(row)
    return build_finite(rows, labels=tuple(S.labels[x] for x in keep)), keep


def direct_product(A, B, declared_facts=None, center_facts=None):
    """Componentwise product.  Finite x finite gives a finite handle; a
    stream on either side gives a stream (stream x stream unsupported)."""
    if is_finite(A) and is_finite(B):
        na, nb = A.size, B.size
        rows = []
        for xa in range(na):
            for xb in range(nb):
                row = []
                for ya in range(na):
                    for yb in range(nb):
                        row.append(A.mul(xa, ya) * nb + B.mul(xb, yb))
                rows.append(row)
        labels = tuple(f"{A.labels[i]}|{B.labels[j]}" for i in range(na) for j in range(nb))
        return build_finite(rows, labels=labels)
    if is_finite(A) and not is_finite(B):
        n, table, bmul, boracle = A.size, A.table, B.mul, B.division_oracle

        def pmul(x, y):
            return table[x % n][y % n] + n * bmul(x // n, y // n)

        def penum():
            for bcode in B.enumerate_carrier():
                for a in range(n):
                    yield a + n * bcode

        def plabel(x):
            return f"{A.labels[x % n]}|{B.label_fn(x // n)}"

        def poracle(b, y):
            # {a : a*y_A == b_A} x (b_B / y_B), read B-major as penum reads
            left = [a for a in range(n) if table[a][y % n] == b % n]
            if not left:
                return CarrierSet.of(())
            right = boracle(b // n, y // n)
            return CarrierSet(lambda x: x % n in left and right.member(x // n),
                              lambda: (a + n * c for c in right.enumerate_fn() for a in left))

        # Z(A x B) = Z(A) x Z(B): (a, b) commutes with every (a', b') iff a
        # commutes with every a' and b with every b'
        acenter, bcenter = frozenset(A.center_codes), _center_test(B)

        def pcenter(x):
            return x % n in acenter and bcenter(x // n)

        return build_stream(f"({'x'.join(A.labels)})x{B.name}", pmul, penum, plabel,
                            poracle if boracle else None, pcenter if bcenter else None,
                            declared_facts=declared_facts, center_facts=center_facts)
    if not is_finite(A) and is_finite(B):
        return direct_product(B, A, declared_facts=declared_facts, center_facts=center_facts)
    raise BadParameter("direct products of two streams are not supported")


def _require_finite(S, opname):
    if not is_finite(S):
        raise BadParameter(f"{opname} needs a finite handle")

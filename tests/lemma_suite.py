"""Randomized trials of the algebraic laws behind shift topologization.

Every expected fact is derived by definition-chasing on the raw table
(oracle_brute), independently of the package internals.  Each clause
function draws one random scenario from the standard finite corpus and
returns None when the law holds, or a violation record when it does not.
Scenario hypotheses are built constructively (filter the random sets until
the premises hold), so no trial is wasted on unsatisfied implications.
"""

import random

import oracle_brute as ob

from finite_corpus import standard_finite_corpus


class TableContext:
    """Brute-force structure of one finite corpus entry, computed once."""

    def __init__(self, name, S):
        self.name = name
        t = [list(row) for row in S.table]
        self.t = t
        self.n = len(t)
        self.X = list(range(self.n))
        self.commutative = ob.is_commutative(t)
        self.E = ob.idempotents(t)
        self.Z = set(ob.center(t))
        self.EZ = [e for e in self.E if e in self.Z]
        self.He = {e: frozenset(ob.h_class(t, e)) for e in self.E}
        self.H = frozenset().union(*self.He.values()) if self.E else frozenset()
        self.HZ = (frozenset().union(*(self.He[e] for e in self.EZ))
                   if self.EZ else frozenset())
        self.owner = {x: e for e in self.E for x in self.He[e]}
        self.inv = {}
        for e in self.E:
            for x in self.He[e]:
                for y in self.He[e]:
                    if t[x][y] == e and t[y][x] == e:
                        self.inv[x] = y
                        break
        # power sequences long enough to enter and lap the eventual cycle
        self.seq = {}
        self.pi = {}
        self.first_exp = {}
        for x in self.X:
            powers = [x]
            for _ in range(2 * self.n + 2):
                powers.append(t[powers[-1]][x])
            self.seq[x] = powers
            for k, p in enumerate(powers, start=1):
                if p in self.owner:
                    self.pi[x] = self.owner[p]
                    self.first_exp[x] = k
                    break

    def mul(self, x, y):
        return self.t[x][y]

    def quot(self, b, e):
        return [x for x in self.X if self.t[x][e] == b]

    def lam(self, e, b, U):
        out = {b}
        for y in self.quot(b, e):
            for u in U:
                out.add(self.t[y][u])
        return out

    def mulset(self, A, B):
        return {self.t[a][b] for a in A for b in B}


def _subset(rng, pool, p=0.5):
    return {x for x in pool if rng.random() < p}


def _pick(ctxs, rng, pred=None, tries=64):
    for _ in range(tries):
        c = rng.choice(ctxs)
        if pred is None or pred(c):
            return c
    return None


def _bad(c, **detail):
    return {"entry": c.name, **detail}


def clause_lamb1(ctxs, rng):
    """V subset of W forces the b-shift of V inside the b-shift of W."""
    c = rng.choice(ctxs)
    e, b = rng.choice(c.E), rng.choice(c.X)
    W = _subset(rng, c.X)
    V = _subset(rng, sorted(W), 0.6)
    if not c.lam(e, b, V) <= c.lam(e, b, W):
        return _bad(c, e=e, b=b, V=sorted(V), W=sorted(W))


def clause_lamb2(ctxs, rng):
    """The shift of e/e lands inside (be)/e."""
    c = rng.choice(ctxs)
    e, b = rng.choice(c.E), rng.choice(c.X)
    be = c.mul(b, e)
    for x in c.lam(e, b, c.quot(e, e)):
        if c.mul(x, e) != be:
            return _bad(c, e=e, b=b, x=x)


def clause_lamb3(ctxs, rng):
    """A point moved by e has the singleton shift."""
    c = _pick(ctxs, rng,
              lambda c: any(c.mul(b, e) != b for e in c.E for b in c.X))
    if c is None:
        return None
    for _ in range(64):
        e, b = rng.choice(c.E), rng.choice(c.X)
        if c.mul(b, e) != b:
            break
    else:
        return None
    if c.lam(e, b, c.quot(e, e)) != {b}:
        return _bad(c, e=e, b=b)


def clause_lamb4(ctxs, rng):
    """Every non-base point of a shift of e/e has the singleton shift."""
    c = rng.choice(ctxs)
    e, b = rng.choice(c.E), rng.choice(c.X)
    ee = c.quot(e, e)
    for a in c.lam(e, b, ee) - {b}:
        if c.lam(e, a, ee) != {a}:
            return _bad(c, e=e, b=b, a=a)


def clause_lamb5(ctxs, rng):
    """Shifts of e/e around distinct points overlap only if one is trivial."""
    c = rng.choice(ctxs)
    if c.n < 2:
        return None
    e = rng.choice(c.E)
    a, b = rng.sample(c.X, 2)
    ee = c.quot(e, e)
    la, lb = c.lam(e, a, ee), c.lam(e, b, ee)
    if la & lb and len(la) != 1 and len(lb) != 1:
        return _bad(c, e=e, a=a, b=b, la=sorted(la), lb=sorted(lb))


def clause_lamb6(ctxs, rng):
    """Left translation maps a shift into the shift of the product."""
    c = rng.choice(ctxs)
    e, a, b = rng.choice(c.E), rng.choice(c.X), rng.choice(c.X)
    W = _subset(rng, c.X)
    V = _subset(rng, sorted(W), 0.6)
    target = c.lam(e, c.mul(a, b), W)
    if not {c.mul(a, y) for y in c.lam(e, b, V)} <= target:
        return _bad(c, e=e, a=a, b=b, V=sorted(V), W=sorted(W))


def clause_lamb7(ctxs, rng):
    """Right translation by b maps a shift into the shift of the product,
    given Ub inside bW and b commuting with e."""
    c = rng.choice(ctxs)
    e = rng.choice(c.E)
    for _ in range(64):
        b = rng.choice(c.X)
        if c.mul(b, e) == c.mul(e, b):
            break
    else:
        return None
    a = rng.choice(c.X)
    W = _subset(rng, c.X)
    bW = {c.mul(b, w) for w in W}
    U = {u for u in _subset(rng, c.X) if c.mul(u, b) in bW}
    target = c.lam(e, c.mul(a, b), W)
    if not {c.mul(x, b) for x in c.lam(e, a, U)} <= target:
        return _bad(c, e=e, a=a, b=b, U=sorted(U), W=sorted(W))


def clause_lamb8(ctxs, rng):
    """The full product law: with e central, V inside W, Ub inside bW and
    UyV inside yW for every y in b/e, shifted sets multiply into the
    shifted product."""
    c = _pick(ctxs, rng, lambda c: bool(c.EZ))
    if c is None:
        return None
    e = rng.choice(c.EZ)
    a, b = rng.choice(c.X), rng.choice(c.X)
    W = _subset(rng, c.X)
    V = _subset(rng, sorted(W), 0.6)
    bW = {c.mul(b, w) for w in W}
    U = {u for u in _subset(rng, c.X) if c.mul(u, b) in bW}
    quot_b = c.quot(b, e)
    U = {u for u in U
         if all(c.mul(c.mul(u, y), v) in {c.mul(y, w) for w in W}
                for y in quot_b for v in V)}
    prod = c.mulset(c.lam(e, a, U), c.lam(e, b, V))
    target = c.lam(e, c.mul(a, b), W)
    if not prod <= target:
        return _bad(c, e=e, a=a, b=b, U=sorted(U), V=sorted(V), W=sorted(W))


def clause_hz(ctxs, rng):
    """The union of subgroups at central idempotents is product-closed."""
    c = _pick(ctxs, rng, lambda c: bool(c.HZ))
    if c is None:
        return None
    x, y = rng.choice(sorted(c.HZ)), rng.choice(sorted(c.HZ))
    if c.mul(x, y) not in c.HZ:
        return _bad(c, x=x, y=y, product=c.mul(x, y))


def clause_zh(ctxs, rng):
    """A subgroup meeting the center forces its idempotent central and its
    central part a subgroup."""
    c = _pick(ctxs, rng,
              lambda c: any(c.He[e] & c.Z for e in c.E))
    if c is None:
        return None
    e = rng.choice([e for e in c.E if c.He[e] & c.Z])
    if e not in c.Z:
        return _bad(c, e=e, reason="idempotent not central")
    G = sorted(c.He[e] & c.Z)
    z, w = rng.choice(G), rng.choice(G)
    if c.mul(z, w) not in set(G):
        return _bad(c, e=e, z=z, w=w, reason="not closed")
    if c.inv[z] not in set(G):
        return _bad(c, e=e, z=z, reason="inverse escapes")


def clause_inverse(ctxs, rng):
    """Commuting subgroup elements multiply inside the Clifford part, with
    the inverse of the product the product of inverses."""
    c = _pick(ctxs, rng, lambda c: bool(c.H))
    if c is None:
        return None
    pool = sorted(c.H)
    x = rng.choice(pool)
    for _ in range(32):
        y = rng.choice(pool)
        if c.mul(x, y) == c.mul(y, x):
            break
    else:
        y = x
    p = c.mul(x, y)
    if p not in c.H:
        return _bad(c, x=x, y=y, reason="product escapes")
    want = c.mul(c.inv[x], c.inv[y])
    if c.inv[p] != want or want != c.mul(c.inv[y], c.inv[x]):
        return _bad(c, x=x, y=y, reason="inverse mismatch")


def clause_c_ideal(ctxs, rng):
    """Elements with a power in a subgroup absorb into it from both sides."""
    c = rng.choice(ctxs)
    e = rng.choice(c.E)
    roots = [x for x in c.X if any(p in c.He[e] for p in c.seq[x])]
    u = rng.choice(roots)
    h = rng.choice(sorted(c.He[e]))
    if c.mul(u, h) not in c.He[e] or c.mul(h, u) not in c.He[e]:
        return _bad(c, e=e, u=u, h=h)


def clause_pi_well_defined(ctxs, rng):
    """Once a power enters a subgroup, all later powers stay in it."""
    c = rng.choice(ctxs)
    x = rng.choice(c.X)
    e, k = c.pi[x], c.first_exp[x]
    for m in range(k - 1, len(c.seq[x])):
        if c.seq[x][m] not in c.He[e]:
            return _bad(c, x=x, e=e, exponent=m + 1)


def clause_pi_homo(ctxs, rng):
    """On a commutative semigroup the projection to idempotents is a
    homomorphism on the eventually-Clifford part."""
    c = _pick(ctxs, rng, lambda c: c.commutative)
    if c is None:
        return None
    x, y = rng.choice(c.X), rng.choice(c.X)
    if c.pi[c.mul(x, y)] != c.mul(c.pi[x], c.pi[y]):
        return _bad(c, x=x, y=y)


CLAUSES = [
    ("shift-monotone", clause_lamb1),
    ("shift-into-quotient", clause_lamb2),
    ("moved-point-singleton", clause_lamb3),
    ("non-base-points-singleton", clause_lamb4),
    ("overlap-forces-singleton", clause_lamb5),
    ("left-translation", clause_lamb6),
    ("right-translation", clause_lamb7),
    ("shift-product", clause_lamb8),
    ("central-clifford-closed", clause_hz),
    ("central-subgroup", clause_zh),
    ("commuting-inverses", clause_inverse),
    ("subgroup-absorbs-roots", clause_c_ideal),
    ("powers-stay", clause_pi_well_defined),
    ("projection-homomorphism", clause_pi_homo),
]


def build_contexts(corpus=None):
    return [TableContext(name, S) for name, S in (corpus or standard_finite_corpus())]


def run_suite(trials=1000, seed=0, ctxs=None):
    """Run every clause; returns {clause name: [violations]}."""
    if ctxs is None:
        ctxs = build_contexts()
    results = {}
    for name, fn in CLAUSES:
        rng = random.Random(f"{seed}:{name}")
        bad = []
        for _ in range(trials):
            v = fn(ctxs, rng)
            if v is not None:
                bad.append(v)
        results[name] = bad
    return results

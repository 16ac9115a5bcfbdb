"""Naive reference computations used to freeze expected values.

Everything here works straight from a raw Cayley table (list of lists,
row = left factor) by unoptimized definition-chasing, deliberately sharing
no code with the package.  Only usable at tiny sizes.
"""

import itertools


def is_associative(t):
    n = len(t)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    return False
    return True


def is_commutative(t):
    n = len(t)
    return all(t[a][b] == t[b][a] for a in range(n) for b in range(n))


def all_tables(n):
    """Every n x n operation table, associative or not: n^(n*n) of them."""
    cells = n * n
    for flat in itertools.product(range(n), repeat=cells):
        yield [list(flat[i * n:(i + 1) * n]) for i in range(n)]


def count_semigroups_naive(n, commutative_only=False):
    """Filter the full n^(n*n) space; keep n <= 3."""
    count = 0
    for t in all_tables(n):
        if commutative_only and not is_commutative(t):
            continue
        if is_associative(t):
            count += 1
    return count


def canonical_form(t):
    """Lexicographically least table over all relabelings."""
    n = len(t)
    best = None
    for perm in itertools.permutations(range(n)):
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        relab = tuple(tuple(perm[t[inv[i]][inv[j]]] for j in range(n)) for i in range(n))
        if best is None or relab < best:
            best = relab
    return best


def idempotents(t):
    return [x for x in range(len(t)) if t[x][x] == x]


def center(t):
    n = len(t)
    return [z for z in range(n) if all(t[z][x] == t[x][z] for x in range(n))]


def principal_right(t, x):
    return frozenset(t[x]) | {x}


def principal_left(t, x):
    return frozenset(t[y][x] for y in range(len(t))) | {x}


def h_class(t, a):
    n = len(t)
    return [x for x in range(n)
            if principal_right(t, x) == principal_right(t, a)
            and principal_left(t, x) == principal_left(t, a)]


def maximal_subgroup(t, e):
    """Largest subset containing e that forms a group with identity e,
    found by scanning all subsets.  Only for very small tables."""
    n = len(t)
    assert t[e][e] == e
    best = {e}
    others = [x for x in range(n) if x != e]
    for r in range(len(others) + 1):
        for extra in itertools.combinations(others, r):
            g = {e, *extra}
            if not all(t[x][y] in g for x in g for y in g):
                continue
            if not all(t[e][x] == x and t[x][e] == x for x in g):
                continue
            if not all(any(t[x][y] == e and t[y][x] == e for y in g) for x in g):
                continue
            if len(g) > len(best):
                best = g
    return sorted(best)


def subgroup_union(t):
    """Union of all maximal subgroups."""
    out = set()
    for e in idempotents(t):
        out.update(maximal_subgroup(t, e))
    return sorted(out)


def set_partitions(n):
    """All partitions of {0..n-1} via restricted growth strings."""

    def rec(i, maxblock, rgs):
        if i == n:
            blocks = {}
            for idx, b in enumerate(rgs):
                blocks.setdefault(b, []).append(idx)
            yield [tuple(blocks[b]) for b in sorted(blocks)]
            return
        for b in range(maxblock + 2):
            yield from rec(i + 1, max(maxblock, b), rgs + [b])

    yield from rec(1, 0, [0])


def is_congruence(t, blocks):
    n = len(t)
    cls = [0] * n
    for ci, block in enumerate(blocks):
        for x in block:
            cls[x] = ci
    for block in blocks:
        for x in block:
            for y in block:
                for a in range(n):
                    if cls[t[a][x]] != cls[t[a][y]] or cls[t[x][a]] != cls[t[y][a]]:
                        return False
    return True


def congruences(t):
    return [blocks for blocks in set_partitions(len(t)) if is_congruence(t, blocks)]


def least_uniform_exponent(t, cap=100000):
    """Smallest n with x^n idempotent for every x, by direct scanning."""
    n = len(t)

    def pw(x, k):
        acc = x
        for _ in range(k - 1):
            acc = t[acc][x]
        return acc

    for k in range(1, cap + 1):
        if all(t[pw(x, k)][pw(x, k)] == pw(x, k) for x in range(n)):
            return k
    raise AssertionError("no uniform exponent found below cap")


def ideals(t):
    """All nonempty two-sided ideals, by subset scan."""
    n = len(t)
    out = []
    for r in range(1, n + 1):
        for sub in itertools.combinations(range(n), r):
            s = set(sub)
            if all(t[i][x] in s and t[x][i] in s for i in s for x in range(n)):
                out.append(sub)
    return out


def greedy_chain(mul, pool, target, steps):
    """The pairwise greedy chain search over a candidate ``pool``: restart
    from each seed, keep every idempotent whose products with each kept
    code, in both orders, stay inside the pair, and stop at ``target`` kept
    codes or ``steps`` examined candidates.  Returns (kept codes or None,
    best length seen)."""
    examined = 0
    best = 0
    for start in range(len(pool)):
        kept = []
        for x in pool[start:] + pool[:start]:
            examined += 1
            if mul(x, x) == x and all(
                    mul(x, c) in (x, c) and mul(c, x) in (x, c) for c in kept):
                kept.append(x)
                if len(kept) >= target:
                    return kept, len(kept)
            if examined >= steps:
                return None, max(best, len(kept))
        best = max(best, len(kept))
    return None, best


def subgroup_certificate(mul, idempotents, prefix, codes=None):
    """The inverse-witness subgroup certificate, one scan per code and no
    memo: each code x of ``codes`` (default ``prefix``) maps to the first
    of ``idempotents`` that is x itself, or fixes x on both sides with some
    v of ``prefix`` having x*v == v*x == f.  Codes with none are left out."""
    out = {}
    for x in prefix if codes is None else codes:
        if x in idempotents:
            out[x] = x
            continue
        for f in idempotents:
            if mul(f, x) == x and mul(x, f) == x and any(
                    mul(x, v) == f and mul(v, x) == f for v in prefix):
                out[x] = f
                break
    return out

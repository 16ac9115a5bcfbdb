"""Naive reference computations used to freeze expected values.

Everything here works straight from a raw Cayley table (list of lists,
row = left factor) by unoptimized definition-chasing, deliberately sharing
no code with the package.  Only usable at tiny sizes.
"""

import itertools
import math
import re


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


def group_exponent(t):
    """Least common multiple of the orders of the elements of every
    maximal subgroup, each order found by multiplying up to the identity."""
    out = 1
    for e in idempotents(t):
        for x in maximal_subgroup(t, e):
            k, acc = 1, x
            while acc != e:
                k, acc = k + 1, t[acc][x]
            out = out * k // math.gcd(out, k)
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
    memo: each code x of ``codes`` (default ``prefix``) maps to x itself
    when x is idempotent, else to the first of ``idempotents`` that fixes
    x on both sides with some v of ``prefix`` having x*v == v*x == f.
    Codes with none are left out."""
    out = {}
    for x in prefix if codes is None else codes:
        if mul(x, x) == x:
            out[x] = x
            continue
        for f in idempotents:
            if mul(f, x) == x and mul(x, f) == x and any(
                    mul(x, v) == f and mul(v, x) == f for v in prefix):
                out[x] = f
                break
    return out


def longest_chain(t):
    """One longest chain of idempotents under e <= f iff ef == fe == e,
    bottom to top, by memoized recursion: below each e, the first f < e in
    code order with the longest chain under it, and on top the first e in
    code order whose chain is longest."""
    idem = idempotents(t)
    best = {}

    def climb(e):
        if e not in best:
            chain = [e]
            for f in idem:
                if f != e and t[f][e] == f == t[e][f]:
                    cand = climb(f) + [e]
                    if len(cand) > len(chain):
                        chain = cand
            best[e] = chain
        return best[e]

    out = []
    for e in idem:
        if len(climb(e)) > len(out):
            out = climb(e)
    return tuple(out)


def parse_cayley_reference(text):
    """Cayley text read token by token with ``int``, as the package read it
    before rows went through an index of decimal spellings; lines break at
    "\\n", "\\r\\n" and "\\r" only.

    Returns ("table", rows, labels) for an associative table,
    ("non_associative", (a, b, c)) with the lexicographically first
    failing triple, or ("parse_error", message, line, column)."""
    try:
        rows, labels = _reference_rows(text)
    except _ReferenceParseError as err:
        message, line, column = err.args
        return "parse_error", f"line {line}, column {column}: {message}", line, column
    triple = first_nonassociative_triple(rows)
    if triple is not None:
        return "non_associative", triple
    return "table", rows, labels


class _ReferenceParseError(Exception):
    pass


def _reference_rows(text):
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    content_lines = ((lineno, raw.split("#", 1)[0])
                     for lineno, raw in enumerate(lines, start=1))
    content_lines = ((lineno, c) for lineno, c in content_lines if c.strip())

    def tokens(content):
        return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", content)]

    def integer(token, lineno, column, upper=None):
        try:
            value = int(token)
        except ValueError:
            raise _ReferenceParseError(f"expected an integer, found {token!r}",
                                       lineno, column) from None
        if upper is not None and not 0 <= value < upper:
            raise _ReferenceParseError(f"index {value} out of range 0..{upper - 1}",
                                       lineno, column)
        return value

    lineno, content = next(content_lines, (None, None))
    if content is None:
        raise _ReferenceParseError("empty input: expected a size line", 1, 1)
    toks = tokens(content)
    if len(toks) != 1:
        tok, col = toks[1]
        raise _ReferenceParseError(f"size line must hold one token, found {tok!r} too",
                                   lineno, col)
    tok, col = toks[0]
    size = integer(tok, lineno, col)
    if size < 1:
        raise _ReferenceParseError(f"size must be positive, found {size}", lineno, col)

    lineno, content = next(content_lines, (None, None))
    if content is None:
        raise _ReferenceParseError("missing label line", 2, 1)
    toks = tokens(content)
    if len(toks) != size:
        col = toks[size][1] if len(toks) > size else len(content) + 1
        raise _ReferenceParseError(f"expected {size} labels, found {len(toks)}",
                                   lineno, col)
    labels = tuple(t for t, _ in toks)

    rows = []
    last_line = lineno
    for _ in range(size):
        lineno, content = next(content_lines, (None, None))
        if content is None:
            raise _ReferenceParseError(
                f"expected {size} table rows, found {len(rows)}", last_line + 1, 1)
        last_line = lineno
        toks = tokens(content)
        if len(toks) != size:
            col = toks[size][1] if len(toks) > size else len(content) + 1
            raise _ReferenceParseError(f"row must hold {size} entries, found {len(toks)}",
                                       lineno, col)
        rows.append(tuple(integer(t, lineno, col, upper=size) for t, col in toks))

    extra = next(content_lines, None)
    if extra is not None:
        lineno, content = extra
        raise _ReferenceParseError("unexpected content after the table", lineno,
                                   tokens(content)[0][1])
    return tuple(rows), labels


_associative = set()


def first_nonassociative_triple(t):
    """The first (a, b, c) in lexicographic order with (ab)c != a(bc), or
    None; comparing row ab with row a read through row b.  Associative
    tables are remembered, since a whole scan at order 257 takes about a
    second."""
    if t in _associative:
        return None
    n = len(t)
    for a in range(n):
        for b in range(n):
            if t[t[a][b]] != tuple(t[a][x] for x in t[b]):
                return a, b, next(c for c in range(n) if t[t[a][b]][c] != t[a][t[b][c]])
    _associative.add(t)
    return None

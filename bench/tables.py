"""Seeded Cayley tables for the finite-ingest workload, and brute-force
structure computed from a raw table.

Everything here is written without the semitop package, so the checks that
compare against it are independent of the code under test.  Each family has
a fixed order, so the cubic associativity check costs the same on every
seed; the seed picks the family's free parameters and a relabeling
permutation of the codes.
"""

from __future__ import annotations

import random

# (family, order).  Orders stay fixed so that the cubic ingestion cost does
# not move with the seed.
FAMILIES = (
    ("cyclicprod", 256),
    ("chain", 128),
    ("flat", 100),
    ("leftzero1xcyclic", 200),
    ("groupunion", 160),
    ("monogenic0", 224),
)


def _cyclic_product(rng, n):
    a = rng.choice([d for d in range(2, n // 2 + 1) if n % d == 0])
    b = n // a
    rows = [[((i // b + j // b) % a) * b + (i % b + j % b) % b for j in range(n)]
            for i in range(n)]
    return rows


def _chain(rng, n):
    return [[min(i, j) for j in range(n)] for i in range(n)]


def _flat(rng, n):
    # zero 0 plus n-1 incomparable atoms
    return [[i if i == j else 0 for j in range(n)] for i in range(n)]


def _leftzero1_x_cyclic(rng, n):
    # (left-zero semigroup on k points with an identity adjoined) x Z_m;
    # k >= 3 keeps it noncommutative, m >= 2 keeps the group nontrivial
    choices = [d for d in range(4, n // 2 + 1) if n % d == 0]
    lz = rng.choice(choices)  # lz = k + 1 elements, the last is the identity
    m = n // lz

    def lzmul(x, y):
        if x == lz - 1:
            return y
        return x

    rows = [[lzmul(i // m, j // m) * m + (i % m + j % m) % m for j in range(n)]
            for i in range(n)]
    return rows


def _group_union(rng, n):
    # cyclic groups of the chosen orders glued over a zero at code 0
    parts = rng.randint(3, 8)
    cuts = sorted(rng.sample(range(1, n - 1), parts - 1))
    orders = [b - a for a, b in zip([0] + cuts, cuts + [n - 1])]
    block = [None]
    for g, k in enumerate(orders):
        block += [(g, i) for i in range(k)]
    offsets = []
    off = 1
    for k in orders:
        offsets.append(off)
        off += k
    rows = []
    for x in range(n):
        row = []
        for y in range(n):
            if x == 0 or y == 0 or block[x][0] != block[y][0]:
                row.append(0)
            else:
                g = block[x][0]
                row.append(offsets[g] + (block[x][1] + block[y][1]) % orders[g])
        rows.append(row)
    return rows


def _monogenic_plus_zero(rng, n):
    # x, x^2, ..., x^(i+p-1) with x^(i+p) = x^i, then an adjoined zero
    size = n - 1
    index = rng.randint(1, size)
    period = size + 1 - index

    def norm(e):
        return e if e <= size else index + (e - index) % period

    rows = [[norm(i + j + 2) - 1 for j in range(size)] + [size] for i in range(size)]
    rows.append([size] * n)
    return rows


_BUILD = {
    "cyclicprod": _cyclic_product,
    "chain": _chain,
    "flat": _flat,
    "leftzero1xcyclic": _leftzero1_x_cyclic,
    "groupunion": _group_union,
    "monogenic0": _monogenic_plus_zero,
}


def relabel(rows, perm):
    """The same semigroup after renaming code x to perm[x]."""
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        px = perm[x]
        for y in range(n):
            out[px][perm[y]] = perm[rows[x][y]]
    return out


def finite_inputs(seed):
    """The workload's tables: a list of (name, rows), each family's free
    parameters and its relabeling permutation drawn from ``seed``."""
    rng = random.Random(seed)
    out = []
    for family, n in FAMILIES:
        rows = _BUILD[family](rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        out.append((f"{family}-{n}", relabel(rows, perm)))
    return out


def cayley_text(rows):
    n = len(rows)
    lines = [str(n), " ".join(f"x{i}" for i in range(n))]
    lines += [" ".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# brute force from the raw table

def brute_idempotents(rows):
    return tuple(x for x in range(len(rows)) if rows[x][x] == x)


def brute_center(rows):
    n = len(rows)
    return tuple(z for z in range(n) if all(rows[z][x] == rows[x][z] for x in range(n)))


def brute_associative(rows):
    n = len(rows)
    return all(rows[rows[a][b]][c] == rows[a][rows[b][c]]
               for a in range(n) for b in range(n) for c in range(n))

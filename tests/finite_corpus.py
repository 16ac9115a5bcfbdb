"""The finite test corpus, the large tables of the finite-ingest shapes,
table relabeling and Cayley text, shared by the suites."""

import random

from semitop.builders import (
    chain_semilattice,
    cyclic_group,
    flat_finite,
    group_union,
    left_zero,
    m3,
    monogenic,
    zero_semigroup,
)
from semitop.core import adjoin_identity, adjoin_zero, direct_product


def standard_finite_corpus():
    """The finite entries (orders <= 8) exercised by randomized law tests."""
    entries = [
        ("cyclic:1", cyclic_group(1)),
        ("cyclic:2", cyclic_group(2)),
        ("cyclic:3", cyclic_group(3)),
        ("cyclic:4", cyclic_group(4)),
        ("cyclic:6", cyclic_group(6)),
        ("zero:2", zero_semigroup(2)),
        ("zero:4", zero_semigroup(4)),
        ("leftzero:2", left_zero(2)),
        ("leftzero:3", left_zero(3)),
        ("chain:2", chain_semilattice(2)),
        ("chain:3", chain_semilattice(3)),
        ("chain:4", chain_semilattice(4)),
        ("flat:3", flat_finite(3)),
        ("flat:7", flat_finite(7)),
        ("m3", m3()),
        ("monogenic:3,2", monogenic(3, 2)),
        ("groupunion:2,3", group_union([2, 3])),
        ("cyclic:3+zero", adjoin_zero(cyclic_group(3))),
        ("leftzero:2+one", adjoin_identity(left_zero(2))),
        ("cyclic:2 x chain:3", direct_product(cyclic_group(2), chain_semilattice(3))),
        ("leftzero:2 x cyclic:2", direct_product(left_zero(2), cyclic_group(2))),
        ("cyclic:2 x cyclic:2", direct_product(cyclic_group(2), cyclic_group(2))),
    ]
    return entries


def relabeled_table(table, perm):
    """The table of the same semigroup after renaming i to perm[i]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = perm[table[i][j]]
    return tuple(tuple(row) for row in out)


def large_tables():
    """Tables of order 100-256 in the shapes of the finite-ingest workload,
    each relabeled by a permutation seeded with its name."""
    made = {
        "chain-128": lambda: chain_semilattice(128),
        "flat-100": lambda: flat_finite(99),
        "leftzero1xcyclic-200": lambda: direct_product(adjoin_identity(left_zero(4)),
                                                       cyclic_group(40)),
        "cyclicprod-256": lambda: direct_product(cyclic_group(16), cyclic_group(16)),
        "monogenic0-224": lambda: adjoin_zero(monogenic(100, 124)),
        "groupunion-160": lambda: group_union([20, 33, 47, 59]),
    }
    for name, make in made.items():
        table = make().table
        perm = list(range(len(table)))
        random.Random(name).shuffle(perm)
        yield name, relabeled_table(table, perm)


def cayley_text(table):
    """Cayley text of ``table`` with labels x0, x1, ..., one row a line,
    as the finite-ingest workload writes its files."""
    n = len(table)
    return "\n".join([str(n), " ".join(f"x{i}" for i in range(n))]
                     + [" ".join(map(str, row)) for row in table]) + "\n"

"""The finite test corpus and table relabeling, shared by the suites."""

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

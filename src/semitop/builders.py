"""Builder catalog: the reusable finite families and infinite streams.

Stream builders attach declared facts (ground truth the family vouches
for) and, where cheap, an exact left-division oracle.  Declared facts are
trusted only after the bounded searches fail to decide, and lying is a
corpus integrity error, so every fact here errs on the side of what the
family really is.
"""

from __future__ import annotations

import itertools

from .core import (
    CarrierSet,
    adjoin_identity,
    build_finite,
    build_stream,
    direct_product,
)
from .errors import BadParameter


# ---------------------------------------------------------------------------
# finite families

def cyclic_group(n):
    if n < 1:
        raise BadParameter("cyclic group needs n >= 1")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = ["e"] + [f"g{i}" if i > 1 else "g" for i in range(1, n)]
    return build_finite(table, labels[:n])


def zero_semigroup(n):
    """All products equal the zero element 0."""
    if n < 1:
        raise BadParameter("zero semigroup needs n >= 1")
    table = [[0] * n for _ in range(n)]
    return build_finite(table, ["0"] + [f"a{i}" for i in range(1, n)])


def left_zero(n):
    """x*y = x; no central elements once n >= 2."""
    if n < 1:
        raise BadParameter("left zero semigroup needs n >= 1")
    return build_finite([[i] * n for i in range(n)],
                        [f"l{i}" for i in range(n)])


def chain_semilattice(n):
    """The chain 0 < 1 < ... < n-1 under min."""
    if n < 1:
        raise BadParameter("chain needs n >= 1")
    return build_finite([[min(i, j) for j in range(n)] for i in range(n)],
                        [str(i) for i in range(n)])


def flat_finite(k):
    """Zero plus k pairwise-incomparable atoms: x*y = x if x == y else 0."""
    if k < 1:
        raise BadParameter("flat semilattice needs at least one atom")
    n = k + 1
    table = [[i if i == j else 0 for j in range(n)] for i in range(n)]
    return build_finite(table, ["0"] + [f"a{i}" for i in range(1, n)])


def monogenic(index, period):
    """One generator x with x^(index+period) = x^index."""
    if index < 1 or period < 1:
        raise BadParameter("monogenic needs index >= 1 and period >= 1")
    size = index + period - 1

    def norm(e):  # exponent of x, folded into the eventual cycle
        return e if e <= size else index + (e - index) % period

    table = [[norm(i + j + 2) - 1 for j in range(size)] for i in range(size)]
    return build_finite(table, [f"x^{e}" if e > 1 else "x" for e in range(1, size + 1)])


def m3():
    """The monoid {1, a, 0} with a*a = 0."""
    return build_finite([[0, 1, 2], [1, 2, 2], [2, 2, 2]], ["1", "a", "0"])


def group_union(orders):
    """Disjoint cyclic groups glued over a zero: cross products collapse."""
    orders = list(orders)
    if not orders or any(k < 1 for k in orders):
        raise BadParameter("group union needs positive group orders")
    offsets = [1]
    for k in orders[:-1]:
        offsets.append(offsets[-1] + k)
    n = 1 + sum(orders)

    def block(x):
        for b, off in enumerate(offsets):
            if off <= x < off + orders[b]:
                return b, x - off
        return None, None

    rows = []
    for x in range(n):
        bx, ix = block(x)
        row = []
        for y in range(n):
            by, iy = block(y)
            if x == 0 or y == 0 or bx != by:
                row.append(0)
            else:
                row.append(offsets[bx] + (ix + iy) % orders[bx])
        rows.append(row)
    labels = ["0"]
    for b, k in enumerate(orders):
        labels += [f"g{b}^{i}" for i in range(k)]
    return build_finite(rows, labels)


# ---------------------------------------------------------------------------
# streams

def _count_from(start):
    def gen():
        return itertools.count(start)
    return gen


def natmin():
    """The naturals under min: an infinite chain of idempotents."""
    facts = {
        "finite": False, "commutative": True, "chain_finite": False,
        "nonsingular": True, "periodic": True, "bounded": True,
        "bound_exponent": 1, "group_finite": True, "group_bounded": True,
        "clifford": True, "clifford_finite": False, "clifford_plus_finite": True,
        "clifford_singular": False, "eventually_clifford": True,
        "unipotent": False, "ez_chain_finite": False, "ez_infinite": True,
    }

    def oracle(b, y):
        # {x : min(x, y) == b}
        if b < y:
            return CarrierSet.of((b,))
        if b == y:
            return CarrierSet(lambda x: x >= y, _count_from(y))
        return CarrierSet.of(())

    return build_stream("natmin", min, _count_from(0), str, division_oracle=oracle,
                        declared_facts=facts, center_facts=facts)


def natplus():
    """The positive integers under addition: no idempotents at all."""
    facts = {
        "finite": False, "commutative": True, "chain_finite": True,
        "nonsingular": True, "periodic": False, "bounded": False,
        "group_finite": True, "group_bounded": True, "clifford": False,
        "clifford_finite": True, "clifford_part_codes": [],
        "clifford_plus_finite": False, "clifford_singular": False,
        "eventually_clifford": False, "unipotent": False,
        "ez_chain_finite": True, "ez_infinite": False,
    }
    return build_stream("natplus", lambda x, y: x + y, _count_from(1), str,
                        declared_facts=facts, center_facts=facts)


def _null_facts():
    return {
        "finite": False, "commutative": True, "chain_finite": True,
        "nonsingular": False, "periodic": True, "bounded": True,
        "bound_exponent": 2, "group_finite": True, "group_bounded": True,
        "clifford": False, "clifford_finite": True, "clifford_part_codes": [0],
        "clifford_plus_finite": False, "clifford_singular": True,
        "eventually_clifford": True, "unipotent": True,
        "ez_chain_finite": True, "ez_infinite": False,
    }


def nullstream():
    """Infinitely many elements, every product equal to the zero."""
    return build_stream("nullstream", lambda x, y: 0, _count_from(0), str,
                        declared_facts=_null_facts(), center_facts=_null_facts())


def nilstream():
    """Nilpotent atoms n1, n2, ... whose products all land on the zero.

    Same operation as nullstream; kept separate because its role in the
    corpus is the subgroup-union escape (A*A inside H(X), A outside)."""
    facts = _null_facts()
    return build_stream("nilstream", lambda x, y: 0, _count_from(0),
                        lambda c: "0" if c == 0 else f"n{c}",
                        declared_facts=facts, center_facts=facts)


def flat_stream():
    """Zero plus infinitely many incomparable atoms, x*y = x if x == y else 0."""

    def fmul(x, y):
        return x if x == y else 0

    def oracle(b, e):
        # {x : x*e == b} in closed form
        if e == 0:
            if b == 0:
                return CarrierSet(lambda x: True, _count_from(0))
            return CarrierSet.of(())
        if b == e:
            return CarrierSet.of((e,))
        if b == 0:
            return CarrierSet(lambda x: x != e,
                              lambda: (x for x in itertools.count(0) if x != e))
        return CarrierSet.of(())

    facts = {
        "finite": False, "commutative": True, "chain_finite": True,
        "nonsingular": True, "periodic": True, "bounded": True,
        "bound_exponent": 1, "group_finite": True, "group_bounded": True,
        "clifford": True, "clifford_finite": False, "clifford_plus_finite": True,
        "clifford_singular": False, "eventually_clifford": True,
        "unipotent": False, "ez_chain_finite": True, "ez_infinite": True,
    }
    return build_stream("flat", fmul, _count_from(0),
                        lambda c: "0" if c == 0 else f"a{c}",
                        division_oracle=oracle, declared_facts=facts,
                        center_facts=facts)


def intadd():
    """The integers under addition: one infinite subgroup."""

    def dec(c):
        return (c + 1) // 2 if c % 2 else -(c // 2)

    def add(x, y):
        # dec(x) + dec(y), encoded again, in one call per product
        v = ((x + 1) // 2 if x % 2 else -(x // 2)) + ((y + 1) // 2 if y % 2 else -(y // 2))
        return 2 * v - 1 if v > 0 else -2 * v

    def oracle(b, y):
        # {x : x + y == b} is the one code of b - y
        v = dec(b) - dec(y)
        return CarrierSet.of((2 * v - 1 if v > 0 else -2 * v,))

    facts = {
        "finite": False, "commutative": True, "chain_finite": True,
        "nonsingular": True, "periodic": False, "bounded": False,
        "group_finite": False, "group_bounded": False, "clifford": True,
        "clifford_finite": False, "clifford_plus_finite": True,
        "clifford_singular": False, "eventually_clifford": True,
        "unipotent": True, "ez_chain_finite": True, "ez_infinite": False,
    }
    return build_stream("intadd", add, _count_from(0), lambda c: str(dec(c)),
                        division_oracle=oracle, declared_facts=facts, center_facts=facts)


def prodcenter():
    """A noncommutative stream with infinite center: (left-zero monoid) x natmin.

    The center is {identity} x naturals, an infinite chain, so the
    center-based necessary conditions all bite."""
    base = adjoin_identity(left_zero(2))
    facts = {
        "finite": False, "commutative": False, "chain_finite": False,
        "nonsingular": True, "periodic": True, "bounded": True,
        "bound_exponent": 1, "group_finite": True, "group_bounded": True,
        "clifford": True, "clifford_finite": False, "clifford_plus_finite": True,
        "clifford_singular": False, "eventually_clifford": True,
        "unipotent": False, "center_finite": False,
        "ez_chain_finite": False, "ez_infinite": True,
    }
    center_facts = dict(natmin().declared_facts)
    return direct_product(base, natmin(), declared_facts=facts,
                          center_facts=center_facts)


# ---------------------------------------------------------------------------
# catalog

def _parse_ints(arg, count=None):
    parts = [p for p in arg.split(",") if p] if arg else []
    try:
        vals = [int(p) for p in parts]
    except ValueError:
        raise BadParameter(f"expected integer parameters, got {arg!r}")
    if count is not None and len(vals) != count:
        raise BadParameter(f"expected {count} parameter(s), got {len(vals)}")
    return vals


def build(spec):
    """Build from a CLI spec like "cyclic:3", "flat" (stream) or "flat:4"."""
    name, _, arg = spec.partition(":")
    if name == "cyclic":
        return cyclic_group(*_parse_ints(arg, 1))
    if name == "zero":
        return zero_semigroup(*_parse_ints(arg, 1))
    if name == "leftzero":
        return left_zero(*_parse_ints(arg, 1))
    if name == "chain":
        return chain_semilattice(*_parse_ints(arg, 1))
    if name == "flat":
        return flat_finite(*_parse_ints(arg, 1)) if arg else flat_stream()
    if name == "monogenic":
        return monogenic(*_parse_ints(arg, 2))
    if name == "groupunion":
        return group_union(_parse_ints(arg))
    if name == "m3":
        return m3()
    if name == "natmin":
        return natmin()
    if name == "natplus":
        return natplus()
    if name == "nullstream":
        return nullstream()
    if name == "nilstream":
        return nilstream()
    if name == "intadd":
        return intadd()
    if name == "prodcenter":
        return prodcenter()
    raise BadParameter(f"unknown builder {name!r}")


BUILDER_NAMES = ["cyclic", "zero", "leftzero", "chain", "flat", "monogenic",
                 "groupunion", "m3", "natmin", "natplus", "nullstream",
                 "nilstream", "intadd", "prodcenter"]


def stream_corpus():
    return [
        ("natmin", natmin()),
        ("natplus", natplus()),
        ("nullstream", nullstream()),
        ("nilstream", nilstream()),
        ("flat", flat_stream()),
        ("intadd", intadd()),
        ("prodcenter", prodcenter()),
    ]

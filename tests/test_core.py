"""Core structure: tables, orders, H-classes, powers, constructions."""

import dataclasses
import gc
import importlib.util
import itertools
import operator
import random
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import oracle_brute as ob
from finite_corpus import cayley_text, relabeled_table, standard_finite_corpus
from metering import capped, counted

import semitop.core as core
from semitop.builders import (
    chain_semilattice,
    cyclic_group,
    flat_finite,
    flat_stream,
    group_union,
    intadd,
    left_zero,
    m3,
    monogenic as monogenic_builder,
    natmin,
    prodcenter,
    stream_corpus,
)
from semitop.classify import classify
from semitop.core import (
    SAMPLE_SIZE,
    Budget,
    CarrierSet,
    adjoin_identity,
    adjoin_zero,
    bounded_view,
    build_finite,
    build_stream,
    center,
    clifford_parts,
    direct_product,
    generators,
    idempotents,
    longest_chain,
    natural_order,
    power,
    power_projection,
    restrict,
)
from semitop.corpus import enumerate_classes, enumerate_finite, parse_cayley
from semitop.errors import (
    BadParameter,
    MalformedTable,
    NonAssociative,
)
from semitop.predicates import group_bounded, least_uniform_exponent


def test_build_finite_rejects_bad_shapes():
    with pytest.raises(MalformedTable):
        build_finite([])
    with pytest.raises(MalformedTable):
        build_finite([[0, 1], [0]])
    with pytest.raises(MalformedTable):
        build_finite([[0, 2], [0, 1]])
    with pytest.raises(MalformedTable):
        build_finite([[0]], labels=["a", "b"])


@pytest.mark.parametrize("table,message", [
    ([[0, 2], [0, 1]], "entry 2 out of range 0..1"),
    ([[0, 0], [-1, 0]], "entry -1 out of range 0..1"),
    ([[0, 1.0], [0, 0]], "entry 1.0 out of range 0..1"),
    ([[0, 0, 0], [0, "x", 9], [0, 0, 0]], "entry 'x' out of range 0..2"),
    ([[0, 0, 0], [0, 9, "x"], [0, 0, 0]], "entry 9 out of range 0..2"),
    ([[0, 0], [0, None]], "entry None out of range 0..1"),
    # rows of plain ints in range pass in bulk; the row after them does not
    ([[0, 0, 0], [0, 1, 2], [0, 1.0, 0]], "entry 1.0 out of range 0..2"),
    ([[0, 0, 0], [0, 1, 2], [0, 0, -1]], "entry -1 out of range 0..2"),
    ([[0, 0, 0], [0, 1, 2], [3, 0, 0]], "entry 3 out of range 0..2"),
])
def test_build_finite_words_the_first_bad_entry(table, message):
    with pytest.raises(MalformedTable) as err:
        build_finite(table)
    assert str(err.value) == message


@pytest.mark.parametrize("table,message", [
    ([[0, 2], [0, 1]], "entry 2 out of range 0..1"),
    ([[0, 0, 0], [0, 1, 2], [3, 0, 0]], "entry 3 out of range 0..2"),
    ([[0, 0, 0], [0, 255, 2], [0, 0, 0]], "entry 255 out of range 0..2"),
    ([[0, 1], [0]], "row of length 1 in a table of size 2"),
    ([[0, 1], [0, 1, 0]], "row of length 3 in a table of size 2"),
    # the first bad row is named, whether its entries or its length are bad
    ([[0, 5], [0]], "entry 5 out of range 0..1"),
    ([[0], [0, 5]], "row of length 1 in a table of size 2"),
])
def test_bytes_rows_are_worded_as_lists_are(table, message):
    # rows of bytes are checked in C, and a table that fails takes the loop
    for form in (table, [bytes(row) for row in table], [bytes(table[0])] + table[1:]):
        with pytest.raises(MalformedTable) as err:
            build_finite(form)
        assert str(err.value) == message


def test_bytes_rows_give_the_table_of_their_lists():
    S = build_finite([b"\x00\x01", b"\x01\x00"], ["e", "g"])
    assert S.table == ((0, 1), (1, 0)) and type(S.table[0]) is tuple
    assert S.labels == ("e", "g")
    with pytest.raises(NonAssociative) as err:
        build_finite([b"\x01\x00", b"\x00\x00"])
    assert err.value.triple == (0, 0, 1)


def test_build_finite_accepts_int_subclasses():
    S = build_finite([[False, True], [True, False]])
    assert S.mul(1, 1) == 0
    # a group of order 2 with a zero adjoined, True beside ints in one row
    S = build_finite([[0, 0, 0], [0, 1, 2], [0, 2, True]])
    assert S.mul(2, 2) == 1


def test_build_finite_reports_nonassociative_triple():
    # (0*0)*1 = 1*1 = 0 but 0*(0*1) = 0*0 = 1
    with pytest.raises(NonAssociative) as err:
        build_finite([[1, 0], [0, 0]])
    a, b, c = err.value.triple
    t = [[1, 0], [0, 0]]
    assert t[t[a][b]][c] != t[a][t[b][c]]


@given(st.integers(1, 5), st.data())
def test_validator_agrees_with_naive_associativity(n, data):
    flat = data.draw(st.lists(st.integers(0, n - 1), min_size=n * n,
                              max_size=n * n))
    table = [flat[i * n:(i + 1) * n] for i in range(n)]
    if ob.is_associative(table):
        assert build_finite(table).size == n
    else:
        first = next((a, b, c) for a in range(n) for b in range(n)
                     for c in range(n)
                     if table[table[a][b]][c] != table[a][table[b][c]])
        with pytest.raises(NonAssociative) as err:
            build_finite(table)
        assert err.value.triple == first


def _left_normed_closure(t, gens):
    reached = set(gens)
    frontier = list(gens)
    while frontier:
        x = frontier.pop()
        for g in gens:
            if t[x][g] not in reached:
                reached.add(t[x][g])
                frontier.append(t[x][g])
    return reached


def test_generators_of_every_order_3_semigroup_generate_it():
    for S in enumerate_finite(3):
        assert _left_normed_closure(S.table, generators(S.table)) == {0, 1, 2}


@given(st.integers(1, 5), st.data())
def test_generators_of_any_magma_generate_it(n, data):
    # Light's test leans on this closure even when the table does not
    # associate, so it is drawn over all operation tables
    flat = data.draw(st.lists(st.integers(0, n - 1), min_size=n * n,
                              max_size=n * n))
    table = tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))
    gens = generators(table)
    assert len(set(gens)) == len(gens)
    assert _left_normed_closure(table, gens) == set(range(n))
    assert all(g in gens for g in range(n)
               if all(g not in row for row in table))


def test_generators_reuse_what_earlier_generators_reached():
    # Z6 x (leftzero:4 with an identity 4), code 5a + b: block 0 needs all
    # five codes; then each earlier code times (1, 0) = 5 reaches (1, b)
    # for every left zero b, and so every (k, b), leaving only (1, 4) = 9
    S = direct_product(cyclic_group(6), adjoin_identity(left_zero(4)))
    assert generators(S.table) == [0, 1, 2, 3, 4, 5, 9]
    assert generators(cyclic_group(256).table) == [0, 1]
    assert generators(chain_semilattice(5).table) == [0, 1, 2, 3, 4]


def _naive_first_triple(t):
    """The first (a, b, c) in lexicographic order with (ab)c != a(bc),
    over every middle b, or None."""
    n = len(t)
    for a in range(n):
        for b in range(n):
            if t[t[a][b]] != operator.itemgetter(*t[b])(t[a]):
                return a, b, next(c for c in range(n)
                                  if t[t[a][b]][c] != t[a][t[b][c]])
    return None


@pytest.mark.parametrize("name,make", [
    ("cyclic256", lambda: cyclic_group(256)),
    ("cyclic16xcyclic16", lambda: direct_product(cyclic_group(16), cyclic_group(16))),
    ("groupunion", lambda: group_union([3, 5, 7, 9])),
    ("monogenic0", lambda: adjoin_zero(monogenic_builder(5, 12))),
    ("leftzero1xcyclic", lambda: direct_product(adjoin_identity(left_zero(4)),
                                                cyclic_group(6))),
    ("flat31", lambda: flat_finite(31)),
    ("chain24", lambda: chain_semilattice(24)),
])
def test_one_corrupted_cell_raises_the_naive_first_triple(name, make):
    table = make().table
    n = len(table)
    rng = random.Random(name)
    for _ in range(3):
        rows = [list(row) for row in table]
        x, y = rng.randrange(n), rng.randrange(n)
        rows[x][y] = (rows[x][y] + 1 + rng.randrange(n - 1)) % n
        first = _naive_first_triple(tuple(map(tuple, rows)))
        assert first is not None
        with pytest.raises(NonAssociative) as err:
            build_finite(rows)
        assert err.value.triple == first


@pytest.mark.parametrize("make", [lambda: flat_finite(4), lambda: chain_semilattice(5)],
                         ids=["flat4", "chain5"])
def test_every_corrupted_cell_of_a_small_table_raises_the_naive_first_triple(make):
    # a row whose product a*b an earlier row shares is checked on the image
    # of row b alone; these corruptions reach every image value
    table = make().table
    n = len(table)
    for x, y, v in itertools.product(range(n), range(n), range(n)):
        if v == table[x][y]:
            continue
        rows = [list(row) for row in table]
        rows[x][y] = v
        first = _naive_first_triple(tuple(map(tuple, rows)))
        if first is None:  # the corruption is another semigroup
            assert build_finite(rows).size == n
            continue
        with pytest.raises(NonAssociative) as err:
            build_finite(rows)
        assert err.value.triple == first


def test_the_row_loop_passes_the_one_element_table():
    # a one-code row read at one key is still a row: an itemgetter of one
    # index returns the entry itself, which once failed the 1x1 table
    assert core._first_failure(((0,),), [0]) is None
    assert core._first_failure(((0,),), []) is None
    assert core._associates([b"\x00"], [0])


@given(st.integers(1, 6), st.data())
def test_the_bytes_decider_agrees_with_the_row_loop(n, data):
    # entries drawn from the first k codes give rows of few distinct
    # values, so that many rows share the decider's key
    k = data.draw(st.integers(1, n))
    flat = data.draw(st.lists(st.integers(0, k - 1), min_size=n * n, max_size=n * n))
    table = tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))
    middles = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    assert (core._associates(list(map(bytes, table)), middles)
            == (core._first_failure(table, middles) is None))


@pytest.mark.parametrize("make,bytes_path", [
    (lambda: flat_finite(255), True),
    (lambda: cyclic_group(257), False),
], ids=["flat255-bytes", "cyclic257-rows"])
def test_tables_at_the_bytes_boundary(monkeypatch, make, bytes_path):
    # 256 codes fit a translation table; 257 take the row loop
    table = make().table
    loops = []
    inner = core._first_failure
    monkeypatch.setattr(core, "_first_failure",
                        lambda t, middles: loops.append(len(middles)) or inner(t, middles))
    assert build_finite(table).table == table
    assert (loops == []) == bytes_path
    monkeypatch.undo()
    n = len(table)
    rng = random.Random(n)
    rows = [list(row) for row in table]
    x, y = rng.randrange(n), rng.randrange(n)
    rows[x][y] = (rows[x][y] + 1 + rng.randrange(n - 1)) % n
    first = _naive_first_triple(tuple(map(tuple, rows)))
    assert first is not None
    with pytest.raises(NonAssociative) as err:
        build_finite(rows)
    assert err.value.triple == first


def test_a_257_code_table_read_from_text_takes_the_row_loop(monkeypatch):
    # above 256 codes the reader gives list rows and the table check keeps
    # the row loop; one corrupted cell still raises the first triple
    table = cyclic_group(257).table
    loops = []
    inner = core._first_failure
    monkeypatch.setattr(core, "_first_failure",
                        lambda t, middles: loops.append(len(middles)) or inner(t, middles))
    monkeypatch.setattr(core, "_associates", None)
    assert parse_cayley(cayley_text(table)).table == table
    assert len(loops) == 1
    rows = [list(row) for row in table]
    rng = random.Random(257)
    x, y = rng.randrange(257), rng.randrange(257)
    rows[x][y] = (rows[x][y] + 1 + rng.randrange(256)) % 257
    with pytest.raises(NonAssociative) as err:
        parse_cayley(cayley_text(rows))
    assert err.value.triple == _naive_first_triple(tuple(map(tuple, rows))) == (1, 161, 210)


def test_cyclic_group_of_order_256_checks_two_middles(monkeypatch):
    checked = []
    inner = core._associates

    def spy(t, middles):
        checked.append(len(middles))
        return inner(t, middles)

    monkeypatch.setattr(core, "_associates", spy)
    cyclic_group(256)
    assert checked == [2]


def _fresh_prefix(enumerate_fn, limit):
    """The first ``limit`` codes of a new enumeration, and whether they
    are all of them."""
    codes = list(itertools.islice(enumerate_fn(), limit + 1))
    return codes[:limit], len(codes) <= limit


@pytest.mark.parametrize("enumerate_fn", [
    lambda: iter((5, 3, 8, 1, 9)),
    lambda: iter(()),
    lambda: itertools.count(7, 3),
], ids=["finite", "empty", "counter"])
def test_carrier_set_enumerates_once_and_answers_as_a_fresh_scan(enumerate_fn):
    starts = []

    def spy():
        starts.append(1)
        return enumerate_fn()

    s = CarrierSet(lambda x: True, spy)
    limits = list(range(13))
    random.Random(0).shuffle(limits)
    for k in limits:
        assert s.prefix(k) == _fresh_prefix(enumerate_fn, k), k
        members = [y for y in range(-1, 45) if s.among_first(y, k)]
        assert members == sorted(_fresh_prefix(enumerate_fn, k)[0]), k
    assert starts == [1]


@given(codes=st.lists(st.integers(0, 9), max_size=20),
       raise_at=st.integers(0, 20),
       queries=st.lists(st.tuples(st.integers(-1, 10), st.integers(0, 25)), max_size=20))
@example(codes=[0, 1, 2, 3], raise_at=2, queries=[(3, 5), (0, 5)])
@example(codes=[5, 1, 5], raise_at=20, queries=[(5, 3), (9, 3), (5, 1)])
def test_among_first_answers_as_a_linear_scan(codes, raise_at, queries):
    # the position index answers as a scan of the first ``limit`` codes,
    # duplicates included, and reads no further than the scan; after an
    # enumerator raised once (at ``raise_at``, if it reads that far),
    # nothing it read is kept
    starts, read = [], []

    def enumerate_fn():
        starts.append(1)
        read.clear()
        for i, x in enumerate(codes):
            if i == raise_at and len(starts) == 1:
                raise RuntimeError("the enumerator fails once")
            read.append(x)
            yield x

    s = CarrierSet(lambda x: True, enumerate_fn)
    before = 0
    for y, limit in queries:
        try:
            found = s.among_first(y, limit)
        except RuntimeError:
            before = 0
            read.clear()
            continue
        assert found == (y in codes[:limit]), (y, limit)
        reach = codes.index(y) + 1 if found else min(limit, len(codes))
        assert len(read) == max(before, reach), (y, limit)
        before = len(read)


def test_among_first_enumerates_only_as_far_as_its_answer():
    pulled = []

    def counter():
        for x in itertools.count():
            pulled.append(x)
            yield x

    s = CarrierSet(lambda x: True, counter)
    assert s.among_first(3, 10) and len(pulled) == 4
    assert not s.among_first(50, 10) and len(pulled) == 10
    assert s.among_first(9, 10) and not s.among_first(10, 10) and len(pulled) == 10


def test_first_and_walk_read_no_further_than_asked():
    pulled = []

    def counter():
        for x in itertools.count():
            pulled.append(x)
            yield x

    s = CarrierSet(lambda x: True, counter)
    assert s.first(3) == [0, 1, 2] and len(pulled) == 3
    walk = s.walk(10)
    assert [next(walk) for _ in range(5)] == [0, 1, 2, 3, 4] and len(pulled) == 5
    assert list(walk) == [5, 6, 7, 8, 9] and len(pulled) == 10
    dry = CarrierSet(lambda x: True, lambda: iter((5, 3, 8)))
    assert list(dry.walk(10)) == dry.first(10) == [5, 3, 8]


def test_where_is_exhausted_only_when_its_source_ran_dry_inside_the_limit():
    pulled = []

    def source(n):
        def gen():
            for x in range(n):
                pulled.append(x)
                yield x
        return CarrierSet(lambda x: True, gen)

    def even(x):
        return x % 2 == 0

    # the source goes on past the limit: the scan stops there, not at the end
    assert source(100).where(even, 10).prefix(8) == ([0, 2, 4, 6, 8], False)
    assert len(pulled) == 10
    # the source ends inside the limit: its members are all of them
    assert source(7).where(even, 10).prefix(8) == ([0, 2, 4, 6], True)
    # the source ends at the limit: no code past it is read to tell
    pulled.clear()
    ten = source(10)
    evens = ten.where(even, 10)
    assert evens.prefix(8) == ([0, 2, 4, 6, 8], False) and len(pulled) == 10
    # until another reader finds the end
    assert ten.first(11) == list(range(10))
    assert evens.prefix(8) == ([0, 2, 4, 6, 8], True)
    # a set given in full is read to its end at once
    assert CarrierSet.of((3, 1, 4)).where(even, 3).prefix(3) == ([4], True)


def test_carrier_set_restarts_an_enumerator_that_raised():
    # a raise must not read as the end of the set
    raised = []

    def flaky():
        for x in range(6):
            if x == 3 and not raised:
                raised.append(x)
                raise RuntimeError("enumerator failed")
            yield x

    s = CarrierSet(lambda x: True, flaky)
    with pytest.raises(RuntimeError):
        s.prefix(5)
    assert s.prefix(5) == ([0, 1, 2, 3, 4], False)
    assert s.prefix(6) == ([0, 1, 2, 3, 4, 5], True)


def test_one_element_table_is_the_trivial_semigroup():
    S = build_finite([[0]])
    assert S.size == 1 and S.mul(0, 0) == 0
    assert build_finite([[0]], labels=["e"]).labels == ("e",)


def test_a_finite_handle_answers_what_its_readers_ask():
    # the report name, a label per code and no declarations, as a stream
    # answers them, so no reader needs a default
    S = cyclic_group(3)
    assert S.name == "finite[3]" and classify(S).name == "finite[3]"
    assert [S.label_fn(x) for x in S.elements()] == ["e", "g", "g2"]
    assert S.declared_facts is None and S.center_facts is None


def test_natural_order_on_chain_is_linear():
    S = chain_semilattice(4)
    down = natural_order(S)
    assert longest_chain(down) == (0, 1, 2, 3)
    # each code lies strictly above every smaller code and no larger one
    assert down == {y: list(range(y)) for y in range(4)}


def test_longest_chain_matches_the_recursive_reference():
    # every class of order <= 4 under three relabelings each: the chain
    # and its tie-breaks, the first longest by its top and the first
    # longest below each step, are those of the recursive search
    rng = random.Random(4)
    for n in range(1, 5):
        for S, _ in enumerate_classes(n):
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                table = relabeled_table(S.table, perm)
                assert longest_chain(natural_order(build_finite(table))) == \
                    ob.longest_chain(table), table


def test_longest_chain_leaves_no_cyclic_garbage():
    # the search must leave nothing in a reference cycle, which stays
    # alive until the cyclic collector runs
    down = natural_order(chain_semilattice(4))
    gc.collect()
    gc.disable()
    try:
        assert longest_chain(down) == (0, 1, 2, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_dropped_stream_frees_its_views_without_a_collection():
    # a stream keeps its views; a view holding the stream would make a
    # reference cycle that keeps both, and the view's caches, until the
    # cyclic collector runs
    S = flat_stream()
    view = bounded_view(S, Budget(64, 1024))
    assert view.central_idempotents and view.subgroup_idempotent(3) == 3
    handle, gone = weakref.ref(S), weakref.ref(view)
    gc.disable()
    try:
        del S, view
        assert handle() is None and gone() is None
    finally:
        gc.enable()


def test_natural_order_is_read_off_a_finite_table_only():
    # a stream's order is its view's central_order
    with pytest.raises(BadParameter):
        natural_order(flat_stream())
    # on a commutative table every idempotent is central, so the view's
    # index is the whole order
    S = flat_finite(3)
    assert natural_order(S) == bounded_view(S).central_order


def test_natural_order_on_flat_has_incomparable_atoms():
    S = flat_finite(3)
    down = natural_order(S)
    # the atoms lie above the zero alone
    assert down == {0: [], 1: [0], 2: [0], 3: [0]}
    assert len(longest_chain(down)) == 2


def test_idempotents_and_center_match_oracle():
    for name, S in standard_finite_corpus():
        t = [list(r) for r in S.table]
        assert sorted(idempotents(S).elements) == ob.idempotents(t), name
        assert sorted(center(S).elements) == ob.center(t), name


def _center_fn_cases():
    yield "prodcenter", prodcenter()
    yield "leftzero:2 x natmin", direct_product(left_zero(2), natmin())
    for name, A in standard_finite_corpus():
        yield f"{name} x natmin", direct_product(A, natmin())
        yield f"{name} x intadd", direct_product(A, intadd())
    # a noncommutative B, whose own center test the product must read
    yield "cyclic:2 x prodcenter", direct_product(cyclic_group(2), prodcenter())


def test_center_fn_matches_brute_force():
    # Z(A x B) = Z(A) x Z(B).  The first K = 48 codes run through the
    # finite part of each product (of order 8 at most: A, or A times the
    # finite factor of prodcenter) six times over, so every noncentral code
    # among them meets a code it does not commute with
    K = 48
    for name, S in _center_fn_cases():
        codes = list(itertools.islice(S.enumerate_carrier(), K))
        for x in codes:
            brute = all(S.mul(x, y) == S.mul(y, x) for y in codes)
            assert S.center_fn(x) == brute, (name, x)
    # a noncommutative B with no center test of its own gives the product none
    B = dataclasses.replace(prodcenter(), center_fn=None)
    assert direct_product(cyclic_group(2), B).center_fn is None


@pytest.mark.parametrize("budget", [Budget(16, 256), Budget(256, 4096)])
@pytest.mark.parametrize("make", [prodcenter,
                                  lambda: direct_product(left_zero(2), natmin()),
                                  lambda: dataclasses.replace(prodcenter(), center_fn=None)])
def test_central_on_window_generators_matches_the_whole_window(make, budget):
    # without a center test, x is tested against a generating set of the
    # window only; the answer must be the one the test against every window
    # code gives.  With one, the window is wide enough to reach every
    # noncentral code's witness, so the two agree as well
    S = make()
    view = bounded_view(S, budget)
    assert view.central_exact == (S.center_fn is not None)
    window = view.codes[:SAMPLE_SIZE]
    for x in itertools.islice(S.enumerate_carrier(), 3000):
        assert view.central(x) == all(S.mul(x, w) == S.mul(w, x) for w in window), x


def test_h_class_matches_oracle_maximal_subgroup():
    for name, S in standard_finite_corpus():
        if S.size > 6:
            continue
        t = [list(r) for r in S.table]
        for e in ob.idempotents(t):
            expected = ob.maximal_subgroup(t, e)
            assert sorted(x for x, f in S.subgroup_idempotent.items() if f == e) == expected, (name, e)
            assert list(bounded_view(S).subgroup(e)) == expected, (name, e)


def test_orbit_table_maps_match_the_oracle_on_every_table_of_order_4():
    # the subgroup map, both exponents, the center and commutativity, all
    # read off the orbit table or the transpose, on the 3,614 labeled
    # tables of orders 1 to 4
    for n in range(1, 5):
        for S in enumerate_finite(n):
            t = [list(row) for row in S.table]
            subgroups = {x: e for e in ob.idempotents(t) for x in ob.maximal_subgroup(t, e)}
            assert S.subgroup_idempotent == subgroups, t
            assert least_uniform_exponent(S) == ob.least_uniform_exponent(t), t
            assert group_bounded(S).witness["exponent"] == ob.group_exponent(t), t
            assert list(S.center_codes) == ob.center(t), t
            assert S.commutative == ob.is_commutative(t), t


def test_clifford_parts_cover_group_union():
    S = group_union([2, 3])
    dec = clifford_parts(S)
    assert dec.exact
    assert dec.residue == ()
    assert sorted(dec.idempotents) == [0, 1, 3]
    assert set(dec.classes[1]) == {1, 2}
    assert set(dec.classes[3]) == {3, 4, 5}


def test_stream_view_matches_the_finite_structure_maps():
    # a finite table given as a stream whose prefix is the whole carrier:
    # the inverse-witness certificate must find every subgroup exactly
    budget = Budget(16, 256)
    for name, S in standard_finite_corpus():
        stream = build_stream(name, S.mul, lambda n=S.size: iter(range(n)))
        view = bounded_view(stream, budget)
        assert view.idempotents == S.idempotent_codes, name
        assert view.center == S.center_codes, name
        assert view.subgroup_of == S.subgroup_idempotent, name
        assert clifford_parts(stream, budget).classes == clifford_parts(S).classes, name


def test_an_idempotent_past_the_prefix_certifies_itself_at_one_product():
    S, meter = counted(natmin())
    view = bounded_view(S, Budget(256, 4096))
    # the prefix's idempotents are known first, as every caller has them
    assert 300 not in view.codes and view.idempotents
    meter.calls = 0
    assert view.subgroup_idempotent(300) == 300
    assert meter.calls == 1


def test_subgroup_certificates_recorded_in_pairs_match_one_scan_per_code():
    # the view records an inverse's certificate with the code it came from;
    # that must be what the inverse's own scan over the prefix would find
    streams = dict(stream_corpus())
    for name in ("intadd", "natmin", "prodcenter"):
        S = streams[name]
        for budget in (Budget(64, 1024), Budget(256, 4096)):
            prefix = list(itertools.islice(S.enumerate_carrier(), budget.elements))
            idem = [x for x in prefix if S.mul(x, x) == x]
            expected = ob.subgroup_certificate(S.mul, idem, prefix)
            assert bounded_view(S, budget).subgroup_of == expected, (name, budget)
    # tables as streams, at every prefix length; with a short prefix some
    # inverses fall outside it.  Codes are asked from the top down, so a
    # code meets its witnesses before they are asked: a witness in the
    # prefix takes a certificate only from a prefix code, and only when it
    # lies in the same subgroup (in (max-chain) x C3, (1, g) has the
    # witness (0, g^-1), which lies in another subgroup)
    top_first = build_finite([[max(i, j) for j in range(3)] for i in range(3)])
    tables = standard_finite_corpus() + [("maxchain:3 x cyclic:3",
                                          direct_product(top_first, cyclic_group(3)))]
    clipped = 0
    for name, S in tables:
        down = range(S.size - 1, -1, -1)
        for k in range(1, S.size + 1):
            stream = build_stream(name, S.mul, lambda n=S.size: iter(range(n)))
            view = bounded_view(stream, Budget(k, 256))
            prefix = list(range(k))
            idem = [x for x in prefix if S.mul(x, x) == x]
            asked = ob.subgroup_certificate(S.mul, idem, prefix, down)
            assert [view.subgroup_idempotent(x) for x in down] == [
                asked.get(x) for x in down], (name, k)
            expected = ob.subgroup_certificate(S.mul, idem, prefix)
            assert view.subgroup_of == expected, (name, k)
            clipped += any(S.subgroup_idempotent.get(x) != expected.get(x) for x in prefix)
    assert clipped


def test_stream_mul_is_one_call_and_counted_copies_count_every_product():
    # ``mul`` is ``mul_fn`` itself, bound again on every replaced copy, so
    # each counter sees exactly the products a hand-wrapped ``mul_fn`` sees
    spans = _load_bench_spans()
    budget = Budget(64, 1024)
    for name, S in stream_corpus():
        assert S.mul is S.mul_fn, name
        hand = [0]

        def by_hand(x, y, inner=S.mul_fn):
            hand[0] += 1
            return inner(x, y)

        T, meter = counted(dataclasses.replace(S, mul_fn=by_hand))
        assert T.mul is T.mul_fn and T.mul is not by_hand, name
        classify(T, budget, name=name)
        assert meter.calls == hand[0] > 0, name

        tracer = spans.Tracer()
        hand[0] = 0
        U = tracer.counted(dataclasses.replace(S, mul_fn=by_hand))
        assert U.mul is U.mul_fn and U.mul is not by_hand, name
        classify(U, budget, name=name)
        assert tracer.mul_calls == hand[0] == meter.calls, name


def _load_bench_spans():
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stream_h_class_reads_the_view_subgroup():
    # the stream H-class of an idempotent is the view's subgroup certificate:
    # at most 41 products per table here, where two-sided divisibility
    # witnesses took up to 455
    for name, S in standard_finite_corpus():
        stream, meter = counted(build_stream(name, S.mul, lambda n=S.size: iter(range(n))),
                                cap=64)
        view = bounded_view(stream, Budget(16, 256))
        assert not view.exact, name
        for e in S.idempotent_codes:
            assert view.subgroup(e) == bounded_view(S).subgroup(e), (name, e)


def test_bounded_view_is_kept_per_handle_and_budget():
    S = natmin()
    budget = Budget(32, 512)
    assert bounded_view(S, budget) is bounded_view(S, budget)
    assert bounded_view(S, Budget(16, 512)) is not bounded_view(S, budget)
    # a replaced copy (another mul) starts with no views
    assert bounded_view(dataclasses.replace(S), budget) is not bounded_view(S, budget)


def test_stream_clifford_parts_stay_under_their_multiplication_ceiling():
    # at most about 0.17 M products each; divisibility witnesses for every
    # (idempotent, element) pair cost 18 M to 20 M on natmin, flat and
    # prodcenter
    for name, plain in stream_corpus():
        S = capped(plain, 250_000)
        clifford_parts(S, Budget(256, 4096))


def test_power_projection_on_m3():
    S = m3()
    proj = power_projection(S, 1)  # the generator a, with a*a = 0
    assert proj.status == "defined"
    assert proj.idempotent == 2
    assert power(S, 1, proj.exponent) in bounded_view(S).subgroup(2)


def test_power_projection_on_stream_prefix():
    S = natmin()
    proj = power_projection(S, 5, Budget(32, 64))
    assert proj.status == "defined"  # naturals under min are idempotent
    assert proj.idempotent == 5 and proj.exponent == 1


def test_adjoin_identity_and_zero():
    S = adjoin_identity(left_zero(2))
    assert S.size == 3
    one = S.size - 1 if S.mul(S.size - 1, 0) == 0 else 0
    assert all(S.mul(one, x) == x and S.mul(x, one) == x for x in range(3))
    Z = adjoin_zero(cyclic_group(3))
    zero = next(z for z in range(4) if all(
        Z.mul(z, x) == z == Z.mul(x, z) for x in range(4)))
    assert sorted(idempotents(Z).elements) == sorted({zero} | {0})


def test_restrict_to_center_is_commutative():
    S = adjoin_identity(left_zero(2))
    sub, codes = restrict(S, center(S).elements)
    assert sub.commutative
    assert len(codes) == 1


def test_direct_product_componentwise():
    A, B = cyclic_group(2), chain_semilattice(3)
    P = direct_product(A, B)
    assert P.size == 6
    assert P.commutative
    t = [list(r) for r in P.table]
    assert ob.is_associative(t)


def test_stream_h_class_is_flagged_inexact():
    view = bounded_view(natmin(), Budget(16, 64))
    assert not view.exact
    assert 3 in view.subgroup(3)


def test_view_pool_stops_at_finite_size():
    assert bounded_view(m3()).pool.first(100) == [0, 1, 2]
    assert len(bounded_view(natmin()).pool.first(100)) == 100
    dry = build_stream("min3", min, lambda: iter(range(3)))
    assert bounded_view(dry).pool.first(100) == [0, 1, 2]

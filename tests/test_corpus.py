"""Parsing, enumeration, canonical forms, and report documents."""

import gc
import hashlib
import itertools
import json
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import oracle_brute as ob
from finite_corpus import cayley_text, large_tables

import semitop.core as core
import semitop.corpus as corpus

from semitop import builders
from semitop.core import Budget, build_finite
from semitop.corpus import (
    _TOKEN,
    _row,
    _token_row,
    COMMUTATIVE_ISO_CLASS_COUNTS,
    COMMUTATIVE_LABELED_COUNTS,
    ISO_CLASS_COUNTS,
    LABELED_COUNTS,
    ReportDocument,
    canonical_table,
    dedupe_iso,
    entry_from_builder,
    entry_from_file,
    enumerate_classes,
    enumerate_finite,
    parse_cayley,
    read_report,
    render_report,
    scan_corpus,
    write_report,
)
from semitop.errors import (
    BadParameter,
    NonAssociative,
    ParseError,
    SchemaMismatch,
    SizeCapExceeded,
)

BUDGET = Budget(64, 1024)


# -- parsing -----------------------------------------------------------------

def test_fixture_parses_to_known_table(fixtures_dir):
    S = parse_cayley((fixtures_dir / "m3.cayley").read_text())
    reference = builders.m3()
    assert S.table == reference.table
    assert S.labels == reference.labels


def test_comments_and_spacing_are_ignored():
    S = parse_cayley("# leading\n  2\n x   y \n0 1\n1 0  # trailing\n\n")
    assert S.table == ((0, 1), (1, 0)) and S.labels == ("x", "y")


@pytest.mark.parametrize("text,line,column", [
    ("", 1, 1),                          # empty input
    ("0\n", 1, 1),                       # size must be positive
    ("2 2\n", 1, 3),                     # size line has one token
    ("2\na\n0 1\n1 0\n", 2, 2),          # label count mismatch
    ("2\na b c\n0 1\n1 0\n", 2, 5),      # extra label
    ("2\na b\n0\n1 0\n", 3, 2),          # short row
    ("2\na b\n0 1 0\n1 0\n", 3, 5),      # long row
    ("2\na b\n0 x\n1 0\n", 3, 3),        # not an integer
    ("2\na b\n0 7\n1 0\n", 3, 3),        # index out of range
    ("2\na b\n0 1\n1 0\n0 1\n", 5, 1),   # trailing content
])
def test_parse_error_positions(text, line, column):
    with pytest.raises(ParseError) as err:
        parse_cayley(text)
    assert (err.value.line, err.value.column) == (line, column)


def _row_outcome(read, content, size):
    try:
        return read(content, 7, size)
    except ParseError as err:
        return str(err), err.line, err.column


_CODES_257 = " ".join(map(str, range(257)))


@pytest.mark.parametrize("content,size", [
    ("0 1 2", 3),
    ("-1 0 1", 3),         # negative index
    ("+1 0 1", 3),         # int() takes a sign
    ("-0 0 1", 3),
    ("007 0 1", 8),        # ... and leading zeros
    ("1_0 0 1", 11),       # ... and digit separators
    ("1_0 0 1", 3),
    ("\u0663 0 1", 4),     # ... and non-ASCII digits (ARABIC-INDIC THREE)
    ("0x1 0 1", 3),        # but not a hex prefix
    ("1.0 0 1", 3),        # nor a decimal point
    ("0\t1\t2", 3),
    ("0\v1\x0c2", 3),
    ("0\x1c1\x1f2\u3000", 3),
    ("0\x851\u20282", 3),
    ("  0  1   2  ", 3),
    ("0 1", 3),            # short
    ("0 1 2 0", 3),        # long
    ("0 x 1 2", 3),        # long, with a bad token: the length is reported
    ("0 1 x", 3),
    ("0 1 3", 3),          # out of range
    ("  0  9   1", 3),
    pytest.param(" ".join(map(str, range(256))), 256, id="256-codes"),
    pytest.param(" ".join(map(str, range(1, 257))), 256, id="256-codes-out-of-range"),
    # above 256 codes a row is a list
    pytest.param(_CODES_257, 257, id="257-codes"),
    pytest.param(_CODES_257.replace(" 7 ", " +7 "), 257, id="257-codes-signed"),
    pytest.param(_CODES_257.replace(" 7 ", " 257 "), 257, id="257-codes-out-of-range"),
    pytest.param(_CODES_257 + " 0", 257, id="257-codes-long"),
])
def test_split_row_reading_matches_the_token_path(content, size):
    # a row of decimal spellings is read through the index; every other
    # row reads and fails as the token path does, and up to 256 codes the
    # row is bytes
    index = {str(i): i for i in range(size)}
    row = _row_outcome(lambda content, lineno, size: _row(content, lineno, index),
                       content, size)
    expected = _row_outcome(_token_row, content, size)
    if isinstance(expected, list):
        assert type(row) is (bytes if size <= 256 else list)
        row = list(row)
    assert row == expected


@pytest.mark.parametrize("text,line", [
    ("2\na b\n0\x0c1\n1 0\n", None),           # a form feed inside a row
    ("2\na b\n0 1\n1 0\n# c\x0bmore\n", None),  # a vertical tab inside a comment
    ("2\na\x85b\n0 1\n1 0\n", None),            # NEL between labels
    ("2\ra b\r\n0\u20281\r1\x1e0\n", None),
    ("2\na b\n0\u20281\n1 0\n1 0\n", 5),       # the trailing row is the file's line 5
    ("2\r\na b\r\n0 1\r\n1 0\r\n1 0\r\n", 5),
    ("2\ra b\r0 1\r1 0\r\r1 0\r", 6),
])
def test_lines_break_only_at_newline_and_carriage_return(text, line):
    # str.splitlines() also breaks at \v, \f, \x1c-\x1e, \x85, \u2028 and
    # \u2029, which the row reader takes as whitespace; this once rejected
    # the first text, read the second's comment tail as content and counted
    # one label in the third
    if line is None:
        S = parse_cayley(text)
        assert S.table == ((0, 1), (1, 0)) and S.labels == ("a", "b")
    else:
        with pytest.raises(ParseError) as err:
            parse_cayley(text)
        assert (err.value.line, err.value.column) == (line, 1)
        assert "unexpected content after the table" in str(err.value)


def _parse_outcome(text):
    try:
        S = parse_cayley(text)
    except ParseError as err:
        return "parse_error", str(err), err.line, err.column
    except NonAssociative as err:
        return "non_associative", err.triple
    return "table", S.table, S.labels


_BASE_TABLES = {
    "cyclic": lambda i, j, n: (i + j) % n,
    "zero": lambda i, j, n: 0,
    "left_zero": lambda i, j, n: i,
    "min": lambda i, j, n: min(i, j),
}


@st.composite
def _cayley_texts(draw):
    """Cayley text of order 1-6 or 257: a table (associative, or drawn at
    random) in decimal spellings, with a few cells respelled as int reads
    them or broken, rows cut short or run long, comments, blank lines and
    mixed line breaks and whitespace."""
    n = draw(st.sampled_from((1, 2, 3, 4, 5, 6, 257)))
    kind = "cyclic" if n > 6 else draw(st.sampled_from(sorted(_BASE_TABLES) + ["random"]))
    if kind == "random":
        flat = draw(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n))
        cells = [flat[i * n:(i + 1) * n] for i in range(n)]
    else:
        cells = [[_BASE_TABLES[kind](i, j, n) for j in range(n)] for i in range(n)]
    tokens = [list(map(str, row)) for row in cells]

    def cell():
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        return tokens[i], j, cells[i][j]

    for _ in range(draw(st.integers(0, 4))):    # the same code, spelled as int reads it
        row, j, v = cell()
        row[j] = draw(st.sampled_from([
            f"+{v}", f"00{v}", f"0_{v}", "-0" if v == 0 else f"+0{v}",
            "".join(chr(0x660 + int(d)) for d in str(v))]))
    for _ in range(draw(st.sampled_from([0, 0, 1]))):    # another code
        row, j, v = cell()
        row[j] = str((v + 1) % n)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1]))):    # a bad token
        row, j, v = cell()
        row[j] = draw(st.sampled_from([str(n), str(n + 7), "-1", f"-{v + 1}", f"{v}_0",
                                       "1_0", "x", "0x1", "1.0"]))
    if draw(st.sampled_from([False] * 4 + [True])):    # a long or short row
        row = tokens[draw(st.integers(0, n - 1))]
        if draw(st.booleans()):
            row.append("0")
        else:
            row.pop()
    size = draw(st.sampled_from([str(n)] * 8 + [f"+{n}", f"0{n}", str(n + 1), "0", "y"]))
    labels = [f"x{i}" for i in range(n + draw(st.sampled_from([0] * 8 + [-1, 1])))]
    space = draw(st.sampled_from([" ", "  ", "\t", "\x0c", "\v", "\x1c", "\x85",
                                  "\u2028", "\u3000"]))
    lines = [size, " ".join(labels)] + [space.join(row) for row in tokens]
    if draw(st.sampled_from([False] * 4 + [True])):
        lines.append(space.join(tokens[0]))     # trailing content
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(["", "   ", "# note", "\t# 0 1\x0b2"])))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] += " # trailing"
    ends = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = ends.join(lines)
    return text + draw(st.sampled_from(["", ends]))


@settings(deadline=None)
@given(_cayley_texts())
def test_parse_cayley_matches_the_token_reader(text):
    # the same table and labels, the same ParseError message and position,
    # or the same first non-associative triple as reading every token with
    # int, whichever spellings, whitespace and line breaks the text uses
    assert _parse_outcome(text) == ob.parse_cayley_reference(text)


def test_finite_ingest_tables_read_without_the_token_path(monkeypatch):
    # the six finite-ingest shapes are written in decimal spellings, so
    # every row is read through the index; a token read would cost each
    # row an int() call per entry again
    token_rows = []
    monkeypatch.setattr(corpus, "_token_row",
                        lambda *args: token_rows.append(args) or _token_row(*args))
    for name, table in large_tables():
        assert parse_cayley(cayley_text(table)).table == table, name
    assert token_rows == []


def test_parsed_rows_reach_lights_test_as_read(monkeypatch):
    # the bytes rows of the reader are checked and read by Light's test
    # as they are, not rebuilt from the table's tuples
    table = dict(large_tables())["cyclicprod-256"]
    parsed, tested = [], []
    monkeypatch.setattr(corpus, "build_finite",
                        lambda rows, labels: parsed.append(rows) or build_finite(rows, labels))
    inner = core._associates
    monkeypatch.setattr(core, "_associates",
                        lambda rows, middles: tested.append(rows) or inner(rows, middles))
    assert parse_cayley(cayley_text(table)).table == table
    [rows] = parsed
    assert all(type(row) is bytes for row in rows)
    assert len(tested) == 1 and all(a is b for a, b in zip(tested[0], rows, strict=True))


def test_split_and_the_token_regex_agree_on_whitespace():
    # str.split() breaks where str.isspace() holds; the token regex at \s
    everything = "".join(map(chr, range(0x110000)))
    assert (re.findall(r"\s", everything)
            == [c for c in everything if c.isspace()])
    assert _TOKEN.pattern == r"\S+"


def test_parser_rejects_non_associative_tables():
    # pull a genuinely non-associative 2x2 table out of the full scan
    bad = next(t for t in ob.all_tables(2) if not ob.is_associative(t))
    text = "2\na b\n" + "\n".join(" ".join(map(str, row)) for row in bad)
    with pytest.raises(NonAssociative) as err:
        parse_cayley(text)
    a, b, c = err.value.triple
    assert bad[bad[a][b]][c] != bad[a][bad[b][c]]


# -- enumeration -------------------------------------------------------------

def test_small_counts_match_the_naive_filter():
    for n in (1, 2, 3):
        assert sum(1 for _ in enumerate_finite(n)) == ob.count_semigroups_naive(n)
        assert (sum(1 for _ in enumerate_finite(n, commutative_only=True))
                == ob.count_semigroups_naive(n, commutative_only=True))


def test_labeled_counts_match_frozen_constants():
    for n in (1, 2, 3, 4):
        assert sum(1 for _ in enumerate_finite(n)) == LABELED_COUNTS[n]
        assert (sum(1 for _ in enumerate_finite(n, commutative_only=True))
                == COMMUTATIVE_LABELED_COUNTS[n])


def test_iso_class_counts_match_frozen_constants():
    for n in (1, 2, 3, 4):
        assert (sum(1 for _ in dedupe_iso(enumerate_finite(n)))
                == ISO_CLASS_COUNTS[n])
        assert (sum(1 for _ in dedupe_iso(
                    enumerate_finite(n, commutative_only=True)))
                == COMMUTATIVE_ISO_CLASS_COUNTS[n])


def test_enumeration_outputs_are_associative_and_distinct():
    # exactly the associative tables of the naive filter, each once
    for n in (1, 2, 3):
        for commutative_only in (False, True):
            tables = [S.table for S in enumerate_finite(n, commutative_only)]
            want = {tuple(map(tuple, t)) for t in ob.all_tables(n)
                    if ob.is_associative(t)
                    and (ob.is_commutative(t) or not commutative_only)}
            assert len(tables) == len(set(tables))
            assert set(tables) == want, (n, commutative_only)


def test_enumeration_size_limits():
    with pytest.raises(BadParameter):
        enumerate_finite(0)
    with pytest.raises(SizeCapExceeded):
        enumerate_finite(6)
    with pytest.raises(SizeCapExceeded):
        enumerate_classes(6)


# sha256 over repr(table) + "\n" for each labeled table of order 4, in the
# walk's order: sampling by position (test_acceptance) relies on that order
LABELED_ORDER_4_DIGESTS = {
    False: "14e37d17e67f57699476f542385c01bbe287c575114dbbe1b464414dcb42f997",
    True: "801de47f1280443a3398bbc210075b616fa54224c08f80ea8a8445787c4abd60",
}


@pytest.mark.parametrize("commutative_only", [False, True])
def test_labeled_walk_order_is_pinned(commutative_only):
    digest = hashlib.sha256()
    for S in enumerate_finite(4, commutative_only):
        digest.update(repr(S.table).encode() + b"\n")
    assert digest.hexdigest() == LABELED_ORDER_4_DIGESTS[commutative_only]


@pytest.mark.parametrize("commutative_only", [False, True])
def test_class_walk_folds_the_labeled_walk(commutative_only):
    # one canonical table per class, weighted by the number of labeled
    # tables that fold onto it
    for n in (1, 2, 3, 4):
        pairs = list(enumerate_classes(n, commutative_only))
        sizes = {S.table: size for S, size in pairs}
        assert len(sizes) == len(pairs)
        assert sizes == Counter(canonical_table(S)
                                for S in enumerate_finite(n, commutative_only))
        assert all(canonical_table(S) == S.table for S, _ in pairs)


@pytest.mark.parametrize("commutative_only", [False, True])
def test_class_walk_reaches_the_order_5_counts(commutative_only):
    labeled = COMMUTATIVE_LABELED_COUNTS if commutative_only else LABELED_COUNTS
    classes = COMMUTATIVE_ISO_CLASS_COUNTS if commutative_only else ISO_CLASS_COUNTS
    pairs = list(enumerate_classes(5, commutative_only))
    assert len(pairs) == classes[5] == (325 if commutative_only else 1915)
    assert sum(size for _, size in pairs) == labeled[5] == (
        30730 if commutative_only else 183732)
    assert all(canonical_table(S) == S.table for S, _ in pairs)


def test_canonical_form_matches_oracle():
    for S in itertools.chain(enumerate_finite(3), enumerate_finite(4)):
        t = [list(r) for r in S.table]
        assert canonical_table(S) == ob.canonical_form(t)


def test_canonical_form_is_isomorphism_invariant():
    S = builders.m3()
    from finite_corpus import relabeled_table
    for perm in itertools.permutations(range(3)):
        R = builders.build_finite(relabeled_table(S.table, perm))
        assert canonical_table(R) == canonical_table(S)


# -- report documents --------------------------------------------------------

def _document(tmp_path):
    entries = [entry_from_builder("cyclic:3"), entry_from_builder("chain:2")]
    records = scan_corpus(entries, BUDGET)
    return ReportDocument(config={"command": "classify", "budget": BUDGET.as_dict(),
                                  "seed": 0}, entries=records)


def test_report_round_trip(tmp_path):
    doc = _document(tmp_path)
    path = tmp_path / "report.json"
    write_report(doc, path)
    again = read_report(path)
    assert again.to_dict() == doc.to_dict()
    assert render_report(again) == render_report(doc)


def test_report_rendering_is_stable(tmp_path):
    doc = _document(tmp_path)
    assert render_report(doc) == render_report(_document(tmp_path))
    assert render_report(doc).endswith("\n")


_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(st.characters(), max_size=8))


def _containers(children):
    return (st.lists(children, max_size=4) | st.lists(children, max_size=3).map(tuple)
            | st.dictionaries(st.text(max_size=4), children, max_size=4)
            | st.dictionaries(st.integers(), children, max_size=3))


@given(st.dictionaries(st.text(max_size=4), st.recursive(_LEAVES, _containers, max_leaves=24)),
       st.lists(st.recursive(_LEAVES, _containers, max_leaves=24), max_size=4))
def test_a_report_renders_to_the_bytes_of_json_dumps(config, entries):
    # nested empty containers, escapes, non-ASCII text, bools, None, NaN
    # and infinities, tuples and int keys, and lists of plain ints
    doc = ReportDocument(config=config, entries=entries)
    assert render_report(doc) == json.dumps(doc.to_dict(), sort_keys=True, indent=2) + "\n"


def test_rendering_leaves_no_cyclic_garbage(fixtures_dir):
    # the standard library's indented encoder left its closures behind
    doc = read_report(fixtures_dir / "streams-64-1024.json")
    gc.collect()
    gc.disable()
    try:
        render_report(doc)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("mangle", [
    lambda d: d.pop("schema_version"),
    lambda d: d.__setitem__("schema_version", 99),
    lambda d: d.pop("entries"),
    lambda d: d.__setitem__("entries", "nope"),
    lambda d: d.pop("tool"),
])
def test_schema_mismatch_detection(tmp_path, mangle):
    doc = _document(tmp_path)
    data = doc.to_dict()
    mangle(data)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaMismatch):
        read_report(path)


def test_read_report_rejects_non_json(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("not json at all {")
    with pytest.raises(SchemaMismatch):
        read_report(path)


# -- corpus scanning ---------------------------------------------------------

def test_entry_from_file_uses_stem_as_id(fixtures_dir):
    entry = entry_from_file(fixtures_dir / "m3.cayley")
    assert entry.id == "m3" and entry.source == "file"
    assert entry.semigroup.size == 3


def test_entry_from_builder_carries_declared_facts():
    entry = entry_from_builder("natplus")
    assert entry.source == "builder"
    assert entry.semigroup.declared_facts.get("periodic") is False


@pytest.mark.parametrize("spec,name", [
    ("flat", "flat"), ("flat:", "flat"), ("flat:3", "finite[4]"), ("natmin:3", "natmin"),
    ("m3", "finite[3]"), ("m3:x", "finite[3]"), ("groupunion:2,3", "finite[6]")])
def test_builder_specs_pick_a_table_or_a_stream(spec, name):
    # bare flat is the stream and flat:k a table; a stream and m3 ignore an
    # argument.  The catalog lists the names in this order
    assert builders.build(spec).name == name
    assert builders.BUILDER_NAMES == [
        "cyclic", "zero", "leftzero", "chain", "flat", "monogenic", "groupunion", "m3",
        "natmin", "natplus", "nullstream", "nilstream", "intadd", "prodcenter"]


def test_scan_rejects_duplicate_ids():
    entries = [entry_from_builder("cyclic:3"), entry_from_builder("cyclic:3")]
    with pytest.raises(BadParameter):
        scan_corpus(entries, BUDGET)


def test_scan_orders_records_by_id():
    entries = [entry_from_builder(n) for n in ["zero:2", "cyclic:2", "flat:2"]]
    records = scan_corpus(entries, BUDGET)
    assert [r["id"] for r in records] == sorted(r["id"] for r in records)


@pytest.mark.parametrize("stop", [None, 5])
@pytest.mark.parametrize("walk", [enumerate_finite, enumerate_classes])
def test_a_walk_frees_its_closures_without_a_collection(walk, stop):
    # the backtracker's recursive closure refers to itself; a walk run to
    # the end, or dropped after a few tables, must still free it at once
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        tables = walk(3)
        for _ in itertools.islice(tables, stop):
            pass
        del tables
        gc.collect()
        left = [o for o in gc.garbage
                if getattr(o, "__qualname__", "").startswith("_associative_tables.")]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert left == []

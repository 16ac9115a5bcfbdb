"""Parsing, enumeration, canonical forms, and report documents."""

import gc
import hashlib
import itertools
import re
from collections import Counter

import pytest

import oracle_brute as ob

from semitop import builders
from semitop.core import Budget
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


@pytest.mark.parametrize("content,size", [
    ("0 1 2", 3),
    ("-1 0 1", 3),         # negative index
    ("+1 0 1", 3),         # int() takes a sign
    ("1_0 0 1", 11),       # ... and digit separators
    ("1_0 0 1", 3),
    ("\u0663 0 1", 4),     # ... and non-ASCII digits (ARABIC-INDIC THREE)
    ("0x1 0 1", 3),        # but not a hex prefix
    ("1.0 0 1", 3),        # nor a decimal point
    ("0\t1\t2", 3),
    ("0\v1\x0c2", 3),
    ("0\x1c1\x1f2\u3000", 3),
    ("  0  1   2  ", 3),
    ("0 1", 3),            # short
    ("0 1 2 0", 3),        # long
    ("0 x 1 2", 3),        # long, with a bad token: the length is reported
    ("0 1 x", 3),
    ("0 1 3", 3),          # out of range
    ("  0  9   1", 3),
])
def test_split_row_reading_matches_the_token_path(content, size):
    assert _row_outcome(_row, content, size) == _row_outcome(_token_row, content, size)


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


@pytest.mark.parametrize("mangle", [
    lambda d: d.pop("schema_version"),
    lambda d: d.__setitem__("schema_version", 99),
    lambda d: d.pop("entries"),
    lambda d: d.__setitem__("entries", "nope"),
    lambda d: d.pop("tool"),
])
def test_schema_mismatch_detection(tmp_path, mangle):
    import json
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
    assert entry.declared_facts.get("periodic") is False


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

"""Cayley-table ingestion, exhaustive small-order enumeration, and reports.

The text format is deliberately dull: a size line, a label line, then the
table rows as 0-based indices (row = left factor), with ``#`` comments.
Enumeration backtracks over table cells and prunes on the first associativity
violation among fully determined triples; with a lex-leader cut the same walk
yields one canonical table per isomorphism class, weighted by n!/|Aut|.  The
resulting counts are frozen below as regression constants.  Reports are
canonical JSON so that two runs with the same configuration produce
byte-identical files.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .classify import classify
from .core import DEFAULT_BUDGET, FiniteSemigroup, build_finite, is_finite
from .errors import BadParameter, ParseError, SchemaMismatch, SizeCapExceeded

SCHEMA_VERSION = 1
TOOL = "semitop 0.1.0"

# Largest order the exhaustive enumerator (and the relabeling canonicalizer)
# will accept.
ENUMERATION_CAP = 5

# Counts produced by the backtracking enumerator, cross-checked against the
# naive filter over all n^(n^2) tables for n <= 3.  These are regression
# constants: a change here means the enumerator broke, not the mathematics.
# Order 5 agrees with OEIS A023814, A027851 and A001426; the commutative
# labeled count was taken from the labeled walk folded through canonical forms.
LABELED_COUNTS = {1: 1, 2: 8, 3: 113, 4: 3492, 5: 183732}
COMMUTATIVE_LABELED_COUNTS = {1: 1, 2: 6, 3: 63, 4: 1140, 5: 30730}
ISO_CLASS_COUNTS = {1: 1, 2: 5, 3: 24, 4: 188, 5: 1915}
COMMUTATIVE_ISO_CLASS_COUNTS = {1: 1, 2: 3, 3: 12, 4: 58, 5: 325}

_TOKEN = re.compile(r"\S+")


def _content_lines(text):
    """Yield (line_number, stripped_content) for lines that carry data.

    Comments start at '#' and run to end of line.  Character offsets within
    the returned content match the original line, so token columns reported
    in errors point at the file as written.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        cut = raw.find("#")
        content = raw if cut < 0 else raw[:cut]
        if content.strip():
            yield lineno, content


def _tokens(content):
    return [(m.group(), m.start() + 1) for m in _TOKEN.finditer(content)]


def _int_token(token, lineno, column, upper=None):
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"expected an integer, found {token!r}", lineno, column) from None
    if upper is not None and not 0 <= value < upper:
        raise ParseError(f"index {value} out of range 0..{upper - 1}", lineno, column)
    return value


def _row(content, lineno, size):
    """One table row of ``size`` indices.  ``str.split`` and the token
    regex break on the same whitespace and both read tokens with ``int``,
    so the token path is taken only to locate and word the error."""
    try:
        row = list(map(int, content.split()))
    except ValueError:
        row = None
    if row and len(row) == size and 0 <= min(row) and max(row) < size:
        return row
    return _token_row(content, lineno, size)


def _token_row(content, lineno, size):
    toks = _tokens(content)
    if len(toks) != size:
        col = toks[size][1] if len(toks) > size else len(content) + 1
        raise ParseError(f"row must hold {size} entries, found {len(toks)}", lineno, col)
    return [_int_token(t, lineno, col, upper=size) for t, col in toks]


def parse_cayley(text):
    """Parse Cayley text into a validated finite semigroup.

    Raises ParseError with 1-based line/column on format problems and lets
    NonAssociative propagate from table validation.
    """
    lines = _content_lines(text)

    lineno, content = next(lines, (None, None))
    if content is None:
        raise ParseError("empty input: expected a size line", 1, 1)
    toks = _tokens(content)
    if len(toks) != 1:
        tok, col = toks[1]
        raise ParseError(f"size line must hold one token, found {tok!r} too", lineno, col)
    tok, col = toks[0]
    size = _int_token(tok, lineno, col)
    if size < 1:
        raise ParseError(f"size must be positive, found {size}", lineno, col)

    lineno, content = next(lines, (None, None))
    if content is None:
        raise ParseError("missing label line", 2, 1)
    toks = _tokens(content)
    if len(toks) != size:
        col = toks[size][1] if len(toks) > size else len(content) + 1
        raise ParseError(f"expected {size} labels, found {len(toks)}", lineno, col)
    labels = [t for t, _ in toks]

    rows = []
    last_line = lineno
    for _ in range(size):
        lineno, content = next(lines, (None, None))
        if content is None:
            raise ParseError(
                f"expected {size} table rows, found {len(rows)}", last_line + 1, 1)
        last_line = lineno
        rows.append(_row(content, lineno, size))

    extra = next(lines, None)
    if extra is not None:
        lineno, content = extra
        raise ParseError("unexpected content after the table", lineno, _tokens(content)[0][1])

    return build_finite(rows, labels)


# ---------------------------------------------------------------------------
# enumeration

@functools.cache
def _relabelings(n):
    """Each relabeling of order n, as a permutation and its inverse; the
    identity comes first."""
    return [(p, sorted(range(n), key=p.__getitem__))
            for p in itertools.permutations(range(n))]


def enumerate_finite(n, commutative_only=False):
    """All associative tables on n labeled elements, n <= 5.

    Backtracks cell by cell in row-major order; a partial table is abandoned
    as soon as some fully determined triple breaks associativity.  Every
    triple of a yielded table was checked on the way down, so the handles
    skip build_finite's associativity test.  ``enumerate_classes`` is the
    same walk with a lex-leader cut.
    """
    _check_order(n)
    labels = tuple(str(i) for i in range(n))
    return (FiniteSemigroup(table, labels)
            for table in _associative_tables(n, commutative_only))


def enumerate_classes(n, commutative_only=False):
    """One (semigroup, class size) pair per isomorphism class of order
    n <= 5: the semigroup's table is its ``canonical_table``, and the class
    holds n!/|Aut| labeled tables.

    This is the walk of ``enumerate_finite`` with a lex-leader cut
    (Distler, *Classification and enumeration of finite semigroups*, PhD
    thesis, St Andrews, 2010): after each cell is set, a partial table t is
    dropped when some relabeling p makes it smaller in row-major order,
    comparing p(t) with t over their common defined cells up to the first
    undefined one.  Such a p makes every completion of t smaller too, so
    the least table of each class is never cut, and at a leaf the
    comparison is total: the walk yields exactly the canonical tables, each
    once, and the relabelings that tie at the leaf are the automorphisms.
    """
    _check_order(n)
    labels = tuple(str(i) for i in range(n))
    return ((FiniteSemigroup(table, labels), size)
            for table, size in _associative_tables(n, commutative_only, classes=True))


def _check_order(n):
    if not isinstance(n, int) or n < 1:
        raise BadParameter(f"order must be a positive integer, got {n!r}")
    if n > ENUMERATION_CAP:
        raise SizeCapExceeded(
            f"exhaustive enumeration is capped at order {ENUMERATION_CAP}, got {n}")


def _associative_tables(n, commutative_only, classes=False):
    """Labeled tables, or with ``classes`` (canonical table, n!/|Aut|)
    pairs; both in the order of the walk."""
    cells = [(i, j) for i in range(n) for j in range(n)
             if not (commutative_only and j < i)]
    t = [[None] * n for _ in range(n)]
    factorial = len(_relabelings(n))

    def settled(i, j):
        # The parent partial table associated, so only the triples that read
        # the new cell (i, j) = v can break, once all four lookups are defined:
        # (i, j, z), (x, i, j), (x, y, j) with xy = i, and (i, y, z) with yz = j.
        # At n = 4 this enumerates about twice as fast as sweeping all 64 triples.
        ti, tj = t[i], t[j]
        v = ti[j]
        for left, jz in zip(t[v], tj):
            if left is not None and jz is not None and ti[jz] not in (None, left):
                return False
        for tx in t:
            xi, right = tx[i], tx[v]
            if xi is not None and right is not None and t[xi][j] not in (None, right):
                return False
        for x, tx in enumerate(t):
            if i not in tx and j not in tx:
                continue
            for y, xy in enumerate(tx):
                if xy == i:
                    yj = t[y][j]
                    if yj is not None and tx[yj] not in (None, v):
                        return False
                if xy == j:
                    ix = ti[x]
                    if ix is not None and t[ix][y] not in (None, v):
                        return False
        return True

    def lex_cut(ties):
        # ``ties`` holds (perm, order, q): p(t) and t agree on the first q
        # cells of ``order``.  Returns the relabelings still tied, or None
        # when one makes t smaller.  One that makes t larger stays larger
        # below, and is dropped.
        still = []
        for perm, order, q in ties:
            for q in range(q, len(order)):
                a, b, ia, ib = order[q]
                mine, theirs = t[a][b], t[ia][ib]
                if mine is None or theirs is None:
                    still.append((perm, order, q))
                    break
                theirs = perm[theirs]
                if theirs != mine:
                    if theirs < mine:
                        return None
                    break
            else:
                still.append((perm, order, len(order)))
        return still

    def fill(k, ties):
        if k == len(cells):
            # the relabelings tied with a whole table, and the identity, are
            # its automorphisms
            table = tuple(tuple(row) for row in t)
            yield table if ties is None else (table, factorial // (1 + len(ties)))
            return
        i, j = cells[k]
        for v in range(n):
            t[i][j] = v
            if commutative_only:
                t[j][i] = v
            if settled(i, j) and (i == j or not commutative_only or settled(j, i)):
                if ties is None:
                    yield from fill(k + 1, None)
                else:
                    below = lex_cut(ties)
                    if below is not None:
                        yield from fill(k + 1, below)
        t[i][j] = None
        if commutative_only and i != j:
            t[j][i] = None

    ties = None
    if classes:
        # each relabeling but the identity, tied with the empty table: its
        # map and, cell by cell in row-major order, the cell of t it moves there
        ties = [(perm, [(a, b, inv[a], inv[b]) for a in range(n) for b in range(n)], 0)
                for perm, inv in _relabelings(n)[1:]]
    try:
        yield from fill(0, ties)
    finally:
        # fill's closure holds fill: without this the walk's closures and
        # partial table are freed only by a cyclic collection, also when
        # the walk is closed early
        del fill


def canonical_table(S):
    """Lexicographically least table over all relabelings; the isomorphism
    invariant used for deduplication.

    Each relabeling is built flat, out[a][b] = perm[t[inv[a]][inv[b]]]:
    rows of equal length sort the same flat as nested, so the least flat
    table, cut back into rows, is the least table."""
    n = S.size
    if n > ENUMERATION_CAP:
        raise SizeCapExceeded(
            f"canonical form is capped at order {ENUMERATION_CAP}, got {n}")
    t = S.table
    least = min(tuple([perm[t[r][c]] for r in inv for c in inv])
                for perm, inv in _relabelings(n))
    return tuple(least[a:a + n] for a in range(0, n * n, n))


def dedupe_iso(semigroups):
    """Drop isomorphic duplicates, emitting each class once in canonical form."""
    seen = set()
    for S in semigroups:
        canon = canonical_table(S)
        if canon not in seen:
            seen.add(canon)
            yield build_finite(canon)


# ---------------------------------------------------------------------------
# corpus entries and report documents

@dataclass
class CorpusEntry:
    """One semigroup in a corpus run.  ``source`` is "file", "builder" or
    "enumerator"; ids must be unique within a run."""

    id: str
    source: str
    semigroup: object
    declared_facts: dict = field(default_factory=dict)
    tags: tuple = ()


def entry_from_file(path):
    path = Path(path)
    return CorpusEntry(id=path.stem, source="file",
                       semigroup=parse_cayley(path.read_text()))


def entry_from_builder(spec):
    from .builders import build
    S = build(spec)
    return CorpusEntry(id=spec, source="builder", semigroup=S,
                       declared_facts=dict(getattr(S, "declared_facts", None) or {}))


@dataclass
class ReportDocument:
    """Versioned, canonically serialized analysis report.

    ``entries`` holds plain JSON-compatible dicts so the document round-trips
    through write_report/read_report without loss.
    """

    config: dict = field(default_factory=dict)
    entries: list = field(default_factory=list)
    tool: str = TOOL
    schema_version: int = SCHEMA_VERSION

    def to_dict(self):
        return {
            "schema_version": self.schema_version,
            "tool": self.tool,
            "config": self.config,
            "entries": self.entries,
        }


def render_report(doc):
    # sort_keys makes key order independent of construction order; no
    # timestamps anywhere, so identical runs give identical bytes
    return json.dumps(doc.to_dict(), sort_keys=True, indent=2) + "\n"


def write_report(doc, path):
    Path(path).write_text(render_report(doc))


def read_report(path):
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise SchemaMismatch(f"not a report document: {exc}") from None
    if not isinstance(data, dict):
        raise SchemaMismatch("report root must be an object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaMismatch(
            f"schema version {version!r} not supported (reader at {SCHEMA_VERSION})")
    for key, kind in (("tool", str), ("config", dict), ("entries", list)):
        if not isinstance(data.get(key), kind):
            raise SchemaMismatch(f"field {key!r} missing or malformed")
    return ReportDocument(config=data["config"], entries=data["entries"],
                          tool=data["tool"], schema_version=version)


# ---------------------------------------------------------------------------
# corpus scanning

def suite_record(suite):
    return {name: suite[name].to_dict() for name in sorted(suite)}


def classification_record(report):
    center = report.center
    return {
        "name": report.name,
        "commutative": report.commutative.to_dict(),
        "unipotent": report.unipotent.to_dict(),
        "finite": report.finite.to_dict(),
        "suite": suite_record(report.suite),
        "theorems": suite_record(report.theorems),
        "center": {
            "empty": center.empty,
            "prefix_certified": center.prefix_certified,
            "suite_status": (None if center.suite is None else
                             {k: center.suite[k].status for k in sorted(center.suite)}),
            "closed_necessary": (None if center.closed_necessary is None else
                                 center.closed_necessary.to_dict()),
            "injective_necessary": (None if center.injective_necessary is None else
                                    center.injective_necessary.to_dict()),
            "center_finite": center.center_finite.to_dict(),
        },
        "notes": list(report.notes),
    }


def entry_record(entry, budget=DEFAULT_BUDGET):
    """Analyze one corpus entry into a JSON-plain record."""
    S = entry.semigroup
    record = {
        "id": entry.id,
        "source": entry.source,
        "tags": sorted(entry.tags),
        "kind": "finite" if is_finite(S) else "stream",
        "size": S.size if is_finite(S) else None,
        "classification": classification_record(classify(S, budget, name=entry.id)),
    }
    # witnesses may carry tuples; normalize so documents compare equal after
    # a write/read cycle
    return json.loads(json.dumps(record))


def scan_corpus(entries, budget=DEFAULT_BUDGET):
    """Analyze a corpus, one entry after another; records come back in id
    order."""
    entries = list(entries)
    ids = [e.id for e in entries]
    if len(set(ids)) != len(ids):
        raise BadParameter("corpus entry ids must be unique")
    records = [entry_record(e, budget) for e in entries]
    return sorted(records, key=lambda r: r["id"])

"""Cayley-table ingestion, exhaustive small-order enumeration, and reports.

The text format is deliberately dull: a size line, a label line, then the
table rows as 0-based indices (row = left factor), with ``#`` comments.
Enumeration backtracks over table cells and prunes on the first associativity
violation among fully determined triples; the resulting counts are frozen
below as regression constants.  Reports are canonical JSON so that two runs
with the same configuration produce byte-identical files.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .classify import classify
from .core import DEFAULT_BUDGET, build_finite, is_finite
from .errors import BadParameter, ParseError, SchemaMismatch, SizeCapExceeded

SCHEMA_VERSION = 1
TOOL = "semitop 0.1.0"

# Largest order the exhaustive enumerator (and the relabeling canonicalizer)
# will accept.
ENUMERATION_CAP = 4

# Counts produced by the backtracking enumerator, cross-checked against the
# naive filter over all n^(n^2) tables for n <= 3.  These are regression
# constants: a change here means the enumerator broke, not the mathematics.
LABELED_COUNTS = {1: 1, 2: 8, 3: 113, 4: 3492}
COMMUTATIVE_LABELED_COUNTS = {1: 1, 2: 6, 3: 63, 4: 1140}
ISO_CLASS_COUNTS = {1: 1, 2: 5, 3: 24, 4: 188}
COMMUTATIVE_ISO_CLASS_COUNTS = {1: 1, 2: 3, 3: 12, 4: 58}

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
        row = [int(t) for t in content.split()]
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

def enumerate_finite(n, commutative_only=False):
    """All associative tables on n labeled elements, n <= 4.

    Backtracks cell by cell; a partial table is abandoned as soon as some
    fully determined triple breaks associativity.  Yields validated handles.
    """
    if not isinstance(n, int) or n < 1:
        raise BadParameter(f"order must be a positive integer, got {n!r}")
    if n > ENUMERATION_CAP:
        raise SizeCapExceeded(
            f"exhaustive enumeration is capped at order {ENUMERATION_CAP}, got {n}")
    return _enumerated(n, commutative_only)


def _enumerated(n, commutative_only):
    for table in _associative_tables(n, commutative_only):
        yield build_finite(table)


def _associative_tables(n, commutative_only):
    cells = [(i, j) for i in range(n) for j in range(n)
             if not (commutative_only and j < i)]
    t = [[None] * n for _ in range(n)]

    def consistent():
        # scan every triple whose four lookups are defined; at n <= 4 the
        # 64-triple sweep is cheaper than bookkeeping which cells changed
        for x in range(n):
            tx = t[x]
            for y in range(n):
                xy = tx[y]
                if xy is None:
                    continue
                txy = t[xy]
                ty = t[y]
                for z in range(n):
                    yz = ty[z]
                    if yz is None:
                        continue
                    left = txy[z]
                    if left is None or tx[yz] is None:
                        continue
                    if left != tx[yz]:
                        return False
        return True

    def fill(k):
        if k == len(cells):
            yield tuple(tuple(row) for row in t)
            return
        i, j = cells[k]
        for v in range(n):
            t[i][j] = v
            if commutative_only:
                t[j][i] = v
            if consistent():
                yield from fill(k + 1)
        t[i][j] = None
        if commutative_only and i != j:
            t[j][i] = None

    return fill(0)


def relabeled_table(table, perm):
    """The table of the same semigroup after renaming i to perm[i]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = perm[table[i][j]]
    return tuple(tuple(row) for row in out)


def canonical_table(S):
    """Lexicographically least table over all relabelings; the isomorphism
    invariant used for deduplication."""
    if S.size > ENUMERATION_CAP:
        raise SizeCapExceeded(
            f"canonical form is capped at order {ENUMERATION_CAP}, got {S.size}")
    return min(relabeled_table(S.table, perm)
               for perm in itertools.permutations(range(S.size)))


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


def entry_record(entry, budget=DEFAULT_BUDGET, topology=False):
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
    if topology:
        from .topology import topologizability_verdict
        record["topologizability"] = topologizability_verdict(S, budget).to_dict()
    # witnesses may carry tuples; normalize so documents compare equal after
    # a write/read cycle
    return json.loads(json.dumps(record))


def scan_corpus(entries, budget=DEFAULT_BUDGET, topology=False):
    """Analyze a corpus, one entry after another; records come back in id
    order."""
    entries = list(entries)
    ids = [e.id for e in entries]
    if len(set(ids)) != len(ids):
        raise BadParameter("corpus entry ids must be unique")
    records = [entry_record(e, budget, topology=topology) for e in entries]
    return sorted(records, key=lambda r: r["id"])

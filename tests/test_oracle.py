"""Small tables given as undeclared streams: a differential oracle for the
stream code paths.

Each of the 218 isomorphism classes of order <= 4 is wrapped as a stream
with no declared facts, whose carrier runs dry at its order, and
classified at a budget.  No definite status of the stream may contradict
the table's exact report.  At the small budgets a chain, subgroup or
Clifford part fills the short prefix; it is evidence, not proof, so it
leaves its predicate Unknown.
"""

import pytest

from metering import counted

from semitop.classify import classify
from semitop.core import Budget, build_finite, build_stream
from semitop.corpus import enumerate_classes

# each classification takes at most 494 products at these budgets
CAP = 2_000

BUDGETS = [
    # classes contradicted at each small budget while a growth witness
    # refuted: 218, 195, 178 and 203
    pytest.param(Budget(1, 1), id="1-1"),
    pytest.param(Budget(2, 8), id="2-8"),
    pytest.param(Budget(3, 16), id="3-16"),
    pytest.param(Budget(4, 64), id="4-64"),
    pytest.param(Budget(64, 1024), id="64-1024"),
]


def _statuses(report):
    return {**{name: v.status for name, v in report.suite.items()},
            **{name: v.status for name, v in report.theorems.items()}}


def _stream_statuses(table, budget):
    """The table as a stream with no declared facts, classified at
    ``budget`` on a counted copy."""
    S, _ = counted(build_stream(f"table:{len(table)}", lambda x, y: table[x][y],
                                lambda: iter(range(len(table)))), cap=CAP)
    return _statuses(classify(S, budget))


@pytest.fixture(scope="module")
def classes():
    """(table, exact statuses) for each class of order <= 4."""
    tables = [S.table for n in range(1, 5) for S, _ in enumerate_classes(n)]
    assert len(tables) == 218
    return [(t, _statuses(classify(build_finite(t)))) for t in tables]


@pytest.mark.parametrize("budget", BUDGETS)
def test_stream_oracle_never_contradicts_the_exact_report(classes, budget):
    contradicted = []
    for table, exact in classes:
        got = _stream_statuses(table, budget)
        wrong = sorted(k for k, status in got.items()
                       if status != "unknown" and status != exact[k])
        if wrong:
            contradicted.append((table, wrong))
    assert contradicted == []


def test_stream_oracle_opposite_tables_keep_every_status(classes):
    # a homomorphism X -> Y is one X^op -> Y^op, and Y^op is a T1
    # topological semigroup on the same space, so the transposed table gets
    # the same statuses, exactly and as a stream at every budget
    budgets = [p.values[0] for p in BUDGETS]
    for table, exact in classes:
        opposite = tuple(zip(*table))
        assert _statuses(classify(build_finite(opposite))) == exact, table
        for budget in budgets:
            assert (_stream_statuses(opposite, budget)
                    == _stream_statuses(table, budget)), (table, budget)

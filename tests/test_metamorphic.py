"""Metamorphic relations for the shipped streams, which have no exact
oracle: statuses compared between runs that must agree.

Partial stripping: a stream that declares fewer facts may know less, but
may never contradict the stream that declares them all.  Each of the seven
streams is classified with one declared fact dropped at a time, and with
only ``commutative`` kept, on a counted copy.  Every suite status, every
theorem, ``finite`` and the center's necessary conditions and finiteness
are compared with the declared stream's; a definite status may not differ
from a definite one.
"""

import dataclasses

import pytest

from metering import counted

from semitop.builders import stream_corpus
from semitop.classify import classify
from semitop.core import Budget

STREAMS = dict(stream_corpus())
BUDGETS = {"2-8": Budget(2, 8), "64-1024": Budget(64, 1024), "256-4096": Budget(256, 4096)}

# each run takes at most 306,308 products at these budgets
CAP = 400_000

# flat at 2/8 reads a chain of two codes filling its prefix as an infinite
# chain, once chain_finite is no longer declared
GROWTH_CHAIN = {("flat", "2-8", "drop chain_finite"), ("flat", "2-8", "only commutative")}


def _statuses(report):
    center = report.center
    out = {"finite": report.finite.status}
    out.update((f"suite.{k}", v.status) for k, v in report.suite.items())
    out.update((f"theorem.{k}", v.status) for k, v in report.theorems.items())
    for k in ("closed_necessary", "injective_necessary", "center_finite"):
        v = getattr(center, k)
        out[f"center.{k}"] = None if v is None else v.status
    return out


def _variants(S):
    """(label, declared facts) for each partial stripping of ``S``."""
    facts = S.declared_facts
    yield from ((f"drop {name}", {k: v for k, v in facts.items() if k != name})
                for name in facts)
    yield "only commutative", {"commutative": facts["commutative"]}


def _contradicted(S, budget, facts, declared):
    """The statuses of ``S`` declaring only ``facts`` that contradict
    ``declared``."""
    T, _ = counted(dataclasses.replace(S, declared_facts=facts), cap=CAP)
    got = _statuses(classify(T, budget))
    return sorted(k for k, s in got.items()
                  if s in ("holds", "fails") and declared[k] in ("holds", "fails")
                  and s != declared[k])


@pytest.mark.parametrize("budget", sorted(BUDGETS))
@pytest.mark.parametrize("name", sorted(STREAMS))
def test_partial_stripping_never_contradicts_the_declared_stream(name, budget):
    S = STREAMS[name]
    declared = _statuses(classify(S, BUDGETS[budget]))
    contradicted = []
    for variant, facts in _variants(S):
        if (name, budget, variant) in GROWTH_CHAIN:
            continue
        wrong = _contradicted(S, BUDGETS[budget], facts, declared)
        if wrong:
            contradicted.append((variant, wrong))
    assert contradicted == []


@pytest.mark.xfail(strict=True, reason="a chain filling a short prefix is read as an "
                                       "infinite one (ROADMAP.md item 1)")
@pytest.mark.parametrize("name,budget,variant", sorted(GROWTH_CHAIN))
def test_partial_stripping_growth_chain_cases(name, budget, variant):
    S = STREAMS[name]
    declared = _statuses(classify(S, BUDGETS[budget]))
    facts = dict(_variants(S))[variant]
    assert _contradicted(S, BUDGETS[budget], facts, declared) == []

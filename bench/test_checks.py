"""The benchmark's own checks: each accepts the program's real output and
rejects a corrupted copy of it.

    python3 -m pytest bench/test_checks.py
"""

import copy
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from checks import (  # noqa: E402
    CLOSEDNESS,
    check_certificate,
    check_enumeration,
    check_finite_report,
    check_stream_report,
    check_topologizability,
    stream_truth,
)
from tables import _BUILD, brute_associative, brute_center, cayley_text, relabel  # noqa: E402
from workloads import STREAMS, cli_call  # noqa: E402

from semitop import builders  # noqa: E402


def _classify_entry(argv):
    code, out, err = cli_call(argv)
    assert code == 0, err
    return json.loads(out)["entries"][0]


@pytest.mark.parametrize("name", STREAMS)
def test_stream_check_rejects_a_flipped_verdict(name):
    S = builders.build(name)
    entry = _classify_entry(["classify", "--builder", name, "--budget", "64",
                             "--budget-steps", "1024"])
    assert check_stream_report(entry, S.declared_facts, S.center_facts) == []
    theorems = entry["classification"]["theorems"]
    definite = [k for k, v in theorems.items() if v["status"] != "unknown"]
    assert definite
    for k in definite:
        bad = copy.deepcopy(entry)
        verdict = bad["classification"]["theorems"][k]
        verdict["status"] = "fails" if verdict["status"] == "holds" else "holds"
        assert check_stream_report(bad, S.declared_facts, S.center_facts)


def test_stream_truths_follow_the_rules():
    truths = {name: stream_truth(S.declared_facts, S.center_facts)
              for name, S in builders.stream_corpus()}
    assert truths["flat"]["C_closed"] is True
    assert truths["flat"]["injective_T1S"] is False
    assert truths["natmin"]["C_closed"] is False
    assert truths["intadd"]["unipotent_C_closed"] is False
    assert truths["prodcenter"]["C_closed"] is False
    assert all(t["absolute_T1S"] is False for t in truths.values())


@pytest.mark.parametrize("family", sorted(_BUILD))
def test_table_families_are_associative_semigroups(family):
    rng = random.Random(7)
    rows = _BUILD[family](rng, 24)
    perm = list(range(24))
    rng.shuffle(perm)
    rows = relabel(rows, perm)
    assert brute_associative(rows)
    commutative = len(brute_center(rows)) == 24
    assert commutative == (family != "leftzero1xcyclic")


@pytest.fixture(params=["leftzero1xcyclic", "groupunion"])
def finite_case(request, tmp_path):
    rows = _BUILD[request.param](random.Random(3), 24)
    path = tmp_path / f"{request.param}.cayley"
    path.write_text(cayley_text(rows))
    return rows, _classify_entry(["classify", str(path)])


def test_finite_check_rejects_corrupted_reports(finite_case):
    rows, entry = finite_case
    assert check_finite_report(entry, rows) == []
    corruptions = [
        lambda c: c["commutative"].update(
            status="holds" if c["commutative"]["status"] == "fails" else "fails"),
        lambda c: c["unipotent"].update(
            status="holds" if c["unipotent"]["status"] == "fails" else "fails"),
        lambda c: c["center"].update(empty=not c["center"]["empty"]),
        lambda c: c["theorems"]["injective_T2S"].update(status="fails"),
    ]
    for corrupt in corruptions:
        bad = copy.deepcopy(entry)
        corrupt(bad["classification"])
        assert check_finite_report(bad, rows)


@pytest.fixture(scope="module", params=[False, True], ids=["labeled", "iso"])
def order4_record(request, tmp_path_factory):
    out = tmp_path_factory.mktemp("enum") / "order4.json"
    argv = ["enumerate", "4", "--out", str(out)]
    argv += ["--dedupe-iso"] if request.param else []
    code, _, err = cli_call(argv)
    assert code == 0, err
    return request.param, json.loads(out.read_text())["entries"][0]


def test_enumeration_check_rejects_wrong_counts(order4_record):
    deduped, record = order4_record
    assert check_enumeration(record, deduped) == []
    for key, delta in (("count", -1), ("commutative", 1)):
        bad = copy.deepcopy(record)
        bad[key] += delta
        assert check_enumeration(bad, deduped)
    bad = copy.deepcopy(record)
    tally = bad["theorem_tally"][CLOSEDNESS[0]]
    tally["holds"] -= 1
    tally["fails"] += 1
    assert check_enumeration(bad, deduped)


def test_certificate_check_rejects_failures_and_wrong_meets(tmp_path):
    out = tmp_path / "cert.json"
    code, _, err = cli_call(["topology", "--builder", "flat:15", "--out", str(out)])
    assert code == 0, err
    record = json.loads(out.read_text())["entries"][0]
    assert check_certificate(record, flat_anchor=True) == []
    bad = copy.deepcopy(record)
    bad["certificate"]["failures"].append({"claim": "continuity"})
    assert check_certificate(bad, flat_anchor=True)
    bad = copy.deepcopy(record)
    bad["certificate"]["nonisolation"][0]["met"] -= 1
    assert check_certificate(bad, flat_anchor=True)


def test_topologizability_check_needs_both_facts():
    facts = dict(builders.stream_corpus())
    assert check_topologizability("flat", "holds", facts["flat"].declared_facts) == []
    assert check_topologizability("natmin", "unknown",
                                  facts["natmin"].declared_facts) == []
    assert check_topologizability("natmin", "holds", facts["natmin"].declared_facts)
    assert check_topologizability("intadd", "holds", facts["intadd"].declared_facts)

"""Every stream computation returns inside its budget.

Each case once filtered an endless carrier for a member that never came.
Each now runs on a counted copy of its stream, with a ceiling of about
twice the multiplications it takes, so a case that falls back into an
endless scan fails fast instead of hanging.  A scan that stops at the
view's depth is not the end of the carrier, so none of these answers may
be definite where only the depth was reached.
"""

import itertools

import pytest

from metering import counted

from semitop import cli
from semitop.builders import build, natmin
from semitop.classify import classify
from semitop.core import Budget, build_stream
from semitop.predicates import HOLDS, UNKNOWN
from semitop.topology import EBase, is_regular

# (topology arguments, multiplications taken)
TOPOLOGY_CASES = {
    "intadd-e0": (("intadd", "--e", "0"), 5_747),
    "natmin": (("natmin",), 206_743),
    "natmin-H": (("natmin", "--kind", "H"), 206_711),
    "natmin-Z-e5-64": (("natmin", "--kind", "Z", "--e", "5", "--budget-elems", "64",
                        "--budget-steps", "1024"), 27_977),
    "prodcenter-E": (("prodcenter", "--kind", "E"), 84_920),
    "prodcenter-H": (("prodcenter", "--kind", "H"), 84_888),
    "flat-H-64": (("flat", "--kind", "H", "--budget-elems", "64", "--budget-steps", "1024"),
                  45_761),
    "flat-e3-64": (("flat", "--e", "3", "--budget", "64"), 12_525),
    "nullstream-e0-E": (("nullstream", "--e", "0", "--kind", "E"), 13_692),
    # takes 17,531: each of the 3,840 codes past the 256-code prefix pays one
    # product to test x*x == x, under the cap of twice 13,691
    "nullstream-e0-H": (("nullstream", "--e", "0", "--kind", "H"), 13_691),
}


@pytest.mark.parametrize("case", sorted(TOPOLOGY_CASES))
def test_topology_returns_under_its_ceiling(capsys, monkeypatch, case):
    argv, taken = TOPOLOGY_CASES[case]
    S, meter = counted(build(argv[0]), cap=2 * taken)
    monkeypatch.setattr(cli, "build", lambda spec: S)
    assert cli.main(["topology", "--builder", *argv]) == 0
    assert "failures: 0 " in capsys.readouterr().out


def test_regularity_on_a_finite_member_returns_under_its_ceiling():
    # F = (6,) leaves the member {5} of 5/5; its scan stops at the view's
    # 1024 codes, so the separation found there is not exhaustive.  It
    # takes 5,120 products, 2,016 of them for the view's order index
    S, _ = counted(natmin(), cap=6_000)
    verdict = is_regular(EBase(S, 5, "E", Budget(64, 1024)), 6)
    assert verdict.status == HOLDS and verdict.source == "search"
    assert verdict.witness["exhaustive"] is False


def sparse_center(step):
    """Codes 0, 1, 2, ...: x*y = x off the multiples of ``step``, which form
    a chain under max and act as identities on the other codes.  They are
    the center; with a huge ``step`` the center is {0}, and 0 is an
    identity."""

    def mul(x, y):
        if x % step:
            return x
        return y if y % step else max(x, y)

    return build_stream(f"sparse:{step}", mul, lambda: itertools.count(0))


@pytest.mark.parametrize("step", [2 ** 62, 5000], ids=["center-0", "center-5000"])
@pytest.mark.parametrize("budget,taken", [(Budget(64, 1024), 11_970),
                                          (Budget(256, 4096), 83_970)], ids=["64", "256"])
def test_a_finite_looking_center_returns_under_its_ceiling(step, budget, taken):
    # the scan for central codes stops at the view's depth, not at the end
    # of the carrier, so the center may go on past it: center_finite is
    # never holds
    S, _ = counted(sparse_center(step), cap=2 * taken)
    report = classify(S, budget)
    assert not report.center.empty
    cfin = report.center.center_finite
    assert cfin.status == UNKNOWN
    assert cfin.witness == {"kind": "center_probe_capped",
                            "scanned": max(budget.elements, budget.steps)}

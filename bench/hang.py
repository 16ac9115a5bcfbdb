"""Run one known-hanging operation; the benchmark starts this in a child
process and kills it at its deadline.

    python3 bench/hang.py <case>

Each case is a filtered enumerator over an infinite carrier that never
yields again (see the README).  Exits 0 if the operation ever returns.
"""

import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def classify_leftzero2_x_natmin():
    # classify.center_subsemigroup probes an empty center with islice(gen(), 1)
    from semitop.builders import left_zero, natmin
    from semitop.classify import classify
    from semitop.core import direct_product

    classify(direct_product(left_zero(2), natmin()))
    return 0


def topology_cli(*argv):
    from semitop import cli

    return cli.main(["topology", *argv])


CASES = {
    "classify-leftzero2xnatmin": classify_leftzero2_x_natmin,
    # the anchor is selected, then EBase.member/CarrierSet.prefix filters
    # the carrier for a basic set that is finite
    "topology-natmin": lambda: topology_cli("--builder", "natmin"),
    # the basic set e/e is {0}: CarrierSet.prefix filters forever
    "topology-intadd-e0": lambda: topology_cli("--builder", "intadd", "--e", "0"),
}

if __name__ == "__main__":
    # the parent kills this process at its deadline; the alarm ends it
    # anyway if the parent dies first
    signal.alarm(60)
    sys.exit(CASES[sys.argv[1]]())

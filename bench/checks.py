"""Correctness checks for every workload, each computed apart from the
program: truths derived from declared facts by the paper's rules, brute
force over raw tables, published enumeration counts, and certificate
replay.  Every checker returns a list of problems; empty means correct.
"""

from __future__ import annotations

from tables import brute_center, brute_idempotents

HOLDS, FAILS, UNKNOWN = "holds", "fails", "unknown"

# the five closedness properties of the classification report
CLOSEDNESS = ("C_closed", "ideally_projectively_closed", "injective_T1S",
              "injective_T2S", "absolute_T1S")

# published counts of semigroups of order 4: OEIS A023814 (labeled),
# A023815 (labeled commutative), A027851 (up to isomorphism) and A001426
# (commutative up to isomorphism)
OEIS_ORDER4 = {
    "labeled": {"count": 3492, "commutative": 1140},
    "iso": {"count": 188, "commutative": 58},
}


# ---------------------------------------------------------------------------
# stream-classify: truth from declared facts

def _all(facts, names):
    """Three-valued AND over declared facts (None when one is missing)."""
    values = [facts.get(n) for n in names]
    if any(v is False for v in values):
        return False
    if all(v is True for v in values):
        return True
    return None


def stream_truth(facts, center_facts):
    """Closedness truths for an infinite stream, from its declared facts.

    Commutative semigroups: the characterizations
      C_closed <=> chain-finite, nonsingular, periodic, group-bounded;
      ideally projectively closed <=> chain-finite, group-bounded,
        Clifford+finite;
      injectively T1S-closed <=> bounded, nonsingular, Clifford-finite;
      injectively T2S-closed <=> chain-finite, group-finite, bounded,
        nonsingular, not Clifford-singular;
      absolutely T1S-closed <=> finite;
    and, with one idempotent, the bounded/nonsingular(/group-finite)
    specializations.  Noncommutative semigroups: only the necessary
    conditions on the center decide; closedness needs a chain-finite,
    periodic, nonsingular center, injective closedness a group-finite one
    too, and absolute closedness a finite center.  A missing entry (None)
    means the facts decide nothing."""
    f = facts
    out = dict.fromkeys(CLOSEDNESS + ("unipotent_C_closed",
                                      "unipotent_injective_C_closed"))
    if f.get("commutative") is True:
        out["C_closed"] = _all(f, ("chain_finite", "nonsingular", "periodic",
                                   "group_bounded"))
        out["ideally_projectively_closed"] = _all(
            f, ("chain_finite", "group_bounded", "clifford_plus_finite"))
        out["injective_T1S"] = _all(f, ("bounded", "nonsingular", "clifford_finite"))
        t2 = _all(f, ("chain_finite", "group_finite", "bounded", "nonsingular"))
        singular = f.get("clifford_singular")
        out["injective_T2S"] = (False if singular is True or t2 is False else
                                None if singular is None or t2 is None else True)
        out["absolute_T1S"] = None if "finite" not in f else bool(f["finite"])
        if f.get("unipotent") is True:
            out["unipotent_C_closed"] = _all(f, ("bounded", "nonsingular"))
            out["unipotent_injective_C_closed"] = _all(
                f, ("bounded", "nonsingular", "group_finite"))
        return out
    if f.get("commutative") is False and center_facts:
        closed_nec = _all(center_facts, ("chain_finite", "periodic", "nonsingular"))
        injective_nec = _all(center_facts, ("chain_finite", "periodic",
                                            "nonsingular", "group_finite"))
        if closed_nec is False:
            out["C_closed"] = out["ideally_projectively_closed"] = False
        if injective_nec is False:
            out["injective_T1S"] = out["injective_T2S"] = False
            out["absolute_T1S"] = False
        if f.get("center_finite") is False:
            out["absolute_T1S"] = False
    return out


def check_stream_report(entry, facts, center_facts):
    """Every definite theorem verdict must equal the derived truth."""
    problems = []
    truth = stream_truth(facts, center_facts)
    theorems = entry["classification"]["theorems"]
    if set(theorems) != set(truth):
        problems.append(f"theorem set {sorted(theorems)} differs from {sorted(truth)}")
    for name, verdict in sorted(theorems.items()):
        status = verdict["status"]
        if status == UNKNOWN:
            continue
        expected = truth.get(name)
        if expected is None:
            problems.append(f"{entry['id']}: {name}={status} but the facts decide nothing")
        elif (status == HOLDS) != expected:
            problems.append(f"{entry['id']}: {name}={status}, truth is "
                            f"{HOLDS if expected else FAILS}")
    return problems


# ---------------------------------------------------------------------------
# finite-ingest: brute force over the raw table

def check_finite_report(entry, rows):
    """Compare one classified table with brute force over its raw rows."""
    problems = []
    n = len(rows)
    idem = brute_idempotents(rows)
    cen = brute_center(rows)
    commutative = len(cen) == n
    cls = entry["classification"]
    if entry.get("kind") != "finite" or entry.get("size") != n:
        problems.append(f"{entry['id']}: kind/size {entry.get('kind')}/{entry.get('size')}, "
                        f"expected finite/{n}")
    want = HOLDS if commutative else FAILS
    if cls["commutative"]["status"] != want:
        problems.append(f"{entry['id']}: commutative={cls['commutative']['status']}, "
                        f"brute force says {want}")
    unip = cls["unipotent"]
    want = HOLDS if len(idem) == 1 else FAILS
    if unip["status"] != want:
        problems.append(f"{entry['id']}: unipotent={unip['status']}, {len(idem)} idempotents")
    witness = unip.get("witness") or {}
    claimed = witness.get("pair") or [witness.get("idempotent")]
    if any(x not in idem for x in claimed):
        problems.append(f"{entry['id']}: unipotent witness {claimed} is not idempotent")
    if cls["center"]["empty"] != (not cen):
        problems.append(f"{entry['id']}: center empty={cls['center']['empty']}, "
                        f"brute force finds {len(cen)} central elements")
    chain = cls["suite"]["chain_finite"]["witness"].get("longest_idempotent_chain", [])
    if any(x not in idem for x in chain):
        problems.append(f"{entry['id']}: idempotent chain {chain[:8]} has a non-idempotent")
    theorems = cls["theorems"]
    for name, verdict in sorted(theorems.items()):
        if verdict["status"] == FAILS:
            problems.append(f"{entry['id']}: {name}=fails on a finite table")
    if commutative:
        for name in CLOSEDNESS:
            if theorems[name]["status"] != HOLDS:
                problems.append(f"{entry['id']}: {name}={theorems[name]['status']} "
                                "on a finite commutative table")
    return problems


def check_structure(name, rows, idempotents, center):
    """The program's idempotent and center sets against brute force."""
    problems = []
    if tuple(sorted(idempotents)) != brute_idempotents(rows):
        problems.append(f"{name}: idempotents differ from brute force")
    if tuple(sorted(center)) != brute_center(rows):
        problems.append(f"{name}: center differs from brute force")
    return problems


# ---------------------------------------------------------------------------
# enumerate-4: published counts

def check_enumeration(record, deduped):
    problems = []
    want = OEIS_ORDER4["iso" if deduped else "labeled"]
    for key in ("count", "commutative"):
        if record.get(key) != want[key]:
            problems.append(f"order-4 {'iso' if deduped else 'labeled'} {key} "
                            f"{record.get(key)}, OEIS says {want[key]}")
    tally = record.get("theorem_tally", {})
    if set(CLOSEDNESS) - set(tally):
        problems.append(f"theorem tally lacks {sorted(set(CLOSEDNESS) - set(tally))}")
    for name, counts in sorted(tally.items()):
        if counts.get("fails", 0):
            problems.append(f"order-4: {counts['fails']} tables get {name}=fails")
        if sum(counts.values()) != record.get("count"):
            problems.append(f"order-4: {name} tally does not cover every table")
    for name in CLOSEDNESS:
        if tally.get(name, {}).get("holds", 0) < want["commutative"]:
            problems.append(f"order-4: {name} holds on fewer tables than are commutative")
    return problems


# ---------------------------------------------------------------------------
# topology-certify

def check_certificate(record, flat_anchor):
    """Structural checks of a topology certificate record.  With
    ``flat_anchor`` (the flat semilattice at anchor 0) every sampled basic
    neighborhood of 0 must meet exactly the ground points outside its F."""
    problems = []
    cert = record["certificate"]
    if cert["failures"]:
        problems.append(f"{record['id']} {record['kind']}: failures {cert['failures'][:2]}")
    if not cert["nonisolation"]:
        problems.append(f"{record['id']} {record['kind']}: no nonisolation records")
    if flat_anchor:
        if record["anchor"] != 0:
            problems.append(f"{record['id']}: anchor {record['anchor']}, expected 0")
        for rec in cert["nonisolation"]:
            ground = rec["ground"]
            outside = [g for g in range(1, ground) if g not in set(rec["params"]["F"])]
            if rec["met"] != len(outside):
                problems.append(f"{record['id']} {record['kind']}: neighborhood "
                                f"{rec['params']} meets {rec['met']}, expected {len(outside)}")
    return problems


def check_topologizability(name, status, facts):
    """Holds only where the declared facts make the central semilattice
    chain-finite and infinite."""
    if status == HOLDS and not (facts.get("ez_chain_finite") is True
                                and facts.get("ez_infinite") is True):
        return [f"{name}: topologizable holds without ez_chain_finite and ez_infinite"]
    return []

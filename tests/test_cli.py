"""Command-line behavior: exit codes, determinism, report files."""

import argparse
import gc
import hashlib
import json
import runpy
import sys

import pytest

from finite_corpus import cayley_text, large_tables

from semitop import cli
from semitop.corpus import read_report


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_builders_to_stdout(capsys):
    code, out, err = run(capsys, "classify", "--builder", "cyclic:3",
                         "--builder", "natmin")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["config"]["command"] == "classify"
    assert [e["id"] for e in doc["entries"]] == ["cyclic:3", "natmin"]
    natmin = doc["entries"][1]["classification"]
    assert natmin["theorems"]["C_closed"]["status"] == "fails"


def test_classify_files_with_summary(capsys, fixtures_dir, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, err = run(capsys, "classify", str(fixtures_dir / "m3.cayley"),
                         "--out", str(out_file))
    assert code == 0
    assert out.startswith("m3: ")
    doc = read_report(out_file)
    assert doc.entries[0]["id"] == "m3"


def test_classify_is_byte_deterministic(capsys, fixtures_dir, tmp_path):
    args = ("classify", str(fixtures_dir / "m3.cayley"),
            str(fixtures_dir / "chain3.cayley"), "--builder", "cyclic:4")
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, *args, "--out", str(first))[0] == 0
    assert run(capsys, *args, "--out", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_stream_reports_match_the_golden_file(capsys, fixtures_dir):
    # streams-64-1024.json pins the report bytes of the seven streams; a
    # change to them must come with a regenerated file and a reason
    argv = ["classify", "--budget-elems", "64", "--budget-steps", "1024"]
    for name in ("natmin", "natplus", "nullstream", "nilstream", "flat",
                 "intadd", "prodcenter"):
        argv += ["--builder", name]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.encode() == (fixtures_dir / "streams-64-1024.json").read_bytes()


def test_budget_shorthand_lands_in_config(capsys):
    code, out, _ = run(capsys, "classify", "--builder", "zero:2",
                       "--budget", "32")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["budget"]["elements"] == 32
    # workers never enter the config: they must not affect bytes
    assert "workers" not in doc["config"]


def test_predicates_command(capsys):
    code, out, _ = run(capsys, "predicates", "--builder", "natmin",
                       "--budget", "64")
    assert code == 0
    doc = json.loads(out)
    suite = doc["entries"][0]["suite"]
    assert suite["chain_finite"]["status"] == "fails"
    assert suite["commutative"]["status"] == "holds"


def test_missing_inputs_is_exit_1(capsys):
    code, _, err = run(capsys, "classify")
    assert code == 1 and "nothing to analyze" in err


def test_unknown_builder_lists_catalog(capsys):
    code, _, err = run(capsys, "classify", "--builder", "nosuch:9")
    assert code == 1 and "known builders" in err


@pytest.mark.parametrize("command", ["classify", "predicates"])
def test_duplicate_entry_ids_are_exit_1(capsys, command):
    code, out, err = run(capsys, command, "--builder", "cyclic:2", "--builder", "cyclic:2")
    assert code == 1 and out == ""
    assert "corpus entry ids must be unique" in err


def test_usage_errors_fold_into_exit_1(capsys):
    assert run(capsys, "bogus-command")[0] == 1
    assert run(capsys, "enumerate")[0] == 1  # missing order argument


def test_enumerate_matches_frozen_constant(capsys):
    code, out, _ = run(capsys, "enumerate", "2")
    assert code == 0
    assert "order 2: 8 labeled semigroups" in out
    assert "(match)" in out


def test_enumerate_dedupe_commutative(capsys):
    code, out, _ = run(capsys, "enumerate", "3", "--commutative-only",
                       "--dedupe-iso")
    assert code == 0
    assert "order 3: 12 commutative isomorphism classes" in out


def test_frozen_mismatch_is_integrity_failure(capsys, monkeypatch):
    monkeypatch.setitem(cli.LABELED_COUNTS, 2, 9)
    code, out, err = run(capsys, "enumerate", "2")
    assert code == 2
    assert "MISMATCH" in out and "disagrees" in err


BUDGET_TARGETS = {
    "classify": ("--builder", "natmin"),
    "predicates": ("--builder", "natmin"),
    "topology": ("--builder", "flat"),
    "enumerate": ("1",),
}


@pytest.mark.parametrize("value", ["0", "-5"])
@pytest.mark.parametrize("flag", ["--budget-elems", "--budget-steps", "--budget"])
@pytest.mark.parametrize("command", sorted(BUDGET_TARGETS))
def test_non_positive_budgets_are_exit_1(capsys, command, flag, value):
    code, out, err = run(capsys, command, *BUDGET_TARGETS[command], flag, value)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: {flag} must be at least 1, got {value}"]


def test_a_call_leaves_no_parser_for_the_cyclic_collector(capsys):
    # in-process callers run main many times; a parser per call would pile
    # up as cyclic garbage until a full collection
    run(capsys, "enumerate", "1")
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run(capsys, "enumerate", "1")
        gc.collect()
        parsers = [o for o in gc.garbage if isinstance(o, argparse.ArgumentParser)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert parsers == []


def test_enumerate_above_cap_is_exit_4(capsys):
    code, _, err = run(capsys, "enumerate", "7")
    assert code == 4 and "size cap" in err


def test_topology_needs_a_viable_anchor(capsys):
    code, _, err = run(capsys, "topology", "--builder", "natplus",
                       "--budget", "64")
    assert code == 3 and "not found" in err


@pytest.mark.parametrize("builder,anchor,span", [
    pytest.param("chain:3", "7", "0..2", id="7"),
    pytest.param("chain:3", "-1", "0..2", id="-1"),
    # -1 is a natmin idempotent, but no code of its carrier
    pytest.param("natmin", "-1", "the first 64 codes", id="natmin-1"),
])
def test_topology_rejects_an_anchor_outside_the_table(capsys, builder, anchor, span):
    # --e takes any int; a table is indexed by codes 0..n-1 only, and a
    # stream anchor must be among the codes of the view
    code, out, err = run(capsys, "topology", "--builder", builder,
                         "--e", anchor, "--budget", "64")
    assert code == 1 and out == ""
    assert err == f"error: anchor {anchor} outside {span}\n"


def test_topology_on_a_group_is_discrete(capsys):
    code, out, _ = run(capsys, "topology", "--builder", "cyclic:4",
                       "--kind", "Z", "--budget", "64")
    assert code == 0
    assert "verdict: discrete" in out


@pytest.mark.parametrize("kind", ["E", "H", "Z"])
@pytest.mark.parametrize("builder", ["cyclic:1", "chain:1", "leftzero:1"])
def test_topology_on_a_one_point_table_has_no_pair_to_separate(capsys, tmp_path,
                                                               builder, kind):
    # the t0 phase once sampled two codes from a ground of one and raised
    # a raw ValueError
    out_file = tmp_path / "topo.json"
    code, out, err = run(capsys, "topology", "--builder", builder, "--kind", kind,
                         "--out", str(out_file))
    assert code == 0 and err == ""
    assert "t0: 0/0 pairs separated definitely" in out
    assert "verdict: discrete" in out
    assert read_report(out_file).entries[0]["certificate"]["t0"] == []


def test_topology_flat_certifies_and_writes_report(capsys, tmp_path):
    out_file = tmp_path / "topo.json"
    code, out, _ = run(capsys, "topology", "--builder", "flat",
                       "--out", str(out_file))
    assert code == 0
    assert "verdict: non-discrete at the anchor" in out
    assert "confirmed_at_bound=True" in out
    doc = read_report(out_file)
    entry = doc.entries[0]
    assert entry["anchor"] == 0 and entry["certificate"]["failures"] == []


# sha256 of the --out bytes and of stdout of `topology` at 64/1024: the
# certificate and its summary must not move while the code under it does
TOPOLOGY_DIGESTS = {
    ("flat:7", "E"): ("a3adb80e01a3f111f045bc9b582700ae2ab0e75a57cfc3aeddb780b9f633c0ab",
                      "dac9825395bc9d65fcd91dece73228d3e980e7b141fc121f34c650c620704821"),
    ("flat:7", "H"): ("a7ba02792e53561ff507a0125c39b56a3b926f22cdada0d6c8225be9635db609",
                      "ed0a0c665158ab9f594622c82081fec73294219959e95a7c8779fc8d181b107c"),
    ("flat:7", "Z"): ("e08353c795b42cf119cff17c457eace7e9fbf428873e30bac76a827ce2fcc075",
                      "5c7e4c6aeb7e14481da0c4f0884d6b08a09164cb9a4c1846a0639a068cd89353"),
    ("flat", "E"): ("b5d0ee672ca3ee0616ab8f67f1c2691c7007b08adc5c3b0682239dc99d4753b9",
                    "e195fd895da3ee55cd0c7fca7442bc74e37aab5baeced09d1e6bde4fbd76dae3"),
    ("flat", "Z"): ("8ed9031ff67ff3ac925da600b484db448a19a2b1e68481f4453e41dceafa0512",
                    "818b299cec93e8da94e361938c38c064061b5d250a0e45e23bab065210c3b32f"),
    ("flat:255", "E"): ("3e50bb494d259874308356ba7a42d3e6306232e869499d4182ec84055b672d41",
                        "3cd53517144aacc9ced6ed63bdb33ec3f4eac72496008f9fd609da6823e25568"),
    ("flat:255", "H"): ("f4a59bb188ed303278d905eaa8f0038ed702c44e4924ec1aa84aacb3885cc774",
                        "2c0e3ddee6eef577b463d1c37a93360dcc980047f72144d0283009634d3bf2b3"),
    ("flat:255", "Z"): ("20aa3e1491d362f13dbc1b9a7b8b9e0cfcd7cfb268c33324cb8904dd9adf321d",
                        "3564abaea353ba4d3840926518ca68f0a04775598046b33c0405b4adc03bdb86"),
}


# the same at 256/4096 and seed 0, the budget of the benchmark's topology
# runs, where the certificate reads the shared product scans and regularity
# columns hardest and kind H certifies on the flat stream too
TOPOLOGY_DIGESTS_256 = {
    ("flat", "E"): ("79cd419fa5bdc3ef833f84bfe71ff28298e300a47e39c269a633d9eb4567816d",
                    "2144749892f726563311ea6dd44f0a56c8762afdd7b2c89acce5d0ae685e5dbd"),
    ("flat", "H"): ("78e6cd7597de12e1a591a6fb5b7f0777db60b2acc7ec601a9bde5c2710f99392",
                    "6e6adec4d903a131e878f2267c20097c1f8ab342c46ddc845c2e6a1f95a07c05"),
    ("flat", "Z"): ("3ed0dd9ae027b82780d3d158a1b0c3dd2907515050430e2de8870c34b7c2efe0",
                    "e423e652dc56f6288aaf9daf9b20b7f8c4bed9c24f4359368462378b3f4b3dd1"),
    ("flat:255", "E"): ("397a1e14df64909b8bfbfd2d6261c174466c470bda30aad7c47f9884ca133950",
                        "3cd53517144aacc9ced6ed63bdb33ec3f4eac72496008f9fd609da6823e25568"),
    ("flat:255", "H"): ("a0ff23c66e17d6845f2f4fed78a829be04ab4e154a1bae4473476b0f2cf29c49",
                        "2c0e3ddee6eef577b463d1c37a93360dcc980047f72144d0283009634d3bf2b3"),
    ("flat:255", "Z"): ("7b38a0e95ca1a03c5a2978d1b0fb1933cd5b9381aa98d6da4be83dcdeb2329d7",
                        "f7095392292654a6812511de3a0a35223fed5531dc46d00d34de91365af469d3"),
}


def _topology_digests(capsys, tmp_path, builder, kind, *budget):
    out_file = tmp_path / "topo.json"
    code, out, _ = run(capsys, "topology", "--builder", builder, "--kind", kind,
                       *budget, "--out", str(out_file))
    assert code == 0
    return (hashlib.sha256(out_file.read_bytes()).hexdigest(),
            hashlib.sha256(out.encode()).hexdigest())


@pytest.mark.parametrize("builder,kind", sorted(TOPOLOGY_DIGESTS))
def test_topology_matches_the_golden_digests(capsys, tmp_path, builder, kind):
    assert _topology_digests(capsys, tmp_path, builder, kind, "--budget-elems",
                             "64", "--budget-steps", "1024") == TOPOLOGY_DIGESTS[builder, kind]


@pytest.mark.parametrize("builder,kind", sorted(TOPOLOGY_DIGESTS_256))
def test_topology_at_256_4096_matches_the_golden_digests(capsys, tmp_path, builder, kind):
    assert _topology_digests(
        capsys, tmp_path, builder, kind, "--budget-elems", "256",
        "--budget-steps", "4096", "--seed", "0") == TOPOLOGY_DIGESTS_256[builder, kind]


# sha256 of stdout of `classify` and `predicates` on each of the seven
# streams at the two budgets of the benchmark's stream runs, where the
# guard searches and the probes read the deepest prefixes
STREAM_DIGESTS = {
    ("classify", "natmin", 256, 4096): "af67e67608f65c85d698eb7fc2c368e5667e3243bdba7ab5cc0db710571b1cd0",
    ("classify", "natplus", 256, 4096): "1635686df1bd7140dfffca50b6ccca0e3667655f1d991a15b5b7bab348dc4c0c",
    ("classify", "nullstream", 256, 4096): "8d4ddea98a2c1e2ed6ff20e142fb4ec1aab330db0f8d71e53f5536f6f08f3bc9",
    ("classify", "nilstream", 256, 4096): "94da6bec6dcc51e990fae23abcc1c338dcb2c1f7679cb3ad93da5660013b9a08",
    ("classify", "flat", 256, 4096): "3b24281387a37afa69c0963b87d305b513ebad358968e97cb81a44d03cb52364",
    ("classify", "intadd", 256, 4096): "54c8a437cf8ae90ce9fab85c4a20b05f902334c76d289ee1370ed07c8ec3ea35",
    ("classify", "prodcenter", 256, 4096): "b139c8d8355e0e2814b6eeaae5d5a32414c5276e781fc84d508238a3a33bc4b5",
    ("classify", "natmin", 1024, 16384): "06fb2c7aecfb20fb4fabae3d7e055fa59649ffcaa5a3d031f53e15bcb71977bf",
    ("classify", "natplus", 1024, 16384): "0c8e19438d50b8dce6da7eb2e52a6fb54dbc03ce2f35a84c666c0b8231ffe70f",
    ("classify", "nullstream", 1024, 16384): "46752ffe90043831fc64e557d0d51d34b7f1702a5bab57e57e3916af1a78dcf1",
    ("classify", "nilstream", 1024, 16384): "6a44368aba7322d7e8532ee653d0380cf5402ef8c928ef3c72a4f241ebd23267",
    ("classify", "flat", 1024, 16384): "29d10ce38ceefaf117a696741ec86b38f62ec86b2600bf4ebb710df7a5918cba",
    ("classify", "intadd", 1024, 16384): "1d6f6077a13592b085dcad985ca75fa0c9b61db5fb05195916a8c2de97c0ca78",
    ("classify", "prodcenter", 1024, 16384): "33d6b6a346fc9b7e1bb925bd1d163c9dc5369b5092322df2edceefe99b71d9dc",
    ("predicates", "natmin", 256, 4096): "57ebeba1b83d37a77fac6ebe32ff6746b5e49ab6f7f08df78be3a43a7e893aba",
    ("predicates", "natplus", 256, 4096): "7be30d9d40c646824b0ec10f45c3745df2bb40cb7fb2bda2504f8ce41257806e",
    ("predicates", "nullstream", 256, 4096): "ac93db7fd39644796efb8305f5e2464c0d76b0082138940c38e0f80c3363c0c0",
    ("predicates", "nilstream", 256, 4096): "888f4383394dfc5b74c5c8a240e1c0c6d5c569cfeeaf027baf3a895287289b32",
    ("predicates", "flat", 256, 4096): "ff89fee40842f85e7edbd3d5f45a3ebdabc3bc2c9847d1ef370f256eccef984e",
    ("predicates", "intadd", 256, 4096): "cd15b8a0dabb3c5a5bb686cf11bce515fdb66d35f5c8372f938e3b61a2b1a2f8",
    ("predicates", "prodcenter", 256, 4096): "695063f7b7248c6b6d0076ba73710045a00f3dee7a7753c5102bff6341c480c6",
    ("predicates", "natmin", 1024, 16384): "39e113187a2e3908abc166ee83a65f5f6a0e43efc9a0a0d91e93b3b0fb42e40b",
    ("predicates", "natplus", 1024, 16384): "05b451261c5d8841b06137fd011c4665ea30c85c0652c17fd1bda76bd962c3ba",
    ("predicates", "nullstream", 1024, 16384): "dade99dda785ccff9aa5b6a48a13eafb89512207f0a0f32afa83f1a71bd578fd",
    ("predicates", "nilstream", 1024, 16384): "78634e1039041c29bb0812cdd2bb84077be83a5b7dd32e963312de05d713e017",
    ("predicates", "flat", 1024, 16384): "30f8df3569912a3cf87c7fb74de8ca5299c3cb6d45c770d58f474a44cd3fd491",
    ("predicates", "intadd", 1024, 16384): "76b195feb7392b75c0896ff75f8c4b5b5fe82a07dae05bd38eb9285c441c8829",
    ("predicates", "prodcenter", 1024, 16384): "3fcda29ad4035e73e9e071bb507b14c7a1439d912459668a17b565c6de360945",
}


@pytest.mark.parametrize("command,builder,elements,steps", sorted(STREAM_DIGESTS))
def test_stream_reports_at_benchmark_budgets_match_the_golden_digests(
        capsys, command, builder, elements, steps):
    code, out, _ = run(capsys, command, "--builder", builder, "--budget-elems",
                       str(elements), "--budget-steps", str(steps))
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == STREAM_DIGESTS[command, builder, elements, steps])


# sha256 of stdout on finite inputs: the finite predicate paths must keep
# their report bytes.  A target ending in .cayley names a fixture file; the
# enumerate target is its argument list.
FINITE_DIGESTS = {
    ("classify", "chain3.cayley"): "67207c9520aab2ac18fe901c0aee34211890a46b29a687ae9e3b68db8a37c98c",
    ("classify", "m3.cayley"): "656161ae91a68686d25c71780743ae4920b042f441aa2ab10f6574a7701f7bc5",
    ("classify", "cyclic:6"): "741e7b03e9c79614748d90bb945b211999fb9ad5eb812416a33f1be68dcf2019",
    ("classify", "zero:4"): "7f91ab79cbfbc2fd4c6c8b29ed37f4d72a233589a7232ae44ba86cb4dacc6a16",
    ("classify", "leftzero:3"): "b804616612977ec1484dfaf480e1820951db7ac5b451669abca3cd32a0b6c293",
    ("classify", "chain:4"): "21a8deae77e7264b3a4628891e0b64792b638874c147d25d5fb0cdf78b9af764",
    ("classify", "flat:7"): "09c02a7f6df5dc8d1c1ab49f4f6dc977906d5e60a2abf54333126431d335e03c",
    ("classify", "m3"): "932b4b0c592d2e6d4f8d5c844d009fcce9f3042d7f5faef5c11bf27e3552bb98",
    ("classify", "monogenic:3,2"): "6ed369468ff77a94d91422e19b8248e9ab000f54cb92f193cfcbb8460fee85c8",
    ("classify", "groupunion:2,3"): "28ecd3f73ff5cf18e70c518a3c164b9e9244a7e337ed719cb916739b276f88bc",
    ("predicates", "chain3.cayley"): "8251e0c684895605f3a02fce57712fcf0bb92bbdaf1b44450ba374490debbcc1",
    ("predicates", "m3.cayley"): "a46d02982fa70ceb6639334748e68a6da29ca740bb0b307b84d8a623af1b738a",
    ("predicates", "cyclic:6"): "f16ad9634ee10213b6a0bf53089df11d325c5dcc6ab9c2ff02c5219b96f0a679",
    ("predicates", "zero:4"): "68440ecaf4c12f9d3e0f6de0fd76a240b8867db3cfa61d045369ea76c3790907",
    ("predicates", "leftzero:3"): "f2273bfa9d3ee8062c98a7a89ee7e3bb4faaddd5aabaa935dd87e550ffd76f1b",
    ("predicates", "chain:4"): "a078ad487247ae60b1f7c694f0194caed9a4f01ca824b20e204d1e0709541e84",
    ("predicates", "flat:7"): "55af4c22a11db5c77dac814db56d9db5c6f90f69a27cf35a547460cf197d8572",
    ("predicates", "m3"): "a46d02982fa70ceb6639334748e68a6da29ca740bb0b307b84d8a623af1b738a",
    ("predicates", "monogenic:3,2"): "9962f51ce9a2faa731fd3739a2ab992c1d6fa03162e6cc764ff242663c06500b",
    ("predicates", "groupunion:2,3"): "1a9ed9282eb31823604ef36d29570ab0056b4f5b403f5092483328a59f9d5ec9",
    ("enumerate", "3"): "c150a576074ec486c2983bf132beee5f8917f0a3ba2f33f5c6f65c0abc110dfc",
    ("enumerate", "3 --dedupe-iso"): "3717dfe1e7833992066ac2d074fa00e5837e2b0170a5a3efb0e3c53055d93042",
    ("enumerate", "4"): "1b9b7593b0e693a27457e668ed8090bc1d2beec07fa9d60e19b47945fe1af5c6",
    ("enumerate", "4 --dedupe-iso"): "79313a33e96c558200998bb53c89923901007b332d7406c0f01e84b2972c3cac",
    ("enumerate", "4 --commutative-only"): "0c80249e7ac51f4913ada2b14c3044fa643679a2a8516d771a61a55855386d5f",
    ("enumerate", "4 --commutative-only --dedupe-iso"): "0e0d7f0418324adbe1744c4e591ca4c86785888cb137fd91e4af4305a907a7d6",
    ("enumerate", "5"): "f8f0040dafbe9793ab703d4cb1217c21272f0eba2a19d9c9628fd5343b1f1244",
    ("enumerate", "5 --commutative-only"): "bfff1e602d624360c5d44901cd27b52b6a46812aebc23913bb35bbb65ee5212a",
    ("enumerate", "5 --commutative-only --dedupe-iso"): "c55d1850bd668371e496da24388c6f531ce680ff94f01ed985248e60796e67fb",
}


def _finite_argv(fixtures_dir, command, target):
    if target.endswith(".cayley"):
        return [command, str(fixtures_dir / target)]
    if command == "enumerate":
        return [command, *target.split()]
    return [command, "--builder", target]


@pytest.mark.parametrize("command,target", sorted(FINITE_DIGESTS))
def test_finite_reports_match_the_golden_digests(capsys, fixtures_dir, command, target):
    code, out, _ = run(capsys, *_finite_argv(fixtures_dir, command, target))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FINITE_DIGESTS[command, target]


GOLDEN_REPORTS = ([("fixture", "streams-64-1024.json")]
                  + [key for key in sorted(FINITE_DIGESTS) if not key[1].startswith("5")]
                  + [("topology", f"{builder} {kind}") for builder, kind in sorted(TOPOLOGY_DIGESTS)])


@pytest.mark.parametrize("command,target", GOLDEN_REPORTS)
def test_golden_reports_are_the_bytes_of_json_dumps(capsys, fixtures_dir, tmp_path,
                                                    command, target):
    # reports are rendered by a writer of their own; each golden report must
    # be what json.dumps writes for its parse.  Order 5 (1.6 s) is left to
    # its digests, which json.dumps wrote
    out_file = tmp_path / "report.json"
    if command == "fixture":
        out_file = fixtures_dir / target
    elif command == "topology":
        builder, kind = target.split()
        assert run(capsys, "topology", "--builder", builder, "--kind", kind,
                   "--budget-elems", "64", "--budget-steps", "1024",
                   "--out", str(out_file))[0] == 0
    else:
        argv = _finite_argv(fixtures_dir, command, target)
        assert run(capsys, *argv, "--out", str(out_file))[0] == 0
    text = out_file.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


# sha256 of stdout of `classify` and `predicates` on large relabeled tables:
# the table check and the finite predicates, the 128-code
# longest_idempotent_chain witness among them, must keep their bytes
LARGE_FINITE_DIGESTS = {
    ("classify", "chain-128"): "f98d6c27f7a2cdf5747cc80da5cd1a2f7f8b352e42fc05c7f2796eec5c707df1",
    ("classify", "cyclicprod-256"): "c85caa207363ec23f813ce1771ff5b6df1afe7f25a16872a9d2344d44a617217",
    ("classify", "flat-100"): "5594653f689ce877b0c24e81b9fbb59342df7fe90b3ad3433d06ca32cd645270",
    ("classify", "groupunion-160"): "aa10db7c2359ee7e000df81e47ea65e023923de85298ce3e0949e2b0981cde88",
    ("classify", "leftzero1xcyclic-200"): "eca334d641ab3d5d0efab42e47cbcf4765534fd502f0434409f4244ccf76ec2d",
    ("classify", "monogenic0-224"): "302494faf29fc1089256d69e5747f7cbb286feeaca02ef8b973e271dd7db1529",
    ("predicates", "chain-128"): "f4b51d0e27a611059fc26f3f7c879c1bd5793fcfc7d606c9be984df2a32ae7a2",
    ("predicates", "cyclicprod-256"): "429ec331fa1752d5fabe44d02765f1073247dbca721af2d715a9fdd5ae49eced",
    ("predicates", "flat-100"): "ccf60764d4dfff2635f27ba225c4e092054c4aa41ee6bf551b85246c4e984560",
    ("predicates", "groupunion-160"): "19b45f7757eb2e6ca6cf90537f4a7a34ae443cf966f42e7ce7510528fce29dd0",
    ("predicates", "leftzero1xcyclic-200"): "0b290495bddedfab6f50fbf41686d4350a4b8ec748697602087e037d9b298d86",
    ("predicates", "monogenic0-224"): "fe6e97b88097ce48acb895e4e4d77acceb5d196f656fce27e7a03dbe75eac7c4",
}


@pytest.mark.parametrize("command,name", sorted(LARGE_FINITE_DIGESTS))
def test_large_finite_reports_match_the_golden_digests(capsys, tmp_path, command, name):
    table = dict(large_tables())[name]
    path = tmp_path / f"{name}.cayley"
    path.write_text(cayley_text(table))
    code, out, _ = run(capsys, command, str(path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_FINITE_DIGESTS[command, name]


def test_python_dash_m_runs_the_cli(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["semitop", "--help"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("semitop", run_name="__main__")
    assert exc.value.code == 0
    assert "topology" in capsys.readouterr().out

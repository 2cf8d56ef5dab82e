import json
import os
import subprocess
import sys

import pytest

import waning
import waning.cli as cli
import waning.harness as harness
from strategies import count_forks, deadline
from waning.cli import main
from waning.harness import MAX_BOUND, run_suite


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_closure_exact_output(capsys):
    code, out, _ = run(
        capsys, "closure", "--f", '{"prefix":[5,5,5],"tail":0,"omega":0}'
    )
    assert code == 0
    assert out.strip() == '{"omega_prefix":0,"drops":[5,4,3]}'


def test_waning_check(capsys):
    code, out, _ = run(
        capsys, "waning-check", "--f", '{"prefix":[2,2],"tail":0,"omega":0}'
    )
    assert code == 0 and out.strip() == "false"
    code, out, _ = run(capsys, "waning-check", "--f", '{"const":"omega"}')
    assert code == 0 and out.strip() == "true"


def test_eval_omega_token(capsys):
    fn = '{"prefix":["omega",3],"tail":0,"omega":0}'
    assert run(capsys, "eval", "--f", fn, "--n", "0")[1].strip() == '"omega"'
    assert run(capsys, "eval", "--f", fn, "--n", "1")[1].strip() == "3"
    assert run(capsys, "eval", "--f", fn, "--n", "omega")[1].strip() == "0"


def test_compare_incomparable(capsys):
    code, out, _ = run(
        capsys,
        "compare",
        "--t1",
        '{"direct":{"const":"omega"}}',
        "--t2",
        '{"dual":{"const":"omega"}}',
    )
    assert code == 0 and out.strip() == "incomparable"


def test_join_mixed_families(capsys):
    code, out, _ = run(
        capsys,
        "join",
        "--t1",
        '{"direct":{"const":"omega"}}',
        "--t2",
        '{"dual":{"const":"omega"}}',
    )
    assert code == 0
    assert json.loads(out) == {"direct": {"omega_prefix": 0, "drops": []}}


def test_chain_below_roundtrip(capsys):
    code, out, _ = run(capsys, "chain", "--n", "2")
    assert code == 0
    code, out2, _ = run(capsys, "below", "--f", out.strip())
    assert code == 0
    assert len(json.loads(out2)) == 3


def test_member_descriptor(capsys):
    d = '{"U":{"f":{"omega_prefix":0,"drops":[]},"n":1,"X":[0]}}'
    assert run(capsys, "member", "--d", d, "--pb", "[[0,1]]")[1].strip() == "true"
    assert run(capsys, "member", "--d", d, "--pb", "[[1,0]]")[1].strip() == "false"


def test_member_wany_flags(capsys):
    d = '{"wany":{"n":1,"Ys":[[0]]}}'
    code, out, _ = run(capsys, "member", "--d", d, "--pb", "[[2,3]]")
    assert code == 0 and out.strip() == "true"


def test_member_needs_a_descriptor(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["member", "--pb", "[]"])
    assert exc.value.code == 2 and "--d" in capsys.readouterr().err


def test_subset_counterexample_exit(capsys, tmp_path):
    d1 = '{"U":{"f":{"omega_prefix":0,"drops":[]},"n":1,"X":[]}}'
    d2 = '{"U":{"f":{"omega_prefix":0,"drops":[]},"n":1,"X":[0]}}'
    out_file = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "subset", "--d1", d1, "--d2", d2, "--bound", "3", "--out", str(out_file)
    )
    assert code == 3
    assert "counterexample" in out
    doc = json.loads(out_file.read_text())
    assert doc["cases"] == 34 and doc["counterexamples"]


def test_subset_pass_exit(capsys):
    d1 = '{"U":{"f":{"omega_prefix":0,"drops":[]},"n":1,"X":[0]}}'
    d2 = '{"U":{"f":{"omega_prefix":0,"drops":[]},"n":1,"X":[]}}'
    code, out, _ = run(capsys, "subset", "--d1", d1, "--d2", d2, "--bound", "3")
    assert code == 0 and "pass" in out


def test_witness_order(capsys):
    code, out, _ = run(
        capsys,
        "witness",
        "--f",
        '{"omega_prefix":0,"drops":[]}',
        "--g",
        '{"omega_prefix":0,"drops":[1]}',
        "--r",
        "2",
    )
    assert code == 0
    assert json.loads(out) == {"n": 0, "b": 1, "h": [[2, 0]]}


def test_witness_cover(capsys):
    code, out, _ = run(
        capsys,
        "witness",
        "--kind",
        "cover",
        "--n",
        "0",
        "--pb",
        "[]",
        "--m",
        "[0,1,2,3,4,5,6,7,8,9]",
        "--dommiss",
    )
    assert code == 0
    assert json.loads(out) == [[0, 10]]


def test_witness_missing_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "witness", "--kind", "order", "--r", "2")
    assert code == 2 and "needs" in err


def test_domain_error_exit(capsys):
    # dominating pair has no separating witness
    code, _, err = run(
        capsys,
        "witness",
        "--f",
        '{"omega_prefix":0,"drops":[1]}',
        "--g",
        '{"omega_prefix":0,"drops":[]}',
        "--r",
        "5",
    )
    assert code == 1 and "error" in err


def test_eval_index_refusals(capsys):
    for fn in ('{"omega_prefix":0,"drops":[2]}', '{"const":"omega"}'):
        code, out, err = run(capsys, "eval", "--f", fn, "--n", "-1")
        assert code == 1 and out == "" and err.startswith("error:")
    code, _, err = run(capsys, "eval", "--f", ONE_DROP, "--n", "x")
    assert code == 2 and err.startswith("usage error:")


FAR = "[[100000000,0]]"
ONE_DROP = '{"omega_prefix":0,"drops":[1]}'


def test_witness_radii_for_a_far_source(capsys):
    basis = ["witness", "--kind", "basis", "--f", ONE_DROP, "--pb", FAR, "--n", "1"]
    with deadline(2):
        code, out, _ = run(capsys, *basis)
    assert code == 0 and json.loads(out) == {"r": 100000001}
    closes_to_one_drop = '{"prefix":[1],"tail":0,"omega":0}'
    tfprime = ["witness", "--kind", "tfprime", "--f", closes_to_one_drop, "--pb", FAR]
    with deadline(2):
        code, out, _ = run(capsys, *tfprime)
    assert code == 0
    assert json.loads(out)["W"] == {
        "f": {"omega_prefix": 0, "drops": [1]},
        "g": [[100000000, 0]],
        "r": 100000001,
    }


def test_oversized_outputs_refused(capsys):
    big = '{"omega_prefix":0,"drops":[100000000]}'
    with deadline(2):
        code, _, err = run(capsys, "below", "--f", big)
    assert code == 1 and "error:" in err
    order = ["witness", "--f", big, "--g", '{"const":"omega"}', "--r", "1000000000"]
    with deadline(2):
        code, _, err = run(capsys, *order)
    assert code == 1 and "error:" in err


def test_oversized_closures_and_witnesses_refused(capsys):
    unwinds = '{"prefix":[1000000],"tail":"omega","omega":0}'
    much_wan = ["witness", "--kind", "much-wan", "--f", '{"prefix":[5]}', "--pb", "[]"]
    for argv in (["closure", "--f", unwinds], much_wan + ["--r", "1000000"]):
        with deadline(2):
            code, _, err = run(capsys, *argv)
        assert code == 1 and err.startswith("error:")


def test_long_omega_prefix_read_in_canonical_form(capsys):
    # a WaningFn reaches closure and is_waning as it stands, so a million
    # leading OMEGA values are never listed
    long_prefix = '{"omega_prefix":1000000,"drops":[]}'
    for command, expected in (("closure", long_prefix), ("waning-check", "true")):
        with deadline(2):
            code, out, _ = run(capsys, command, "--f", long_prefix)
        assert code == 0 and out.strip() == expected


def test_lattice_of_far_omega_prefixes(capsys):
    far = '{"omega_prefix":100000000,"drops":[]}'
    far_drops = '{"omega_prefix":100000000,"drops":[3,1]}'
    compare = ["compare", "--t1", '{"direct":%s}' % far, "--t2", '{"direct":%s}' % ONE_DROP]
    with deadline(2):
        code, out, _ = run(capsys, *compare)
    assert code == 0 and out.strip() == "coarser"
    join = ["join", "--t1", '{"direct":%s}' % far, "--t2", '{"direct":%s}' % far_drops]
    with deadline(2):
        code, out, _ = run(capsys, *join)
    assert code == 0 and json.loads(out) == {"direct": json.loads(far)}
    order = ["witness", "--f", far, "--g", '{"const":"omega"}', "--r", "5"]
    with deadline(2):
        code, _, err = run(capsys, *order)
    assert code == 1 and err.startswith("error:")


def test_sets_of_naturals_rejected_not_truncated(capsys):
    basis = ["witness", "--kind", "basis", "--f", ONE_DROP, "--pb", "[[0,0]]"]
    cover = ["witness", "--kind", "cover", "--n", "0", "--pb", "[]", "--dommiss"]
    for argv in (
        basis + ["--X", "[2.7]"],
        cover + ["--m", "[0.5]"],
        ["member", "--d", '{"wany":{"n":0,"Ys":[[2.9]]}}', "--pb", "[[0,0]]"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 1 and err.startswith("error:")


def test_unknown_keys_rejected(capsys):
    order = ["witness", "--f", '{"drop":[3]}', "--g", ONE_DROP, "--r", "5"]
    code, _, err = run(capsys, *order)
    assert code == 1 and "unknown keys" in err


def test_bounds_below_two(capsys):
    for suite in ("basis", "much-wan"):
        for bound in ("0", "1"):
            verify = ["verify", "--suite", suite, "--bound", bound, "--jobs", "1"]
            code, out, _ = run(capsys, *verify)
            assert code == 0 and "pass" in out
    negative = ["verify", "--suite", "basis", "--bound", "-1", "--jobs", "1"]
    code, _, err = run(capsys, *negative)
    assert code == 1 and err.startswith("error:")
    d = '{"dommiss":0}'
    code, _, err = run(capsys, "subset", "--d1", d, "--d2", d, "--bound", "-1")
    assert code == 1 and err.startswith("error:")


def test_library_faults_are_not_usage_errors(monkeypatch):
    import waning.cli as cli

    def broken(f):
        raise ValueError("a fault inside the library")

    monkeypatch.setattr(cli, "closure", broken)
    with pytest.raises(ValueError):
        main(["closure", "--f", '{"prefix":[1]}'])


def test_bad_json_is_usage_error(capsys):
    code, _, err = run(capsys, "closure", "--f", "{not json")
    assert code == 2 and "JSON" in err


def test_malformed_payload_is_usage_error(capsys):
    code, _, err = run(capsys, "member", "--d", '{"hit":5}', "--pb", "[]")
    assert code == 2
    # a pair of the wrong length is refused, not truncated to its first two
    for body in ("[0]", "[0,0,7]"):
        d = '{"hit":%s}' % body
        code, out, err = run(capsys, "member", "--d", d, "--pb", "[[0,0]]")
        assert (code, out) == (2, "") and "malformed" in err
    code, _, err = run(capsys, "embed", "--poset", "/nonexistent/poset.json")
    assert code == 2


def nested(depth, opening, leaf, closing):
    return opening * depth + leaf + closing * depth


DOMMISS = '{"dommiss":0}'


def test_deep_json_is_a_usage_error(capsys):
    # json's decoder runs out of stack on these before Python 3.13; after it
    # descriptor_from_obj does on the descriptors and PBij refuses the pairs
    for argv in (
        ["member", "--d", nested(5000, '{"dual":', DOMMISS, "}"), "--pb", "[]"],
        ["member", "--d", DOMMISS, "--pb", nested(5000, "[", "", "]")],
        ["subset", "--d1", nested(5000, '{"and":[', DOMMISS, "]}"), "--d2", DOMMISS],
        ["subset", "--d1", nested(5000, '{"dual":', DOMMISS, "}"), "--d2", DOMMISS],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("usage error:")


@pytest.mark.parametrize(
    "opening, closing, depths",
    [('{"dual":', "}", range(1, 1101)), ('{"and":[', "]}", range(1, 401))],
    ids=["dual", "and"],
)
def test_every_nesting_depth_runs_or_is_refused(capsys, opening, closing, depths):
    """Up to MAX_NESTING levels the commands run to the end; past it the
    flag is a usage error, and no depth ends in a RecursionError."""
    everything = '{"and":[]}'
    for depth in depths:
        d = nested(depth, opening, DOMMISS, closing)
        for argv in (
            ["member", "--d", d, "--pb", "[[0,0]]"],
            ["subset", "--d1", d, "--d2", everything, "--bound", "2"],
        ):
            code, _, err = run(capsys, *argv)
            accepted = depth <= waning.descriptors.MAX_NESTING
            assert code == (0 if accepted else 2), (depth, argv[0], err)
            assert accepted or "nests deeper" in err or "too deep to decode" in err


def test_member_rejects_invalid_neighbourhood(capsys):
    d = '{"W":{"f":{"drops":[2,1]},"g":[[5,5]],"r":0}}'
    code, _, err = run(capsys, "member", "--d", d, "--pb", "[]")
    assert code == 1 and err.startswith("error:")


def test_usage_error_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_embed_and_hasse(capsys, tmp_path):
    poset = tmp_path / "poset.json"
    poset.write_text(
        '{"elements":["a","b"],"leq":[["a","a"],["b","b"],["a","b"]]}'
    )
    code, out, _ = run(capsys, "embed", "--poset", str(poset))
    assert code == 0
    mapping = json.loads(out)
    assert set(mapping) == {"a", "b"}
    f_a = json.dumps(mapping["a"], separators=(",", ":"))
    f_b = json.dumps(mapping["b"], separators=(",", ":"))
    code, out, _ = run(capsys, "hasse", "--f", f_a, "--f", f_b)
    assert code == 0
    assert out.count("->") == 1


def test_verify_census(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "census", "--jobs", "1")
    assert code == 0
    assert "census: pass" in out


def test_verify_jobs_flag(capsys, monkeypatch):
    import waning.cli as cli

    code, _, err = run(capsys, "verify", "--suite", "census", "--jobs", "-1")
    assert code == 1 and err.startswith("error:")
    seen = []
    monkeypatch.setattr(cli, "available_cpus", lambda: 5)
    monkeypatch.setattr(
        cli, "run_suite", lambda name, **kw: seen.append(kw["jobs"]) or run_suite(name)
    )
    assert run(capsys, "verify", "--suite", "census", "--jobs", "0")[0] == 0
    assert seen == [5]


def test_cheap_runs_fork_nothing(capsys, monkeypatch):
    # with 2 CPUs and the real FORK_MIN_REST_S: no case of d-map at bound 2
    # or of census leaves more than about 0.3 ms estimated for the rest
    forks = count_forks(monkeypatch)
    monkeypatch.setattr(harness, "available_cpus", lambda: 2)
    monkeypatch.setattr(cli, "available_cpus", lambda: 2)
    assert run_suite("d-map", bound=2, jobs=2).ok
    code, out, _ = run(capsys, "verify", "--suite", "census")
    assert code == 0 and "census: pass" in out
    assert forks == []


def test_verify_continuity_small(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--suite",
        "continuity",
        "--bound",
        "4",
        "--seed",
        "1",
        "--sample",
        "5",
        "--jobs",
        "1",
    )
    assert code == 0 and "pass" in out


def test_round_trip_join_into_compare(capsys):
    code, joined, _ = run(
        capsys,
        "join",
        "--t1",
        '{"direct":{"omega_prefix":0,"drops":[5,1]}}',
        "--t2",
        '{"direct":{"omega_prefix":0,"drops":[3,2,1]}}',
    )
    assert code == 0
    code, out, _ = run(
        capsys, "compare", "--t1", joined.strip(), "--t2", joined.strip()
    )
    assert code == 0 and out.strip() == "equal"


def test_round_trip_witness_into_member(capsys):
    code, desc, _ = run(
        capsys,
        "witness",
        "--kind",
        "much-wan",
        "--f",
        '{"prefix":[5,5,5],"tail":0,"omega":0}',
        "--pb",
        "[[0,0]]",
        "--r",
        "1",
    )
    assert code == 0
    code, out, _ = run(capsys, "member", "--d", desc.strip(), "--pb", "[[0,0]]")
    assert code == 0 and out.strip() == "true"


def test_verify_writes_document(capsys, tmp_path):
    out_file = tmp_path / "doc.json"
    code, _, _ = run(
        capsys,
        "verify",
        "--suite",
        "remark",
        "--bound",
        "4",
        "--jobs",
        "1",
        "--out",
        str(out_file),
    )
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["suite"] == "remark" and doc["counterexamples"] == []


@pytest.mark.parametrize(
    "argv",
    [
        [
            "witness", "--kind", "basis", "--f", '{"const":"omega"}',
            "--pb", "[[0,0],[1,1]]", "--n", "-1",
        ],
        ["witness", "--kind", "much-wan", "--f", '{"const":"omega"}', "--pb", "[]", "--r", "-1"],
        ["verify", "--suite", "continuity", "--jobs", "1", "--sample", "-3"],
        ["witness", "--kind", "cover", "--pb", "[]", "--n", "-1"],
        ["verify", "--suite", "census", "--jobs", "1", "--bound", "-1"],
        # flags the command does not read are refused too
        ["witness", "--kind", "order", "--f", '{"drops":[]}', "--g", '{"drops":[1]}',
         "--r", "3", "--n", "-1"],
        ["witness", "--kind", "basis", "--f", '{"drops":[]}', "--pb", "[]", "--r", "-5"],
        ["verify", "--suite", "census", "--jobs", "-1"],
    ],
    ids=["n", "r", "sample", "cover-n", "bound", "unread-n", "unread-r", "jobs"],
)
def test_negative_integer_flags_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    # the message names the refused flag, the last one given: run_suite names
    # its parameter, main the flag
    flag = argv[-2]
    name = flag[2:] if argv[0] == "verify" else flag
    assert code == 1 and out == "" and err.startswith(f"error: {name} = {argv[-1]} ")


def test_verify_refuses_a_sample_above_the_size_limit(capsys):
    code, out, err = run(
        capsys, "verify", "--suite", "chains", "--sample", str(waning.SIZE_LIMIT + 1), "--jobs", "1"
    )
    assert code == 1 and out == "" and err.startswith("error:")


def test_embed_refuses_a_string_for_the_elements(capsys, tmp_path):
    poset = tmp_path / "poset.json"
    poset.write_text('{"elements":"ab","leq":[["a","a"],["b","b"]]}')
    code, out, err = run(capsys, "embed", "--poset", str(poset))
    assert code == 1 and out == "" and err.startswith("error:")


def test_eval_reads_an_omega_only_object_as_a_genfn(capsys):
    code, out, _ = run(capsys, "eval", "--f", '{"omega":"omega"}', "--n", "omega")
    assert code == 0 and json.loads(out) == "omega"


def test_verify_refuses_a_bound_above_the_maximum(capsys):
    bound = str(MAX_BOUND + 1)
    code, out, err = run(capsys, "verify", "--suite", "dual", "--bound", bound, "--jobs", "1")
    assert code == 1 and out == "" and err.startswith("error:")


def test_embed_rejects_labels_that_are_not_strings(capsys, tmp_path):
    poset = tmp_path / "poset.json"
    poset.write_text('{"elements":[1.5,true],"leq":[[1.5,1.5],[true,true]]}')
    code, out, err = run(capsys, "embed", "--poset", str(poset))
    assert code == 1 and out == "" and err.startswith("error:")


def test_closed_stdout_is_not_a_usage_error(capsys, monkeypatch, tmp_path):
    class ClosedPipe:
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return self.fd

    # main points the stub's descriptor at devnull, so hand it a file's
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
        code = main(["verify", "--suite", "census", "--jobs", "1"])
    finally:
        os.close(fd)
    assert code == 141
    assert capsys.readouterr().err == ""


def fresh_run(*argv):
    """Exit code and stdout of the same command in a new interpreter."""
    src = os.path.dirname(os.path.dirname(waning.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "waning.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    return done.returncode, done.stdout


def test_reused_parser_keeps_nothing_between_calls(capsys):
    assert cli._build_parser() is cli._build_parser()
    a = '{"omega_prefix":0,"drops":[3]}'
    b = '{"omega_prefix":1,"drops":[]}'
    calls = [
        ("hasse", "--f", a),
        ("hasse", "--f", b),
        ("member", "--d", '{"immiss":0}', "--pb", "[[1,0]]"),
        ("witness", "--kind", "cover", "--n", "2", "--pb", "[[0,0]]", "--m", "[1]"),
        ("witness", "--kind", "cover", "--pb", "[]", "--m", "[1]"),
    ]
    outputs = []
    for argv in calls:
        code, out, _ = run(capsys, *argv)
        assert (code, out) == fresh_run(*argv), argv
        outputs.append(out)
    # the second hasse call draws B alone, not A and B
    assert "[3]" in outputs[0] and "[3]" not in outputs[1]
    assert outputs[2] == "false\n"
    # the second cover call has no --n, so the first one's 2 does not leak
    assert json.loads(outputs[3]) == [[0, 0], [2, 2]]
    assert json.loads(outputs[4]) == [[0, 0]]

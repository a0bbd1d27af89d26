import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superdenom
from superdenom.cli import COMMANDS, canonical_json, main, parse_args, run

GOLDEN = Path(__file__).parent / "golden"


def _run_main(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_build_text(capsys):
    code, out, err = _run_main(capsys, ["build", "--family", "GL",
                                        "--m", "2", "--n", "1"])
    assert code == 0
    assert "gl(2|1)" in out and "defect 1" in out


def test_verify_gl_2_2(capsys):
    code, out, _ = _run_main(capsys, ["verify", "--family", "GL",
                                      "--m", "2", "--n", "2",
                                      "--height", "4"])
    assert code == 0
    assert "equal" in out and "NOT EQUAL" not in out


def test_verify_variants_d21(capsys):
    code, out, _ = _run_main(capsys, ["verify", "--family", "D",
                                      "--m", "2", "--n", "1",
                                      "--height", "4"])
    assert code == 0
    # second_class gives step3_prime's pair on D(m,1) and is checked once
    for variant in ("step2", "step3", "step3_prime"):
        assert "[%s]" % variant in out
    assert "second_class" not in out


def test_diagram_two_classes(capsys):
    code, out, _ = _run_main(capsys, ["diagram", "--family", "D",
                                      "--m", "2", "--n", "1"])
    assert code == 0
    assert "2 equivalence classes" in out


def test_diagram_one_class(capsys):
    code, out, _ = _run_main(capsys, ["diagram", "--family", "GL",
                                      "--m", "2", "--n", "2"])
    assert code == 0
    assert "1 equivalence class" in out


def test_qn_line(capsys):
    code, out, _ = _run_main(capsys, ["qn", "--n", "4", "--height", "5"])
    assert code == 0
    assert "|a(S)| = 2, identity verified" in out


def test_qn_reaches_q10(capsys):
    code, out, _ = _run_main(capsys, ["qn", "--n", "10", "--height", "6"])
    assert code == 0
    assert out == "q(10): |a(S)| = 120, identity verified\n"


def test_qn_cap_exits_3_before_enumerating(capsys, monkeypatch):
    from superdenom import identity

    def refused(*args):
        raise AssertionError("matchings enumerated past the cap")

    monkeypatch.setattr(identity, "_matchings", refused)
    code, out, err = _run_main(capsys, ["qn", "--n", "16", "--height", "2"])
    assert code == 3 and out == ""
    assert err == ("resource limit: q(16) with |S| = 8 has 2027025 "
                   "(matching, fill) pairs, over the cap 1000000\n")


def test_orbits(capsys):
    code, out, _ = _run_main(capsys, ["orbits", "--family", "GL",
                                      "--m", "2", "--n", "1",
                                      "--height", "8"])
    assert code == 0
    assert "1 regular orbit" in out


def test_orbits_cap_exits_3_before_enumerating(capsys, monkeypatch):
    from superdenom import identity

    def refused(*args):
        raise AssertionError("box keys enumerated past the cap")

    monkeypatch.setattr(identity, "_keys_up_to", refused)
    code, out, err = _run_main(capsys, ["orbits", "--family", "GL",
                                        "--m", "3", "--n", "3",
                                        "--height", "60"])
    assert code == 3 and out == ""
    assert err == ("resource limit: the height-60 box of gl(3|3) has "
                   "8259888 keys, over the cap 1000000\n")


def test_pairs_lists_diagrams(capsys):
    code, out, _ = _run_main(capsys, ["pairs", "--family", "GL",
                                      "--m", "2", "--n", "1"])
    assert code == 0
    assert "4 admissible pairs" in out


def test_json_round_trip(capsys):
    code, out, _ = _run_main(capsys, ["verify", "--family", "B",
                                      "--m", "1", "--n", "1",
                                      "--height", "4",
                                      "--output", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "superdenom/1"
    assert payload["result"]["equal"] is True
    # canonical serialization is byte identical after a parse cycle
    assert canonical_json(payload) == out.strip()


def test_usage_errors_exit_2(capsys):
    code, _, err = _run_main(capsys, ["build", "--family", "C",
                                      "--m", "1", "--n", "1"])
    assert code == 2
    assert "error" in err
    code, _, err = _run_main(capsys, ["verify", "--family", "Q",
                                      "--m", "3", "--n", "3"])
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["--family", "GL", "--m", "2", "--n", "1", "--variant", "second_class"],
     "the second class exists only for D with m > n >= 1"),
    (["--family", "B", "--m", "2", "--n", "1", "--variant", "step3_prime"],
     "step3_prime needs D with m > n >= 1"),
    (["--family", "D", "--m", "1", "--n", "0"],
     "no simple system for D with a single eps"),
    (["--family", "Q", "--n", "3"],
     "Q(n) has no admissible pairs; use the qn helpers"),
])
def test_unavailable_standard_pairs_exit_2(capsys, argv, message):
    code, out, err = _run_main(capsys, ["verify"] + argv)
    assert code == 2
    assert out == "" and err == "error: %s\n" % message


@pytest.mark.parametrize("argv, label", [
    (["--family", "GL", "--m", "2", "--n", "1"], "gl(2|1)"),
    (["--family", "C", "--n", "2"], "C(2)"),
])
def test_step3_on_gl_and_c_is_refused(capsys, argv, label):
    code, out, err = _run_main(capsys, ["verify"] + argv + [
        "--variant", "step3", "--height", "4"])
    assert code == 2
    assert out == "" and err == (
        "error: step3 is the step2 pair on %s; use --variant step2\n" % label)
    code, out, _ = _run_main(capsys, ["verify"] + argv + [
        "--variant", "step2", "--height", "4"])
    assert code == 0 and out.startswith("%s [step2] H=4: equal" % label)


def test_resource_cap_exit_3(capsys):
    code, _, err = _run_main(capsys, ["pairs", "--family", "GL",
                                      "--m", "3", "--n", "2",
                                      "--cap", "2"])
    assert code == 3
    assert "resource" in err


def test_run_config_direct():
    code, payload, lines = run(parse_args(["qn", "--n", "3"]))
    assert code == 0
    assert payload["a"] == -1
    assert lines and lines[0].startswith("q(3)")


@pytest.mark.parametrize("argv, message", [
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    ([], "the following arguments are required: command"),
    (["build", "--family", "GL", "--bogus", "1"],
     "unrecognized arguments: --bogus"),
    (["build", "--family", "GL", "stray"], "unrecognized arguments: stray"),
    (["verify", "--family", "GL", "--h", "3"],
     "ambiguous option: --h could match --height, --help"),
    (["build", "--m", "2"], "the following arguments are required: --family"),
    (["qn", "--height", "3"], "the following arguments are required: --n"),
    (["build", "--family", "GL", "--m", "two"],
     "argument --m: invalid int value: 'two'"),
    (["verify", "--family", "GL", "--variant", "step4"],
     "argument --variant: invalid choice: 'step4'"),
    (["build", "--family"], "argument --family: expected one argument"),
    (["build", "--family", "GL", "--m", "--n", "1"],
     "argument --m: expected one argument"),
])
def test_bad_command_line_exits_2(capsys, argv, message):
    code, out, err = _run_main(capsys, argv)
    assert code == 2 and out == ""
    assert "error: " + message in err and "Traceback" not in err


def _child_env():
    # the child does not see pytest's pythonpath; point it at this package
    src = os.path.dirname(os.path.dirname(superdenom.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


# the console script's target, called as the generated script calls it
_SCRIPT = ("import sys\nsys.argv = %r\n"
           "from superdenom.cli import entry\nentry()")


def _run_child(argv, script=False):
    """`python -m superdenom ARGV`, or with script the `superdenom` script's
    target on ARGV, in a child: (exit code, stdout, stderr)."""
    cmd = ["-c", _SCRIPT % (["superdenom", *argv],)] if script \
        else ["-m", "superdenom", *argv]
    proc = subprocess.run([sys.executable, *cmd], capture_output=True,
                          text=True, env=_child_env())
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("argv, message", [
    (["verify", "--fam", "GL", "--height", "x"],
     "error: argument --height: invalid int value: 'x'"),
    (["build", "--family", "GL", "--bogus", "1"],
     "error: unrecognized arguments: --bogus"),
    (["verify", "--family", "GL", "--height", "-1"],
     "error: height must be >= 0, got -1"),
], ids=["bad-int", "bad-flag", "negative-height"])
def test_bad_command_line_in_a_child_exits_2(capsys, argv, message):
    code, out, err = _run_child(argv)
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err
    assert (code, out, err) == _run_main(capsys, argv)


def test_prefixes_equals_repeats_and_negative_ints_parse():
    args = parse_args(["verify", "--fam", "GL", "--height=5", "--m", "2",
                       "--m=3", "--n", "-1"])
    assert (args.command, args.family, args.height, args.m, args.n) \
        == ("verify", "GL", 5, 3, -1)
    assert args.variant is None and args.sharp is None
    assert args.output == "text"


@pytest.mark.parametrize("argv", [["-h"], ["--help"]] + [
    [command, flag] for command in COMMANDS for flag in ("-h", "--help")])
def test_help_exits_0(capsys, argv):
    code, out, err = _run_main(capsys, argv)
    assert code == 0 and err == ""
    assert out.startswith("usage: superdenom")
    if len(argv) > 1:
        assert COMMANDS[argv[0]][0] in out


_TEXT = st.text(st.one_of(st.sampled_from('⌢⌣"\\/\x00\n\t\x1f\x7f\U0001d11e'),
                          st.characters()), max_size=8)
_PAYLOADS = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=20)


@settings(deadline=None, max_examples=300)
@given(_PAYLOADS)
def test_canonical_json_is_json_dumps(payload):
    assert canonical_json(payload) == json.dumps(
        payload, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("argv", [
    ["build", "--family", "B", "--m", "2", "--n", "1"],
    ["build", "--family", "GL", "--m", "2", "--n", "1", "--output", "json"],
    ["pairs", "--family", "GL", "--m", "2", "--n", "2", "--output", "json"],
    ["verify", "--family", "GL", "--m", "2", "--n", "1", "--output", "json"],
    ["pairs", "--family", "GL", "--m", "3", "--n", "2", "--cap", "0"],
], ids=["build-text", "build-json", "pairs-json", "verify-json", "cap-0"])
def test_console_entry_point(capsys, argv):
    def comparable(out):
        # a verify report's timings differ from run to run
        if argv[0] != "verify":
            return out
        return canonical_json(_timing_free(json.loads(out)))
    code, out, err = _run_main(capsys, argv)
    assert code in (0, 3) and ("resource limit: " in err) == (code == 3)
    for script in (False, True):
        got_code, got_out, got_err = _run_child(argv, script)
        assert (got_code, got_err) == (code, err)
        assert comparable(got_out) == comparable(out)


@pytest.mark.parametrize("argv", [
    ["pairs", "--family", "GL", "--m", "4", "--n", "4", "--output", "json"],
    ["verify", "--family", "GL", "--m", "2", "--n", "1"],
], ids=["json", "text"])
def test_a_reader_that_leaves_early_gets_exit_141(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)    # the child's first write finds no reader
    try:
        proc = subprocess.Popen([sys.executable, "-m", "superdenom", *argv],
                                stdout=write_end, stderr=subprocess.PIPE,
                                env=_child_env())
    finally:
        os.close(write_end)
    _, err = proc.communicate()
    assert (proc.returncode, err) == (141, b"")


@pytest.mark.parametrize("m", [2, 3])
def test_verify_gl_m_0(capsys, m):
    code, out, err = _run_main(capsys, ["verify", "--family", "GL",
                                        "--m", str(m), "--n", "0",
                                        "--height", "6"])
    assert code == 0, err
    assert "gl(%d|0) [step2] H=6: equal" % m in out


def test_verify_d_m_0_default_variants(capsys):
    code, out, err = _run_main(capsys, ["verify", "--family", "D",
                                        "--m", "3", "--n", "0",
                                        "--height", "6"])
    assert code == 0, err
    # step3 gives the step2 pair when n = 0 and is checked once
    assert "[step2]" in out and "[step3]" not in out
    assert "step3_prime" not in out and "second_class" not in out


@pytest.mark.parametrize("argv", [
    ["verify", "--family", "GL", "--m", "2", "--n", "1"],
    ["qn", "--n", "3"],
    ["orbits", "--family", "GL", "--m", "2", "--n", "1"],
])
def test_negative_height_exits_2(capsys, argv):
    code, out, err = _run_main(capsys, argv + ["--height", "-3"])
    assert code == 2
    assert out == "" and "height" in err
    code, out, _ = _run_main(capsys, argv + ["--height", "0"])
    assert code == 0 and out


@pytest.mark.parametrize("command", ["pairs", "diagram"])
def test_negative_cap_exits_2(capsys, command):
    argv = [command, "--family", "GL", "--m", "1", "--n", "1"]
    code, out, err = _run_main(capsys, argv + ["--cap", "-5"])
    assert code == 2
    assert out == "" and "cap" in err and "resource" not in err
    code, out, err = _run_main(capsys, argv + ["--cap", "0"])
    assert code == 3
    assert out == "" and "resource" in err


def _timing_free(value):
    if isinstance(value, dict):
        return {k: _timing_free(v) for k, v in value.items() if k != "timings"}
    if isinstance(value, list):
        return [_timing_free(v) for v in value]
    return value


@pytest.mark.parametrize("name, argv", [
    ("verify_gl_2_1", ["verify", "--family", "GL", "--m", "2", "--n", "1"]),
    ("verify_b_1_1", ["verify", "--family", "B", "--m", "1", "--n", "1"]),
    ("verify_c_2", ["verify", "--family", "C", "--n", "2"]),
    ("verify_d_2_1", ["verify", "--family", "D", "--m", "2", "--n", "1"]),
    ("qn_3", ["qn", "--n", "3"]),
    ("build_b_4_3", ["build", "--family", "B", "--m", "4", "--n", "3"]),
    ("build_d_4_2", ["build", "--family", "D", "--m", "4", "--n", "2"]),
    ("build_c_5", ["build", "--family", "C", "--n", "5"]),
    ("build_q_7", ["build", "--family", "Q", "--n", "7"]),
    ("orbits_c_3_h12",
     ["orbits", "--family", "C", "--n", "3", "--height", "12"]),
    ("pairs_gl_2_2", ["pairs", "--family", "GL", "--m", "2", "--n", "2"]),
])
def test_json_output_matches_golden(capsys, name, argv):
    code, out, _ = _run_main(capsys, argv + ["--output", "json"])
    assert code == 0
    got = canonical_json(_timing_free(json.loads(out)))
    assert got == (GOLDEN / (name + ".json")).read_text().strip()

"""Command-line behaviour: outputs, exit codes, schemas."""

import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import jsonschema
import pytest

from mjones import cli, spin_sim
from mjones.anyon_core import MAX_PAIRS

from mjones.cli import (
    EXIT_CAPACITY,
    EXIT_DISAGREE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    JONES_REPORT_SCHEMA,
    VERIFY_REPORT_SCHEMA,
    build_parser,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_jones_all_backends_agree(capsys):
    code, out, _ = run(capsys, "jones", "s1 s1", "--backend", "all")
    assert code == EXIT_OK
    assert "agreement: yes" in out


def test_jones_borromean_magnitude(capsys):
    code, out, _ = run(capsys, "jones", "s1 s2^-1 s1 s2^-1 s1 s2^-1", "--backend", "all")
    assert code == EXIT_OK
    assert "|V| = 2.000000000" in out


def test_jones_unknot_everywhere_one(capsys):
    code, out, _ = run(capsys, "jones", "s1", "--backend", "all")
    assert code == EXIT_OK
    assert out.count("1.000000000") >= 3


def test_jones_csv_columns(capsys):
    code, out, _ = run(capsys, "jones", "s1 s1 s1", "--output", "csv")
    assert code == EXIT_OK
    header, row = out.strip().splitlines()
    assert header.split(",")[:4] == ["word", "writhe", "components", "proper"]
    fields = row.split(",")
    assert fields[0] == '"s1 s1 s1"'
    assert fields[1] == "3"
    assert float(fields[4]) == pytest.approx(-1.0)   # V_anyon_re
    assert fields[-1] == "true"


def test_jones_json_schema_and_stability(capsys):
    code, out1, _ = run(capsys, "jones", "s1 s1 s1 s1", "--output", "json")
    assert code == EXIT_OK
    code, out2, _ = run(capsys, "jones", "s1 s1 s1 s1", "--output", "json")
    doc1, doc2 = json.loads(out1), json.loads(out2)
    jsonschema.validate(doc1, JONES_REPORT_SCHEMA)
    # byte-stable comparison payload; timing may differ
    assert json.dumps(doc1["payload"], sort_keys=True) == json.dumps(doc2["payload"], sort_keys=True)
    assert doc1["payload"]["backends"]["anyon"]["V_re"] == pytest.approx(-math.sqrt(2))


# sha256 of json.dumps(payload, sort_keys=True) for the README's sample words
# under --backend all: a change to any digit of any value shows here
PAYLOAD_SHA256 = {
    "s1": "5cb39e1a0ea93805d3ef9a10e3547f7da693da4aa6b8f5e51d9f33044d00bee8",
    "s1 s1": "3970a5025c20fa4b09eed9e0226a85326ac6dc18ee479f5f546ec7c576fe1da3",
    "s1 s1 s1": "1974b47ca0462bc6b71391c73d2ed84bb46c4f528e1dded982ffa32135102e46",
    "s1 s1 s1 s1": "3baafea4ee42e852f7dd0043e47c1446a73e01c7bb7a8663fc6ee3c161e8227c",
    "s1 s2^-1 s1 s2^-1": "f9f2de63550b80323213c37ad25058f8773fe2e2478bcc1809254d4fb3c23a64",
    "s1 s2^-1 s1 s2^-1 s1 s2^-1":
        "6deddbede5838f2026befcbbaabd1bc4db466bf654bb92e86d2cd77b79b75a09",
}


def test_sample_word_payloads_are_pinned(capsys):
    changed = []
    for word, digest in PAYLOAD_SHA256.items():
        code, out, _ = run(capsys, "jones", word, "--backend", "all", "--output", "json")
        assert code == EXIT_OK, word
        payload = json.dumps(json.loads(out)["payload"], sort_keys=True)
        if hashlib.sha256(payload.encode()).hexdigest() != digest:
            changed.append(word)
    assert not changed, f"payload changed for {changed}"


def test_jones_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "jones", "s1 sbad")
    assert code == EXIT_PARSE
    assert "token 2" in err


def test_jones_capacity_exit_3(capsys):
    code, _, err = run(capsys, "jones", f"strands={MAX_PAIRS + 1} s1", "--backend", "anyon")
    assert code == EXIT_CAPACITY
    assert f"capped at {MAX_PAIRS} pairs" in err
    code, _, err = run(capsys, "jones", " ".join(["s1 s2^-1"] * 1000), "--backend", "kauffman")
    assert code == EXIT_CAPACITY
    assert "2000 crossings on 3 strands" in err and "work bound" in err


def test_jones_anyon_beyond_three_pairs(capsys):
    code, out, _ = run(capsys, "jones", "s3 s3", "--backend", "anyon", "--output", "json")
    assert code == EXIT_OK
    anyon = json.loads(out)["payload"]["backends"]["anyon"]
    assert anyon["V_abs"] == pytest.approx(0.0, abs=1e-12)


def test_jones_all_skips_unsupported_spin(capsys):
    code, out, _ = run(capsys, "jones", "strands=4 s1 s1 s1", "--pairs", "4", "--backend", "all")
    # spin cannot host four strands; anyon and the oracle still answer
    assert code == EXIT_OK
    assert "spin      skipped" in out
    assert "anyon/kauffman" in out


def test_jones_four_strands_compares_anyon_with_the_oracle(capsys):
    code, out, _ = run(capsys, "jones", "strands=4 s1 s2 s3", "--backend", "all",
                       "--output", "json")
    assert code == EXIT_OK
    comparisons = json.loads(out)["payload"]["agreement"]["comparisons"]
    signed = [c for c in comparisons if c["pair"] == "anyon/kauffman"]
    assert signed and signed[0]["kind"] == "signed" and signed[0]["within"]


def test_jones_pairs_below_strands_rejected(capsys):
    code, _, err = run(capsys, "jones", "s1 s2^-1", "--pairs", "2")
    assert code == EXIT_CAPACITY


@pytest.mark.parametrize("pairs", ["0", "-2"])
def test_jones_non_positive_pairs_is_a_parse_error(capsys, pairs):
    code, _, err = run(capsys, "jones", "s1", "--pairs", pairs)
    assert code == EXIT_PARSE
    assert "pairs must be a positive count" in err


def test_jones_empty_word(capsys):
    code, out, _ = run(capsys, "jones", "strands=3", "--backend", "kauffman")
    assert code == EXIT_OK
    assert "|V| = 2.000000000" in out


def test_jones_wide_unlink_agrees_with_arf(capsys):
    # V(i) = sqrt(2)^29 ~ 2.3e4: the oracle must not lose the 1e-8 tolerance
    # to floating-point cancellation between large coefficients
    code, out, _ = run(capsys, "jones", "strands=30", "--backend", "kauffman")
    assert code == EXIT_OK
    assert "arf/kauffman" in out


@pytest.mark.parametrize("tau", ["1000", "inf"])
def test_jones_huge_tau_is_the_exact_projection(capsys, tau):
    code, out, _ = run(capsys, "jones", "s1 s1 s1", "--tau", tau)
    assert code == EXIT_OK
    assert "agreement: yes" in out


def test_jones_json_with_infinite_tau_is_strict_json(capsys):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    code, out, _ = run(capsys, "jones", "s1 s1 s1", "--tau", "inf", "--output", "json")
    assert code == EXIT_OK
    assert json.loads(out, parse_constant=reject)["payload"]["config"]["tau"] == "inf"


@pytest.mark.parametrize("flag, value", [
    ("--tau", "nan"), ("--tolerance", "nan"), ("--tolerance", "inf"),
])
def test_jones_rejects_nan_and_unbounded_flags(capsys, flag, value):
    code, _, err = run(capsys, "jones", "s1 s1 s1", flag, value)
    assert code == EXIT_PARSE
    assert flag.lstrip("-") in err


def test_flipped_arf_bit_is_a_disagreement(capsys, monkeypatch):
    # every proper link joins the arf/kauffman comparison, and a wrong sign
    # there is reported
    code, out, _ = run(capsys, "jones", "s1 s1 s1 s1 s1")
    assert code == EXIT_OK
    assert "arf/kauffman" in out
    arf_invariant = cli.arf_invariant
    monkeypatch.setattr(cli, "arf_invariant", lambda inv, form: 1 - arf_invariant(inv, form))
    code, out, _ = run(capsys, "jones", "s1 s1 s1 s1 s1")
    assert code == EXIT_DISAGREE
    assert "DISAGREE" in out


@pytest.mark.parametrize("command", ["jones", "braid-info"])
def test_link_table_option_is_unknown(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "s1 s1 s1", "--link-table", "links.json"])
    assert exc.value.code == EXIT_PARSE
    assert "unrecognized arguments: --link-table" in capsys.readouterr().err


@pytest.mark.parametrize("word", ["strands=60", "strands=500", "strands=81 s1 s1 s1 s1 s1"])
def test_jones_wide_words_agree_relative_to_their_size(capsys, word):
    # |V(i)| = sqrt(2)^(m-1); a delta of one part in 1e15 of that is agreement
    code, out, _ = run(capsys, "jones", word, "--backend", "kauffman")
    assert code == EXIT_OK
    assert "arf/kauffman" in out and "agreement: yes" in out


@pytest.mark.parametrize("argv", [
    ["braid-info", "strands=2049"],
    ["braid-info", "strands=3000"],
    ["jones", "strands=3000", "--backend", "kauffman"],
    ["jones", "s1", "--pairs", "1000000000000"],
])
def test_more_strands_than_a_double_holds_is_capacity(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CAPACITY
    assert out == "" and "up to 2048 strands" in err


def test_braid_info_wide_unlink_inside_the_cap(capsys):
    code, out, _ = run(capsys, "braid-info", "strands=1500")
    assert code == EXIT_OK
    assert "arf: 0" in out


def test_braid_info_hopf(capsys):
    code, out, _ = run(capsys, "braid-info", "s1 s1")
    assert code == EXIT_OK
    assert "proper: False" in out
    assert "V(i) = 0" in out


def test_braid_info_solomon(capsys):
    code, out, _ = run(capsys, "braid-info", "s1 s1 s1 s1")
    assert code == EXIT_OK
    assert "[0, 2]" in out
    assert "arf: 1" in out
    assert "-1.414214" in out


def test_braid_info_cinquefoil(capsys):
    code, out, _ = run(capsys, "braid-info", "s1 s1 s1 s1 s1")
    assert code == EXIT_OK
    assert "arf: 1" in out
    assert "-1.000000" in out


def test_braid_info_unlink(capsys):
    code, out, _ = run(capsys, "braid-info", "strands=3")
    assert code == EXIT_OK
    assert "components: 3" in out
    assert "+2.000000" in out


def test_braid_info_parse_error(capsys):
    code, _, err = run(capsys, "braid-info", "nope")
    assert code == EXIT_PARSE


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "--output", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    jsonschema.validate(doc, VERIFY_REPORT_SCHEMA)
    assert all(entry["passed"] for entry in doc["payload"]["checks"])
    chi = doc["payload"]["artifacts"]["chi_mid_exchange_logical"]
    assert chi["labels"][0] == "II"
    assert chi["entries"][0][0] == pytest.approx([0.5, 0.0], abs=1e-12)


@pytest.mark.parametrize("tau", ["nan", "-1"])
def test_verify_rejects_invalid_tau(capsys, tau):
    code, out, err = run(capsys, "verify", "--tau", tau)
    assert code == EXIT_PARSE
    assert out == "" and "tau must be positive" in err


def test_verify_infinite_tau_is_the_exact_projection(capsys):
    code, out, _ = run(capsys, "verify", "--tau", "inf")
    assert code == EXIT_OK
    assert "9/9 checks passed" in out


def test_verify_weak_projection_fails(capsys):
    # lowering tau leaves visible excited residue: the replay checks must
    # fail, demonstrating the tolerances are actually doing work
    code, out, _ = run(capsys, "verify", "--tau", "1.0")
    assert code == EXIT_DISAGREE
    assert "FAIL" in out
    assert "protocol-intermediate-states" in out



# --- one parser per process ----------------------------------------------

def _without_timing(out):
    """Output with wall-clock numbers removed: the JSON ``timing`` key and
    every "<number> ms" / "<number> s" in the text."""
    try:
        doc = json.loads(out)
    except ValueError:
        pass
    else:
        doc.pop("timing", None)
        out = json.dumps(doc, sort_keys=True)
    return re.sub(r"\d+(?:\.\d+)? m?s\b", "<time>", out)


def _call(capsys, dispatch, argv):
    try:
        code = dispatch(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, _without_timing(captured.out), captured.err


def _fresh(argv):
    """Dispatch through a newly built parser."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


# (argv, exit code) calls made in order through one process's ``main``
LEAK_SEQUENCES = {
    "pairs": [(["jones", "s1", "--pairs", "3", "--output", "json"], EXIT_OK),
              (["jones", "s1", "--output", "json"], EXIT_OK)],
    "tau-then-verify": [(["jones", "s1 s1", "--tau", "5", "--tolerance", "1e-6",
                          "--backend", "spin"], EXIT_OK),
                        (["verify"], EXIT_OK)],
    "errors-then-valid": [(["jones", "s1", "--tau", "nan"], EXIT_PARSE),
                          (["jones", "s1", "--bogus"], EXIT_PARSE),
                          (["jones", "s1 s2^-1 s1 s2^-1", "--output", "csv"], EXIT_OK),
                          (["braid-info", "s1 s1"], EXIT_OK)],
}


@pytest.mark.parametrize("name", sorted(LEAK_SEQUENCES))
def test_each_main_call_matches_a_fresh_parser(capsys, name):
    for argv, code in LEAK_SEQUENCES[name]:
        reused = _call(capsys, main, argv)
        assert reused[0] == code, argv
        assert reused == _call(capsys, _fresh, argv), argv


def test_no_flag_leaks_into_the_next_jones_call(capsys):
    code, _, _ = run(capsys, "jones", "s1", "--backend", "anyon", "--pairs", "3",
                     "--tau", "5", "--tolerance", "1e-6", "--output", "json")
    assert code == EXIT_OK
    code, out, _ = run(capsys, "jones", "s1", "--output", "json")
    assert code == EXIT_OK
    payload = json.loads(out)["payload"]
    assert payload["strands"] == 2    # the word's own strand count, not 3
    assert payload["config"] == {"backend": "all", "pairs": 2,
                                 "tau": spin_sim.DEFAULT_TAU, "tolerance": 1e-8}


def test_verify_after_jones_tau_uses_the_default(capsys, monkeypatch):
    seen = []
    run_all = cli.verify_mod.run_all

    def spy(tau, **kwargs):
        seen.append(tau)
        return run_all(tau=tau, **kwargs)

    monkeypatch.setattr(cli.verify_mod, "run_all", spy)
    assert run(capsys, "jones", "s1", "--tau", "5", "--backend", "spin")[0] == EXIT_OK
    assert run(capsys, "verify")[0] == EXIT_OK
    assert seen == [spin_sim.DEFAULT_TAU]


def test_verify_extracts_each_braid_matrix_once_per_run(capsys, monkeypatch):
    extracted = []
    extract = spin_sim.extract_braid_matrix

    def counting(name, tau):
        extracted.append((name, tau))
        return extract(name, tau)

    monkeypatch.setattr(spin_sim, "extract_braid_matrix", counting)
    code, first, _ = run(capsys, "verify", "--output", "json")
    assert code == EXIT_OK
    assert sorted(extracted) == sorted((name, spin_sim.DEFAULT_TAU)
                                       for name in spin_sim.BRAID_NAMES)
    # nothing is kept between runs: a second run extracts all four again
    code, second, _ = run(capsys, "verify", "--output", "json")
    assert code == EXIT_OK and len(extracted) == 8
    assert json.loads(first)["payload"]["artifacts"] == json.loads(second)["payload"]["artifacts"]


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    built = []

    def counting():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    for argv in (["jones", "s1"], ["braid-info", "s1 s1"], ["jones", "s1 s1", "--pairs", "3"],
                 ["jones", "s1", "--tau", "nan"]):
        main(argv)
    capsys.readouterr()
    assert len(built) == 1
    assert build_parser() is not build_parser()


def test_internal_error_exits_4(capsys, monkeypatch):
    def crash(word, tau):
        raise RuntimeError("boom")

    monkeypatch.setattr(spin_sim, "jones_spin_abs", crash)
    code, out, err = run(capsys, "jones", "s1", "--backend", "spin")
    assert code == EXIT_INTERNAL
    assert out == "" and "Traceback" in err
    assert err.splitlines()[-1] == "internal error: RuntimeError: boom"


# --- a reader that closes the pipe early ------------------------------------

class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize("argv, code", [
    (["jones", "s1 s1 s1", "--output", "json"], EXIT_OK),
    (["braid-info", "s1 s1"], EXIT_OK),
    (["verify", "--tau", "1.0"], EXIT_DISAGREE),
])
def test_broken_pipe_returns_the_computed_status(capsys, monkeypatch, argv, code):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(argv) == code
    monkeypatch.undo()
    assert capsys.readouterr().err == ""


def test_verify_into_a_closed_pipe_exits_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(pathlib.Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from mjones.cli import main; sys.exit(main())",
             "verify", "--output", "json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_OK
    assert proc.stderr == b""

"""Command-line behaviour: outputs, exit codes, schemas."""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import mjones
from mjones import cli, spin_sim, verify
from mjones.anyon_core import MAX_PAIRS

from mjones.cli import (
    EXIT_CAPACITY,
    EXIT_DISAGREE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    build_parser,
    main,
)

# the JSON reports' schemas, which the schema tests validate against
_BACKEND_ENTRY = {
    "type": "object",
    "oneOf": [
        {"required": ["skipped"], "properties": {"skipped": {"type": "string"}},
         "additionalProperties": False},
        {"required": ["V_abs"],
         "properties": {
             "V_re": {"type": "number"}, "V_im": {"type": "number"},
             "V_abs": {"type": "number"}, "V_abs_majorana": {"type": "number"},
             "polynomial": {"type": "string"},
             "method": {"enum": ["tableau", "replay"]}},
         "additionalProperties": False},
    ],
}

JONES_REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["payload", "timing"],
    "properties": {
        "payload": {
            "type": "object",
            "required": ["word", "strands", "config", "invariants", "backends", "agreement"],
            "properties": {
                "word": {"type": "string"},
                "strands": {"type": "integer", "minimum": 1},
                "config": {"type": "object"},
                "invariants": {
                    "type": "object",
                    "required": ["writhe", "components", "linking", "proper"],
                    "properties": {
                        "writhe": {"type": "integer"},
                        "components": {"type": "integer", "minimum": 1},
                        "linking": {"type": "array",
                                    "items": {"type": "array", "items": {"type": "integer"},
                                              "minItems": 3, "maxItems": 3}},
                        "proper": {"type": "boolean"},
                        "arf": {"type": ["integer", "null"]},
                        "jones_from_arf": {"type": "number"},
                    },
                },
                "backends": {"type": "object",
                             "additionalProperties": _BACKEND_ENTRY},
                "agreement": {
                    "type": "object",
                    "required": ["agree", "comparisons"],
                    "properties": {
                        "agree": {"type": "boolean"},
                        "comparisons": {
                            "type": "array",
                            "items": {
                                "type": "object",
                                "required": ["pair", "kind", "delta", "within"],
                            },
                        },
                    },
                },
            },
        },
        "timing": {"type": "object", "additionalProperties": {"type": "number"}},
    },
}

_COMPLEX_MATRIX = {
    "type": "object",
    "required": ["entries"],
    "properties": {
        "entries": {
            "type": "array",
            "items": {"type": "array",
                      "items": {"type": "array", "items": {"type": "number"},
                                "minItems": 2, "maxItems": 2}},
        },
        "labels": {"type": "array", "items": {"type": "string"}},
    },
}

VERIFY_REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["payload", "timing"],
    "properties": {
        "payload": {
            "type": "object",
            "required": ["checks", "artifacts"],
            "properties": {
                "checks": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["name", "passed", "detail"],
                        "properties": {
                            "name": {"type": "string"},
                            "passed": {"type": "boolean"},
                            "detail": {"type": "string"},
                        },
                    },
                },
                "artifacts": {"type": "object",
                              "additionalProperties": _COMPLEX_MATRIX},
            },
        },
        "timing": {"type": "object", "additionalProperties": {"type": "number"}},
    },
}


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
    "s1": "bd6f6d16574d564b1dfade9c4ccacd583e40807d4f50343fd85a02110f63a976",
    "s1 s1": "218181ee893e918c0dfd5e94f5feb1776470b464e46d46b497001c83de9b656c",
    "s1 s1 s1": "7c1b9ce50e831df84579d99c42323d76d7c73274b7516ceeb4999106213b243f",
    "s1 s1 s1 s1": "553869272f0f21691ded26870fafcd58aefffae61b784ba365c5154be3269e10",
    "s1 s2^-1 s1 s2^-1": "4d53c1703e5cd954d9058cc11eb0df149c82e8acf31b29b19e700e57582dfb11",
    "s1 s2^-1 s1 s2^-1 s1 s2^-1":
        "2be5f9352a402f9584f3ee9fd9bdcfc13e182e1ac23c0d4719e59e46c3c6fd53",
}


def test_sample_word_payloads_are_pinned(capsys):
    changed = []
    for word, digest in PAYLOAD_SHA256.items():
        code, out, _ = run(capsys, "jones", word, "--backend", "all", "--output", "json")
        assert code == EXIT_OK, word
        doc = json.loads(out)["payload"]
        # the tableau walk is exact: the spin value equals the bracket's |V|
        kauffman_spin = [c for c in doc["agreement"]["comparisons"]
                         if c["pair"] == "kauffman/spin"]
        assert [c["delta"] for c in kauffman_spin] == [0.0], word
        payload = json.dumps(doc, sort_keys=True)
        if hashlib.sha256(payload.encode()).hexdigest() != digest:
            changed.append(word)
    assert not changed, f"payload changed for {changed}"


# sha256 of json.dumps(payload, sort_keys=True) of ``verify --output json`` at
# the default tau: every check's detail string and both artifacts
VERIFY_PAYLOAD_SHA256 = "8e01012422a7657087aa46a9ed82c03a58b407eb95eab1a7582ce2299f723e81"


def test_verify_payload_is_pinned(capsys):
    code, out, _ = run(capsys, "verify", "--output", "json")
    assert code == EXIT_OK
    payload = json.dumps(json.loads(out)["payload"], sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == VERIFY_PAYLOAD_SHA256


# sha256 of the text and the CSV report of the same words under --backend all
# (the text report carries no timing)
TEXT_SHA256 = {
    "s1": "4cff23cd89426b0a0ab94130cbf36ee9db5951eb27de23b80f55c257d530c43e",
    "s1 s1": "925113a2e02b3670e0f817b6fc27f83fcefa634408491466b1b92085c9da6e6e",
    "s1 s1 s1": "f846b7e388c3768e81689798278ad90210d4b1f0da12a7f9d57280300ce39be5",
    "s1 s1 s1 s1": "1a48680f0aa02084b20db9a914eed39023105cdc20183d16f20b51142e446662",
    "s1 s2^-1 s1 s2^-1": "25422da5dffc746e80657b2d9c7032862a3f43f0e90f886cdca2c9594c34066a",
    "s1 s2^-1 s1 s2^-1 s1 s2^-1":
        "d000448a0c8796cc6dfb54dcb1ec45626149fe0b053218a131e220fa0f408671",
}
CSV_SHA256 = {
    "s1": "77ea2bea5a5fc9dafbdcc750b9c4a1e9abb2f6f2d8a8975389c979ce3620810f",
    "s1 s1": "e899f7dfc52d5bb15d96725b8ef5b61a55cd99b44e158e025fffe66609dc1367",
    "s1 s1 s1": "8a8c86d0fb788f0e258abfb22229f9cf1179a338f63058aa26e9e451b1362660",
    "s1 s1 s1 s1": "23b477c413048d241ad0c83add93c8be4803c167250bd26e18fda719c1d113f7",
    "s1 s2^-1 s1 s2^-1": "0b49376c810089bafef9bd00093e2f77d15d4a95997898521b6c7c41838f647b",
    "s1 s2^-1 s1 s2^-1 s1 s2^-1":
        "e8ee11891c2d87cc3d0e687e8b23fdfe41e7fdbb301b0458f6a18b9ba3ba6a9d",
}


@pytest.mark.parametrize("output", ["text", "csv"])
def test_sample_word_text_and_csv_are_pinned(capsys, output):
    changed = []
    for word, digest in {"text": TEXT_SHA256, "csv": CSV_SHA256}[output].items():
        code, out, _ = run(capsys, "jones", word, "--backend", "all", "--output", output)
        assert code == EXIT_OK, word
        if hashlib.sha256(out.encode()).hexdigest() != digest:
            changed.append(word)
    assert not changed, f"{output} report changed for {changed}"


LONG_PADDED = "strands=2048 " + " ".join(["s1 s2^-1"] * 350)


@pytest.mark.parametrize("argv", [
    ["s1 s1 s1", "--backend", "spin"],
    [LONG_PADDED],      # anyon, spin and kauffman all past their caps
], ids=["spin-alone", "every-backend-skipped"])
def test_nothing_compared_is_unchecked_not_agreement(capsys, argv):
    code, out, _ = run(capsys, "jones", *argv)
    assert code == EXIT_OK
    assert out.splitlines()[-1] == "agreement: unchecked (no two routes compared)"
    assert "delta" not in out


def test_nothing_compared_keeps_the_json_and_csv_form(capsys):
    # agree stays true, and the JSON comparison list is empty
    argv = ["jones", "s1 s1 s1", "--backend", "spin", "--output"]
    code, out, _ = run(capsys, *argv, "json")
    assert code == EXIT_OK
    assert json.loads(out)["payload"]["agreement"] == {"agree": True, "comparisons": []}
    code, out, _ = run(capsys, *argv, "csv")
    assert code == EXIT_OK and out.rstrip().endswith(",true")


@pytest.mark.parametrize("tau, method", [("20", "tableau"), ("18.36", "replay"),
                                         ("18.4", "tableau"), ("5", "replay")])
def test_the_report_names_the_spin_method(capsys, tau, method):
    code, out, _ = run(capsys, "jones", "s1 s1 s1", "--backend", "spin", "--tau", tau)
    assert code == EXIT_OK
    spin_line = next(line for line in out.splitlines() if line.startswith("spin"))
    assert spin_line.endswith(f"   ({method})")
    code, out, _ = run(capsys, "jones", "s1 s1 s1", "--backend", "spin", "--tau", tau,
                       "--output", "json")
    assert json.loads(out)["payload"]["backends"]["spin"]["method"] == method


def test_linking_lists_the_nonzero_pairs_only(capsys):
    code, out, _ = run(capsys, "jones", "s1 s1 s2 s2 s2 s2", "--backend", "kauffman",
                       "--output", "json")
    assert code == EXIT_OK
    assert json.loads(out)["payload"]["invariants"]["linking"] == [[0, 1, 1], [1, 2, 2]]
    code, out, _ = run(capsys, "braid-info", "s1 s1 s2 s2 s2 s2")
    assert "linking: [0, 1, 1]; [1, 2, 2]\n" in out
    code, out, _ = run(capsys, "braid-info", "s1 s2^-1 s1 s2^-1 s1 s2^-1")
    assert "linking: all zero\n" in out


def test_a_wide_report_stays_small(capsys):
    # 2048 components: the full linking matrix would be 4 M zeros
    code, out, _ = run(capsys, "jones", "strands=2048", "--backend", "kauffman",
                       "--output", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["payload"]["invariants"]["linking"] == []
    # the rest beside the bracket's exact polynomial (2048 coefficients of up
    # to 615 digits, about 0.9 MB) is under 1 kB
    del doc["payload"]["backends"]["kauffman"]["polynomial"]
    assert len(json.dumps(doc, indent=2)) < 1000


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
    code, out, err = run(capsys, "jones", "s1 s2 s3", "--backend", "spin")
    assert code == EXIT_CAPACITY and out == ""
    assert err == "capacity error: the ten-site register supports at most three strands\n"


def test_jones_anyon_beyond_three_pairs(capsys):
    code, out, _ = run(capsys, "jones", "s3 s3", "--backend", "anyon", "--output", "json")
    assert code == EXIT_OK
    anyon = json.loads(out)["payload"]["backends"]["anyon"]
    assert anyon["V_abs"] == pytest.approx(0.0, abs=1e-12)


def test_jones_all_skips_unsupported_spin(capsys):
    code, out, _ = run(capsys, "jones", "strands=4 s1 s1 s1", "--backend", "all")
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


@pytest.mark.parametrize("command, option", [
    ("jones", "--link-table"), ("braid-info", "--link-table"), ("jones", "--pairs"),
], ids=["jones", "braid-info", "jones-pairs"])
def test_link_table_option_is_unknown(capsys, command, option):
    with pytest.raises(SystemExit) as exc:
        main([command, "s1 s1 s1", option, "3"])
    assert exc.value.code == EXIT_PARSE
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


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
    ["jones", "strands=1000000000000 s1"],
    ["braid-info", "s1000000000000"],
    ["braid-info", "s100000000"],
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
    assert "linking: [0, 1, 2]\n" in out
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


@pytest.mark.parametrize("command", ["jones", "braid-info"])
@pytest.mark.parametrize("word, message", [
    ("s1 s2 s" + "1" * 5000, "token 3: generator index has 5000 digits"),
    ("strands=" + "9" * 5000, "token 1: strand count has 5000 digits"),
], ids=["generator", "strands"])
def test_a_number_past_the_digit_limit_is_a_parse_error(capsys, command, word, message):
    # more digits than int() converts: one stderr line naming the token, no traceback
    code, out, err = run(capsys, command, word)
    assert code == EXIT_PARSE and out == ""
    assert err == f"parse error: {message}\n"


@pytest.mark.parametrize("argv", [["jones", "strands=0 s1"], ["braid-info", "strands=0"]])
def test_a_zero_strand_count_is_a_parse_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_PARSE and out == ""
    assert err == "parse error: token 1: strand count must be positive\n"


def test_the_vector_replay_caps_three_strands(capsys):
    # tau = 1 selects the vector replay, whose own cap refuses four strands
    assert spin_sim.spin_method(1.0) == "replay"
    message = "the ten-site register supports at most three strands"
    code, out, err = run(capsys, "jones", "strands=4 s1", "--backend", "spin", "--tau", "1")
    assert code == EXIT_CAPACITY and out == ""
    assert err == f"capacity error: {message}\n"
    code, out, err = run(capsys, "jones", "strands=4 s1", "--backend", "all", "--tau", "1")
    assert code == EXIT_OK and err == ""
    assert f"spin      skipped: {message}" in out.splitlines()


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "--output", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    jsonschema.validate(doc, VERIFY_REPORT_SCHEMA)
    assert all(entry["passed"] for entry in doc["payload"]["checks"])
    chi = doc["payload"]["artifacts"]["chi_mid_exchange_logical"]
    assert chi["labels"][0] == "II"
    assert chi["entries"][0][0] == pytest.approx([0.5, 0.0], abs=1e-12)


def test_verify_json_payload_is_byte_stable(capsys):
    # measured times go to ``timing`` only; the payload repeats byte for byte
    payloads = []
    for _ in range(2):
        code, out, _ = run(capsys, "verify", "--output", "json")
        assert code == EXIT_OK
        payloads.append(json.dumps(json.loads(out)["payload"], sort_keys=True))
    assert payloads[0] == payloads[1]
    assert "time limit 100 ms" in payloads[0] and "time limit 5 s" in payloads[0]


@pytest.mark.parametrize("argv", [*[["jones", word, "--output", "json"] for word in PAYLOAD_SHA256],
                                  ["verify", "--output", "json"]],
                         ids=lambda argv: argv[1] if argv[0] == "jones" else "verify")
def test_json_report_is_one_line_with_sorted_keys(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


def test_json_report_from_the_module_entry_point(capsys):
    # ``python -m mjones.cli`` runs ``main()``, which reads sys.argv
    argv = ["jones", "s1 s1 s1", "--output", "json"]
    proc = subprocess.run([sys.executable, "-m", "mjones.cli", *argv], capture_output=True,
                          text=True, env=_fresh_env(), timeout=120)
    assert proc.returncode == EXIT_OK and proc.stderr == ""
    assert proc.stdout.count("\n") == 1
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert json.loads(proc.stdout)["payload"] == json.loads(out)["payload"]


def test_verify_text_shows_the_measured_time_against_the_limit(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == EXIT_OK
    assert re.search(r"anyon-golden-values .*\(tol 1e-9\), \d+\.\d ms \(limit 100 ms\)$",
                     out, re.M)
    assert re.search(r"jw-spectra .* pairs, \d+\.\d ms \(limit 5 s\)$", out, re.M)


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


@pytest.mark.parametrize("argv", [
    ["jones", "s1", "--tau", "1e-13"],
    ["jones", "s1 s1", "--tau", "1e-17", "--backend", "spin"],
    ["verify", "--tau", "1e-17"],
    ["verify", "--tau", "1e-17", "--output", "json"],
])
def test_tau_too_small_for_the_spin_replay_is_rejected(capsys, argv):
    # the cooling fold cancels the state outright: one line, no traceback
    code, out, err = run(capsys, *argv)
    assert code == EXIT_PARSE and out == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"parse error: tau={float(argv[argv.index('--tau') + 1])} "
                          "is too small for the spin replay: ")


def test_tau_too_small_is_rejected_on_every_sample_word(capsys):
    for word in PAYLOAD_SHA256:
        code, _, err = run(capsys, "jones", word, "--tau", "1e-13")
        assert code == EXIT_PARSE and "Traceback" not in err, word


@pytest.mark.parametrize("argv, code", [
    (["jones", "s1", "--tau", "1e-13", "--backend", "anyon"], EXIT_OK),
    (["jones", "s1", "--tau", "1e-9"], EXIT_DISAGREE),
])
def test_small_tau_the_replay_survives_keeps_its_status(capsys, argv, code):
    assert run(capsys, *argv)[0] == code



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
    """Dispatch through ``main`` on a newly built parser."""
    cli._parser = None
    return main(argv)


# (argv, exit code) calls made in order through one process's ``main``
LEAK_SEQUENCES = {
    "pairs": [(["jones", "strands=3 s1", "--output", "json"], EXIT_OK),
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
    code, _, _ = run(capsys, "jones", "strands=3 s1", "--backend", "anyon",
                     "--tau", "5", "--tolerance", "1e-6", "--output", "json")
    assert code == EXIT_OK
    code, out, _ = run(capsys, "jones", "s1", "--output", "json")
    assert code == EXIT_OK
    payload = json.loads(out)["payload"]
    assert payload["strands"] == 2    # the word's own strand count, not 3
    assert payload["config"] == {"backend": "all", "tau": spin_sim.DEFAULT_TAU,
                                 "tolerance": 1e-8}


def test_verify_after_jones_tau_uses_the_default(capsys, monkeypatch):
    seen = []
    run_all = verify.run_all

    def spy(matrices):
        seen.append(matrices.tau)
        return run_all(matrices)

    monkeypatch.setattr(verify, "run_all", spy)
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


def test_verify_replays_each_phi0_prefix_once_per_run(capsys, monkeypatch):
    # 32 replays extract the four generators; 11 more step phi0 through the
    # prefixes of the golden words and of the three checkpointed letters,
    # each after the ground-space check
    replays, checked = [], []
    states, check = spin_sim.braid_sequence_states, spin_sim.check_ground_space

    def counting(name, state, tau):
        replays.append(name)
        return states(name, state, tau)

    made = []
    braid_matrices = verify.BraidMatrices
    monkeypatch.setattr(spin_sim, "braid_sequence_states", counting)
    monkeypatch.setattr(spin_sim, "check_ground_space", lambda state: checked.append(check(state)))
    monkeypatch.setattr(verify, "BraidMatrices",
                        lambda tau: made.append(braid_matrices(tau)) or made[-1])
    code, first, _ = run(capsys, "verify", "--output", "json")
    assert code == EXIT_OK and len(replays) == len(checked) == 43
    # phi0 and the stage states of the 11 prefixes, 64 states of 16 KB
    kept = [state for stages in made[0]._stages.values() for state in stages]
    assert len(made[0]._stages) == 12 and sum(state.nbytes for state in kept) < 2 ** 21
    # nothing is kept between runs
    code, second, _ = run(capsys, "verify", "--output", "json")
    assert code == EXIT_OK and len(replays) == 86
    assert json.loads(first)["payload"] == json.loads(second)["payload"]


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    built = []

    def counting():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    for argv in (["jones", "s1"], ["braid-info", "s1 s1"], ["jones", "strands=3 s1 s1"],
                 ["jones", "s1", "--tau", "nan"]):
        main(argv)
    capsys.readouterr()
    assert len(built) == 1
    assert build_parser() is not build_parser()


def test_a_valid_argv_never_reaches_the_top_level_parser(capsys, monkeypatch):
    calls = []

    def spied():
        parser = build_parser()
        parse_args = parser.parse_args

        def counting(*args, **kwargs):
            calls.append(args)
            return parse_args(*args, **kwargs)

        parser.parse_args = counting
        return parser

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", spied)
    for argv in (["jones", "s1", "--backend", "anyon"], ["jones", "s1 s1", "--output", "json"],
                 ["braid-info", "s1 s1"], ["verify", "--output", "json"]):
        assert main(argv) == EXIT_OK
    assert calls == []
    # a leftover argument is refused by the top-level parser, read once
    with pytest.raises(SystemExit) as exc:
        main(["jones", "s1", "extra"])
    assert exc.value.code == EXIT_PARSE
    assert calls == [(["jones", "s1", "extra"],)]
    assert capsys.readouterr().err.endswith("mjones: error: unrecognized arguments: extra\n")


# --- argv is read as the full parser reads it ---------------------------------

# every subcommand with every flag, abbreviations, "--", negative-number
# words, help, and each way the parser refuses an argv
PARITY_ARGV = [
    ["jones", "s1 s2^-1", "--backend", "anyon", "--tau", "5", "--tolerance", "1e-6",
     "--output", "json"],
    *[["jones", "s1", "--backend", backend] for backend in ("anyon", "spin", "kauffman", "all")],
    *[["jones", "s1", "--output", output] for output in ("text", "json", "csv")],
    ["jones", "--output", "csv", "--tau=inf", "--tolerance=1e-3", "s1 s1"],
    ["braid-info", "strands=4 s1 s1 s3"],
    ["verify"],
    ["verify", "--tau", "1.0", "--output", "json"],
    ["jones", "s1", "--back", "anyon"],
    ["jones", "s1", "--tol", "1e-3", "--out", "csv"],
    ["verify", "--ta", "5", "--o", "json"],
    ["jones", "s1", "--t", "5"],
    ["jones", "--", "-1"],
    ["jones", "--backend", "kauffman", "--", "s1 s1"],
    ["jones", "s1", "--", "extra"],
    ["--", "jones", "s1"],
    ["jones", "-1"],
    ["jones", "-1 -2"],
    ["braid-info", "-2"],
    ["jones", "s1", "--tau", "-1"],
    ["-h"],
    ["--help"],
    ["jones", "-h"],
    ["jones", "s1", "--help"],
    ["braid-info", "-h"],
    ["verify", "-h"],
    [],
    ["frobnicate", "s1"],
    ["Jones", "s1"],
    ["-x", "jones", "s1"],
    ["jones"],
    ["jones", "s1", "extra"],
    ["braid-info", "s1", "extra"],
    ["verify", "extra"],
    ["jones", "s1", "--bogus"],
    ["jones", "s1", "--backend", "bogus"],
    ["jones", "s1", "--tau", "x"],
    ["jones", "s1", "--tau"],
    ["verify", "--tau", "abc"],
    ["verify", "--output", "csv"],
    # forms a plain reader could misread: a repeated flag (argparse keeps the
    # last), values float() reads in its own way, empty and dash words, a
    # flag in the wrong case or with one dash, one word too many or a value
    # missing; NaN is left out, as a namespace holding it never equals itself
    ["jones", "s1", "--backend", "anyon", "--backend", "kauffman"],
    ["verify", "--tau", "5", "--tau", "6"],
    *[["jones", "s1", "--tau", tau] for tau in (" 5 ", "1_000", "\u0661", "-inf", "-1e-3")],
    ["jones", "s1", "--backend", ""],
    ["jones", ""],
    ["jones", "-"],
    ["jones", "s1", "--OUTPUT", "json"],
    ["jones", "s1", "-tau", "5"],
    ["braid-info", "s1", "s2"],
    ["jones", "s1", "--output"],
]


def _outcome(capsys, parse):
    """``parse()``'s namespace, or the exit code and output of its refusal."""
    try:
        return parse()
    except SystemExit as exc:
        return exc.code, capsys.readouterr()


@pytest.mark.parametrize("argv", PARITY_ARGV, ids=lambda argv: " ".join(argv) or "<none>")
def test_main_reads_argv_as_the_full_parser_does(capsys, monkeypatch, argv):
    seen = []
    for name in ("cmd_jones", "cmd_braid_info", "cmd_verify"):
        # a distinct stand-in per command, so the namespaces' fn tells them apart
        monkeypatch.setattr(cli, name, lambda args, name=name: seen.append((name, args)))
    monkeypatch.setattr(cli, "_parser", None)

    def via_main():
        assert main(argv) is None
        (name, args), = seen
        assert args.fn is getattr(cli, name)
        assert capsys.readouterr() == ("", "")
        return args

    assert _outcome(capsys, via_main) == _outcome(capsys, lambda: build_parser().parse_args(argv))


# the four ``jones`` flags with their values, in every order
_FLAG_ORDERS = [[token for flag in flags for token in flag] for flags in itertools.permutations(
    (("--backend", "kauffman"), ("--tau", "5"), ("--tolerance", "1e-6"), ("--output", "json")))]


def test_a_plain_argv_runs_no_argparse_parse(capsys, monkeypatch):
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def spied(self, *args, **kwargs):
        calls.append(args)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spied)
    plain = [["jones", "s1 s2^-1 s1", "--backend", "all", "--output", "json"],
             ["verify", "--output", "json"],
             ["braid-info", "s1 s1"],
             *[["jones", "s1 s1", *flags] for flags in _FLAG_ORDERS],
             *[["jones", *flags[:4], "s1 s1", *flags[4:]] for flags in _FLAG_ORDERS]]
    for argv in plain:
        assert main(argv) == EXIT_OK, argv
    capsys.readouterr()
    assert calls == []
    # anything else, here an abbreviated flag, is argparse's: the top-level
    # parse, which runs the command's parser in turn
    assert main(["jones", "s1", "--back", "anyon"]) == EXIT_OK
    assert len(calls) == 2


# --- generated argvs: whatever the plain reader reads, argparse reads alike --

# each flag's values that its type and choices take, then ones they refuse
_FLAG_VALUES = {
    "--backend": (["anyon", "spin", "kauffman", "all"], ["ANYON", "bogus", ""]),
    "--tau": (["5", "0.5", "1e-3", "inf", "\u0661", " 5 ", "1_000"], ["-inf", "-1", "x", ""]),
    "--tolerance": (["1e-6", "1e-8", "2", "1_0"], ["-1e-3", "1__0", ""]),
    "--output": (["text", "json", "csv"], ["JSON", "xml", ""]),
}
_ANY_VALUE = sorted({value for pair in _FLAG_VALUES.values() for values in pair
                     for value in values})

# every flag as written, then abbreviated, miscased or with one dash; each
# followed by any value, joined to it by "=", or bare among the odd words
_FORMS = [form for flag in _FLAG_VALUES
          for form in (flag, flag[:4], flag[:3], flag.upper(), flag[1:])]
_EXACT = [[flag, value] for flag in _FLAG_VALUES for value in _ANY_VALUE]
_NOISE = (_EXACT, _EXACT,
          [[form, value] for form in _FORMS for value in _ANY_VALUE],
          [[f"{form}={value}"] for form in _FORMS for value in _ANY_VALUE],
          [[word] for word in (*_FORMS, "", "-1", "-1 -2", "-", "--", "-h", "extra")])

# the flags each command takes
_COMMAND_FLAGS = {"jones": list(_FLAG_VALUES), "braid-info": [], "verify": ["--tau", "--output"]}


@st.composite
def _argvs(draw):
    """One of the three commands, or one that is not, then up to 8 tokens:
    words, flags of the command as written with a value they take, and up
    to two ``_NOISE`` pieces (so a flag may come twice), in any order."""
    command = draw(st.sampled_from([*_COMMAND_FLAGS, *_COMMAND_FLAGS, "Jones", "VERIFY",
                                    "frobnicate"]))
    # mostly as many words as the command takes, else one fewer or one more
    words = (command != "verify") + draw(st.sampled_from([0, 0, 0, 0, 0, 1, -1]))
    pieces = [[draw(st.sampled_from(["s1", "s1 s2^-1", "strands=3 s1", "5"]))]
              for _ in range(words)]
    flags = draw(st.permutations(_COMMAND_FLAGS.get(command, ["--tau"])))
    for flag in flags[:draw(st.integers(0, len(flags)))]:
        pieces.append([draw(st.sampled_from([*[flag] * 4, flag.upper(), flag[:4]])),
                       draw(st.sampled_from(_FLAG_VALUES[flag][0]))])
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2]))):
        pieces.append(draw(st.sampled_from(draw(st.sampled_from(_NOISE)))))
    return [command, *itertools.chain.from_iterable(draw(st.permutations(pieces)))][:8]


def test_the_plain_reader_reads_generated_argvs_as_argparse_does():
    # the readers and one parser are called directly; NaN is left out, as a
    # namespace holding it never equals itself
    readers, parser, read = cli._readers(), build_parser(), []

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(_argvs())
    def check(argv):
        command = readers.get(argv[0])
        args = command(argv[1:]) if command else None
        read.append(args is not None)
        if args is not None:
            with contextlib.redirect_stderr(io.StringIO()) as err:
                try:
                    expected = parser.parse_args(argv)
                except SystemExit:
                    pytest.fail(f"{argv} read as {args}; argparse refuses it: {err.getvalue()}")
            assert args == expected, argv

    check()
    # the grammar reaches both sides of the reader
    assert 50 <= sum(read) <= len(read) - 50


def _shows_a_failure(out: str) -> bool:
    """Whether a report holds a failed comparison or a failed verify check:
    ``"within": false`` or ``"passed": false`` in JSON, ``DISAGREE`` or
    ``FAIL`` in text, a CSV row ending in ``false``."""
    lines = out.splitlines()
    return ('"within": false' in out or '"passed": false' in out or "DISAGREE" in out
            or any(line.startswith("FAIL ") or line.endswith(",false") for line in lines))


def test_generated_argvs_keep_the_exit_code_contract():
    # every argv runs through main, argparse's SystemExit counted as its
    # code: 0-3 only, never a traceback, and 1 only with a failure shown
    codes = []

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(_argvs())
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        codes.append(code)
        assert code in (EXIT_OK, EXIT_DISAGREE, EXIT_PARSE, EXIT_CAPACITY), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue() and "internal error" not in err.getvalue(), argv
        if code in (EXIT_OK, EXIT_DISAGREE):
            # exit 1 is the code of a genuine failure, shown in the report
            assert (code == EXIT_DISAGREE) == _shows_a_failure(out.getvalue()), argv

    check()
    # the grammar reaches the disagreement exit as well as success and refusal
    assert {EXIT_OK, EXIT_DISAGREE, EXIT_PARSE} <= set(codes)


def test_internal_error_exits_4(capsys, monkeypatch):
    def crash(word, tau):
        raise RuntimeError("boom")

    monkeypatch.setattr(spin_sim, "jones_spin_abs", crash)
    code, out, err = run(capsys, "jones", "s1", "--backend", "spin")
    assert code == EXIT_INTERNAL
    assert out == "" and "Traceback" in err
    assert err.splitlines()[-1] == "internal error: RuntimeError: boom"


@pytest.mark.parametrize("backend", ["all", "spin"])
def test_a_backend_value_error_is_internal_not_skipped(capsys, monkeypatch, backend):
    # only a capacity cap skips a backend; any other ValueError is a fault
    def broken(word, tau):
        raise ValueError("broken replay")

    monkeypatch.setattr(spin_sim, "jones_spin_abs", broken)
    code, out, err = run(capsys, "jones", "s1", "--backend", backend)
    assert code == EXIT_INTERNAL
    assert out == "" and err.splitlines()[-1] == "internal error: ValueError: broken replay"


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


def _fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this mjones."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(pathlib.Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])))


def test_verify_into_a_closed_pipe_exits_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from mjones.cli import main; sys.exit(main())",
             "verify", "--output", "json"],
            stdout=write_end, stderr=subprocess.PIPE, env=_fresh_env(), timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_OK
    assert proc.stderr == b""


# --- a command imports only what it runs --------------------------------------

# runs each argv in turn and prints, per argv, its exit status and the
# modules loaded by then
_IMPORT_PROBE = """
import contextlib, io, json, sys
from mjones.cli import main
seen = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    seen.append([code, sorted(sys.modules)])
print(json.dumps(seen))
"""

_NUMPY_MODULES = ("numpy", "mjones.anyon_core", "mjones.spin_sim", "mjones.pauli",
                  "mjones.tomography", "mjones.verify")


@pytest.mark.parametrize("runs, absent", [
    ([(["braid-info", "s1 s2^-1 s1 s2^-1"], EXIT_OK),
      (["braid-info", "strands=4 s1 s1 s3"], EXIT_OK),
      *[(["jones", "s1 s2^-1 s1 s2^-1", "--backend", "kauffman", "--output", output], EXIT_OK)
        for output in ("text", "json", "csv")],
      (["jones", "s1 sbad", "--backend", "kauffman"], EXIT_PARSE),
      (["jones", " ".join(["s1 s2^-1"] * 1000), "--backend", "kauffman"], EXIT_CAPACITY)],
     _NUMPY_MODULES),
    ([(["jones", "s1 s2^-1 s1 s2^-1", "--backend", "anyon"], EXIT_OK)],
     ("mjones.spin_sim", "mjones.tomography", "mjones.verify")),
])
def test_a_fresh_process_imports_only_what_its_command_runs(runs, absent):
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps([argv for argv, _ in runs])],
        capture_output=True, text=True, env=_fresh_env(), timeout=120, check=True)
    seen = json.loads(proc.stdout)
    for (argv, code), (got, modules) in zip(runs, seen, strict=True):
        assert got == code, argv
        assert not set(absent) & set(modules), argv


def test_importing_the_package_loads_no_submodule():
    loaded = "sorted(m for m in sys.modules if m.startswith(('mjones', 'numpy')))"
    probe = ("import json, sys, mjones\n"
             f"loaded = lambda: {loaded}\n"
             "before, names = loaded(), dir(mjones)\n"
             "mjones.parse_braid\n"
             "print(json.dumps([before, names, loaded()]))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_fresh_env(), timeout=60, check=True)
    before, names, after = json.loads(proc.stdout)
    assert before == ["mjones"]
    assert set(mjones.__all__) <= set(names)
    assert after == ["mjones", "mjones.braidlang"]
    # the automaton both walks run on needs neither numpy nor mjones.pauli
    probe = f"import json, sys, mjones.automaton\nprint(json.dumps({loaded}))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_fresh_env(), timeout=60, check=True)
    assert json.loads(proc.stdout) == ["mjones", "mjones.automaton"]

"""Command-line behaviour: outputs, exit codes, schemas."""

import json
import math

import jsonschema
import pytest

from mjones.anyon_core import MAX_PAIRS

from mjones.cli import (
    EXIT_CAPACITY,
    EXIT_DISAGREE,
    EXIT_OK,
    EXIT_PARSE,
    JONES_REPORT_SCHEMA,
    VERIFY_REPORT_SCHEMA,
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


def test_jones_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "jones", "s1 sbad")
    assert code == EXIT_PARSE
    assert "token 2" in err


def test_jones_capacity_exit_3(capsys):
    code, _, err = run(capsys, "jones", f"strands={MAX_PAIRS + 1} s1", "--backend", "anyon")
    assert code == EXIT_CAPACITY
    assert f"capped at {MAX_PAIRS} pairs" in err
    code, _, err = run(capsys, "jones", " ".join(["s1"] * 25), "--backend", "kauffman")
    assert code == EXIT_CAPACITY
    assert "state-sum bound" in err


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


def test_link_table_override(tmp_path, capsys):
    # a correct user-supplied table lets the closed form join the comparison
    table = tmp_path / "links.json"
    table.write_text(json.dumps({"s1 s1 s1 s1 s1": {"c1": [1], "c3": []}}))
    code, out, _ = run(capsys, "jones", "s1 s1 s1 s1 s1", "--link-table", str(table))
    assert code == EXIT_OK
    assert "arf/kauffman" in out
    # a wrong table flips the closed form's sign and the comparison reports it
    table.write_text(json.dumps({"s1 s1 s1 s1 s1": {"c1": [0], "c3": []}}))
    code, out, _ = run(capsys, "jones", "s1 s1 s1 s1 s1", "--link-table", str(table))
    assert code == EXIT_DISAGREE
    assert "DISAGREE" in out


@pytest.mark.parametrize("command", ["jones", "braid-info"])
def test_link_table_that_does_not_fit_the_link(tmp_path, capsys, command):
    # the trefoil is a knot: two c1 entries cannot describe it
    table = tmp_path / "links.json"
    table.write_text(json.dumps({"s1 s1 s1": {"c1": [1, 0]}}))
    code, _, err = run(capsys, command, "s1 s1 s1", "--link-table", str(table))
    assert code == EXIT_PARSE
    assert "link-table error" in err and "c1 has 2 entries" in err


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

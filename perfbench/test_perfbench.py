"""Tests of the benchmark itself: seeded inputs, the output checker, and the
metric and workload names in BENCHMARK.json.

    python3 -m pytest perfbench
"""

import json
import math
import sys
from itertools import islice
from pathlib import Path

import pytest

import check
import reference
import run
import tracing
import words

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))


@pytest.mark.parametrize("workload", sorted(words.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    a = list(islice(words.ops(workload, 7), 40))
    assert a == list(islice(words.ops(workload, 7), 40))
    assert words.cold_start_op(workload, 7) == words.cold_start_op(workload, 7)
    if words.WORKLOADS[workload].backend is not None:
        assert a != list(islice(words.ops(workload, 8), 40))
        assert words.cold_start_op(workload, 7) != words.cold_start_op(workload, 8)


@pytest.mark.parametrize("workload", ["crosscheck", "bracket", "long-words"])
def test_words_stay_inside_the_workload_strata(workload):
    spec = words.WORKLOADS[workload]
    allowed = {(n, length) for n, lo, hi in spec.strata for length in range(lo, hi + 1)}
    round_size = spec.round_size
    ops = list(islice(words.ops(workload, 3), 5 * round_size))
    for op in ops + [words.cold_start_op(workload, 3)]:
        assert (op.strands, len(op.letters)) in allowed
        assert max(map(abs, op.letters)) == op.strands - 1   # text implies the strand count
        assert op.argv[1] == words.word_text(op.letters)
    # every round covers each stratum once
    for start in range(0, len(ops), round_size):
        hits = sorted(next(i for i, (n, lo, hi) in enumerate(spec.strata)
                           if n == op.strands and lo <= len(op.letters) <= hi)
                      for op in ops[start:start + round_size])
        assert hits == list(range(round_size))


@pytest.mark.parametrize("strands,letters,components,proper", [
    (2, (1,), 1, True),                       # unknot
    (2, (1, 1), 2, False),                    # Hopf link
    (2, (1, 1, 1), 1, True),                  # trefoil
    (2, (1, 1, 1, 1), 2, True),               # Solomon link
    (3, (1, -2, 1, -2, 1, -2), 3, True),      # Borromean rings
    (3, (1, 1, 2, 2), 3, False),              # chain of two Hopf clasps
    (3, (1, -1, 2, 2, 2, 2), 3, True),        # split unknot beside a Solomon link
])
def test_closure_type_of_known_links(strands, letters, components, proper):
    assert check.closure_type(strands, letters) == (components, proper)


def _jones_op(letters, strands, backend="all"):
    return words.Op(("jones", words.word_text(letters), "--backend", backend,
                     "--output", "json"), strands, tuple(letters))


def test_checker_accepts_real_output():
    from mjones.cli import main

    loop = run.Loop("crosscheck", 0)
    latency, timing, ok = loop.call(main, _jones_op((1, -2, 1, -2, 1, -2), 3))
    assert ok and loop.failures == [] and loop.attempted == 1
    assert set(timing) == {"anyon_s", "spin_s", "kauffman_s"}


def test_checker_rejects_a_corrupted_value():
    from mjones.cli import main
    import contextlib
    import io

    op = _jones_op((1, 1, 1), 2)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(op.argv)) == 0
    report = check.parse(out.getvalue())
    assert check.check(op, 0, report) == []
    report["payload"]["backends"]["kauffman"]["V_re"] = -1.0 + 1e-6
    problems = check.check(op, 0, report)
    assert len(problems) == 1 and "kauffman |V_re|" in problems[0]
    report["payload"]["backends"]["spin"] = {"skipped": "capacity"}
    assert any("spin skipped" in p for p in check.check(op, 0, report))
    assert check.skipped_backends(report) == 1
    assert check.check(op, 1, report) == ["exit code 1"]
    del report["payload"]["agreement"]
    assert check.check(op, 0, report)[0].startswith("malformed report")


def test_failing_op_is_counted_and_listed():
    loop = run.Loop("crosscheck", 0)
    op = _jones_op((1, 1, 1), 2)
    loop.record(op, 3, "", "capacity error: too big")
    timing, ok = loop.record(op, 0, "not json")
    assert not ok and loop.attempted == 2 and len(loop.failures) == 2
    assert "exit code 3" in loop.failures[0] and "too big" in loop.failures[0]


@pytest.mark.parametrize("workload,kind", [("long-words", "interpreter"),
                                           ("verify", "eigensolve")])
def test_run_for_scales_each_round_by_the_reference_job(workload, kind):
    argvs = []
    loop = run.Loop(workload, 0)
    assert loop.reference == kind
    done, refs = loop.run_for(lambda argv: argvs.append(argv) or 0, 0.01)
    size = loop.round_size
    assert len(done) == (len(refs) - 1) * size == len(argvs) == loop.attempted
    for i, (_, ok, scale) in enumerate(done):
        assert not ok   # no output: the op is counted as failed
        assert scale == reference.REF_S[kind] / min(refs[i // size], refs[i // size + 1])


def test_checker_rejects_a_failed_verify_check():
    op = words.VERIFY_OP
    checks = [{"name": f"c{i}", "passed": i != 4, "detail": "d"} for i in range(9)]
    report = {"payload": {"checks": checks, "artifacts": {}}, "timing": {}}
    assert check.check(op, 0, report) == ["check c4 failed: d"]
    report["payload"]["checks"] = checks[:4]
    assert any("4 checks" in p for p in check.check(op, 0, report))


def test_expected_value_magnitudes():
    assert check.expected_abs(3, (1, -2, 1, -2, 1, -2)) == pytest.approx(2.0)
    assert check.expected_abs(2, (1, 1)) == 0.0
    assert check.expected_abs(2, (1, 1, 1, 1)) == pytest.approx(math.sqrt(2.0))


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(words.WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in words.WORKLOADS.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == tracing.PER_LAYER
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]


def test_traced_metrics_cover_every_per_layer_name():
    import numpy as np
    import mjones
    from mjones.cli import main

    tracer = tracing.Tracer()
    ops = [_jones_op((1, -2, 1), 3), _jones_op((1, 1, 1), 2, "kauffman")]
    loop = run.Loop("crosscheck", 0)
    with tracing.installed(tracer, np, mjones):
        for i, op in enumerate(ops):
            tracer.op = i
            assert loop.call(tracer.wrap(main, "cli", "main"), op)[2]
    assert mjones.cli.parse_braid is mjones.braidlang.parse_braid   # wrappers removed
    metrics = tracing.per_layer(tracer.spans, ops, [], 0.0, loop.skipped)
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["kauffman_oracle.bracket_calls"] == 1.0
    assert metrics["anyon_core.evolve_calls_per_op"] == 1.0
    assert metrics["cli.skipped_backends"] == 0
    shares = tracing.layer_times(tracer.spans)
    root = sum(s[5] - s[4] for s in tracer.spans if s[1] < 0)
    assert sum(shares.values()) == pytest.approx(root)

"""Span tracing installed on module attributes, and the per-layer metrics.

Wrappers replace module attributes for the length of a traced run and are
removed afterwards; the program's files are not changed.  A wrapper goes on
the name the *caller* looks up (``cli.parse_braid``, ``spin_sim.apply_pauli``,
``verify.dense_sum``), because modules import functions into their own
namespaces.  Entries of ``verify.CHECKS`` are never replaced: ``run_all``
picks which checks receive ``tau`` by function identity.  Per-check times
come from ``CheckResult.elapsed``, which the CLI emits under ``timing``.

Spans stay in memory as tuples with parent ids; a layer's self time is the
duration of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import gzip
import json
import time
from contextlib import contextmanager

LAYERS = ("cli", "braidlang", "anyon_core", "kauffman_oracle", "spin_sim",
          "pauli", "tomography", "verify")

CHECK_NAMES = ("anyon-golden-values", "amplitude-goldens", "oracle-agreement",
               "jw-spectra", "protocol-intermediate-states", "final-states-probabilities",
               "braid-matrix-reconstruction", "chi-goldens", "property-suite")

# name -> (unit, better); values are per op unless the unit says otherwise
PER_LAYER = {
    "cli.self_ms": ("ms/op", "lower"),
    "cli.skipped_backends": ("count", "lower"),
    "braidlang.parse_us_per_letter": ("us", "lower"),
    "braidlang.invariants_us_per_letter": ("us", "lower"),
    "anyon_core.self_s": ("s/op", "lower"),
    "anyon_core.us_per_letter": ("us", "lower"),
    "anyon_core.evolve_calls_per_op": ("count/op", "lower"),
    "kauffman_oracle.bracket_s": ("s/op", "lower"),
    "kauffman_oracle.bracket_calls": ("count/op", "lower"),
    "kauffman_oracle.ns_per_state": ("ns", "lower"),
    "kauffman_oracle.poly_s": ("s/op", "lower"),
    "spin_sim.self_s": ("s/op", "lower"),
    "spin_sim.ms_per_generator": ("ms", "lower"),
    "spin_sim.steps": ("count/op", "lower"),
    "spin_sim.prepare_ms": ("ms", "lower"),
    "spin_sim.generators": ("count/op", "lower"),
    "pauli.apply_calls": ("count/op", "lower"),
    "pauli.apply_us": ("us", "lower"),
    "pauli.dense_sum_calls": ("count/op", "lower"),
    "pauli.dense_sum_ms": ("ms", "lower"),
    "verify.eigensolve_calls": ("count/op", "lower"),
    "verify.eigensolve_s": ("s/op", "lower"),
    **{f"verify.{name}_s": ("s/op", "lower") for name in CHECK_NAMES},
    "verify.artifacts_s": ("s/op", "lower"),
    "tomography.self_ms": ("ms/op", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

_POLY_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "shift")


class Tracer:
    """In-memory span log: (op, parent, layer, name, start, end, work)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.op = -1

    def wrap(self, fn, layer: str, name: str, work=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (self.op, parent, layer, name, t0, t1,
                              work(*args) if work else None)

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        """One JSON list per line: op, parent, layer, name, start, end, work."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _targets(np, mj):
    """(owner, attribute, layer, work) for every wrapped call site."""
    cli, verify, spin_sim = mj.cli, mj.verify, mj.spin_sim
    anyon, kauffman, tomography = mj.anyon_core, mj.kauffman_oracle, mj.tomography
    out = [(cli, name, "braidlang", None) for name in (
        "parse_braid", "link_invariants", "format_braid", "lookup_arf_data",
        "arf_invariant", "jones_from_arf")]
    out += [(anyon, name, "anyon_core", None) for name in (
        "jones_su2_2", "jones_majorana_abs", "evolve", "link_to_anyon_word",
        "braid_generators")]
    out += [(kauffman, name, "kauffman_oracle", None) for name in (
        "jones_polynomial", "jones_at_i", "eval_at")]
    out.append((kauffman, "bracket", "kauffman_oracle",
                lambda word: (word.strands, word.crossings)))
    out += [(kauffman.LaurentPolynomial, name, "kauffman_oracle", None) for name in _POLY_OPS]
    out += [(spin_sim, name, "spin_sim", None) for name in (
        "jones_spin_abs", "braid_word_state", "braid_sequence", "prepare_logical",
        "ground_basis", "cooling_step", "ite_apply", "extract_braid_matrix",
        "logical_encode", "logical_decode", "spin_hamiltonian", "fermionic_strings",
        "amplitude_probability", "ground_space_weight")]
    out += [(spin_sim, "apply_pauli", "pauli", None), (spin_sim, "dense_sum", "pauli", None),
            (verify, "dense_sum", "pauli", None)]
    out += [(tomography, name, "tomography", None) for name in (
        "chi_from_unitary", "pauli_coefficients", "pauli_basis", "density_matrix",
        "matrix_to_json")]
    out += [(verify, "run_all", "verify", None), (verify, "report_artifacts", "verify", None),
            (np.linalg, "eigvalsh", "verify", None)]
    return out


@contextmanager
def installed(tracer: Tracer, np, mj):
    """Wrap every call site for the duration of the block."""
    saved = []
    try:
        for owner, attr, layer, work in _targets(np, mj):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, layer, attr, work))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_times(spans) -> dict[str, float]:
    """Self seconds per layer over complete spans."""
    child = [0.0] * len(spans)
    for _, parent, _, _, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = dict.fromkeys(LAYERS, 0.0)
    for i, (_, _, layer, _, t0, t1, _) in enumerate(spans):
        out[layer] += (t1 - t0) - child[i]
    return out


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def per_layer(spans, ops, untraced_timings, overhead_pct: float, skipped: int) -> dict:
    """Every PER_LAYER metric from the traced spans of ``ops`` and the CLI
    ``timing`` dicts of the untraced run of the same ops.  A layer that the
    workload does not reach reads 0."""
    n = len(ops)
    self_s = layer_times(spans)
    calls: dict[str, list] = {}
    for span in spans:
        calls.setdefault(span[3], []).append(span)

    def total(name, outside=()):
        """Seconds in ``name`` spans whose parent is not one of ``outside``."""
        return sum(s[5] - s[4] for s in calls.get(name, ())
                   if s[1] < 0 or spans[s[1]][3] not in outside)

    def count(name):
        return len(calls.get(name, ()))

    letters = sum(len(op.letters) for op in ops)
    anyon_letters = sum(len(op.letters) for op in ops
                        if op.letters and op.argv[3] in ("anyon", "all"))
    states = sum(1 << s[6][1] for s in calls.get("bracket", ()))
    poly = sum(total(name, outside=_POLY_OPS) for name in _POLY_OPS)
    anyon = total("jones_su2_2") + total("jones_majorana_abs")
    return {
        "cli.self_ms": _ratio(self_s["cli"], n, 1e3),
        "cli.skipped_backends": skipped,
        "braidlang.parse_us_per_letter": _ratio(total("parse_braid"), letters, 1e6),
        "braidlang.invariants_us_per_letter": _ratio(total("link_invariants"), letters, 1e6),
        "anyon_core.self_s": _ratio(self_s["anyon_core"], n),
        "anyon_core.us_per_letter": _ratio(anyon, anyon_letters, 1e6),
        "anyon_core.evolve_calls_per_op": _ratio(count("evolve"), n),
        "kauffman_oracle.bracket_s": _ratio(total("bracket"), n),
        "kauffman_oracle.bracket_calls": _ratio(count("bracket"), n),
        "kauffman_oracle.ns_per_state": _ratio(total("bracket"), states, 1e9),
        "kauffman_oracle.poly_s": _ratio(poly, n),
        "spin_sim.self_s": _ratio(self_s["spin_sim"], n),
        "spin_sim.ms_per_generator": _ratio(total("braid_sequence"), count("braid_sequence"), 1e3),
        "spin_sim.steps": _ratio(count("cooling_step"), n),
        "spin_sim.prepare_ms": _ratio(total("prepare_logical"), count("prepare_logical"), 1e3),
        "spin_sim.generators": _ratio(count("braid_sequence"), n),
        "pauli.apply_calls": _ratio(count("apply_pauli"), n),
        "pauli.apply_us": _ratio(total("apply_pauli"), count("apply_pauli"), 1e6),
        "pauli.dense_sum_calls": _ratio(count("dense_sum"), n),
        "pauli.dense_sum_ms": _ratio(total("dense_sum"), count("dense_sum"), 1e3),
        "verify.eigensolve_calls": _ratio(count("eigvalsh"), n),
        "verify.eigensolve_s": _ratio(total("eigvalsh"), n),
        **{f"verify.{name}_s": _ratio(sum(t.get(name, 0.0) for t in untraced_timings),
                                      len(untraced_timings))
           for name in CHECK_NAMES},
        "verify.artifacts_s": _ratio(total("report_artifacts"), n),
        "tomography.self_ms": _ratio(self_s["tomography"], n, 1e3),
        "trace.overhead_pct": overhead_pct,
    }

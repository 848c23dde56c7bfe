"""Command-line front end.

Three subcommands:

``jones WORD``
    Evaluate the Jones value at t = i of the word's closure with one or all
    backends and cross-check them.  Exit status: 0 all requested backends
    agree, or no two could be compared (the text says "agreement:
    unchecked"), 1 disagreement, 2 unparseable input or a tau too small
    for the spin replay, 3 capacity exceeded, 4 internal error.  A backend
    past its cap is skipped under ``--backend all``; any other error of a
    backend is an internal error.

``braid-info WORD``
    Print the closure's combinatorial invariants and closed-form Jones
    value.  Exit status: 0, 2 or 3 as for ``jones``.

``verify``
    Run the full cross-validation suite and print one line per check.
    Exit status: 0 every check passed, 1 a check failed, 2 an invalid tau
    or one too small for the spin replay.

``jones`` and ``braid-info`` take at most ``MAX_STRANDS`` (2048) strands.
A reader that closes the output pipe early ends a report quietly, with
the status computed.

An exception that a subcommand does not handle itself is reported on
stderr as its traceback followed by ``internal error: <type>: <message>``,
with exit status 4, so a crash is never mistaken for a disagreement (1).

JSON reports keep all comparison data under a ``payload`` key that is
byte-stable across runs; wall-clock numbers live in a separate ``timing``
key.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import traceback

from . import anyon_core, kauffman_oracle, spin_sim, verify as verify_mod
from .braidlang import (
    MAX_STRANDS,
    BraidSyntaxError,
    BraidWord,
    CapacityError,
    arf_invariant,
    format_braid,
    jones_from_arf,
    link_invariants,
    lookup_arf_data,
    parse_braid,
)

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_PARSE = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4

CSV_HEADER = ("word,writhe,components,proper,V_anyon_re,V_anyon_im,"
              "V_abs_majorana,V_kauffman_re,V_kauffman_im,agree")

_BACKEND_ENTRY = {
    "type": "object",
    "oneOf": [
        {"required": ["skipped"], "properties": {"skipped": {"type": "string"}},
         "additionalProperties": False},
        {"required": ["V_abs"],
         "properties": {
             "V_re": {"type": "number"}, "V_im": {"type": "number"},
             "V_abs": {"type": "number"}, "V_abs_majorana": {"type": "number"},
             "polynomial": {"type": "string"}},
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
                                    "items": {"type": "array", "items": {"type": "integer"}}},
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


def _check_tau(tau: float) -> None:
    # written as "not > 0" so that NaN is rejected too; tau = inf is the
    # exact projection
    if not tau > 0:
        raise ValueError("tau must be positive")


def _tau_too_small(tau: float, exc: spin_sim.DegenerateEvolutionError) -> int:
    # below about 1e-13 the cooling fold cancels the replayed state outright
    print(f"parse error: tau={tau} is too small for the spin replay: {exc}", file=sys.stderr)
    return EXIT_PARSE


def _invariants_payload(word: BraidWord) -> dict:
    if word.strands > MAX_STRANDS:   # before anything is allocated per strand
        raise CapacityError(f"{word.strands} strands: V(i) = sqrt(2)^(n-1) is a "
                            f"double only up to {MAX_STRANDS} strands")
    inv = link_invariants(word)
    arf = arf_invariant(inv, lookup_arf_data(word)) if inv.proper else None
    return {
        "writhe": inv.writhe,
        "components": inv.components,
        "linking": [list(row) for row in inv.linking],
        "proper": inv.proper,
        "arf": arf,
        "jones_from_arf": jones_from_arf(inv, arf),
    }


def _anyon(word: BraidWord, tau: float) -> dict:
    value = anyon_core.jones_su2_2(word, word.strands)
    return {"V_re": value.real, "V_im": value.imag, "V_abs": abs(value),
            "V_abs_majorana": anyon_core.jones_majorana_abs(word, word.strands)}


def _spin(word: BraidWord, tau: float) -> dict:
    return {"V_abs": spin_sim.jones_spin_abs(word, tau)}


def _kauffman(word: BraidWord, tau: float) -> dict:
    poly = kauffman_oracle.jones_polynomial(word)
    value = kauffman_oracle.eval_at(poly, kauffman_oracle.A_AT_T_I)
    return {"V_re": value.real, "V_im": value.imag, "V_abs": abs(value),
            "polynomial": str(poly)}


# report entry of each backend for a word at its pair count, in report order
_BACKENDS = {"anyon": _anyon, "spin": _spin, "kauffman": _kauffman}


def run_jones(word: BraidWord, backend: str = "all", pairs: int | None = None,
              tau: float = spin_sim.DEFAULT_TAU, tolerance: float = 1e-8) -> tuple[dict, dict]:
    """Evaluate the requested backends on the word padded to the pair count;
    returns the report payload and the wall-clock seconds of each backend."""
    n = word.strands if pairs is None else pairs
    if n < word.strands:
        raise CapacityError(f"--pairs {n} is below the word's strand count {word.strands}")
    padded = word.with_strands(n)
    invariants = _invariants_payload(padded)
    backends, timing = {}, {}
    for name in _BACKENDS if backend == "all" else (backend,):
        t0 = time.perf_counter()
        try:
            backends[name] = _BACKENDS[name](padded, tau)
        except CapacityError as exc:
            if backend != "all":
                raise
            backends[name] = {"skipped": str(exc)}
        timing[f"{name}_s"] = time.perf_counter() - t0
    comparisons = _compare_backends(backends, invariants, tolerance)
    payload = {
        "word": format_braid(padded),
        "strands": n,
        "config": {"backend": backend, "pairs": n,
                   "tau": tau if math.isfinite(tau) else "inf", "tolerance": tolerance},
        "invariants": invariants,
        "backends": backends,
        "agreement": {"agree": all(c["within"] for c in comparisons),
                      "comparisons": comparisons},
    }
    return payload, timing


def _compare_backends(backends: dict, invariants: dict, tol: float) -> list[dict]:
    live = {k: v for k, v in backends.items() if "skipped" not in v}
    # relative to sqrt(2)^(m-1), the size of a nonzero V(i) on m components
    scaled_tol = tol * math.sqrt(2.0) ** (invariants["components"] - 1)
    comparisons = []

    def add(pair, kind, delta):
        delta = float(delta)
        comparisons.append({"pair": pair, "kind": kind, "delta": delta,
                            "within": delta <= scaled_tol})

    if "anyon" in live and "kauffman" in live:
        da = complex(live["anyon"]["V_re"], live["anyon"]["V_im"])
        dk = complex(live["kauffman"]["V_re"], live["kauffman"]["V_im"])
        add("anyon/kauffman", "signed", abs(da - dk))
    if "anyon" in live:
        add("anyon/majorana", "magnitude",
            abs(live["anyon"]["V_abs"] - live["anyon"]["V_abs_majorana"]))
    for a, b in (("anyon", "spin"), ("kauffman", "spin")):
        if a in live and b in live:
            add(f"{a}/{b}", "magnitude", abs(live[a]["V_abs"] - live[b]["V_abs"]))
    arf_v = invariants.get("jones_from_arf")
    if arf_v is not None and "kauffman" in live:
        add("arf/kauffman", "signed",
            abs(complex(live["kauffman"]["V_re"], live["kauffman"]["V_im"]) - arf_v))
    return comparisons


def _report_csv(payload: dict) -> str:
    inv = payload["invariants"]

    def get(backend, key):
        entry = payload["backends"].get(backend, {})
        if "skipped" in entry or key not in entry:
            return ""
        return f"{entry[key]:.12g}"

    row = ",".join([
        '"' + payload["word"] + '"',
        str(inv["writhe"]),
        str(inv["components"]),
        str(inv["proper"]).lower(),
        get("anyon", "V_re"), get("anyon", "V_im"), get("anyon", "V_abs_majorana"),
        get("kauffman", "V_re"), get("kauffman", "V_im"),
        str(payload["agreement"]["agree"]).lower(),
    ])
    return CSV_HEADER + "\n" + row


def _report_text(payload: dict) -> str:
    """The report as text; a payload without ``backends`` (braid-info) shows
    the invariants only."""
    inv = payload["invariants"]
    lines = [f"word: {payload['word']}   (strands/pairs: {payload['strands']})"]
    lines.append(
        f"writhe: {inv['writhe']}   components: {inv['components']}   proper: {inv['proper']}"
    )
    if inv["components"] > 1:
        lines.append("linking: " + "; ".join(str(row) for row in inv["linking"]))
    if inv["proper"]:
        lines.append(f"arf: {inv['arf']}   V(i) from arf: {inv['jones_from_arf']:+.6f}")
    else:
        lines.append("not proper: V(i) = 0")
    backends = payload.get("backends")
    if not backends:
        return "\n".join(lines)
    for name, entry in backends.items():     # in report order
        if "skipped" in entry:
            lines.append(f"{name:9s} skipped: {entry['skipped']}")
        elif "V_re" in entry:
            lines.append(
                f"{name:9s} V(i) = {entry['V_re']:+.9f}{entry['V_im']:+.9f}i   |V| = {entry['V_abs']:.9f}"
            )
        else:
            lines.append(f"{name:9s} |V| = {entry['V_abs']:.9f}")
    agreement = payload["agreement"]
    for cmp_ in agreement["comparisons"]:
        mark = "ok" if cmp_["within"] else "DISAGREE"
        lines.append(f"  {cmp_['pair']:16s} {cmp_['kind']:9s} delta = {cmp_['delta']:.3e}  {mark}")
    lines.append("agreement: " + ("unchecked (no two routes compared)"
                                  if not agreement["comparisons"]
                                  else "yes" if agreement["agree"] else "NO"))
    return "\n".join(lines)


def _emit(text: str) -> None:
    # a reader that closed the pipe early ends the report, not the command;
    # the failed flush discards the buffer, so the flush at exit finds nothing
    try:
        print(text, flush=True)
    except BrokenPipeError:
        pass


def cmd_jones(args) -> int:
    try:
        if args.pairs is not None and args.pairs < 1:
            raise ValueError("pairs must be a positive count")
        _check_tau(args.tau)
        # a tolerance of inf would accept every value
        if not 0 < args.tolerance < math.inf:
            raise ValueError("tolerance must be finite and positive")
        word = parse_braid(args.word)
    except (BraidSyntaxError, ValueError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        payload, timing = run_jones(word, args.backend, args.pairs, args.tau, args.tolerance)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except spin_sim.DegenerateEvolutionError as exc:
        return _tau_too_small(args.tau, exc)
    if args.output == "json":
        _emit(json.dumps({"payload": payload, "timing": timing}, sort_keys=True, indent=2))
    else:
        _emit(_report_csv(payload) if args.output == "csv" else _report_text(payload))
    return EXIT_OK if payload["agreement"]["agree"] else EXIT_DISAGREE


def cmd_braid_info(args) -> int:
    try:
        word = parse_braid(args.word)
        invariants = _invariants_payload(word)
    except BraidSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    _emit(_report_text({"word": format_braid(word), "strands": word.strands,
                        "invariants": invariants}))
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        _check_tau(args.tau)
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    # each braid generator is extracted once per verify run, at its tau
    matrices = verify_mod.BraidMatrices(args.tau)
    try:
        results = verify_mod.run_all(tau=args.tau, matrices=matrices)
        artifacts = verify_mod.report_artifacts(matrices) if args.output == "json" else None
    except spin_sim.DegenerateEvolutionError as exc:
        return _tau_too_small(args.tau, exc)
    if args.output == "json":
        payload = {
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
            ],
            "artifacts": artifacts,
        }
        timing = {r.name: r.elapsed for r in results}
        _emit(json.dumps({"payload": payload, "timing": timing}, sort_keys=True, indent=2))
    else:
        width = max(len(r.name) for r in results)
        lines = [f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}"
                 for r in results]
        total = sum(r.elapsed for r in results)
        lines.append(f"{sum(r.passed for r in results)}/{len(results)} checks passed in {total:.2f} s")
        _emit("\n".join(lines))
    return EXIT_OK if all(r.passed for r in results) else EXIT_DISAGREE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mjones",
        description="Jones values at t=i from anyon braiding, a ten-qubit replay, "
                    "and an exact bracket oracle",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_jones = sub.add_parser("jones", help="evaluate a braid word's closure")
    p_jones.add_argument("word", help="braid word, e.g. 's1 s2^-1 s1 s2^-1'")
    p_jones.add_argument("--backend", choices=(*_BACKENDS, "all"),
                         default="all")
    p_jones.add_argument("--pairs", type=int, default=None,
                         help="anyon pair count / strand padding, a positive count "
                              "(default: the word's strand count)")
    p_jones.add_argument("--tau", type=float, default=spin_sim.DEFAULT_TAU)
    p_jones.add_argument("--tolerance", type=float, default=1e-8)
    p_jones.add_argument("--output", choices=("text", "json", "csv"), default="text")
    p_jones.set_defaults(fn=cmd_jones)

    p_info = sub.add_parser("braid-info", help="print closure invariants")
    p_info.add_argument("word")
    p_info.set_defaults(fn=cmd_braid_info)

    p_verify = sub.add_parser("verify", help="run the cross-validation suite")
    p_verify.add_argument("--tau", type=float, default=spin_sim.DEFAULT_TAU)
    p_verify.add_argument("--output", choices=("text", "json"), default="text")
    p_verify.set_defaults(fn=cmd_verify)

    return parser


# built on the first ``main`` call and reused: argparse set-up costs about
# ten times as much as one ``parse_args``
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line front end.

Three subcommands:

``jones WORD``
    Evaluate the Jones value at t = i of the word's closure with one or all
    backends and cross-check them.  Exit status: 0 all requested backends
    agree, 1 disagreement, 2 unparseable input, 3 capacity exceeded.

``braid-info WORD``
    Print the closure's combinatorial invariants and, when the mod-2 data
    is tabulated, the closed-form Jones value.

``verify``
    Run the full cross-validation suite and print one line per check.

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
from dataclasses import dataclass, field

from . import anyon_core, kauffman_oracle, spin_sim, verify as verify_mod
from .braidlang import (
    ArfData,
    BraidSyntaxError,
    BraidWord,
    arf_invariant,
    format_braid,
    jones_from_arf,
    link_invariants,
    lookup_arf_data,
    parse_braid,
)
from .kauffman_oracle import CapacityError

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_PARSE = 2
EXIT_CAPACITY = 3

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
                        "jones_from_arf": {"type": ["number", "null"]},
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


# a bad file, a malformed entry, or c1/c3 data that does not fit the link
_LINK_TABLE_ERRORS = (OSError, ValueError, KeyError, TypeError)


def _check_tau(tau: float) -> None:
    # written as "not > 0" so that NaN is rejected too; tau = inf is the
    # exact projection
    if not tau > 0:
        raise ValueError("tau must be positive")


@dataclass(frozen=True)
class RunConfig:
    backend: str = "all"
    pairs: int | None = None
    tau: float = spin_sim.DEFAULT_TAU
    tolerance: float = 1e-8
    output: str = "text"
    link_table: str | None = None

    def __post_init__(self):
        if self.pairs is not None and self.pairs < 1:
            raise ValueError("pairs must be a positive count")
        _check_tau(self.tau)
        # a tolerance of inf would accept every value
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be finite and positive")


@dataclass
class Report:
    word: str
    strands: int
    invariants: dict
    backends: dict = field(default_factory=dict)
    comparisons: list = field(default_factory=list)
    agree: bool = True
    timing: dict = field(default_factory=dict)


def _load_link_table(path: str | None) -> dict[str, ArfData] | None:
    if path is None:
        return None
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    table = {}
    for key, entry in raw.items():
        table[key] = ArfData(c1=tuple(entry["c1"]), c3=tuple(entry.get("c3", ())))
    return table


def _invariants_payload(word: BraidWord, table) -> dict:
    inv = link_invariants(word)
    payload = {
        "writhe": inv.writhe,
        "components": inv.components,
        "linking": [list(row) for row in inv.linking],
        "proper": inv.proper,
        "arf": None,
        "jones_from_arf": None,
    }
    if not inv.proper:
        payload["jones_from_arf"] = 0.0
        return payload
    data = lookup_arf_data(word, table)
    if data is not None:
        arf = arf_invariant(inv, data)
        payload["arf"] = arf
        payload["jones_from_arf"] = jones_from_arf(inv, arf)
    return payload


def _effective_strands(word: BraidWord, config: RunConfig) -> int:
    n = word.strands if config.pairs is None else config.pairs
    if n < word.strands:
        raise CapacityError(
            f"--pairs {n} is below the word's strand count {word.strands}"
        )
    return n


def run_jones(word: BraidWord, config: RunConfig) -> Report:
    """Evaluate the requested backends on the word padded to the pair count."""
    table = _load_link_table(config.link_table)
    n = _effective_strands(word, config)
    padded = word.with_strands(n)
    report = Report(
        word=format_braid(padded),
        strands=n,
        invariants=_invariants_payload(padded, table),
    )
    wanted = ("anyon", "spin", "kauffman") if config.backend == "all" else (config.backend,)

    def record(name, fn):
        t0 = time.perf_counter()
        try:
            report.backends[name] = fn()
        except (CapacityError, ValueError) as exc:
            if config.backend != "all":
                raise CapacityError(str(exc)) from exc
            report.backends[name] = {"skipped": str(exc)}
        report.timing[f"{name}_s"] = time.perf_counter() - t0

    if "anyon" in wanted:
        def run_anyon():
            jv = anyon_core.jones_su2_2(padded, n)
            return {
                "V_re": jv.value.real,
                "V_im": jv.value.imag,
                "V_abs": abs(jv.value),
                "V_abs_majorana": anyon_core.jones_majorana_abs(padded, n),
            }
        record("anyon", run_anyon)

    if "spin" in wanted:
        def run_spin():
            return {"V_abs": spin_sim.jones_spin_abs(padded, config.tau)}
        record("spin", run_spin)

    if "kauffman" in wanted:
        def run_kauffman():
            poly = kauffman_oracle.jones_polynomial(padded)
            value = kauffman_oracle.eval_at(poly, kauffman_oracle.A_AT_T_I)
            return {
                "V_re": value.real,
                "V_im": value.imag,
                "V_abs": abs(value),
                "polynomial": str(poly),
            }
        record("kauffman", run_kauffman)

    _compare_backends(report, config.tolerance)
    return report


def _compare_backends(report: Report, tol: float) -> None:
    live = {k: v for k, v in report.backends.items() if "skipped" not in v}

    def add(pair, kind, delta):
        delta = float(delta)
        within = delta <= tol
        report.comparisons.append(
            {"pair": pair, "kind": kind, "delta": delta, "within": within}
        )
        if not within:
            report.agree = False

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
    arf_v = report.invariants.get("jones_from_arf")
    if arf_v is not None and "kauffman" in live:
        add("arf/kauffman", "signed",
            abs(complex(live["kauffman"]["V_re"], live["kauffman"]["V_im"]) - arf_v))


def _report_json(report: Report, config: RunConfig) -> str:
    payload = {
        "word": report.word,
        "strands": report.strands,
        "config": {
            "backend": config.backend,
            "pairs": report.strands,
            "tau": config.tau if math.isfinite(config.tau) else "inf",
            "tolerance": config.tolerance,
        },
        "invariants": report.invariants,
        "backends": report.backends,
        "agreement": {"agree": report.agree, "comparisons": report.comparisons},
    }
    return json.dumps({"payload": payload, "timing": report.timing},
                      sort_keys=True, indent=2)


def _report_csv(report: Report) -> str:
    def get(backend, key):
        entry = report.backends.get(backend, {})
        if "skipped" in entry or key not in entry:
            return ""
        return f"{entry[key]:.12g}"

    row = ",".join([
        f'"{report.word}"',
        str(report.invariants["writhe"]),
        str(report.invariants["components"]),
        str(report.invariants["proper"]).lower(),
        get("anyon", "V_re"), get("anyon", "V_im"), get("anyon", "V_abs_majorana"),
        get("kauffman", "V_re"), get("kauffman", "V_im"),
        str(report.agree).lower(),
    ])
    return CSV_HEADER + "\n" + row


def _report_text(report: Report) -> str:
    inv = report.invariants
    lines = [f"word: {report.word}   (strands/pairs: {report.strands})"]
    lines.append(
        f"writhe: {inv['writhe']}   components: {inv['components']}   proper: {inv['proper']}"
    )
    if inv["components"] > 1:
        lines.append("linking: " + "; ".join(str(row) for row in inv["linking"]))
    if inv["arf"] is not None:
        lines.append(f"arf: {inv['arf']}   V(i) from arf: {inv['jones_from_arf']:+.6f}")
    elif inv["jones_from_arf"] == 0.0 and not inv["proper"]:
        lines.append("not proper: V(i) = 0")
    for name in ("anyon", "spin", "kauffman"):
        entry = report.backends.get(name)
        if entry is None:
            continue
        if "skipped" in entry:
            lines.append(f"{name:9s} skipped: {entry['skipped']}")
        elif "V_re" in entry:
            lines.append(
                f"{name:9s} V(i) = {entry['V_re']:+.9f}{entry['V_im']:+.9f}i   |V| = {entry['V_abs']:.9f}"
            )
        else:
            lines.append(f"{name:9s} |V| = {entry['V_abs']:.9f}")
    for cmp_ in report.comparisons:
        mark = "ok" if cmp_["within"] else "DISAGREE"
        lines.append(f"  {cmp_['pair']:16s} {cmp_['kind']:9s} delta = {cmp_['delta']:.3e}  {mark}")
    if report.backends:
        lines.append("agreement: " + ("yes" if report.agree else "NO"))
    return "\n".join(lines)


def cmd_jones(args) -> int:
    try:
        config = RunConfig(backend=args.backend, pairs=args.pairs, tau=args.tau,
                           tolerance=args.tolerance, output=args.output,
                           link_table=args.link_table)
        word = parse_braid(args.word)
    except (BraidSyntaxError, ValueError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        report = run_jones(word, config)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except _LINK_TABLE_ERRORS as exc:
        print(f"link-table error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if config.output == "json":
        print(_report_json(report, config))
    elif config.output == "csv":
        print(_report_csv(report))
    else:
        print(_report_text(report))
    return EXIT_OK if report.agree else EXIT_DISAGREE


def cmd_braid_info(args) -> int:
    try:
        word = parse_braid(args.word)
    except BraidSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        inv_payload = _invariants_payload(word, _load_link_table(args.link_table))
    except _LINK_TABLE_ERRORS as exc:
        print(f"link-table error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    report = Report(word=format_braid(word), strands=word.strands, invariants=inv_payload)
    print(_report_text(report))
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        _check_tau(args.tau)
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    results = verify_mod.run_all(tau=args.tau)
    if args.output == "json":
        payload = {
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
            ],
            "artifacts": verify_mod.report_artifacts(tau=args.tau),
        }
        timing = {r.name: r.elapsed for r in results}
        print(json.dumps({"payload": payload, "timing": timing}, sort_keys=True, indent=2))
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status}  {r.name:<{width}}  {r.detail}")
        total = sum(r.elapsed for r in results)
        print(f"{sum(r.passed for r in results)}/{len(results)} checks passed in {total:.2f} s")
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
    p_jones.add_argument("--backend", choices=("anyon", "spin", "kauffman", "all"),
                         default="all")
    p_jones.add_argument("--pairs", type=int, default=None,
                         help="anyon pair count / strand padding, a positive count "
                              "(default: the word's strand count)")
    p_jones.add_argument("--tau", type=float, default=spin_sim.DEFAULT_TAU)
    p_jones.add_argument("--tolerance", type=float, default=1e-8)
    p_jones.add_argument("--output", choices=("text", "json", "csv"), default="text")
    p_jones.add_argument("--link-table", default=None,
                         help="JSON file with c1/c3 overrides keyed by canonical words")
    p_jones.set_defaults(fn=cmd_jones)

    p_info = sub.add_parser("braid-info", help="print closure invariants")
    p_info.add_argument("word")
    p_info.add_argument("--link-table", default=None)
    p_info.set_defaults(fn=cmd_braid_info)

    p_verify = sub.add_parser("verify", help="run the cross-validation suite")
    p_verify.add_argument("--tau", type=float, default=spin_sim.DEFAULT_TAU)
    p_verify.add_argument("--output", choices=("text", "json"), default="text")
    p_verify.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())

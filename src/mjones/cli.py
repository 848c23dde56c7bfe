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

The subcommands raise; ``main`` alone maps an exception to the exit
status above, with one line on stderr.  Any other exception is reported
as its traceback followed by ``internal error: <type>: <message>``, status
4, so a crash is never mistaken for a disagreement (1).

JSON reports keep all comparison data under a ``payload`` key that is
byte-stable across runs; wall-clock numbers live in a separate ``timing``
key.  A report is one line with sorted keys; ``python -m json.tool``
pretty-prints it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import traceback
from functools import partial

# the backends and ``verify`` are imported where they run, so that a
# process loads only what its command and backend use: braid-info and the
# kauffman backend never import numpy
from .braidlang import (
    DEFAULT_TAU,
    MAX_STRANDS,
    BraidSyntaxError,
    BraidWord,
    CapacityError,
    DegenerateEvolutionError,
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

# both JSON reports: json.dumps(obj, sort_keys=True) would build this
# encoder anew on every call
_JSON = json.JSONEncoder(sort_keys=True)


class FlagError(ValueError):
    """An invalid flag value; a backend's own ValueError stays an internal error."""


def _check_tau(tau: float) -> None:
    # written as "not > 0" so that NaN is rejected too; tau = inf is the
    # exact projection
    if not tau > 0:
        raise FlagError("tau must be positive")


def _invariants_payload(word: BraidWord) -> dict:
    if word.strands > MAX_STRANDS:   # before anything is allocated per strand
        raise CapacityError(f"{word.strands} strands: V(i) = sqrt(2)^(n-1) is a "
                            f"double only up to {MAX_STRANDS} strands")
    inv = link_invariants(word)
    arf = arf_invariant(inv, lookup_arf_data(word)) if inv.proper else None
    return {
        "writhe": inv.writhe,
        "components": inv.components,
        "linking": [list(t) for t in inv.linking],
        "proper": inv.proper,
        "arf": arf,
        "jones_from_arf": jones_from_arf(inv, arf),
    }


def _anyon(word: BraidWord, tau: float) -> dict:
    from . import anyon_core

    value = anyon_core.jones_su2_2(word)
    return {"V_re": value.real, "V_im": value.imag, "V_abs": abs(value),
            "V_abs_majorana": anyon_core.jones_majorana_abs(word)}


def _spin(word: BraidWord, tau: float) -> dict:
    from . import spin_sim

    return {"V_abs": spin_sim.jones_spin_abs(word, tau), "method": spin_sim.spin_method(tau)}


def _kauffman(word: BraidWord, tau: float) -> dict:
    from . import kauffman_oracle

    poly = kauffman_oracle.jones_polynomial(word)
    value = kauffman_oracle.eval_at(poly)
    return {"V_re": value.real, "V_im": value.imag, "V_abs": abs(value),
            "polynomial": str(poly)}


# report entry of each backend for a word, in report order
_BACKENDS = {"anyon": _anyon, "spin": _spin, "kauffman": _kauffman}


def run_jones(word: BraidWord, backend: str, tau: float,
              tolerance: float) -> tuple[dict, dict]:
    """Evaluate the requested backends on the word; returns the report
    payload and the wall-clock seconds of each backend."""
    invariants = _invariants_payload(word)
    backends, timing = {}, {}
    for name in _BACKENDS if backend == "all" else (backend,):
        t0 = time.perf_counter()
        try:
            backends[name] = _BACKENDS[name](word, tau)
        except CapacityError as exc:
            if backend != "all":
                raise
            backends[name] = {"skipped": str(exc)}
        timing[f"{name}_s"] = time.perf_counter() - t0
    comparisons = _compare_backends(backends, invariants, tolerance)
    payload = {
        "word": format_braid(word),
        "strands": word.strands,
        "config": {"backend": backend, "tau": tau if math.isfinite(tau) else "inf",
                   "tolerance": tolerance},
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
    lines = [f"word: {payload['word']}   (strands: {payload['strands']})"]
    lines.append(
        f"writhe: {inv['writhe']}   components: {inv['components']}   proper: {inv['proper']}"
    )
    if inv["components"] > 1:
        lines.append("linking: " + ("; ".join(map(str, inv["linking"])) or "all zero"))
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
            lines.append(f"{name:9s} |V| = {entry['V_abs']:.9f}   ({entry['method']})")
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
    _check_tau(args.tau)
    # a tolerance of inf would accept every value
    if not 0 < args.tolerance < math.inf:
        raise FlagError("tolerance must be finite and positive")
    payload, timing = run_jones(parse_braid(args.word), args.backend, args.tau, args.tolerance)
    if args.output == "json":
        _emit(_JSON.encode({"payload": payload, "timing": timing}))
    else:
        _emit(_report_csv(payload) if args.output == "csv" else _report_text(payload))
    return EXIT_OK if payload["agreement"]["agree"] else EXIT_DISAGREE


def cmd_braid_info(args) -> int:
    word = parse_braid(args.word)
    invariants = _invariants_payload(word)     # first: it refuses more than MAX_STRANDS
    _emit(_report_text({"word": format_braid(word), "strands": word.strands,
                        "invariants": invariants}))
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify

    _check_tau(args.tau)
    # each braid generator is extracted once per verify run, at its tau
    matrices = verify.BraidMatrices(args.tau)
    results = verify.run_all(matrices)
    if args.output == "json":
        payload = {
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.describe(with_time=False)}
                for r in results
            ],
            "artifacts": verify.report_artifacts(matrices),
        }
        timing = {r.name: r.elapsed for r in results}
        _emit(_JSON.encode({"payload": payload, "timing": timing}))
    else:
        width = max(len(r.name) for r in results)
        lines = [f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.describe(with_time=True)}"
                 for r in results]
        total = sum(r.elapsed for r in results)
        lines.append(f"{sum(r.passed for r in results)}/{len(results)} checks passed in {total:.2f} s")
        _emit("\n".join(lines))
    return EXIT_OK if all(r.passed for r in results) else EXIT_DISAGREE


def _commands() -> dict:
    """Each subcommand's name -> (help, positionals as (dest, help), options
    as flag -> (type, choices, default), function).  It is read when a
    parser is built, so it takes the ``cmd_*`` functions bound then."""
    return {
        "jones": ("evaluate a braid word's closure",
                  [("word", "braid word, e.g. 's1 s2^-1 s1 s2^-1'; a leading "
                            "'strands=N' pads it to N strands")],
                  {"--backend": (None, (*_BACKENDS, "all"), "all"),
                   "--tau": (float, None, DEFAULT_TAU),
                   "--tolerance": (float, None, 1e-8),
                   "--output": (None, ("text", "json", "csv"), "text")},
                  cmd_jones),
        "braid-info": ("print closure invariants", [("word", None)], {}, cmd_braid_info),
        "verify": ("run the cross-validation suite", [],
                   {"--tau": (float, None, DEFAULT_TAU),
                    "--output": (None, ("text", "json"), "text")},
                   cmd_verify),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mjones", description=(
        "Jones values at t=i from anyon braiding, a ten-qubit replay, and an exact bracket oracle"))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, positionals, options, fn) in _commands().items():
        command = sub.add_parser(name, help=help_)
        for dest, text in positionals:
            command.add_argument(dest, help=text)
        for flag, (type_, choices, default) in options.items():
            command.add_argument(flag, type=type_, choices=choices, default=default)
        command.set_defaults(fn=fn)
    return parser


def _read(values: dict, flags: dict, dests: list, argv):
    """The namespace that the top-level parser makes for a command and the
    plainest ``argv`` it takes, else None: exact flags, each at most once;
    no value that starts with "-", so that argparse keeps its negative-number
    and "--" rules; each value through its type and choices; and exactly
    the positionals."""
    namespace, unread = dict(values), dict(flags)
    pending, tokens = iter(dests), iter(argv)
    for token in tokens:
        if token.startswith("-"):
            # popped, so that a repeated flag is refused as an unknown one
            spec, value = unread.pop(token, None), next(tokens, "-")
            if spec is None or value.startswith("-"):
                return None
            dest, type_, choices = spec
            try:
                value = value if type_ is None else type_(value)
            except (TypeError, ValueError):
                return None
            if choices is not None and value not in choices:
                return None
        else:
            dest, value = next(pending, None), token
            if dest is None:
                return None
        namespace[dest] = value
    if next(pending, None) is not None:
        return None
    return argparse.Namespace(**namespace)


def _readers() -> dict:
    """Each subcommand's name -> its plain reader, ``_read`` on the
    command's defaults, flags and positionals, each computed here once."""
    readers = {}
    for name, (_, positionals, options, fn) in _commands().items():
        values, flags = {"command": name, "fn": fn}, {}
        for flag, (type_, choices, default) in options.items():
            dest = flag[2:].replace("-", "_")      # argparse's dest for one long flag
            values[dest], flags[flag] = default, (dest, type_, choices)
        readers[name] = partial(_read, values, flags, [dest for dest, _ in positionals])
    return readers


# the top-level parser and the commands' plain readers, both built from the
# ``_commands()`` table on the first ``main`` call and reused: building them
# costs about 25 times one parse.  A plain argv is read by its command's
# reader with no argparse call, any other by the parser, so argparse alone
# refuses an argv or prints help, and every message and exit status stands.
_parser: tuple[argparse.ArgumentParser, dict] | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser(), _readers()
    parser, readers = _parser
    argv = sys.argv[1:] if argv is None else argv
    read = readers.get(argv[0] if argv else None)
    args = read(argv[1:]) if read else None
    if args is None:
        args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (BraidSyntaxError, FlagError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except DegenerateEvolutionError as exc:
        # below about 1e-13 the cooling fold cancels the replayed state outright
        print(f"parse error: tau={args.tau} is too small for the spin replay: {exc}",
              file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())

"""Output checks that do not rely on the program's own invariants code.

For a braid closure with m components, V(i) is 0 when some component has
odd total linking with the others (the link is not proper), and
+-sqrt(2)^(m-1) otherwise (Murasugi; Lickorish-Millett 1986).  The
component count and properness are computed here from the word text alone:
cycles of the closure permutation and the parity of the signed crossings
between components.  Every backend's value must match within ``TOL``.
"""

from __future__ import annotations

import json
import math

TOL = 1e-8
VERIFY_CHECKS = 9


def closure_type(strands: int, letters) -> tuple[int, bool]:
    """(component count, proper) of the trace closure of a braid word."""
    # follow each strand through the word to find where it ends up
    order = list(range(strands))          # order[pos] = strand now at pos
    crossings = []
    for g in letters:
        k = abs(g) - 1
        crossings.append((order[k], order[k + 1], 1 if g > 0 else -1))
        order[k], order[k + 1] = order[k + 1], order[k]
    end = {strand: pos for pos, strand in enumerate(order)}
    component = [-1] * strands
    m = 0
    for start in range(strands):
        if component[start] >= 0:
            continue
        s = start
        while component[s] < 0:
            component[s] = m
            s = end[s]
        m += 1
    # the linking number of component i with the rest is half the signed sum
    # of its crossings with other components; proper means it is even
    mixed = [0] * m
    for a, b, sign in crossings:
        ca, cb = component[a], component[b]
        if ca != cb:
            mixed[ca] += sign
            mixed[cb] += sign
    return m, all(c % 4 == 0 for c in mixed)


def expected_abs(strands: int, letters) -> float:
    m, proper = closure_type(strands, letters)
    return math.sqrt(2.0) ** (m - 1) if proper else 0.0


def parse(out: str) -> dict | None:
    """The CLI's JSON report, or None when the output is not one."""
    try:
        report = json.loads(out)
    except ValueError:
        return None
    return report if isinstance(report, dict) and "payload" in report else None


def check(op, code, report: dict | None) -> list[str]:
    """Problems with one op's exit code and parsed report; empty when correct."""
    if code != 0:
        return [f"exit code {code}"]
    if report is None:
        return ["output is not a JSON report"]
    try:
        if op.letters:
            return check_jones(op, report["payload"])
        return check_verify(report["payload"])
    except (KeyError, TypeError) as exc:
        return [f"malformed report: {exc!r}"]


def check_jones(op, payload: dict) -> list[str]:
    want = expected_abs(op.strands, op.letters)
    problems = []
    if payload["strands"] != op.strands:
        problems.append(f"ran on {payload['strands']} strands, word has {op.strands}")
    backend = op.argv[op.argv.index("--backend") + 1]
    requested = ("anyon", "spin", "kauffman") if backend == "all" else (backend,)
    for name in requested:
        entry = payload["backends"].get(name, {"skipped": "missing"})
        if "skipped" in entry:
            problems.append(f"{name} skipped: {entry['skipped']}")
            continue
        values = {"V_abs": entry["V_abs"]}
        if "V_abs_majorana" in entry:
            values["V_abs_majorana"] = entry["V_abs_majorana"]
        if "V_re" in entry:
            if abs(entry["V_im"]) > TOL:
                problems.append(f"{name} V(i) not real: im = {entry['V_im']:.3e}")
            values["|V_re|"] = abs(entry["V_re"])
        for key, got in values.items():
            if abs(got - want) > TOL:
                problems.append(f"{name} {key} = {got:.12g}, expected {want:.12g}")
    if not payload["agreement"]["agree"]:
        problems.append("backends disagree")
    return problems


def check_verify(payload: dict) -> list[str]:
    checks = payload["checks"]
    problems = [f"check {c['name']} failed: {c['detail']}" for c in checks if not c["passed"]]
    if len(checks) != VERIFY_CHECKS:
        problems.append(f"{len(checks)} checks reported, expected {VERIFY_CHECKS}")
    return problems


def skipped_backends(report: dict | None) -> int:
    """Backends a jones report skipped for capacity."""
    if report is None:
        return 0
    return sum("skipped" in entry for entry in report["payload"].get("backends", {}).values())

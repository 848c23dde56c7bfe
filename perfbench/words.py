"""Seeded inputs for the four benchmark workloads.

Each workload turns a seed into an endless, deterministic stream of
command lines for ``mjones.cli.main``.  The jones workloads draw braid
words in rounds: every round holds one word per stratum (strand count and
length), shuffled, so the cost of a round hardly depends on the seed, and
runs stop on a round boundary, so every run sees the same mix.  A bracket
round has an odd number of strata: the median latency then falls inside one
stratum instead of in the gap between two whose costs differ by 2x.  The
program receives only the word text.  Every word stays inside every
backend's current caps, so no op is a capacity skip.

This module uses the standard library only: the cold-start child imports
it before the timer starts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv and, for jones ops, the word it evaluates."""

    argv: tuple[str, ...]
    strands: int = 0
    letters: tuple[int, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    backend: str | None          # None: the op is ``verify``
    strata: tuple[tuple[int, int, int], ...] = ()   # (strands, min letters, max letters)
    reference: str = "interpreter"   # job that scales its times (reference.py)

    @property
    def round_size(self) -> int:
        """Ops per round."""
        return len(self.strata) or 1


def _strata(strands, lengths) -> tuple[tuple[int, int, int], ...]:
    return tuple((n, lo, hi) for n in strands for lo, hi in lengths)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "crosscheck",
            "default user path: all three backends and every comparison on short "
            "2-3 strand words; the ten-qubit replay and the Pauli kernel dominate",
            "all", _strata((2, 3), [(c, c) for c in range(3, 9)])),
        Workload(
            "bracket",
            "Kauffman state sum alone on 3-5 strand words with 11-13 crossings; "
            "strands vary because a Temperley-Lieb bracket scales with them",
            "kauffman", _strata((3, 4, 5), [(c, c) for c in range(11, 14)])),
        Workload(
            "long-words",
            "anyon backend on 3-strand words of 200-1000 letters, the only load "
            "where anyon evolution, parsing and invariants per letter dominate",
            "anyon", _strata((3,), [(lo, lo + 99) for lo in range(200, 1000, 100)])),
        Workload(
            "verify",
            "fixed verify suite: dense 1024x1024 eigensolves, many tiny brackets and "
            "per-basis-vector replays use the same layers differently",
            None, reference="eigensolve"),
    )
}


def random_word(rng: random.Random, strands: int, length: int) -> tuple[int, ...]:
    """Random signed letters on ``strands`` strands that use the top generator,
    so the word text implies its strand count."""
    letters = [rng.choice((-1, 1)) * rng.randint(1, strands - 1) for _ in range(length)]
    top = strands - 1
    if top not in map(abs, letters):
        letters[rng.randrange(length)] = rng.choice((-1, 1)) * top
    return tuple(letters)


def word_text(letters) -> str:
    return " ".join(f"s{abs(g)}" + ("^-1" if g < 0 else "") for g in letters)


VERIFY_OP = Op(("verify", "--output", "json"))


def _jones_op(spec: Workload, rng: random.Random, stratum) -> Op:
    strands, lo, hi = stratum
    letters = random_word(rng, strands, rng.randint(lo, hi))
    return Op(("jones", word_text(letters), "--backend", spec.backend, "--output", "json"),
              strands, letters)


def ops(workload: str, seed: int):
    """Endless deterministic stream of :class:`Op` for a workload and seed."""
    spec = WORKLOADS[workload]
    if spec.backend is None:
        while True:
            yield VERIFY_OP
    rng = random.Random(f"{workload}:{seed}")
    while True:
        strata = list(spec.strata)
        rng.shuffle(strata)
        for stratum in strata:
            yield _jones_op(spec, rng, stratum)


def cold_start_op(workload: str, seed: int) -> Op:
    """The op a fresh interpreter completes for setup_s: a seeded word from
    the workload's cheapest stratum, so that set-up time hardly depends on
    which stratum a seed happens to draw first."""
    spec = WORKLOADS[workload]
    if spec.backend is None:
        return VERIFY_OP
    return _jones_op(spec, random.Random(f"{workload}:{seed}:cold"), spec.strata[0])

"""The library code the routes to V(i) share, pinned.

Each route's entry runs on a few fixed words, every ``lru_cache``d table in
``mjones`` cleared first so the route builds all it needs, under a
``sys.setprofile`` tracer that records each ``mjones`` function called.  The
functions each pair of routes both ran are pinned: a change that makes two
routes share more code than this widens a set and fails here, so the routes
stay independent unless a change says otherwise.  The trace runs in a
fresh process, so the tables it clears are not refilled by the rest of a
test session; ``python tests/test_independence.py`` prints what it finds.
"""

import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest

import mjones
from mjones import anyon_core, automaton, braidlang, kauffman_oracle, pauli, seifert, spin_sim
from mjones.braidlang import CapacityError, parse_braid

pytestmark = pytest.mark.skipif(sys.version_info < (3, 11), reason="needs code.co_qualname")

_MODULES = (anyon_core, automaton, braidlang, kauffman_oracle, pauli, seifert, spin_sim)

# 2-5 strands; the spin route refuses the words past 3 strands at its entry
WORDS = tuple(parse_braid(text) for text in (
    "s1 s1 s1", "s1 s2^-1 s1 s2^-1", "s1 s2 s1 s2 s1 s2", "s1 s2^-1 s3 s1 s2^-1 s3",
    "strands=4 s1 s3^-1 s2 s2", "s1 s2^-1 s3 s4^-1 s1 s2"))

ROUTES = {
    "anyon": anyon_core.jones_su2_2,
    "spin": spin_sim.jones_spin_abs,       # at the default tau: the tableau walk
    "kauffman": kauffman_oracle.jones_polynomial,
    "arf": braidlang.lookup_arf_data,
}

_AUTOMATON = {"automaton.Automaton.__init__", "automaton.Automaton._add",
              "automaton.Automaton.step"}
_RUN = {"automaton.Automaton.run"}

SHARED = {
    ("anyon", "spin"): _AUTOMATON | _RUN | {
        "pauli.PauliTerm.__init__", "pauli.PauliTerm.__post_init__", "pauli._masks",
        "pauli.word_product"},
    ("anyon", "kauffman"): _AUTOMATON | {"automaton.Automaton.<lambda>"},  # default value
    ("anyon", "arf"): _AUTOMATON | _RUN,
    ("spin", "kauffman"): _AUTOMATON,
    ("spin", "arf"): _AUTOMATON | _RUN,
    ("kauffman", "arf"): _AUTOMATON,
}


def _clear_tables() -> None:
    for module in _MODULES:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def _name(frame) -> str:
    """module.qualname of a called frame.  A dataclass's generated
    ``__init__`` (qualname ``__create_fn__.<locals>.__init__``) is named
    after the class of the object it builds."""
    code = frame.f_code
    qualname = code.co_qualname
    if qualname.startswith("__create_fn__."):
        qualname = f"{type(frame.f_locals['self']).__name__}.{code.co_name}"
    return f"{frame.f_globals['__name__'].removeprefix('mjones.')}.{qualname}"


def traced(entry) -> set[str]:
    """The mjones functions ``entry`` runs on ``WORDS``, from empty tables."""
    _clear_tables()
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__", "").startswith("mjones."):
            called.add(_name(frame))

    sys.setprofile(profile)
    try:
        for word in WORDS:
            try:
                entry(word)
            except CapacityError:
                pass
    finally:
        sys.setprofile(None)
    return called


def shared_functions() -> dict[str, list[str]]:
    """The functions each pair of routes both ran, keyed "route route"."""
    runs = {route: traced(entry) for route, entry in ROUTES.items()}
    return {f"{a} {b}": sorted(runs[a] & runs[b]) for a, b in itertools.combinations(ROUTES, 2)}


def test_each_pair_of_routes_shares_only_the_pinned_functions():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(pathlib.Path(mjones.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, __file__], capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    assert json.loads(proc.stdout) == {f"{a} {b}": sorted(names)
                                       for (a, b), names in SHARED.items()}


if __name__ == "__main__":
    print(json.dumps(shared_functions(), indent=1))

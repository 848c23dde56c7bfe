"""Each verify check fails on the fault it is there to catch.

Every test plants one fault, then runs the checks that
must report it.  The faults are ones a check can miss if it compares less
than it states: a sign, a global scale, or a spectrum that any commuting
set of +-1 terms would share.
"""

import numpy as np
import pytest

from mjones import anyon_core, kauffman_oracle, spin_sim, verify
from mjones.pauli import PauliTerm, commuting_spectrum

FIG8 = {name: word for name, word, _ in verify.GOLDEN_LINKS}["figure-eight"]


def matrices() -> verify.BraidMatrices:
    return verify.BraidMatrices(spin_sim.DEFAULT_TAU)


def test_figure_eight_sign_is_checked(monkeypatch):
    original = anyon_core.jones_su2_2

    def flipped(word):
        value = original(word)
        return -value if word == FIG8 else value

    monkeypatch.setattr(anyon_core, "jones_su2_2", flipped)
    m = matrices()
    golden = verify.check_anyon_golden_values(m)
    oracle = verify.check_oracle_agreement(m)
    assert not golden.passed and "signed dev 2.00e+00" in golden.detail
    assert not oracle.passed and "deviation 2.00e+00" in oracle.detail


def test_ground_matrix_scale_is_checked():
    m = matrices()
    u, logical = m("s1")
    m._extracted["s1"] = (0.5 * u, logical)
    result = verify.check_braid_matrices(m)
    assert not result.passed, result.detail


def test_jw_partners_must_share_pauli_words(monkeypatch):
    # seven commuting, independent +-1 terms: the same spectrum as H'3,
    # none of its Pauli words
    made_up = (PauliTerm(1.0, {1: "z"}), PauliTerm(-1.0, {2: "z"}), PauliTerm(1.0, {3: "z"}),
               PauliTerm(1.0, {4: "z"}), PauliTerm(1.0, {5: "z"}), PauliTerm(-1.0, {6: "x"}),
               PauliTerm(1.0, {10: "y"}))
    n = spin_sim.N_SITES
    assert np.array_equal(commuting_spectrum(made_up, n),
                          commuting_spectrum(spin_sim.spin_hamiltonian("H'3"), n))
    original = spin_sim.spin_hamiltonian
    monkeypatch.setattr(spin_sim, "spin_hamiltonian",
                        lambda label: made_up if label == "H'3" else original(label))
    result = verify.check_jw_spectra(matrices())
    assert not result.passed
    assert result.detail.startswith("Pauli words of H'M3 differ from H'3's")
    assert "max spectrum deviation 0.00e+00" in result.detail


def test_jw_spectra_checks_the_schedules(monkeypatch):
    # y7x8 in place of x7y8 still anticommutes with its z8 pairing, so only
    # the stage Hamiltonians derived from the schedule show the fault
    steps = list(spin_sim.SCHEDULES["s2"])
    assert steps[3].term == PauliTerm(1, {7: "x", 8: "y"})
    steps[3] = spin_sim.ScheduleStep(PauliTerm(1, {7: "y", 8: "x"}), steps[3].pairing)
    monkeypatch.setitem(spin_sim.SCHEDULES, "s2", tuple(steps))
    spin_sim._stage_terms.cache_clear()
    try:
        result = verify.check_jw_spectra(matrices())
    finally:
        monkeypatch.undo()
        spin_sim._stage_terms.cache_clear()
    assert not result.passed
    assert result.detail.startswith("Pauli words of H'M3 differ from H'3's")


def test_property_suite_sees_a_bracket_fault_on_a_cancelling_pair(monkeypatch):
    # the fault shows only on words holding an adjacent k, -k pair
    original = kauffman_oracle.bracket

    def faulty(word, **kwargs):
        value = original(word, **kwargs)
        letters = word.letters
        if any(a == -b for a, b in zip(letters, letters[1:])):
            return value + kauffman_oracle.LaurentPolynomial.monomial(1)
        return value

    monkeypatch.setattr(kauffman_oracle, "bracket", faulty)
    result = verify.check_property_suite(matrices())
    assert not result.passed
    assert "bracket changed under a cancelling pair" in result.detail


def test_each_run_computes_each_suite_bracket_once(monkeypatch):
    # the property suite's 400 seeded words hold 303 distinct ones; two runs
    # on one shared matrices object each compute all 303, so no bracket is
    # kept from one run to the next
    original = kauffman_oracle.bracket
    calls = []

    def counted(word, **kwargs):
        if not kwargs:                  # jones_at_i asks for normalise=True
            calls.append(word)
        return original(word, **kwargs)

    monkeypatch.setattr(kauffman_oracle, "bracket", counted)
    m = matrices()
    for _ in range(2):
        calls.clear()
        assert all(result.passed for result in verify.run_all(m))
        assert len(calls) == len(set(calls)) == 303


def extracted() -> verify.BraidMatrices:
    """A run's matrices with its four generators extracted, before a fault
    is planted in the replay."""
    m = matrices()
    for name in spin_sim.BRAID_NAMES:
        m(name)
    return m


def _generators_with(monkeypatch, change):
    original = anyon_core.braid_generators
    monkeypatch.setattr(anyon_core, "braid_generators",
                        lambda pairs: change(pairs, original(pairs)))


def test_property_suite_sees_a_generator_that_is_not_unitary(monkeypatch):
    m = extracted()
    _generators_with(monkeypatch, lambda pairs, gens: tuple(2 * g for g in gens))
    result = verify.check_property_suite(m)
    assert not result.passed
    assert result.detail.startswith("generator unitarity (2 pairs): 3.00e+00")
    assert "braid relation" not in result.detail and "far commutation" not in result.detail


def test_property_suite_sees_a_broken_braid_relation(monkeypatch):
    # B4 in B3's place still commutes with B2, so only the braid relation fails
    m = extracted()
    _generators_with(monkeypatch, lambda pairs, gens:
                     gens if pairs == 2 else (gens[0], gens[1], gens[3], gens[3], gens[4]))
    result = verify.check_property_suite(m)
    assert not result.passed
    assert result.detail.startswith("braid relation B2B3B2=B3B2B3: ")
    assert ";" not in result.detail


def test_property_suite_sees_a_broken_far_commutation(monkeypatch):
    # B3 in B4's place still satisfies the braid relation with B2
    m = extracted()
    _generators_with(monkeypatch, lambda pairs, gens:
                     gens if pairs == 2 else (*gens[:3], gens[2], gens[4]))
    result = verify.check_property_suite(m)
    assert not result.passed
    assert result.detail.startswith("far commutation [B2,B4]: ")
    assert ";" not in result.detail


def test_property_suite_sees_lost_cooling_weight(monkeypatch):
    m = extracted()
    split = spin_sim._ground_excited_split

    def halved(state, term):
        ground, excited = split(state, term)
        return ground, 0.5 * excited

    monkeypatch.setattr(spin_sim, "_ground_excited_split", halved)
    result = verify.check_property_suite(m)
    assert not result.passed
    assert result.detail.startswith("cooling weight accounting lost ")


def test_property_suite_sees_a_leaking_cooling_step(monkeypatch):
    m = extracted()
    monkeypatch.setattr(spin_sim, "cooling_step", lambda state, term, pairing, tau=0.0: state)
    result = verify.check_property_suite(m)
    assert not result.passed
    assert "cooling output leaks out of the ground space" in result.detail


class _SlowClock:
    """A perf_counter that advances ``step`` seconds at every read."""

    def __init__(self, step: float):
        self.step, self.now = step, 0.0

    def __call__(self) -> float:
        self.now += self.step
        return self.now


@pytest.mark.parametrize("check, step, limit, failing", [
    (verify.check_anyon_golden_values, 0.25, "100 ms", ["anyon-golden-values"]),
    (verify.check_jw_spectra, 5.0, "5 s", ["anyon-golden-values", "jw-spectra"]),
])
def test_a_check_past_its_time_limit_fails(monkeypatch, check, step, limit, failing):
    m = matrices()
    on_time = check(m)
    assert on_time.passed and on_time.time_limit == limit
    monkeypatch.setattr(verify.time, "perf_counter", _SlowClock(step))
    result = check(m)
    assert not result.passed and result.elapsed == step
    assert result.detail == on_time.detail and result.time_limit == limit
    assert result.describe(with_time=False) == f"{result.detail}, time limit {limit}"
    assert result.describe(with_time=True).endswith(f"{step * 1e3:.1f} ms (limit {limit})")
    # the checks with no limit pass however long they take
    assert [r.name for r in verify.run_all(m) if not r.passed] == failing


def test_property_suite_builds_each_pair_count_generators_once(monkeypatch):
    built = []
    _generators_with(monkeypatch, lambda pairs, gens: built.append(pairs) or gens)
    assert verify.check_property_suite(extracted()).passed
    assert built == [2, 3]

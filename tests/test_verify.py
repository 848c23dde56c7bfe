"""Each verify check fails on the fault it is there to catch.

Every test plants one fault, then runs the checks that
must report it.  The faults are ones a check can miss if it compares less
than it states: a sign, a global scale, or a spectrum that any commuting
set of +-1 terms would share.
"""

import numpy as np

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

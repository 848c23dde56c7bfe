"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Golden targets are the closed-form values of the five sample links, the
stage tables of the braid schedules, the reference ground-space and
logical matrices, and the process-matrix entries of the mid-pair exchange,
each at its stated tolerance.  Run with ``pytest -s`` to see the per-criterion
lines, or use ``mjones verify`` for the same checks from the CLI.
"""

import time

from mjones import verify
from mjones.cli import main
from mjones.spin_sim import DEFAULT_TAU

# one extraction of the braid matrices shared by every criterion, as in a
# verify run
MATRICES = verify.BraidMatrices(DEFAULT_TAU)

def report(number: int, result: verify.CheckResult) -> None:
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {number} [{status}] {result.name}: {result.detail}")
    assert result.passed, f"criterion {number}: {result.detail}"

def test_criterion_1_five_link_golden_values():
    # |V| within 1e-12 and signed V within 1e-9 for all five words, all
    # inside 0.1 s
    report(1, verify.check_anyon_golden_values(MATRICES))

def test_criterion_2_amplitude_goldens():
    # |<0|U|0>| = 0, 1/sqrt2, 1, 1/2, 1 within 1e-12
    report(2, verify.check_amplitude_goldens(MATRICES))

def test_criterion_3_oracle_agreement():
    # bracket oracle matches the anyon backend signed for all five links
    # within 1e-9; V(unknot) = 1 exactly
    report(3, verify.check_oracle_agreement(MATRICES))

def test_criterion_4_jordan_wigner_spectra():
    # sorted spectra of every fermionic stage Hamiltonian equal the spin
    # partner's exactly: both are closed-form spectra of commuting,
    # GF(2)-independent Pauli sums (no eigensolve); the partners are also
    # the same Pauli words up to sign; all inside 5 s
    report(4, verify.check_jw_spectra(MATRICES))

def test_criterion_5_protocol_replay():
    # every tabulated stage state reproduced with fidelity >= 1 - 1e-8 at
    # tau = 20; final probabilities 0, 1/2, 1, 1/4, 1 within 1e-8
    report(5, verify.check_intermediate_states(MATRICES))
    report(5, verify.check_final_states(MATRICES))

def test_criterion_6_matrix_reconstruction():
    # ground-space and logical matrices match the printed forms up to a
    # global phase, entries <= 1e-8
    report(6, verify.check_braid_matrices(MATRICES))

def test_criterion_7_chi_goldens():
    # chi(II,II) = chi(XX,XX) = 1/2 and chi(XX,II) = +i/2 within 1e-12
    report(7, verify.check_chi_goldens(MATRICES))

def test_criterion_8_property_suite():
    # unitarity, braid relation, far commutation, inverse pairs, bracket
    # invariance on 200 random words, cooling weight accounting
    report(8, verify.check_property_suite(MATRICES))

def test_criterion_9_end_to_end_verify(capsys):
    t0 = time.perf_counter()
    code = main(["verify"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    with capsys.disabled():
        status = "PASS" if code == 0 and elapsed < 10.0 else "FAIL"
        print(f"criterion 9 [{status}] end-to-end verify: exit {code} in {elapsed:.2f} s (limit 10 s)")
    assert code == 0, out
    assert elapsed < 10.0, f"verify took {elapsed:.2f} s"
    assert out.count("PASS") == len(verify.CHECKS)

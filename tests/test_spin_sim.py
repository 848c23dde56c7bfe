"""Ten-qubit replay: Hamiltonians, ground space, cooling, and braid schedules."""

import hashlib
import math
import random
import tracemalloc
import warnings
from functools import lru_cache

import numpy as np
import pytest

from mjones import spin_sim
from mjones.braidlang import BraidWord, CapacityError, link_invariants
from mjones.pauli import (CERTAIN, CONTRADICTED, RANDOM, PauliTerm, StabilizerState,
                          apply_pauli, commuting_spectrum, dense_sum, majorana_string,
                          pauli_word)
from mjones.spin_sim import (
    BRAID_NAMES,
    DEFAULT_TAU,
    DIM,
    DegenerateEvolutionError,
    N_SITES,
    SCHEDULES,
    amplitude_probability,
    braid_sequence,
    braid_sequence_states,
    braid_word_state,
    cooling_step,
    extract_braid_matrix,
    fermionic_strings,
    ground_basis,
    ground_space_weight,
    ite_apply,
    jones_spin_abs,
    jones_spin_replay,
    jones_spin_tableau,
    logical_decode,
    logical_encode,
    prepare_logical,
    product_state,
    schedule_checkpoints,
    spin_hamiltonian,
)

ZERO_MODES = [(1, "a"), (2, "b"), (4, "a"), (6, "b"), (8, "a"), (10, "b")]


def rand_state(rng) -> np.ndarray:
    v = rng.normal(size=DIM) + 1j * rng.normal(size=DIM)
    return v / np.linalg.norm(v)


def fidelity(a, b) -> float:
    return abs(np.vdot(a, b)) ** 2


def fermionic_dense(label: str) -> np.ndarray:
    return dense_sum(fermionic_strings(label), N_SITES)


def majorana(site: int, flavor: str) -> PauliTerm:
    return majorana_string(site, flavor, N_SITES)


class TestMajorana:
    def test_square_to_identity(self):
        for site, flavor in [(1, "a"), (1, "b"), (5, "a"), (10, "b")]:
            s = majorana(site, flavor)
            assert (s * s).coefficient == 1 and not (s * s).factors

    def test_same_site_flavors_anticommute(self):
        a = majorana(1, "a")
        b = majorana(1, "b")
        ab = a * b
        ba = b * a
        assert ab.factors == ba.factors
        assert ab.coefficient == -ba.coefficient

    def test_distinct_operators_anticommute(self):
        ops = [majorana(s, f) for s in (1, 2, 3) for f in "ab"]
        for i, p in enumerate(ops):
            for q in ops[i + 1:]:
                assert (p * q).coefficient == -(q * p).coefficient

    def test_jordan_wigner_bond(self):
        # i * gamma_1b gamma_2a is the ferromagnetic bond -x1x2
        prod = majorana(1, "b") * majorana(2, "a")
        term = (1j * prod.coefficient, prod.factors)
        assert term == (-1, {1: "x", 2: "x"})

    def test_site_range(self):
        with pytest.raises(ValueError):
            majorana(0, "a")
        with pytest.raises(ValueError):
            majorana(11, "b")
        with pytest.raises(ValueError):
            majorana(1, "c")


class TestHamiltonians:
    def test_h0_has_seven_terms(self):
        assert len(spin_hamiltonian("H0")) == 7

    def test_hp4_contains_three_site_term(self):
        terms = spin_hamiltonian("H'4")
        assert PauliTerm(-1.0, {5: "y", 6: "z", 7: "x"}) in terms

    def test_terms_commute_within_every_label(self):
        for label in spin_sim._STAGES:
            commuting_spectrum(spin_hamiltonian(label), N_SITES)   # raises otherwise

    def test_every_replayed_stage_is_a_ground_state_of_its_derived_hamiltonian(self):
        # every schedule, every ground-basis input, every step, s2's unnamed
        # step 2 included: the stage state reads -1 on each of the stage's terms
        worst, count = 0.0, 0
        for name in SCHEDULES:
            for v in ground_basis().vectors:
                states = braid_sequence_states(name, v.copy(), DEFAULT_TAU)
                for k, state in enumerate(states, start=1):
                    terms = spin_sim._stage_terms(name, k)
                    energy = sum(np.vdot(state, apply_pauli(t, state, N_SITES)).real
                                 for t in terms)
                    worst = max(worst, abs(energy + len(terms)))
                    count += 1
        assert count == 8 * sum(len(steps) for steps in SCHEDULES.values())
        assert worst <= 1e-10

    def test_unknown_labels_rejected(self):
        with pytest.raises(KeyError):
            spin_hamiltonian("H9")
        with pytest.raises(KeyError):
            fermionic_strings("HM7")

    def test_hm0_commutes_with_zero_modes(self):
        h = fermionic_dense("HM0")
        for site, flavor in ZERO_MODES:
            g = dense_sum([majorana(site, flavor)], N_SITES)
            assert np.max(np.abs(h @ g - g @ h)) < 1e-12

    def test_hm0_hermitian_integer_spectrum(self):
        h = fermionic_dense("HM0")
        assert np.max(np.abs(h - h.conj().T)) < 1e-14
        vals = np.linalg.eigvalsh(h)
        assert np.max(np.abs(vals - np.round(vals))) < 1e-10

    def test_fermionic_terms_match_spin_terms_up_to_sign(self):
        # each i*gamma*gamma product is a spin term of the partner up to the
        # pair-ordering sign; bond terms match exactly
        for flabel, slabel in spin_sim.JW_PARTNERS.items():
            spin_terms = {frozenset(t.factors.items()): t.coefficient
                          for t in spin_hamiltonian(slabel)}
            for t in fermionic_strings(flabel):
                assert t.coefficient.imag == 0
                key = frozenset(t.factors.items())
                assert key in spin_terms
                assert abs(t.coefficient) == abs(spin_terms[key])

    def test_spectrum_matches_one_pair(self):
        # the dense reference for the closed-form spectra verify compares
        fermi = np.linalg.eigvalsh(fermionic_dense("HM2"))
        spin = np.linalg.eigvalsh(dense_sum(spin_hamiltonian("H2"), N_SITES))
        assert np.max(np.abs(fermi - spin)) < 1e-10


class TestGroundSpace:
    def test_energy_and_orthonormality(self):
        basis = ground_basis()
        h0 = dense_sum(spin_hamiltonian("H0"), N_SITES)
        for v in basis.vectors:
            assert np.vdot(v, h0 @ v).real == pytest.approx(-7.0)
        gram = basis.vectors.conj() @ basis.vectors.T
        assert np.max(np.abs(gram - np.eye(8))) < 1e-10

    def test_bras_are_the_conjugated_rows_read_only(self):
        basis = ground_basis()
        assert np.array_equal(basis.bras, basis.vectors.conj())
        assert not basis.bras.flags.writeable and not basis.vectors.flags.writeable

    def test_energy_check_builds_no_dense_hamiltonian(self):
        # a dense 1024 x 1024 H0 alone is 16.8 MB; the check applies its
        # seven terms to each basis vector instead
        tracemalloc.start()
        try:
            ground_basis.__wrapped__()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_energy_check_rejects_an_excited_pattern(self, monkeypatch):
        # connector site 3 flipped to its z3 = +1 state: still eight
        # orthonormal product states, but at energy -5
        patterns = spin_sim._chain_patterns
        monkeypatch.setattr(spin_sim, "_chain_patterns",
                            lambda *flags: patterns(*flags)[:2] + "z" + patterns(*flags)[3:])
        with pytest.raises(AssertionError, match="not an H0 eigenvector"):
            ground_basis.__wrapped__()

    def test_logical_zero_preparation(self):
        # |000> decodes to the expected +/- pattern over the eight components
        coeffs = logical_decode(np.eye(8)[0])
        expected = np.array([1, -1, -1, 1, 1, -1, -1, 1]) / (2 * math.sqrt(2))
        assert np.allclose(coeffs, expected)

    def test_encode_of_first_basis_vector_is_equal_weight(self):
        logical = logical_encode(np.eye(8)[0])
        assert np.allclose(np.abs(logical), 1 / (2 * math.sqrt(2)))

    def test_encode_decode_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            v = rng.normal(size=8) + 1j * rng.normal(size=8)
            v /= np.linalg.norm(v)
            assert np.max(np.abs(logical_decode(logical_encode(v)) - v)) < 1e-12

    def test_encode_rejects_unnormalised(self):
        with pytest.raises(ValueError):
            logical_encode(np.ones(8))

    def test_product_state_is_the_kron_product(self):
        kets = {"z": [1, 0], "Z": [0, 1],
                "x": [1 / math.sqrt(2), 1 / math.sqrt(2)],
                "X": [1 / math.sqrt(2), -1 / math.sqrt(2)],
                "y": [1 / math.sqrt(2), 1j / math.sqrt(2)],
                "Y": [1 / math.sqrt(2), -1j / math.sqrt(2)]}
        rng = np.random.default_rng(12)
        patterns = ["zzzzzzzzzz", "zzZzzzzzzz", "xXyYzZxXyY", "YYYYYYYYYY"]
        patterns += ["".join(rng.choice(list(kets), size=N_SITES)) for _ in range(20)]
        for pattern in patterns:
            expected = np.array([1.0 + 0j])
            for ch in pattern:
                expected = np.kron(expected, np.array(kets[ch], dtype=complex))
            assert np.array_equal(product_state(pattern), expected), pattern

    def test_coefficients_reject_leaky_state(self):
        leaky = product_state("zzzzzzzzzz")
        with pytest.raises(ValueError):
            ground_basis().coefficients(leaky)


class TestIteAndCooling:
    def test_tau_zero_is_identity(self):
        rng = np.random.default_rng(5)
        state = rand_state(rng)
        term = PauliTerm(1.0, {3: "z"})
        assert np.allclose(ite_apply(state, term, 0.0), state)

    def test_projects_onto_ground_eigenspace(self):
        rng = np.random.default_rng(6)
        state = rand_state(rng)
        term = PauliTerm(1.0, {3: "z"})
        projector = (np.eye(DIM) - dense_sum([term], N_SITES)) / 2
        expected = projector @ state
        expected /= np.linalg.norm(expected)
        assert np.max(np.abs(ite_apply(state, term, 20.0) - expected)) < 1e-12

    def test_huge_tau_is_the_projection(self):
        # cosh(tau) overflows past tau ~ 710; the step must not
        rng = np.random.default_rng(6)
        state = rand_state(rng)
        term = PauliTerm(1.0, {3: "z"})
        expected = ite_apply(state, term, 20.0)
        for tau in (1000.0, math.inf):
            assert np.max(np.abs(ite_apply(state, term, tau) - expected)) < 1e-15

    def test_amplitude_scaling_law(self):
        # amplitudes pick up exp(-tau E) before renormalisation
        term = PauliTerm(1.0, {3: "z"})
        plus = product_state("zzzzzzzzzz")    # z3 eigenvalue +1, energy +1
        minus = product_state("zzZzzzzzzz")   # energy -1
        state = (2 * plus + minus) / math.sqrt(5)
        tau = 0.7
        out = ite_apply(state, term, tau)
        ratio = np.vdot(plus, out) / np.vdot(minus, out)
        assert ratio == pytest.approx(2 * math.exp(-2 * tau))

    def test_degenerate_evolution_error(self):
        excited = product_state("zzzzzzzzzz")   # pure +1 eigenstate of z3
        with pytest.raises(DegenerateEvolutionError):
            ite_apply(excited, PauliTerm(1.0, {3: "z"}), 5.0)

    def test_unit_spectrum_required(self):
        with pytest.raises(ValueError):
            ite_apply(prepare_logical(0), PauliTerm(2.0, {3: "z"}), 1.0)

    def test_cooling_ground_state_unchanged(self):
        state = prepare_logical(0)
        term = PauliTerm(1.0, {3: "z"})   # H0 ground states satisfy z3 = -1
        out = cooling_step(state, term, PauliTerm(1.0, {3: "x"}))
        assert fidelity(out, state) == pytest.approx(1.0)

    def test_cooling_equal_superposition_keeps_all_weight(self):
        term = PauliTerm(1.0, {3: "z"})
        ground = product_state("zzZzzzzzzz")
        excited = product_state("zzzzzzzzzz")
        state = (ground + excited) / math.sqrt(2)
        out = cooling_step(state, term, PauliTerm(1.0, {3: "x"}))
        assert np.linalg.norm(out) == pytest.approx(1.0)
        assert fidelity(out, ground) == pytest.approx(1.0)

    def test_cooling_first_stage_reproduces_table(self):
        # the first exchange stage: fold of -x2x3 with pairing -z3
        coeffs = logical_decode(np.eye(8)[0])
        state = ground_basis().combine(coeffs)
        out = cooling_step(state, PauliTerm(-1.0, {2: "x", 3: "x"}), PauliTerm(-1.0, {3: "z"}))
        ref = schedule_checkpoints("s1", coeffs)[0]
        assert fidelity(ref, out) >= 1 - 1e-10

    def test_cooling_rejects_non_isometry_pairing(self):
        state = prepare_logical(0)
        term = PauliTerm(-1.0, {2: "x", 3: "x"})
        with pytest.raises(ValueError, match="pairing"):
            cooling_step(state, term, PauliTerm(1.0, {5: "z"}))   # commutes with term

    def test_stage_matches_the_dense_projector_formula(self):
        # one stage is normalize(P- s + exp(-2 tau) * pairing P+ s); without
        # a pairing it is the imaginary-time step alone
        rng = np.random.default_rng(11)
        cases = [
            (PauliTerm(1.0, {3: "z"}), PauliTerm(1.0, {3: "x"})),
            (PauliTerm(-1.0, {2: "x", 3: "x"}), PauliTerm(-1.0, {3: "z"})),
            (PauliTerm(-1.0, {5: "y", 6: "z", 7: "x"}), PauliTerm(1.0, {7: "z"})),
        ]
        for term, pairing in cases:
            t = dense_sum([term], N_SITES)
            p = dense_sum([pairing], N_SITES)
            ground = (np.eye(DIM) - t) / 2
            excited = (np.eye(DIM) + t) / 2
            for tau in (0.0, 0.7, 20.0, math.inf):
                state = rand_state(rng)
                for got, fold in ((cooling_step(state, term, pairing, tau), p),
                                  (ite_apply(state, term, tau), np.eye(DIM))):
                    expected = ground @ state + math.exp(-2 * tau) * (fold @ (excited @ state))
                    expected /= np.linalg.norm(expected)
                    assert np.max(np.abs(got - expected)) < 1e-12

    def test_commuting_pairing_rejected_on_ground_input(self):
        # the pairing check is exact: it does not depend on the input state
        ground = product_state("zzZzzzzzzz")
        term = PauliTerm(1.0, {3: "z"})
        with pytest.raises(ValueError, match="pairing"):
            cooling_step(ground, term, PauliTerm(1.0, {5: "z"}))

    def test_schedule_step_refuses_a_term_without_a_unit_spectrum(self):
        with pytest.raises(ValueError, match=r"^imaginary-time steps need a term with a \+-1 spectrum$"):
            spin_sim.ScheduleStep(PauliTerm(2.0, {3: "z"}), PauliTerm(1.0, {3: "x"}))

    def test_schedule_step_refuses_a_commuting_pairing(self):
        with pytest.raises(ValueError,
                           match="^pairing does not map the excited eigenspace onto the ground one$"):
            spin_sim.ScheduleStep(PauliTerm(-1.0, {2: "x", 3: "x"}), PauliTerm(1.0, {5: "z"}))

    def test_schedule_stages_are_not_checked_again(self, monkeypatch):
        # every step was checked when it was built; the replay only folds
        checks = []
        for name in ("_check_unit_spectrum", "_check_pairing"):
            monkeypatch.setattr(spin_sim, name, lambda *args, name=name: checks.append(name))
        for name in BRAID_NAMES:
            braid_sequence(name, prepare_logical(0))
        assert checks == []
        cooling_step(prepare_logical(0), PauliTerm(-1.0, {2: "x", 3: "x"}), PauliTerm(-1.0, {3: "z"}))
        assert checks == ["_check_unit_spectrum", "_check_pairing"]


def _kron_state(pattern: str) -> np.ndarray:
    # product_state as a loop over the sites, one row at a time
    v = np.array([1.0 + 0j])
    for ch in pattern:
        v = (v[:, None] * spin_sim._KETS[ch]).ravel()
    return v


def test_state_from_rows_is_the_per_row_sum_byte_for_byte(monkeypatch):
    # the block pass over all rows against the sum of per-row product
    # states, added in row order, on every checkpoint's rows
    def per_row_sum(rows):
        v = np.zeros(DIM, dtype=complex)
        for coeff, pattern in rows:
            v += coeff * _kron_state(pattern)
        return spin_sim.normalize(v)

    row_sets = []
    build = spin_sim.state_from_rows
    monkeypatch.setattr(spin_sim, "state_from_rows",
                        lambda rows: row_sets.append(rows) or build(rows))
    rng = np.random.default_rng(38)
    for coeffs in (logical_decode(np.eye(8)[0]), rng.normal(size=8) + 1j * rng.normal(size=8)):
        row_sets.clear()
        states = [state for name in BRAID_NAMES for state in schedule_checkpoints(name, coeffs)
                  if state is not None]
        assert len(row_sets) == len(states) == 16
        for rows, state in zip(row_sets, states):
            assert state.tobytes() == per_row_sum(rows).tobytes()
            for _, pattern in rows:
                assert product_state(pattern).tobytes() == _kron_state(pattern).tobytes()


class TestBraidSequences:
    def test_requires_ground_space_input(self):
        with pytest.raises(ValueError, match="ground space"):
            braid_sequence("s1", product_state("zzzzzzzzzz"))

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            braid_sequence("s3", prepare_logical(0))

    def test_output_in_ground_space(self):
        state = prepare_logical(0)
        for name in spin_sim.BRAID_NAMES:
            out = braid_sequence(name, state.copy())
            assert 1 - ground_space_weight(out) < 1e-10

    def test_checkpoints_all_stages(self):
        coeffs = logical_decode(np.eye(8)[0])
        state0 = ground_basis().combine(coeffs)
        for name in ("s1", "s1^-1", "s2", "s2^-1"):
            refs = schedule_checkpoints(name, coeffs)
            for state, ref in zip(braid_sequence_states(name, state0.copy()), refs):
                if ref is not None:
                    assert fidelity(ref, state) >= 1 - 1e-8

    def test_final_h0_substeps_commute(self):
        # the two returning terms act identically in either order
        def stage(state, step):
            return cooling_step(state, step.term, step.pairing, DEFAULT_TAU)

        coeffs = logical_decode(np.eye(8)[0])
        state = ground_basis().combine(coeffs)
        for step in SCHEDULES["s1"][:3]:
            state = stage(state, step)
        s4, s5 = SCHEDULES["s1"][3:]
        ab = stage(stage(state.copy(), s4), s5)
        ba = stage(stage(state.copy(), s5), s4)
        assert np.max(np.abs(ab - ba)) < 1e-10

    def test_braid_inverse_pairs(self):
        state = prepare_logical(0)
        for fwd, bwd in (("s1", "s1^-1"), ("s2", "s2^-1")):
            out = braid_sequence(bwd, braid_sequence(fwd, state.copy()))
            assert fidelity(out, state) >= 1 - 1e-8

    def test_low_tau_degrades_fidelity(self):
        coeffs = logical_decode(np.eye(8)[0])
        state0 = ground_basis().combine(coeffs)
        refs = schedule_checkpoints("s1", coeffs)
        fids = [fidelity(r, s) for s, r in zip(braid_sequence_states("s1", state0, tau=1.0), refs)]
        assert min(fids) < 1 - 1e-3


class TestBraidMatrices:
    def test_unitary_on_ground_space(self):
        for name in spin_sim.BRAID_NAMES:
            u, logical = extract_braid_matrix(name)
            assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-8
            assert np.max(np.abs(logical.conj().T @ logical - np.eye(8))) < 1e-8

    def test_fourth_power_is_logical_pauli(self):
        u, _ = extract_braid_matrix("s1")
        u4 = np.linalg.matrix_power(u, 4)
        col = u4 @ logical_decode(np.eye(8)[0])
        assert abs(np.vdot(logical_decode(np.eye(8)[0]), col)) == pytest.approx(1.0)

    def test_logical_forms(self):
        x = np.array([[0, 1], [1, 0]])
        y = np.array([[0, -1j], [1j, 0]])
        xx = np.kron(np.kron(x, x), np.eye(2))
        yx = np.kron(np.eye(2), np.kron(y, x))
        refs = {
            "s1": (np.eye(8) + 1j * xx) / math.sqrt(2),
            "s1^-1": (np.eye(8) - 1j * xx) / math.sqrt(2),
            "s2": (np.eye(8) + 1j * yx) / math.sqrt(2),
            "s2^-1": (np.eye(8) - 1j * yx) / math.sqrt(2),
        }
        for name, ref in refs.items():
            _, logical = extract_braid_matrix(name)
            lam = logical[0, 0] / ref[0, 0]
            assert abs(abs(lam) - 1) < 1e-10
            assert np.max(np.abs(logical - lam * ref)) < 1e-8


class TestWordReplay:
    def test_probabilities(self):
        phi0 = prepare_logical(0)
        cases = {
            (1, 1): 0.0,
            (1, 1, 1): 0.5,
            (1, 1, 1, 1): 1.0,
            (1, -2, 1, -2): 0.25,
            (1, -2, 1, -2, 1, -2): 1.0,
        }
        for letters, p in cases.items():
            strands = 1 + max(abs(g) for g in letters)
            final = braid_word_state(BraidWord(strands, letters), phi0.copy())
            assert amplitude_probability(phi0, final) == pytest.approx(p, abs=1e-8)

    def test_jones_spin_abs_golden(self):
        cases = {
            BraidWord(2, (1, 1)): 0.0,
            BraidWord(2, (1, 1, 1)): 1.0,
            BraidWord(2, (1, 1, 1, 1)): math.sqrt(2),
            BraidWord(3, (1, -2, 1, -2)): 1.0,
            BraidWord(3, (1, -2, 1, -2, 1, -2)): 2.0,
        }
        for word, value in cases.items():
            assert jones_spin_abs(word) == pytest.approx(value, abs=1e-8)

    def test_word_capacity(self):
        with pytest.raises(CapacityError, match="at most three strands"):
            jones_spin_abs(BraidWord(4, (3,)))
        with pytest.raises(CapacityError, match="generators s1 and s2 only"):
            braid_word_state(BraidWord(4, (1, 3)), prepare_logical(0))

    def test_the_word_replay_only_reads_its_input(self):
        # so jones_spin_replay passes phi0 itself, with no copy
        phi0 = prepare_logical(0)
        kept = phi0.copy()
        phi0.setflags(write=False)
        for tau in (0.3, 1.0, DEFAULT_TAU, math.inf):
            braid_word_state(BraidWord(3, (1, -2, 1, -2, 2, -1)), phi0, tau)
        assert np.array_equal(phi0, kept)

    def test_amplitude_probability_basics(self):
        phi0 = prepare_logical(0)
        assert amplitude_probability(phi0, phi0) == pytest.approx(1.0)
        assert amplitude_probability(phi0, prepare_logical(5)) == pytest.approx(0.0, abs=1e-14)


# sha256 over the replay's output bits: the repr of jones_spin_replay on 200
# seeded words of 2-3 strands and 1-12 letters at three tau values, then
# the raw bytes of each generator's extracted matrix pair.  A change in the
# replay's arithmetic or its order shows here even when it lies far below
# the tolerances of every other test.
REPLAY_SHA256 = "26c72ff623c17ef6aa125afffec1d463ea25157d2b672825eb50b6339cc267c6"


def replay_digest() -> str:
    rng = random.Random("spin-replay-bits")
    h = hashlib.sha256()
    for _ in range(200):
        strands = rng.choice((2, 3))
        letters = tuple(rng.choice((-1, 1)) * rng.randint(1, strands - 1)
                        for _ in range(rng.randint(1, 12)))
        for tau in (20.0, 1.0, math.inf):
            h.update(repr(jones_spin_replay(BraidWord(strands, letters), tau)).encode())
    for name in BRAID_NAMES:
        for matrix in extract_braid_matrix(name, 20.0):
            h.update(matrix.tobytes())
    return h.hexdigest()


def test_replay_bits_are_pinned():
    assert replay_digest() == REPLAY_SHA256


# --- the fold on the float view against the division form --------------------

def division_fold(state, term, tau, pairing):
    """The fold as complex division writes it: (s - T s) / 2 and v / |v|,
    each real divisor cast to c + 0i by numpy."""
    ground = (state - apply_pauli(term, state, N_SITES)) / 2.0
    excited = state - ground
    if pairing is not None:
        excited = apply_pauli(pairing, excited, N_SITES)
    v = ground + math.exp(-2.0 * tau) * excited
    return v / spin_sim._norm(v)


def division_stages(name, state, tau):
    for step in SCHEDULES[name]:
        state = division_fold(state, step.term, tau, step.pairing)
        yield state


def assert_same_up_to_zero_signs(got, ref) -> int:
    """got == ref by value, and every byte that differs is in the sign of an
    exact zero part; returns how many parts differ in that sign."""
    assert got.dtype == complex and got.shape == ref.shape
    assert np.array_equal(got, ref)
    g, r = got.view(np.float64), np.asarray(ref, dtype=complex).view(np.float64)
    differ = np.signbit(g) != np.signbit(r)
    assert np.all(g[differ] == 0) and np.all(r[differ] == 0)
    return int(np.count_nonzero(differ))


def test_fold_equals_the_division_form_on_seeded_replays():
    # every stage state of 40 seeded words replayed from phi0 and of the
    # four generators on the eight ground states, at four tau, each replay
    # and its division-form twin run independently from the same input
    rng = random.Random("fold-float-view")
    words = [tuple(rng.choice((-1, 1)) * rng.randint(1, 2) for _ in range(rng.randint(1, 8)))
             for _ in range(40)]
    states = zero_signs = 0
    for tau in (0.3, 1.0, 20.0, math.inf):
        runs = [(letters, prepare_logical(0)) for letters in words]
        runs += [((g,), v) for g in spin_sim.LETTER_NAMES for v in ground_basis().vectors]
        for letters, start in runs:
            state = ref = start
            for g in letters:
                name = spin_sim.LETTER_NAMES[g]
                for state, ref in zip(braid_sequence_states(name, state, tau),
                                      division_stages(name, ref, tau), strict=True):
                    zero_signs += assert_same_up_to_zero_signs(state, ref)
                    states += 1
    assert states > 5000
    # half the entries of the product states are exact zeros, and the
    # division's +-0 cross terms flip some of their signs
    assert zero_signs > 0


def test_fold_takes_real_and_strided_inputs():
    # a float64 vector's complex view would be half as long, and a strided
    # one has none; both are taken as contiguous complex arrays first
    ground = 2.0 * ground_basis().vectors[5]
    real = ground.real.copy()
    assert np.array_equal(real, ground)
    strided = np.repeat(2.0 * prepare_logical(0), 2)[::2]
    assert not strided.flags.c_contiguous
    step = SCHEDULES["s2"][2]
    for state in (real, strided):
        expected = np.asarray(state, dtype=complex)
        assert_same_up_to_zero_signs(spin_sim.normalize(state),
                                     expected / spin_sim._norm(expected))
        for tau in (0.3, math.inf):
            assert_same_up_to_zero_signs(cooling_step(state, step.term, step.pairing, tau),
                                         division_fold(expected, step.term, tau, step.pairing))
            assert_same_up_to_zero_signs(ite_apply(state, step.term, tau),
                                         division_fold(expected, step.term, tau, None))
            for got, ref in zip(braid_sequence_states("s2", state, tau),
                                division_stages("s2", expected, tau), strict=True):
                assert_same_up_to_zero_signs(got, ref)


# --- the tableau walk ---------------------------------------------------------

def test_phi0_generators_stabilize_the_logical_zero_state():
    phi0 = prepare_logical(0)
    assert len(spin_sim.PHI0_GENERATORS) == N_SITES
    for term in spin_sim.PHI0_GENERATORS:
        assert np.max(np.abs(apply_pauli(term, phi0, N_SITES) - phi0)) < 1e-12, term.label()


def seeded_words(seed, count, max_letters=14):
    rng = random.Random(seed)
    for _ in range(count):
        strands = rng.choice((2, 3))
        yield BraidWord(strands, tuple(rng.choice((-1, 1)) * rng.randint(1, strands - 1)
                                       for _ in range(rng.randint(0, max_letters))))


@pytest.mark.parametrize("tau", [DEFAULT_TAU, math.inf])
def test_tableau_walk_matches_the_replay(tau):
    worst = 0.0
    for word in seeded_words(f"walk-vs-replay-{tau}", 500):
        worst = max(worst, abs(jones_spin_tableau(word) - jones_spin_replay(word, tau)))
    assert worst <= 1e-12


def test_tableau_walk_is_exact_by_closure_type():
    # |V(i)| is sqrt(2)^(m-1) on a proper link of m components and 0 otherwise
    for word in seeded_words("walk-exact", 1000, max_letters=30):
        inv = link_invariants(word)
        want = 2.0 ** ((inv.components - 1) / 2) if inv.proper else 0.0
        assert jones_spin_tableau(word) == want, word


def test_tableau_walk_capacity():
    with pytest.raises(CapacityError, match="at most three strands"):
        jones_spin_tableau(BraidWord(4, (1,)))


def test_dispatch_at_the_roundoff_threshold(monkeypatch):
    # e^(-2 tau) = 2^-53 at the threshold itself
    assert math.exp(-2 * spin_sim.WALK_TAU) == pytest.approx(2.0 ** -53, rel=1e-12)
    below = math.nextafter(spin_sim.WALK_TAU, 0.0)
    ran = []
    monkeypatch.setattr(spin_sim, "jones_spin_tableau", lambda word: ran.append("tableau") or 1.0)
    monkeypatch.setattr(spin_sim, "jones_spin_replay",
                        lambda word, tau: ran.append(("replay", tau)) or 1.0)
    word = BraidWord(2, (1,))
    for tau in (spin_sim.WALK_TAU, DEFAULT_TAU, 1e300, math.inf, below, 5.0, 1e-9):
        jones_spin_abs(word, tau)
    assert ran == ["tableau"] * 4 + [("replay", below), ("replay", 5.0), ("replay", 1e-9)]
    assert [spin_sim.spin_method(t) for t in (spin_sim.WALK_TAU, below, math.nan)] == [
        "tableau", "replay", "replay"]


def test_nan_tau_raises_in_the_replay():
    # NaN goes to the replay, whose first stage refuses it as it refuses a
    # negative tau, before any arithmetic could turn it into a nan result
    word = BraidWord(2, (1, 1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tau in (math.nan, -1.0):
            with pytest.raises(ValueError, match="tau must be non-negative"):
                jones_spin_abs(word, tau)
            with pytest.raises(ValueError, match="tau must be non-negative"):
                ite_apply(product_state("zzzzzzzzzz"), PauliTerm(1.0, {3: "z"}), tau)


def test_tableau_walk_checks_the_ground_space_before_each_letter(monkeypatch):
    # without its last step, s1 leaves x4x5 unrestored: the next letter
    # starts outside the ground space of H0, as the replay also reports.
    # The table filled with the intact schedules must not answer for it.
    spin_sim._walk_tables.cache_clear()
    for word in seeded_words("fill-the-table", 200, max_letters=60):
        jones_spin_tableau(word)
    assert sum(t is not None for row in spin_sim._walk_tables().rows for t in row) == 96
    monkeypatch.setitem(SCHEDULES, "s1", SCHEDULES["s1"][:-1])
    spin_sim._walk_tables.cache_clear()
    try:
        jones_spin_tableau(BraidWord(2, (1,)))
        for run in (jones_spin_tableau, jones_spin_replay):
            with pytest.raises(ValueError, match="not in the ground space of H0"):
                run(BraidWord(2, (1, 1)))
    finally:
        monkeypatch.undo()
        spin_sim._walk_tables.cache_clear()


# --- the walk's table against the per-letter walk -------------------------------

@lru_cache(maxsize=1)
def walk_words():
    """The words the walk reads: phi0's generators, the H0 terms negated,
    and each letter's stages as (negated term, pairing)."""
    def words(terms):
        return tuple(pauli_word(t, N_SITES) for t in terms)

    stages = {g: tuple(zip(words(-step.term for step in SCHEDULES[name]),
                           words(step.pairing for step in SCHEDULES[name])))
              for g, name in spin_sim.LETTER_NAMES.items()}
    return words(spin_sim.PHI0_GENERATORS), words(-t for t in spin_sim._H0_TERMS), stages


def reference_letter(state, g):
    """One letter of the per-letter walk, in place: the H0 ground-space
    check, then each stage's forced measurement or pairing."""
    _, ground, stages = walk_words()
    if any(state.measure(w) != CERTAIN for w in ground):
        raise ValueError("input state is not in the ground space of H0")
    for minus_term, pairing in stages[g]:
        if state.measure(minus_term) == CONTRADICTED:
            state.conjugate(pairing)


def reference_value(state, strands):
    """|V| from phi0's generators measured on a copy of the final state."""
    state = state.copy()
    k = 0
    for w in walk_words()[0]:
        outcome = state.measure(w)
        if outcome == CONTRADICTED:
            return 0.0
        k += outcome == RANDOM
    return 2.0 ** ((strands - 1 - k) / 2)


def phi0_tableau():
    return StabilizerState.from_generators(walk_words()[0], N_SITES)


def reference_prefix_values(word, lengths):
    """The per-letter walk's |V| of the word's prefixes of the given lengths."""
    state, values = phi0_tableau(), {}
    for length in range(len(word.letters) + 1):
        if length:
            reference_letter(state, word.letters[length - 1])
        if length in lengths:
            values[length] = reference_value(state, word.strands)
    return values


def test_table_walk_equals_the_per_letter_walk_bitwise():
    # 3000 words of 0-1000 letters on 2 and 3 strands: 100 prefixes each of
    # 30 seeded 1000-letter words, so the per-letter walk reads each letter once
    rng = random.Random("table-vs-per-letter")
    cases = []
    for _ in range(30):
        strands = rng.choice((2, 3))
        letters = tuple(rng.choice((-1, 1)) * rng.randint(1, strands - 1) for _ in range(1000))
        lengths = [0, 1000, *rng.sample(range(1, 1000), 98)]
        values = reference_prefix_values(BraidWord(strands, letters), set(lengths))
        cases += [(BraidWord(strands, letters[:n]), values[n].hex()) for n in lengths]
    assert {word.strands for word, _ in cases} == {2, 3}
    for order in ("as drawn", "shuffled"):
        if order == "shuffled":
            random.Random(order).shuffle(cases)
        spin_sim._walk_tables.cache_clear()     # a fresh table, filled in this order
        assert [jones_spin_tableau(word).hex() for word, _ in cases] == [
            want for _, want in cases]


def test_the_orbit_of_phi0_is_24_states_and_96_transitions():
    # breadth first from phi0 over s1, s1^-1, s2, s2^-1 with the per-letter walk
    states, edges = [phi0_tableau()], {}
    keys = [states[0].key()]
    for state, key in zip(states, keys):     # both grow as states are found
        for g in spin_sim.LETTER_NAMES:
            after = state.copy()
            reference_letter(after, g)
            edges[key, g] = after.key()
            if after.key() not in keys:
                states.append(after)
                keys.append(after.key())
    assert (len(keys), len(edges)) == (24, 96)
    # the table, filled by the same search, holds the same states and edges
    spin_sim._walk_tables.cache_clear()
    walk = spin_sim._walk_tables()
    for s, _ in enumerate(walk.states):
        for g in spin_sim.LETTER_NAMES:
            walk.step(s, g)
    table_keys = [tableau.key() for tableau in walk.states]
    assert table_keys == keys
    assert sum(t is not None for row in walk.rows for t in row) == 96
    assert {(table_keys[s], g): table_keys[row[g]]
            for s, row in enumerate(walk.rows) for g in spin_sim.LETTER_NAMES} == edges


def test_a_long_word_walks_to_its_closure_type_value():
    # nothing bounds the letters on the walk: 10^5 letters are 10^5 lookups
    rng = random.Random("long-walk")
    word = BraidWord(3, tuple(rng.choice((-1, 1, -2, 2)) for _ in range(100_000)))
    inv = link_invariants(word)
    want = 2.0 ** ((inv.components - 1) / 2) if inv.proper else 0.0
    assert jones_spin_tableau(word) == want

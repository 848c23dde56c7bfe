"""Ten-qubit replay: Hamiltonians, ground space, cooling, and braid schedules."""

import math
import tracemalloc

import numpy as np
import pytest

from mjones import spin_sim
from mjones.braidlang import BraidWord
from mjones.pauli import PauliTerm, commuting_spectrum, dense_sum, majorana_string
from mjones.spin_sim import (
    DEFAULT_TAU,
    DIM,
    DegenerateEvolutionError,
    N_SITES,
    SCHEDULES,
    amplitude_probability,
    ancilla_cooling_circuit,
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
        for label in ("H0", "H1", "H2", "H3", "H'1", "H'2", "H'3", "H'4", "H'5"):
            commuting_spectrum(spin_hamiltonian(label), N_SITES)   # raises otherwise

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
        with pytest.raises(ValueError, match="pairing"):
            ancilla_cooling_circuit(ground, term, PauliTerm(1.0, {5: "z"}), tau=1.0)


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
        with pytest.raises(ValueError):
            jones_spin_abs(BraidWord(4, (3,)))

    def test_amplitude_probability_basics(self):
        phi0 = prepare_logical(0)
        assert amplitude_probability(phi0, phi0) == pytest.approx(1.0)
        assert amplitude_probability(phi0, prepare_logical(5)) == pytest.approx(0.0, abs=1e-14)


class TestAncillaCircuit:
    TERM = PauliTerm(-1.0, {2: "x", 3: "x"})
    PAIRING = PauliTerm(-1.0, {3: "z"})

    def _input(self):
        return prepare_logical(0)

    def test_system_register_fully_cooled(self):
        state = self._input()
        for tau in (0.0, 0.5, 5.0):
            full = ancilla_cooling_circuit(state, self.TERM, self.PAIRING, tau=tau)
            for branch in (full[:DIM], full[DIM:]):
                _, excited = spin_sim._ground_excited_split(branch, self.TERM)
                assert np.linalg.norm(excited) < 1e-10

    def test_small_tau_branch_matches_cooling_step(self):
        state = self._input()
        full = ancilla_cooling_circuit(state, self.TERM, self.PAIRING, tau=0.0, alpha=math.pi / 2)
        branch0 = full[:DIM]
        branch0 /= np.linalg.norm(branch0)
        direct = cooling_step(state, self.TERM, self.PAIRING)
        assert fidelity(branch0, direct) >= 1 - 1e-12

    @pytest.mark.parametrize("tau", [1000.0, math.inf])
    def test_huge_tau_stays_finite_and_cooled(self, tau):
        rng = np.random.default_rng(8)
        for state in (self._input(), rand_state(rng)):
            full = ancilla_cooling_circuit(state, self.TERM, self.PAIRING, tau=tau)
            for branch in (full[:DIM], full[DIM:]):
                _, excited = spin_sim._ground_excited_split(branch, self.TERM)
                assert np.linalg.norm(excited) < 1e-10
            reference = ancilla_cooling_circuit(state, self.TERM, self.PAIRING, tau=50.0)
            assert np.max(np.abs(full - reference)) < 1e-12

    def test_large_tau_ancilla_factorises(self):
        state = self._input()
        full = ancilla_cooling_circuit(state, self.TERM, self.PAIRING, tau=20.0)
        cooled = cooling_step(state, self.TERM, self.PAIRING)
        expected = np.concatenate([cooled, cooled]) / math.sqrt(2)
        assert fidelity(expected, full) >= 1 - 1e-12

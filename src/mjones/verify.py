"""Cross-validation suite: every backend checked against its golden values.

Each check is a named function returning a :class:`CheckResult`; ``run_all``
executes them in a fixed order so reports are stable.  The golden constants
are the closed-form values of the five sample links (Hopf, trefoil,
Solomon, figure-eight, Borromean rings), the stage tables of the exchange
schedules, and the closed-form ground-space / logical matrices of the
four braid generators.  The Jordan-Wigner check compares spectra exactly:
every stage Hamiltonian is a sum of commuting, GF(2)-independent Pauli
terms, whose spectrum has a closed form (``pauli.commuting_spectrum``), so
nothing is diagonalised.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

import numpy as np

from . import anyon_core, kauffman_oracle, spin_sim, tomography
from .braidlang import BraidWord
from .pauli import commuting_spectrum
from .pauli import dense_sum  # noqa: F401  (perfbench/tracing.py wraps verify.dense_sum)

# the five sample words with strand counts, |V(i)| and signed V(i)
GOLDEN_LINKS = (
    ("hopf", BraidWord(2, (1, 1)), 0.0, 0.0),
    ("trefoil", BraidWord(2, (1, 1, 1)), 1.0, -1.0),
    ("solomon", BraidWord(2, (1, 1, 1, 1)), math.sqrt(2.0), -math.sqrt(2.0)),
    ("figure-eight", BraidWord(3, (1, -2, 1, -2)), 1.0, -1.0),
    ("borromean", BraidWord(3, (1, -2, 1, -2, 1, -2)), 2.0, -2.0),
)
# return-amplitude magnitudes |<phi0|U|phi0>| for the same five words
GOLDEN_AMPLITUDES = (0.0, 1.0 / math.sqrt(2.0), 1.0, 0.5, 1.0)
# overlap probabilities of the ten-qubit replay
GOLDEN_PROBABILITIES = (0.0, 0.5, 1.0, 0.25, 1.0)

# words whose signed V is pinned (figure-eight is magnitude-only golden,
# though the sign comes out identical anyway)
SIGNED_LINKS = ("hopf", "trefoil", "solomon", "borromean")

# closed-form ground-space matrices; the diagonal pair is conventionally
# recorded with a spurious 1/sqrt2 scalar, hence the scalar-tolerant check
_A4 = np.array([[1, 0, 1, 0], [0, 1, 0, -1], [-1, 0, 1, 0], [0, 1, 0, 1]]) / math.sqrt(2)
_A4I = np.array([[1, 0, -1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, -1, 0, 1]]) / math.sqrt(2)
GROUND_MATRIX_REFS = {
    "s1": np.diag([1, 1, 1j, 1j, 1j, 1j, 1, 1]) / math.sqrt(2),
    "s1^-1": np.diag([1, 1, -1j, -1j, -1j, -1j, 1, 1]) / math.sqrt(2),
    "s2": np.kron(np.eye(2), _A4),
    "s2^-1": np.kron(np.eye(2), _A4I),
}

_I2 = np.eye(2)
_X = np.array([[0, 1], [1, 0]])
_Y = np.array([[0, -1j], [1j, 0]])
_XX = np.kron(_X, _X)
_YX = np.kron(_Y, _X)
LOGICAL_MATRIX_REFS = {
    "s1": np.kron((np.eye(4) + 1j * _XX) / math.sqrt(2), _I2),
    "s1^-1": np.kron((np.eye(4) - 1j * _XX) / math.sqrt(2), _I2),
    "s2": np.kron(_I2, (np.eye(4) + 1j * _YX) / math.sqrt(2)),
    "s2^-1": np.kron(_I2, (np.eye(4) - 1j * _YX) / math.sqrt(2)),
}

# final logical states after each sample word, up to a global phase.  The
# relative phases of the trefoil and figure-eight states follow the chain-1
# encoding sign convention (see spin_sim module docstring).
_S2 = math.sqrt(2.0)
FINAL_LOGICAL_REFS = {
    "hopf": np.array([0, 0, 0, 0, 0, 0, 1, 0], dtype=complex),
    "trefoil": np.array([1, 0, 0, 0, 0, 0, -1j, 0], dtype=complex) / _S2,
    "solomon": np.array([1, 0, 0, 0, 0, 0, 0, 0], dtype=complex),
    "figure-eight": np.array([1, 0, 0, -1, 0, 1j, -1j, 0], dtype=complex) / 2.0,
    "borromean": np.array([1, 0, 0, 0, 0, 0, 0, 0], dtype=complex),
}


class BraidMatrices:
    """The braid generators' extracted matrices at one tau, each extracted on
    first use and kept for the life of this object: one verify run shares
    one, so no generator is replayed twice and no run sees another's."""

    def __init__(self, tau: float):
        self.tau = tau
        self._extracted: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def __call__(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        if name not in self._extracted:
            self._extracted[name] = spin_sim.extract_braid_matrix(name, self.tau)
        return self._extracted[name]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


def _phase_align(candidate: np.ndarray, reference: np.ndarray, allow_scale: bool) -> float:
    """Max entry deviation after aligning a global phase (and optionally a
    global scale) to the reference."""
    idx = np.unravel_index(np.argmax(np.abs(reference)), reference.shape)
    lam = candidate[idx] / reference[idx]
    if not allow_scale:
        lam = lam / abs(lam)
    return float(np.max(np.abs(candidate - lam * reference)))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_anyon_golden_values() -> CheckResult:
    t0 = time.perf_counter()
    worst_abs = 0.0
    worst_signed = 0.0
    for name, word, vabs, vsigned in GOLDEN_LINKS:
        got_abs = anyon_core.jones_majorana_abs(word, word.strands)
        worst_abs = max(worst_abs, abs(got_abs - vabs))
        if name in SIGNED_LINKS:
            got = anyon_core.jones_su2_2(word, word.strands).value
            worst_signed = max(worst_signed, abs(got - vsigned))
    elapsed = time.perf_counter() - t0
    ok = worst_abs <= 1e-12 and worst_signed <= 1e-9 and elapsed < 0.1
    return CheckResult(
        "anyon-golden-values", ok,
        f"|V| dev {worst_abs:.2e} (tol 1e-12), signed dev {worst_signed:.2e} (tol 1e-9), "
        f"{elapsed * 1e3:.1f} ms (limit 100 ms)", elapsed)


def check_amplitude_goldens() -> CheckResult:
    t0 = time.perf_counter()
    worst = 0.0
    for (name, word, _, _), amp_ref in zip(GOLDEN_LINKS, GOLDEN_AMPLITUDES):
        state = anyon_core.evolve(anyon_core.link_to_anyon_word(word, word.strands),
                                  word.strands)
        worst = max(worst, abs(abs(anyon_core.vacuum_amplitude(state)) - amp_ref))
    ok = worst <= 1e-12
    return CheckResult(
        "amplitude-goldens", ok,
        f"max |amplitude| deviation {worst:.2e} (tol 1e-12)", time.perf_counter() - t0)


def check_oracle_agreement() -> CheckResult:
    t0 = time.perf_counter()
    worst = 0.0
    for name, word, _, _ in GOLDEN_LINKS:
        oracle = kauffman_oracle.jones_at_i(word)
        anyon = anyon_core.jones_su2_2(word, word.strands).value
        if name in SIGNED_LINKS:
            worst = max(worst, abs(oracle - anyon))
        worst = max(worst, abs(abs(oracle) - abs(anyon)))
    unknot_ok = kauffman_oracle.jones_polynomial(BraidWord(2, (1,))) == 1
    ok = worst <= 1e-9 and unknot_ok
    return CheckResult(
        "oracle-agreement", ok,
        f"max anyon/oracle deviation {worst:.2e} (tol 1e-9), V(unknot)=1 {'exact' if unknot_ok else 'FAILED'}",
        time.perf_counter() - t0)


def check_jw_spectra() -> CheckResult:
    t0 = time.perf_counter()
    worst = 0.0
    for flabel, slabel in spin_sim.JW_PARTNERS.items():
        fermi = commuting_spectrum(spin_sim.fermionic_strings(flabel), spin_sim.N_SITES)
        spin = commuting_spectrum(spin_sim.spin_hamiltonian(slabel), spin_sim.N_SITES)
        worst = max(worst, float(np.max(np.abs(fermi - spin))))
    elapsed = time.perf_counter() - t0
    ok = worst == 0.0 and elapsed < 5.0
    return CheckResult(
        "jw-spectra", ok,
        f"max spectrum deviation {worst:.2e} (exact; closed-form spectra of commuting, "
        f"independent Pauli sums) over {len(spin_sim.JW_PARTNERS)} pairs, "
        f"{elapsed * 1e3:.1f} ms (limit 5 s)", elapsed)


def check_intermediate_states(tau: float = spin_sim.DEFAULT_TAU) -> CheckResult:
    t0 = time.perf_counter()
    coeffs = spin_sim.logical_decode(np.eye(8)[0])
    state0 = spin_sim.ground_basis().combine(coeffs)
    worst = 1.0
    count = 0
    for name in ("s1", "s1^-1", "s2^-1"):
        refs = spin_sim.schedule_checkpoints(name, coeffs)
        for state, ref in zip(spin_sim.braid_sequence_states(name, state0.copy(), tau), refs):
            if ref is not None:
                worst = min(worst, spin_sim.amplitude_probability(ref, state))
                count += 1
    ok = worst >= 1.0 - 1e-8
    return CheckResult(
        "protocol-intermediate-states", ok,
        f"min checkpoint fidelity {worst:.12f} over {count} stage states (tol 1-1e-8, tau={tau:g})",
        time.perf_counter() - t0)


def check_final_states(tau: float = spin_sim.DEFAULT_TAU) -> CheckResult:
    t0 = time.perf_counter()
    worst_p = 0.0
    worst_f = 1.0
    phi0 = spin_sim.prepare_logical(0)
    for (name, word, _, _), p_ref in zip(GOLDEN_LINKS, GOLDEN_PROBABILITIES):
        final = spin_sim.braid_word_state(word, phi0.copy(), tau)
        worst_p = max(worst_p, abs(spin_sim.amplitude_probability(phi0, final) - p_ref))
        logical = spin_sim.logical_encode(spin_sim.ground_basis().coefficients(final))
        worst_f = min(worst_f, float(abs(np.vdot(FINAL_LOGICAL_REFS[name], logical)) ** 2))
    ok = worst_p <= 1e-8 and worst_f >= 1.0 - 1e-8
    return CheckResult(
        "final-states-probabilities", ok,
        f"max probability deviation {worst_p:.2e} (tol 1e-8), "
        f"min final-state fidelity {worst_f:.12f}", time.perf_counter() - t0)


def check_braid_matrices(tau: float = spin_sim.DEFAULT_TAU,
                         matrices: BraidMatrices | None = None) -> CheckResult:
    t0 = time.perf_counter()
    matrices = matrices or BraidMatrices(tau)
    worst = 0.0
    for name in spin_sim.BRAID_NAMES:
        u, logical = matrices(name)
        allow_scale = name in ("s1", "s1^-1")   # reference forms carry a spurious scalar
        worst = max(worst, _phase_align(u, GROUND_MATRIX_REFS[name], allow_scale))
        worst = max(worst, _phase_align(logical, LOGICAL_MATRIX_REFS[name], False))
    ok = worst <= 1e-8
    return CheckResult(
        "braid-matrix-reconstruction", ok,
        f"max aligned entry deviation {worst:.2e} (tol 1e-8) over 4 generators",
        time.perf_counter() - t0)


def check_chi_goldens(tau: float = spin_sim.DEFAULT_TAU,
                      matrices: BraidMatrices | None = None) -> CheckResult:
    t0 = time.perf_counter()
    _, logical = (matrices or BraidMatrices(tau))("s1")
    factor = logical.reshape(4, 2, 4, 2)[:, 0, :, 0]   # spectator qubit stripped
    chi = tomography.chi_from_unitary(factor)
    dev = max(
        abs(chi.entry("II", "II") - 0.5),
        abs(chi.entry("XX", "XX") - 0.5),
        abs(chi.entry("XX", "II") - 0.5j),
    )
    ok = dev <= 1e-12
    return CheckResult(
        "chi-goldens", ok,
        f"max chi entry deviation {dev:.2e} (tol 1e-12)", time.perf_counter() - t0)


def check_property_suite(tau: float = spin_sim.DEFAULT_TAU,
                         matrices: BraidMatrices | None = None) -> CheckResult:
    t0 = time.perf_counter()
    matrices = matrices or BraidMatrices(tau)
    failures = []

    for pairs in (2, 3):
        for g in anyon_core.braid_generators(pairs):
            dev = np.max(np.abs(g.conj().T @ g - np.eye(g.shape[0])))
            if dev > 1e-12:
                failures.append(f"generator unitarity ({pairs} pairs): {dev:.2e}")

    b1, b2, b3, b4, b5 = anyon_core.braid_generators(3)
    dev = np.max(np.abs(b2 @ b3 @ b2 - b3 @ b2 @ b3))
    if dev > 1e-12:
        failures.append(f"braid relation B2B3B2=B3B2B3: {dev:.2e}")
    dev = np.max(np.abs(b2 @ b4 - b4 @ b2))
    if dev > 1e-12:
        failures.append(f"far commutation [B2,B4]: {dev:.2e}")

    for fwd, bwd in (("s1", "s1^-1"), ("s2", "s2^-1")):
        uf, _ = matrices(fwd)
        ub, _ = matrices(bwd)
        dev = _phase_align(uf @ ub, np.eye(8), False)
        if dev > 1e-8:
            failures.append(f"{fwd} then {bwd} is not the identity: {dev:.2e}")

    rng = random.Random(20108)
    for trial in range(200):
        strands = rng.randint(2, 4)
        base_len = rng.randint(0, 6)
        letters = [rng.choice([-1, 1]) * rng.randint(1, strands - 1) for _ in range(base_len)]
        k = rng.choice([-1, 1]) * rng.randint(1, strands - 1)
        pos = rng.randint(0, base_len)
        moved = letters[:pos] + [k, -k] + letters[pos:]
        lhs = kauffman_oracle.bracket(BraidWord(strands, tuple(letters)))
        rhs = kauffman_oracle.bracket(BraidWord(strands, tuple(moved)))
        if lhs != rhs:
            failures.append(f"bracket changed under a cancelling pair (trial {trial})")
            break

    rng2 = np.random.default_rng(20108)
    term = spin_sim.spin_hamiltonian("H1")[1]   # -x2x3
    for _ in range(5):
        raw = rng2.normal(size=spin_sim.DIM) + 1j * rng2.normal(size=spin_sim.DIM)
        state = raw / np.linalg.norm(raw)
        ground, excited = spin_sim._ground_excited_split(state, term)
        loss = abs(1.0 - np.linalg.norm(ground) ** 2 - np.linalg.norm(excited) ** 2)
        if loss > 1e-10:
            failures.append(f"cooling weight accounting lost {loss:.2e}")
        out = spin_sim.cooling_step(state, term, spin_sim.PauliTerm(1.0, {3: "z"}))
        g2, e2 = spin_sim._ground_excited_split(out, term)
        if np.linalg.norm(e2) ** 2 > 1e-10 or abs(np.linalg.norm(out) - 1.0) > 1e-12:
            failures.append("cooling output leaks out of the ground space")

    ok = not failures
    detail = "all properties hold" if ok else "; ".join(failures[:4])
    return CheckResult("property-suite", ok, detail, time.perf_counter() - t0)


CHECKS = (
    check_anyon_golden_values,
    check_amplitude_goldens,
    check_oracle_agreement,
    check_jw_spectra,
    check_intermediate_states,
    check_final_states,
    check_braid_matrices,
    check_chi_goldens,
    check_property_suite,
)


def run_all(tau: float = spin_sim.DEFAULT_TAU,
            matrices: BraidMatrices | None = None) -> list[CheckResult]:
    """Execute every check in fixed order; ``tau`` reaches the replay checks,
    and the checks that read braid matrices share ``matrices``."""
    matrices = matrices or BraidMatrices(tau)
    results = []
    for fn in CHECKS:
        if fn in (check_braid_matrices, check_chi_goldens, check_property_suite):
            results.append(fn(tau, matrices))
        elif fn in (check_intermediate_states, check_final_states):
            results.append(fn(tau))
        else:
            results.append(fn())
    return results


def report_artifacts(tau: float = spin_sim.DEFAULT_TAU,
                     matrices: BraidMatrices | None = None) -> dict:
    """Reconstructed matrices for the machine-readable report: the process
    matrix of the mid-pair exchange's logical factor and the density matrix
    of the far exchange's final state, as nested [re, im] arrays."""
    _, logical = (matrices or BraidMatrices(tau))("s1")
    chi = tomography.chi_from_unitary(logical.reshape(4, 2, 4, 2)[:, 0, :, 0])
    final = spin_sim.braid_sequence("s2^-1", spin_sim.prepare_logical(0), tau)
    rho = tomography.density_matrix(
        spin_sim.logical_encode(spin_sim.ground_basis().coefficients(final))
    )
    return {
        "chi_mid_exchange_logical": tomography.matrix_to_json(chi.matrix, chi.labels),
        "density_far_exchange_final": tomography.matrix_to_json(
            rho, tuple(format(b, "03b") for b in range(8))
        ),
    }

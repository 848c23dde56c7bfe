"""Cross-validation suite: every backend checked against its golden values.

Each check is a named function of the run's :class:`BraidMatrices`, which
also carries its ``tau``, returning a :class:`CheckResult`; ``run_all``
executes them in a fixed order so reports are stable.  One harness,
``_check``, makes every check from a body that returns ``(ok, detail)``:
it times the body and builds the result, and a check given a time limit
fails when its body runs that long.  The run's replays live on that
object, each made once: the generators' extracted matrices and the stage
states phi0 reaches under each word prefix, which the checkpoint and
final-state checks and ``report_artifacts`` share.  The
property suite computes the bracket of each distinct seeded word once per
call and keeps none between calls.  The golden constants are the signed
V(i) of the five sample links (Hopf, trefoil, Solomon, figure-eight,
Borromean rings), from which |V|, the return amplitude and the replay
probability follow; the stage tables of the exchange schedules; and the
closed-form ground-space / logical matrices of the four braid generators,
compared up to a global phase.  The Jordan-Wigner check holds the paper's
fermionic stage Hamiltonians against the spin stages that the schedules
derive from H0.  It compares spectra exactly: each stage is a sum
of commuting, GF(2)-independent Pauli terms with a closed-form spectrum
(``pauli.commuting_spectrum``), so nothing is diagonalised.  Any two such
sums of equally many +-1 terms share that spectrum, so the check also
requires the partners to be the same Pauli words, signs aside.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass

import numpy as np

from . import anyon_core, kauffman_oracle, spin_sim, tomography
from .braidlang import BraidWord
from .pauli import commuting_spectrum
from .pauli import dense_sum  # noqa: F401  (perfbench/tracing.py wraps verify.dense_sum)

# the five sample words with strand counts and signed V(i); |V|, the return
# amplitude |<0|U|0>| and the replay probability all follow from V
GOLDEN_LINKS = (
    ("hopf", BraidWord(2, (1, 1)), 0.0),
    ("trefoil", BraidWord(2, (1, 1, 1)), -1.0),
    ("solomon", BraidWord(2, (1, 1, 1, 1)), -math.sqrt(2.0)),
    ("figure-eight", BraidWord(3, (1, -2, 1, -2)), -1.0),
    ("borromean", BraidWord(3, (1, -2, 1, -2, 1, -2)), -2.0),
)

# closed-form ground-space matrices
_A4 = np.array([[1, 0, 1, 0], [0, 1, 0, -1], [-1, 0, 1, 0], [0, 1, 0, 1]]) / math.sqrt(2)
_A4I = np.array([[1, 0, -1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, -1, 0, 1]]) / math.sqrt(2)
GROUND_MATRIX_REFS = {
    "s1": np.diag([1, 1, 1j, 1j, 1j, 1j, 1, 1]),
    "s1^-1": np.diag([1, 1, -1j, -1j, -1j, -1j, 1, 1]),
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
    """One verify run's replays at one tau, each made on first use and kept
    for the life of this object: one run shares one, so no replay is made
    twice in a run and no run sees another's.

    Calling it with a generator name gives that generator's extracted
    matrices.  ``stages(letters)`` gives the states after each schedule
    step of the word's last letter, run on phi0 = prepare_logical(0) after
    the letters before it: each prefix asked for is one
    ``braid_sequence_states`` run, after the input check ``braid_sequence``
    makes (``check_ground_space``).  ``state(letters)`` is the last of them,
    phi0 itself for the empty word."""

    def __init__(self, tau: float):
        self.tau = tau
        self._extracted: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._stages: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {
            (): (spin_sim.prepare_logical(0),)}

    def __call__(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        if name not in self._extracted:
            self._extracted[name] = spin_sim.extract_braid_matrix(name, self.tau)
        return self._extracted[name]

    def stages(self, letters: tuple[int, ...]) -> tuple[np.ndarray, ...]:
        if letters not in self._stages:
            state = self.state(letters[:-1])
            spin_sim.check_ground_space(state)
            self._stages[letters] = tuple(spin_sim.braid_sequence_states(
                spin_sim.LETTER_NAMES[letters[-1]], state, self.tau))
        return self._stages[letters]

    def state(self, letters: tuple[int, ...]) -> np.ndarray:
        return self.stages(letters)[-1]


@dataclass(frozen=True)
class CheckResult:
    """One check's outcome.  ``detail`` holds values and tolerances only, so
    a report built from it is byte-stable; the measured time is ``elapsed``.
    A check that also fails past a time limit names it in ``time_limit``."""

    name: str
    passed: bool
    detail: str
    elapsed: float
    time_limit: str = ""

    def describe(self, with_time: bool) -> str:
        """The detail and any time limit; ``with_time`` puts the measured
        time before the limit, for the text report."""
        if not self.time_limit:
            return self.detail
        if with_time:
            return f"{self.detail}, {self.elapsed * 1e3:.1f} ms (limit {self.time_limit})"
        return f"{self.detail}, time limit {self.time_limit}"


def _golden_amplitude(word: BraidWord, v: float) -> float:
    """|<0|U|0>| of a golden link: |V| / 2^((n-1)/2), the relation that
    ``anyon_core.jones_majorana_abs`` inverts."""
    return abs(v) / 2.0 ** ((word.strands - 1) / 2)


def _phase_align(candidate: np.ndarray, reference: np.ndarray) -> float:
    """Max entry deviation after aligning a global phase to the reference."""
    idx = np.unravel_index(np.argmax(np.abs(reference)), reference.shape)
    lam = candidate[idx] / reference[idx]
    return float(np.max(np.abs(candidate - lam / abs(lam) * reference)))


def _pauli_words(terms) -> set[frozenset]:
    return {frozenset(t.factors.items()) for t in terms}


def _check(name: str, limit: tuple[float, str] = (math.inf, "")):
    """Decorate a check body, which returns ``(ok, detail)``, into the check:
    time the body and build its :class:`CheckResult`.  A body that runs
    ``limit[0]`` seconds or more fails; ``limit[1]`` is that limit as the
    report writes it."""
    def harness(body):
        @functools.wraps(body)
        def check(matrices: BraidMatrices) -> CheckResult:
            t0 = time.perf_counter()
            ok, detail = body(matrices)
            elapsed = time.perf_counter() - t0
            return CheckResult(name, ok and elapsed < limit[0], detail, elapsed, limit[1])
        return check
    return harness


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


@_check("anyon-golden-values", (0.1, "100 ms"))
def check_anyon_golden_values(matrices: BraidMatrices):
    worst_abs = 0.0
    worst_signed = 0.0
    for _, word, v in GOLDEN_LINKS:
        got_abs = anyon_core.jones_majorana_abs(word)
        worst_abs = max(worst_abs, abs(got_abs - abs(v)))
        worst_signed = max(worst_signed, abs(anyon_core.jones_su2_2(word) - v))
    return (worst_abs <= 1e-12 and worst_signed <= 1e-9,
            f"|V| dev {worst_abs:.2e} (tol 1e-12), signed dev {worst_signed:.2e} (tol 1e-9)")


@_check("amplitude-goldens")
def check_amplitude_goldens(matrices: BraidMatrices):
    worst = 0.0
    for _, word, v in GOLDEN_LINKS:
        state = anyon_core.evolve(word.letters, word.strands)
        worst = max(worst, abs(abs(complex(state[0])) - _golden_amplitude(word, v)))
    return worst <= 1e-12, f"max |amplitude| deviation {worst:.2e} (tol 1e-12)"


@_check("oracle-agreement")
def check_oracle_agreement(matrices: BraidMatrices):
    worst = 0.0
    for _, word, _ in GOLDEN_LINKS:
        oracle = kauffman_oracle.jones_at_i(word)
        worst = max(worst, abs(oracle - anyon_core.jones_su2_2(word)))
    unknot_ok = kauffman_oracle.jones_polynomial(BraidWord(2, (1,))) == 1
    return (worst <= 1e-9 and unknot_ok,
            f"max anyon/oracle deviation {worst:.2e} (tol 1e-9), "
            f"V(unknot)=1 {'exact' if unknot_ok else 'FAILED'}")


@_check("jw-spectra", (5.0, "5 s"))
def check_jw_spectra(matrices: BraidMatrices):
    worst = 0.0
    mismatch = ""
    for flabel, slabel in spin_sim.JW_PARTNERS.items():
        fermi_terms = spin_sim.fermionic_strings(flabel)
        spin_terms = spin_sim.spin_hamiltonian(slabel)
        fermi = commuting_spectrum(fermi_terms, spin_sim.N_SITES)
        spin = commuting_spectrum(spin_terms, spin_sim.N_SITES)
        worst = max(worst, float(np.max(np.abs(fermi - spin))))
        # equal spectra alone would pass any equally many +-1 terms
        if not mismatch and _pauli_words(fermi_terms) != _pauli_words(spin_terms):
            mismatch = f"Pauli words of {flabel} differ from {slabel}'s (signs ignored); "
    return (worst == 0.0 and not mismatch,
            f"{mismatch}max spectrum deviation {worst:.2e} (exact; closed-form spectra of commuting, "
            f"independent Pauli sums) over {len(spin_sim.JW_PARTNERS)} pairs")


@_check("protocol-intermediate-states")
def check_intermediate_states(matrices: BraidMatrices):
    coeffs = spin_sim.logical_decode(np.eye(8)[0])   # phi0's ground-basis amplitudes
    worst = 1.0
    count = 0
    for g in (1, -1, -2):
        refs = spin_sim.schedule_checkpoints(spin_sim.LETTER_NAMES[g], coeffs)
        for state, ref in zip(matrices.stages((g,)), refs):
            if ref is not None:
                worst = min(worst, spin_sim.amplitude_probability(ref, state))
                count += 1
    return (worst >= 1.0 - 1e-8,
            f"min checkpoint fidelity {worst:.12f} over {count} stage states "
            f"(tol 1-1e-8, tau={matrices.tau:g})")


@_check("final-states-probabilities")
def check_final_states(matrices: BraidMatrices):
    worst_p = 0.0
    worst_f = 1.0
    phi0 = matrices.state(())
    for name, word, v in GOLDEN_LINKS:
        final = matrices.state(word.letters)
        p_ref = _golden_amplitude(word, v) ** 2
        worst_p = max(worst_p, abs(spin_sim.amplitude_probability(phi0, final) - p_ref))
        logical = spin_sim.logical_encode(spin_sim.ground_basis().coefficients(final))
        worst_f = min(worst_f, float(abs(np.vdot(FINAL_LOGICAL_REFS[name], logical)) ** 2))
    return (worst_p <= 1e-8 and worst_f >= 1.0 - 1e-8,
            f"max probability deviation {worst_p:.2e} (tol 1e-8), "
            f"min final-state fidelity {worst_f:.12f}")


@_check("braid-matrix-reconstruction")
def check_braid_matrices(matrices: BraidMatrices):
    worst = 0.0
    for name in spin_sim.BRAID_NAMES:
        u, logical = matrices(name)
        worst = max(worst, _phase_align(u, GROUND_MATRIX_REFS[name]))
        worst = max(worst, _phase_align(logical, LOGICAL_MATRIX_REFS[name]))
    return worst <= 1e-8, f"max aligned entry deviation {worst:.2e} (tol 1e-8) over 4 generators"


@_check("chi-goldens")
def check_chi_goldens(matrices: BraidMatrices):
    _, logical = matrices("s1")
    factor = logical.reshape(4, 2, 4, 2)[:, 0, :, 0]   # spectator qubit stripped
    chi = tomography.chi_from_unitary(factor)
    dev = max(
        abs(chi.entry("II", "II") - 0.5),
        abs(chi.entry("XX", "XX") - 0.5),
        abs(chi.entry("XX", "II") - 0.5j),
    )
    return dev <= 1e-12, f"max chi entry deviation {dev:.2e} (tol 1e-12)"


@_check("property-suite")
def check_property_suite(matrices: BraidMatrices):
    failures = []

    generators = {pairs: anyon_core.braid_generators(pairs) for pairs in (2, 3)}
    for pairs, gens in generators.items():
        for g in gens:
            dev = np.max(np.abs(g.conj().T @ g - np.eye(g.shape[0])))
            if dev > 1e-12:
                failures.append(f"generator unitarity ({pairs} pairs): {dev:.2e}")

    b1, b2, b3, b4, b5 = generators[3]
    dev = np.max(np.abs(b2 @ b3 @ b2 - b3 @ b2 @ b3))
    if dev > 1e-12:
        failures.append(f"braid relation B2B3B2=B3B2B3: {dev:.2e}")
    dev = np.max(np.abs(b2 @ b4 - b4 @ b2))
    if dev > 1e-12:
        failures.append(f"far commutation [B2,B4]: {dev:.2e}")

    for fwd, bwd in (("s1", "s1^-1"), ("s2", "s2^-1")):
        uf, _ = matrices(fwd)
        ub, _ = matrices(bwd)
        dev = _phase_align(uf @ ub, np.eye(8))
        if dev > 1e-8:
            failures.append(f"{fwd} then {bwd} is not the identity: {dev:.2e}")

    # the 400 seeded words hold 303 distinct ones: each one's bracket is
    # computed once per run, in a dict that goes with the call
    brackets: dict[BraidWord, kauffman_oracle.LaurentPolynomial] = {}
    rng = random.Random(20108)
    for trial in range(200):
        strands = rng.randint(2, 4)
        base_len = rng.randint(0, 6)
        letters = [rng.choice([-1, 1]) * rng.randint(1, strands - 1) for _ in range(base_len)]
        k = rng.choice([-1, 1]) * rng.randint(1, strands - 1)
        pos = rng.randint(0, base_len)
        moved = letters[:pos] + [k, -k] + letters[pos:]
        lhs, rhs = BraidWord(strands, tuple(letters)), BraidWord(strands, tuple(moved))
        for word in (lhs, rhs):
            if word not in brackets:
                brackets[word] = kauffman_oracle.bracket(word)
        if brackets[lhs] != brackets[rhs]:
            failures.append(f"bracket changed under a cancelling pair (trial {trial})")
            break

    rng2 = np.random.default_rng(20108)
    term = spin_sim.SCHEDULES["s1"][0].term   # -x2x3
    pairing = spin_sim.PauliTerm(1.0, {3: "z"})
    for _ in range(5):
        raw = rng2.normal(size=spin_sim.DIM) + 1j * rng2.normal(size=spin_sim.DIM)
        state = raw / np.linalg.norm(raw)
        ground, excited = spin_sim._ground_excited_split(state, term)
        loss = abs(1.0 - np.linalg.norm(ground) ** 2 - np.linalg.norm(excited) ** 2)
        if loss > 1e-10:
            failures.append(f"cooling weight accounting lost {loss:.2e}")
        out = spin_sim.cooling_step(state, term, pairing)
        g2, e2 = spin_sim._ground_excited_split(out, term)
        if np.linalg.norm(e2) ** 2 > 1e-10 or abs(np.linalg.norm(out) - 1.0) > 1e-12:
            failures.append("cooling output leaks out of the ground space")

    return not failures, "; ".join(failures[:4]) or "all properties hold"


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


def run_all(matrices: BraidMatrices) -> list[CheckResult]:
    """Execute every check in fixed order on one shared ``matrices``, which
    carries its ``tau`` to the replay checks."""
    return [fn(matrices) for fn in CHECKS]


def report_artifacts(matrices: BraidMatrices) -> dict:
    """Reconstructed matrices for the machine-readable report: the process
    matrix of the mid-pair exchange's logical factor and the density matrix
    of the far exchange's final state, as nested [re, im] arrays."""
    _, logical = matrices("s1")
    chi = tomography.chi_from_unitary(logical.reshape(4, 2, 4, 2)[:, 0, :, 0])
    final = matrices.state((-2,))   # s2^-1 on phi0
    rho = tomography.density_matrix(
        spin_sim.logical_encode(spin_sim.ground_basis().coefficients(final))
    )
    return {
        "chi_mid_exchange_logical": tomography.matrix_to_json(chi.matrix, chi.labels),
        "density_far_exchange_final": tomography.matrix_to_json(
            rho, tuple(format(b, "03b") for b in range(8))
        ),
    }

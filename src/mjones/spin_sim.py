"""Ten-qubit Kitaev-chain braiding replayed as imaginary-time evolution.

The register models three fermionic chains (sites 1-2, 4-5-6, 8-9-10) with
connector sites 3 and 7.  The parent Hamiltonian

    H0 = -x1x2 - x4x5 - x5x6 - x8x9 - x9x10 + z3 + z7

has an eight-fold degenerate ground space (energy -7) spanned by product
states |x x zbar (x|xbar)^3 zbar (x|xbar)^3> that encode three logical
qubits, one per chain.  Exchanging chain endpoints is driven by a cycle of
Hamiltonians that differ by one or two commuting terms; each stage is
realised by imaginary-time evolution exp(-tau * term) of the newly added
terms followed by a non-dissipative cooling step that folds the suppressed
excited amplitude back onto the ground component.

Logical encoding: chain patterns map by Hadamard-type rotations

    chain 1:  |xx>   -> (|0> - |1>)/sqrt2,   |xbar xbar> -> (|0> + |1>)/sqrt2
    chains 2,3: |xxx> -> (|0> + |1>)/sqrt2,  |xbar^3>    -> (|1> - |0>)/sqrt2

The relative sign between chain 1 and chains 2,3 is fixed so that the
mid-pair exchange acts on the logical pair as (II + i XX)/sqrt2 (up to a
global phase); flipping it would conjugate that gate into (II - i XX).
With this choice the far-pair exchange comes out exactly I (x) (II - i YX)
/ sqrt2 for the anticlockwise direction.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iproduct

import numpy as np

from .braidlang import BraidWord
# every operator here is a pauli.PauliTerm: Hamiltonian terms and pairings
# with real coefficients, Majorana products with complex ones.  dense_sum has
# no caller here; it stays bound because perfbench/tracing.py wraps
# spin_sim.apply_pauli and spin_sim.dense_sum by name
from .pauli import PauliTerm, apply_pauli, dense_sum, majorana_string  # noqa: F401

N_SITES = 10
DIM = 1 << N_SITES
DEFAULT_TAU = 20.0
GROUND_ENERGY = -7.0

NORM_TOL = 1e-12
GROUND_TOL = 1e-10

BRAID_NAMES = ("s1", "s1^-1", "s2", "s2^-1")


class DegenerateEvolutionError(RuntimeError):
    """State annihilated by a projection step (no ground-space component)."""


def normalize(state: np.ndarray) -> np.ndarray:
    nrm = np.linalg.norm(state)
    if nrm < NORM_TOL:
        raise DegenerateEvolutionError("state has no weight in the surviving eigenspace")
    return state / nrm


# ---------------------------------------------------------------------------
# single-site eigenbases; capital letter = the -1 eigenstate ("bar")
# ---------------------------------------------------------------------------

_KETS = {
    "z": np.array([1, 0], dtype=complex),
    "Z": np.array([0, 1], dtype=complex),
    "x": np.array([1, 1], dtype=complex) / math.sqrt(2),
    "X": np.array([1, -1], dtype=complex) / math.sqrt(2),
    "y": np.array([1, 1j], dtype=complex) / math.sqrt(2),
    "Y": np.array([1, -1j], dtype=complex) / math.sqrt(2),
}


def product_state(pattern: str) -> np.ndarray:
    """Ten-character pattern (one axis letter per site) to a state vector."""
    if len(pattern) != N_SITES:
        raise ValueError(f"pattern {pattern!r} must have {N_SITES} characters")
    v = np.array([1.0 + 0j])
    for ch in pattern:
        # np.kron(v, ket) without its reshaping overhead
        v = (v[:, None] * _KETS[ch]).ravel()
    return v


def state_from_rows(rows) -> np.ndarray:
    """Normalised superposition of (coefficient, pattern) rows."""
    v = np.zeros(DIM, dtype=complex)
    for coeff, pattern in rows:
        v += coeff * product_state(pattern)
    return normalize(v)


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------


def _t(coeff: float, **factors) -> PauliTerm:
    # _t(-1, x=(1,2)) -> -x1x2 ; axes passed as keyword=site or site tuple
    fmap = {}
    for axis, sites in factors.items():
        for s in sites if isinstance(sites, tuple) else (sites,):
            fmap[s] = axis
    return PauliTerm(coeff, fmap)


_SPIN_TERMS: dict[str, list[PauliTerm]] = {
    "H0": [_t(-1, x=(1, 2)), _t(-1, x=(4, 5)), _t(-1, x=(5, 6)),
           _t(-1, x=(8, 9)), _t(-1, x=(9, 10)), _t(1, z=3), _t(1, z=7)],
    "H1": [_t(-1, x=(1, 2)), _t(-1, x=(2, 3)), _t(-1, x=(4, 5)), _t(-1, x=(5, 6)),
           _t(-1, x=(8, 9)), _t(-1, x=(9, 10)), _t(1, z=7)],
    "H2": [_t(-1, x=(1, 2)), _t(-1, x=(2, 3)), _t(1, x=3, y=4), _t(-1, x=(5, 6)),
           _t(-1, x=(8, 9)), _t(-1, x=(9, 10)), _t(1, z=7)],
    "H3": [_t(-1, x=(1, 2)), _t(-1, x=(2, 3)), _t(-1, x=(5, 6)),
           _t(-1, x=(8, 9)), _t(-1, x=(9, 10)), _t(1, z=4), _t(1, z=7)],
    "H'1": [_t(-1, x=(1, 2)), _t(-1, x=(5, 6)), _t(-1, x=(8, 9)), _t(-1, x=(9, 10)),
            _t(1, z=3), _t(1, z=4), _t(1, z=7)],
    "H'2": [_t(-1, x=(1, 2)), _t(-1, x=(5, 6)), _t(-1, y=5, z=6, x=7),
            _t(-1, x=(9, 10)), _t(1, z=3), _t(1, z=4), _t(1, z=8)],
    "H'3": [_t(-1, x=(1, 2)), _t(-1, x=(5, 6)), _t(-1, y=5, z=6, x=7),
            _t(1, x=7, y=8), _t(-1, x=(9, 10)), _t(1, z=3), _t(1, z=4)],
    "H'4": [_t(-1, x=(1, 2)), _t(-1, x=(5, 6)), _t(-1, y=5, z=6, x=7),
            _t(-1, x=(8, 9)), _t(-1, x=(9, 10)), _t(1, z=3), _t(1, z=4)],
    "H'5": [_t(-1, x=(1, 2)), _t(-1, x=(5, 6)), _t(-1, x=(8, 9)), _t(-1, x=(9, 10)),
            _t(1, z=3), _t(1, z=4), _t(1, z=7)],
}

# fermionic stage Hamiltonians: i * gamma * gamma pair lists
_FERMI_PAIRS: dict[str, list[tuple[tuple[int, str], tuple[int, str]]]] = {
    "HM0": [((1, "b"), (2, "a")), ((4, "b"), (5, "a")), ((5, "b"), (6, "a")),
            ((8, "b"), (9, "a")), ((9, "b"), (10, "a")), ((3, "a"), (3, "b")),
            ((7, "a"), (7, "b"))],
    "HM1": [((1, "b"), (2, "a")), ((2, "b"), (3, "a")), ((4, "b"), (5, "a")),
            ((5, "b"), (6, "a")), ((8, "b"), (9, "a")), ((9, "b"), (10, "a")),
            ((7, "a"), (7, "b"))],
    "HM2": [((1, "b"), (2, "a")), ((2, "b"), (3, "a")), ((3, "b"), (4, "b")),
            ((5, "b"), (6, "a")), ((8, "b"), (9, "a")), ((9, "b"), (10, "a")),
            ((7, "a"), (7, "b"))],
    "HM3": [((1, "b"), (2, "a")), ((2, "b"), (3, "a")), ((5, "b"), (6, "a")),
            ((8, "b"), (9, "a")), ((9, "b"), (10, "a")), ((4, "a"), (4, "b")),
            ((7, "a"), (7, "b"))],
    "H'M1": [((1, "b"), (2, "a")), ((5, "b"), (6, "a")), ((8, "b"), (9, "a")),
             ((9, "b"), (10, "a")), ((3, "a"), (3, "b")), ((4, "a"), (4, "b")),
             ((7, "a"), (7, "b"))],
    "H'M2": [((1, "b"), (2, "a")), ((5, "a"), (7, "a")), ((5, "b"), (6, "a")),
             ((9, "b"), (10, "a")), ((3, "a"), (3, "b")), ((4, "a"), (4, "b")),
             ((8, "a"), (8, "b"))],
    "H'M3": [((1, "b"), (2, "a")), ((5, "a"), (7, "a")), ((5, "b"), (6, "a")),
             ((7, "b"), (8, "b")), ((9, "b"), (10, "a")), ((3, "a"), (3, "b")),
             ((4, "a"), (4, "b"))],
    "H'M4": [((1, "b"), (2, "a")), ((5, "a"), (7, "a")), ((5, "b"), (6, "a")),
             ((8, "b"), (9, "a")), ((9, "b"), (10, "a")), ((3, "a"), (3, "b")),
             ((4, "a"), (4, "b"))],
    "H'M5": [((1, "b"), (2, "a")), ((5, "b"), (6, "a")), ((8, "b"), (9, "a")),
             ((9, "b"), (10, "a")), ((3, "a"), (3, "b")), ((4, "a"), (4, "b")),
             ((7, "a"), (7, "b"))],
}

# fermionic label -> spin partner with identical spectrum
JW_PARTNERS = {
    "HM0": "H0", "HM1": "H1", "HM2": "H2", "HM3": "H3",
    "H'M1": "H'1", "H'M2": "H'2", "H'M3": "H'3", "H'M4": "H'4", "H'M5": "H'5",
}


def spin_hamiltonian(label: str) -> tuple[PauliTerm, ...]:
    """The commuting Pauli terms of a spin stage Hamiltonian."""
    if label not in _SPIN_TERMS:
        raise KeyError(f"unknown spin Hamiltonian label {label!r}")
    return tuple(_SPIN_TERMS[label])


def fermionic_strings(label: str) -> list[PauliTerm]:
    """The i*gamma*gamma products as Pauli terms, in the listed pair order.

    Each product is Hermitian: its coefficient is +-1, held as a complex
    number with zero imaginary part.  Writing a
    pair in the opposite order negates the term; the spectrum is insensitive
    to these signs because the strings are independent and commute.
    """
    if label not in _FERMI_PAIRS:
        raise KeyError(f"unknown fermionic Hamiltonian label {label!r}")
    out = []
    for (s1, f1), (s2, f2) in _FERMI_PAIRS[label]:
        prod = majorana_string(s1, f1, N_SITES) * majorana_string(s2, f2, N_SITES)
        out.append(PauliTerm(1j * prod.coefficient, prod.factors))
    return out


# ---------------------------------------------------------------------------
# ground space and logical encoding
# ---------------------------------------------------------------------------


def _chain_patterns(s1: int, s2: int, s3: int) -> str:
    c1 = "xx" if s1 == 0 else "XX"
    c2 = "xxx" if s2 == 0 else "XXX"
    c3 = "xxx" if s3 == 0 else "XXX"
    return c1 + "Z" + c2 + "Z" + c3


@dataclass(frozen=True)
class GroundBasis:
    """The eight product ground states of H0, ordered by chain flip flags
    (chain 1 slowest, chain 3 fastest)."""

    vectors: np.ndarray          # 8 x 2^10, rows are the basis states

    def coefficients(self, state: np.ndarray) -> np.ndarray:
        """Expansion of a state over the basis; the state must lie in the
        ground space."""
        coeffs = self.vectors.conj() @ state
        residual = np.linalg.norm(state) ** 2 - np.linalg.norm(coeffs) ** 2
        if residual > GROUND_TOL:
            raise ValueError(f"state leaks out of the ground space ({residual:.3e})")
        return coeffs

    def combine(self, coeffs: np.ndarray) -> np.ndarray:
        return self.vectors.T @ np.asarray(coeffs, dtype=complex)


@lru_cache(maxsize=1)
def ground_basis() -> GroundBasis:
    vectors = np.array([product_state(_chain_patterns(*flags))
                        for flags in iproduct((0, 1), repeat=3)])
    # H0 v = -7 v for every vector, from the terms' sparse actions
    h0 = spin_hamiltonian("H0")
    for i, v in enumerate(vectors):
        h0v = sum(apply_pauli(term, v, N_SITES) for term in h0)
        assert np.max(np.abs(h0v - GROUND_ENERGY * v)) < 1e-10, \
            f"basis vector {i} is not an H0 eigenvector at energy {GROUND_ENERGY}"
    gram = vectors.conj() @ vectors.T
    assert np.max(np.abs(gram - np.eye(8))) < 1e-10, "ground basis is not orthonormal"
    vectors.setflags(write=False)
    return GroundBasis(vectors=vectors)


def _encode_matrix() -> np.ndarray:
    # chain 1: |xx> -> (|0>-|1>)/sqrt2 ; chains 2,3: |xxx> -> (|0>+|1>)/sqrt2,
    # bar patterns -> (|1>-|0>)/sqrt2.  See module docstring for the sign choice.
    d1 = np.array([[1, 1], [-1, 1]]) / math.sqrt(2)
    d23 = np.array([[1, -1], [1, 1]]) / math.sqrt(2)
    return np.kron(d1, np.kron(d23, d23))


ENCODE = _encode_matrix()
ENCODE.setflags(write=False)


def logical_encode(amplitudes: np.ndarray) -> np.ndarray:
    """Ground-basis amplitudes -> three-qubit logical vector (|000>..|111>)."""
    amplitudes = np.asarray(amplitudes, dtype=complex)
    if amplitudes.shape != (8,):
        raise ValueError("expected 8 ground-basis amplitudes")
    if abs(np.linalg.norm(amplitudes) - 1.0) > 1e-10:
        raise ValueError("amplitudes must be normalised")
    return ENCODE @ amplitudes


def logical_decode(logical: np.ndarray) -> np.ndarray:
    """Inverse of :func:`logical_encode`."""
    logical = np.asarray(logical, dtype=complex)
    if logical.shape != (8,):
        raise ValueError("expected an 8-component logical vector")
    return ENCODE.conj().T @ logical


def prepare_logical(index: int) -> np.ndarray:
    """Physical ten-qubit state encoding the logical basis state ``index``."""
    logical = np.zeros(8, dtype=complex)
    logical[index] = 1.0
    return ground_basis().combine(logical_decode(logical))


def ground_space_weight(state: np.ndarray) -> float:
    coeffs = ground_basis().vectors.conj() @ state
    return float(np.linalg.norm(coeffs) ** 2)


def amplitude_probability(a: np.ndarray, b: np.ndarray) -> float:
    """Overlap probability |<a|b>|^2 of two normalised states."""
    return float(abs(np.vdot(a, b)) ** 2)


# ---------------------------------------------------------------------------
# imaginary-time evolution and non-dissipative cooling
# ---------------------------------------------------------------------------


def _check_unit_spectrum(term: PauliTerm) -> None:
    if abs(abs(term.coefficient) - 1.0) > 1e-12:
        raise ValueError("imaginary-time steps need a term with a +-1 spectrum")


def _check_pairing(term: PauliTerm, pairing: PauliTerm) -> None:
    # a Pauli string maps the +1 eigenspace of another exactly onto its -1
    # eigenspace when the two anticommute, and into itself when they commute
    if pairing.commutes_with(term):
        raise ValueError("pairing does not map the excited eigenspace onto the ground one")


def _ground_excited_split(state: np.ndarray, term: PauliTerm):
    tv = apply_pauli(term, state, N_SITES)
    ground = (state - tv) / 2.0
    return ground, state - ground


def _stage(state: np.ndarray, term: PauliTerm, tau: float,
           pairing: PauliTerm | None) -> np.ndarray:
    """normalize(g + exp(-2 tau) * (pairing e, or e without a pairing)).

    g = (s - T s)/2 and e = s - g are the parts of the state in the ground
    (-1) and excited (+1) eigenspaces of the term T.  exp(-tau T)|s> is
    proportional to g + exp(-2 tau) e, which stays finite for every tau up
    to inf; the pairing then folds the suppressed excited part onto the
    ground eigenspace.  Without a pairing, a state with no ground part
    would survive any finite tau but vanish in the projective limit; that
    degenerate case is rejected for tau > 0 so schedules fail loudly
    instead of silently stalling.
    """
    if tau < 0:
        raise ValueError("tau must be non-negative")
    _check_unit_spectrum(term)
    ground, excited = _ground_excited_split(state, term)
    if pairing is not None:
        _check_pairing(term, pairing)
        excited = apply_pauli(pairing, excited, N_SITES)
    elif tau > 0 and np.linalg.norm(ground) < NORM_TOL:
        raise DegenerateEvolutionError(
            "state is orthogonal to the surviving eigenspace of the term"
        )
    return normalize(ground + math.exp(-2.0 * tau) * excited)


def ite_apply(state: np.ndarray, term: PauliTerm, tau: float) -> np.ndarray:
    """Normalised exp(-tau * term) |state>; tau = inf is the projection."""
    return _stage(state, term, tau, None)


def cooling_step(state: np.ndarray, term: PauliTerm, pairing: PauliTerm,
                 tau: float = 0.0) -> np.ndarray:
    """One exchange stage: exp(-tau * term), then the non-dissipative fold.

    ``pairing`` is a Pauli string anticommuting with ``term``, which carries
    the excited eigenspace isometrically onto the ground one; a commuting
    pairing is rejected.  The fold discards nothing: the output lies wholly
    in the ground eigenspace.  With tau = 0 it is the bare fold.
    """
    return _stage(state, term, tau, pairing)


# ---------------------------------------------------------------------------
# braid schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScheduleStep:
    """One stage transition: ITE + cooling of the newly introduced commuting
    term."""

    term: PauliTerm
    pairing: PauliTerm


# Pairings are single-site flips anticommuting with the step term.  The
# -z3 sign on the first mid-pair step is fixed by the requirement that the
# fold reproduces the stage's ground state exactly; remaining signs only
# touch the exponentially suppressed residue.
SCHEDULES: dict[str, tuple[ScheduleStep, ...]] = {
    "s1": (
        ScheduleStep(_t(-1, x=(2, 3)), _t(-1, z=3)),
        ScheduleStep(_t(1, x=3, y=4), _t(1, z=4)),
        ScheduleStep(_t(1, z=4), _t(1, x=4)),
        ScheduleStep(_t(1, z=3), _t(1, x=3)),
        ScheduleStep(_t(-1, x=(4, 5)), _t(1, z=4)),
    ),
    "s1^-1": (
        ScheduleStep(_t(-1, x=(2, 3)), _t(-1, z=3)),
        ScheduleStep(_t(1, z=4), _t(1, x=4)),
        ScheduleStep(_t(1, x=3, y=4), _t(1, z=4)),
        ScheduleStep(_t(-1, x=(4, 5)), _t(1, z=4)),
        ScheduleStep(_t(1, z=3), _t(1, x=3)),
    ),
    "s2": (
        ScheduleStep(_t(1, z=4), _t(1, x=4)),
        ScheduleStep(_t(1, z=8), _t(1, x=8)),
        ScheduleStep(_t(-1, y=5, z=6, x=7), _t(1, z=7)),
        ScheduleStep(_t(1, x=7, y=8), _t(1, z=8)),
        ScheduleStep(_t(-1, x=(8, 9)), _t(1, z=8)),
        ScheduleStep(_t(1, z=7), _t(1, x=7)),
        ScheduleStep(_t(-1, x=(4, 5)), _t(1, z=4)),
    ),
    "s2^-1": (
        ScheduleStep(_t(1, z=4), _t(1, x=4)),
        ScheduleStep(_t(-1, y=5, z=6, x=7), _t(1, z=7)),
        ScheduleStep(_t(1, x=7, y=8), _t(1, z=8)),
        ScheduleStep(_t(1, z=8), _t(1, x=8)),
        ScheduleStep(_t(-1, x=(8, 9)), _t(1, z=8)),
        ScheduleStep(_t(1, z=7), _t(1, x=7)),
        ScheduleStep(_t(-1, x=(4, 5)), _t(1, z=4)),
    ),
}


def braid_sequence(name: str, state: np.ndarray, tau: float = DEFAULT_TAU) -> np.ndarray:
    """Run the full exchange schedule for one braid generator.

    The input must lie in the ground space of H0 (weight deficit at most
    1e-10); the output does again, up to residues of order exp(-2 tau).
    """
    if name not in SCHEDULES:
        raise KeyError(f"unknown braid name {name!r}; choose from {BRAID_NAMES}")
    if 1.0 - ground_space_weight(state) > GROUND_TOL:
        raise ValueError("input state is not in the ground space of H0")
    for state in braid_sequence_states(name, state, tau):
        pass
    return state


def braid_sequence_states(name: str, state: np.ndarray, tau: float = DEFAULT_TAU):
    """Yield the state after every schedule step (for stage-by-stage checks)."""
    for step in SCHEDULES[name]:
        state = cooling_step(state, step.term, step.pairing, tau)
        yield state


def extract_braid_matrix(name: str, tau: float = DEFAULT_TAU) -> tuple[np.ndarray, np.ndarray]:
    """Ground-space matrix of a braid schedule and its logical form.

    Columns are the schedule applied to each ground-basis vector, expressed
    back in ground-basis coordinates; the logical form conjugates by the
    encoding map.
    """
    basis = ground_basis()
    u = np.zeros((8, 8), dtype=complex)
    for j in range(8):
        final = braid_sequence(name, basis.vectors[j].copy(), tau)
        u[:, j] = basis.coefficients(final)
    logical = ENCODE @ u @ ENCODE.conj().T
    return u, logical


def braid_word_state(word: BraidWord, state: np.ndarray | None = None,
                     tau: float = DEFAULT_TAU) -> np.ndarray:
    """Apply a link braid word (generators 1 and 2 only) to a state,
    defaulting to the logical |000> preparation."""
    if word.max_generator() > 2:
        raise ValueError("the ten-site register realises generators s1 and s2 only")
    if state is None:
        state = prepare_logical(0)
    names = {1: "s1", -1: "s1^-1", 2: "s2", -2: "s2^-1"}
    for g in word.letters:
        state = braid_sequence(names[g], state, tau)
    return state


def jones_spin_abs(word: BraidWord, tau: float = DEFAULT_TAU) -> float:
    """|V| at t = i from the protocol return amplitude: 2^{(n-1)/2} |<phi0|phi_f>|
    with n the word's strand count (spectator chains contribute factor 1)."""
    if word.strands > 3:
        raise ValueError("the ten-site register supports at most three strands")
    phi0 = prepare_logical(0)
    final = braid_word_state(word, phi0.copy(), tau)
    return float(2.0 ** ((word.strands - 1) / 2.0) * abs(np.vdot(phi0, final)))


# ---------------------------------------------------------------------------
# ancilla-circuit form of a cooling step (demonstration path)
# ---------------------------------------------------------------------------


def ancilla_cooling_circuit(state: np.ndarray, term: PauliTerm, pairing: PauliTerm,
                            tau: float, alpha: float = 0.0) -> np.ndarray:
    """Eleven-qubit rendering of one cooling step.

    The ancilla (most significant qubit) passes through Hadamard and the
    phase gate diag(1, -i e^{i alpha}); the evolution correlates it with
    the energy branch while weighting amplitudes by exp(-tau E); the
    controlled pairing folds the excited branch onto the ground space and a
    final Hadamard closes the loop.  For any tau the system register ends
    entirely in the ground eigenspace of the term; at alpha = pi/2 and
    tau -> 0 the ancilla-|0> branch reproduces :func:`cooling_step`.
    """
    _check_unit_spectrum(term)
    _check_pairing(term, pairing)
    ground, excited = _ground_excited_split(state, term)
    # weights exp(tau) and exp(-tau), divided by exp(tau) so that every tau
    # up to inf stays finite; normalize removes the common factor
    branch0 = ground
    branch1 = (-1j * cmath.exp(1j * alpha)) * math.exp(-2.0 * tau) * apply_pauli(
        pairing, excited, N_SITES)
    # final Hadamard on the ancilla
    full = np.concatenate([(branch0 + branch1), (branch0 - branch1)]) / math.sqrt(2)
    return normalize(full)


# ---------------------------------------------------------------------------
# reference checkpoint states for the schedules
# ---------------------------------------------------------------------------


def _rows8(coeffs, mid) -> list[tuple[complex, str]]:
    # mid(s1, s2) -> characters for sites 3..7; chains 1 and 3 follow the flags
    rows = []
    for i, (s1, s2, s3) in enumerate(iproduct((0, 1), repeat=3)):
        c1 = "xx" if s1 == 0 else "XX"
        c3 = "xxx" if s3 == 0 else "XXX"
        rows.append((coeffs[i], c1 + mid(s1, s2) + c3))
    return rows


def _rows_blocks567(coeffs8, site8) -> list[tuple[complex, str]]:
    # blocks keyed by (chain-1 flag, chain-3 flag); within each block the four
    # site-5,6,7 patterns of the three-site term's ground space
    a, b, g, d, e, k, m, n = coeffs8
    pairs = {(0, 0): (a, g), (0, 1): (b, d), (1, 0): (e, m), (1, 1): (k, n)}
    pat567 = ("yzx", "YZx", "YzX", "yZX")
    base = (
        lambda p, q: p - 1j * q,
        lambda p, q: 1j * p + q,
        lambda p, q: -1j * p + q,
        lambda p, q: -p - 1j * q,
    )
    rows = []
    for (s1, s3), (p, q) in pairs.items():
        c1 = "xx" if s1 == 0 else "XX"
        for j in range(4):
            ch8, phase = site8[j]
            if ch8 is None:
                tail = "xxx" if s3 == 0 else "XXX"
            else:
                tail = ch8 + ("xx" if s3 == 0 else "XX")
            rows.append((phase(s3) * base[j](p, q), c1 + "ZZ" + pat567[j] + tail))
    return rows


def schedule_checkpoints(name: str, coeffs8) -> list[np.ndarray | None]:
    """Reference state after each schedule step, for a ground-space input
    with the given basis amplitudes; None where no closed form is tabulated.

    These are the analytically worked stage-by-stage ground states of the
    exchange; fidelity against them pins every intermediate of the replay.
    """
    a, b, g, d, e, k, m, n = np.asarray(coeffs8, dtype=complex)
    if name == "s1":
        return [
            state_from_rows(_rows8(
                [a, b, g, d, -e, -k, -m, -n],
                lambda s1, s2: ("x" if s1 == 0 else "X") + ("xxx" if s2 == 0 else "XXX") + "Z")),
            state_from_rows(_rows8(
                [1j*a, 1j*b, g, d, -e, -k, -1j*m, -1j*n],
                lambda s1, s2: ("xY" if s1 == 0 else "Xy") + ("xx" if s2 == 0 else "XX") + "Z")),
            state_from_rows(_rows8(
                [a, b, -1j*g, -1j*d, -1j*e, -1j*k, m, n],
                lambda s1, s2: ("x" if s1 == 0 else "X") + "Z" + ("xx" if s2 == 0 else "XX") + "Z")),
            state_from_rows(_rows8(
                [a, b, -1j*g, -1j*d, 1j*e, 1j*k, -m, -n],
                lambda s1, s2: "ZZ" + ("xx" if s2 == 0 else "XX") + "Z")),
            state_from_rows(_rows8(
                [a, b, 1j*g, 1j*d, 1j*e, 1j*k, m, n],
                lambda s1, s2: "Z" + ("xxx" if s2 == 0 else "XXX") + "Z")),
        ]
    if name == "s1^-1":
        return [
            None,
            state_from_rows(_rows8(
                [a, b, -g, -d, -e, -k, m, n],
                lambda s1, s2: ("x" if s1 == 0 else "X") + "Z" + ("xx" if s2 == 0 else "XX") + "Z")),
            state_from_rows(_rows8(
                [a, b, -g, -d, e, k, -m, -n],
                lambda s1, s2: ("xY" if s1 == 0 else "Xy") + ("xx" if s2 == 0 else "XX") + "Z")),
            state_from_rows(_rows8(
                [a, b, -1j*g, -1j*d, 1j*e, 1j*k, -m, -n],
                lambda s1, s2: ("x" if s1 == 0 else "X") + ("xxx" if s2 == 0 else "XXX") + "Z")),
            state_from_rows(_rows8(
                [a, b, -1j*g, -1j*d, -1j*e, -1j*k, m, n],
                lambda s1, s2: "Z" + ("xxx" if s2 == 0 else "XXX") + "Z")),
        ]
    if name == "s2^-1":
        return [
            state_from_rows(_rows8(
                [a, b, -g, -d, e, k, -m, -n],
                lambda s1, s2: "ZZ" + ("xx" if s2 == 0 else "XX") + "Z")),
            state_from_rows(_rows_blocks567(coeffs8, [(None, lambda s3: 1)] * 4)),
            state_from_rows(_rows_blocks567(coeffs8, [
                ("Y", lambda s3: 1j if s3 == 0 else 1),
                ("Y", lambda s3: 1j if s3 == 0 else 1),
                ("y", lambda s3: 1 if s3 == 0 else 1j),
                ("y", lambda s3: 1 if s3 == 0 else 1j)])),
            state_from_rows(_rows_blocks567(coeffs8, [
                ("Z", lambda s3: 1 if s3 == 0 else -1j),
                ("Z", lambda s3: 1 if s3 == 0 else -1j),
                ("Z", lambda s3: 1j if s3 == 0 else -1),
                ("Z", lambda s3: 1j if s3 == 0 else -1)])),
            None,
            state_from_rows(_rows8(
                [a - g, b + d, -(a + g), b - d, e - m, k + n, -(e + m), k - n],
                lambda s1, s2: "ZZ" + ("xx" if s2 == 0 else "XX") + "Z")),
            state_from_rows(_rows8(
                [a - g, b + d, a + g, -(b - d), e - m, k + n, e + m, -(k - n)],
                lambda s1, s2: "Z" + ("xxx" if s2 == 0 else "XXX") + "Z")),
        ]
    if name == "s2":
        return [
            state_from_rows(_rows8(
                [a, b, -g, -d, e, k, -m, -n],
                lambda s1, s2: "ZZ" + ("xx" if s2 == 0 else "XX") + "Z")),
        ] + [None] * 6
    raise KeyError(f"unknown braid name {name!r}")

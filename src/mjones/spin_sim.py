"""Ten-qubit Kitaev-chain braiding replayed as imaginary-time evolution.

The register models three fermionic chains (sites 1-2, 4-5-6, 8-9-10) with
connector sites 3 and 7.  The parent Hamiltonian

    H0 = -x1x2 - x4x5 - x5x6 - x8x9 - x9x10 + z3 + z7

has an eight-fold degenerate ground space (energy -7) spanned by product
states |x x zbar (x|xbar)^3 zbar (x|xbar)^3> that encode three logical
qubits, one per chain.  Exchanging chain endpoints is driven by a cycle of
Hamiltonians, one schedule step each: a step brings in one term and drops
those that anticommute with it, so each stage Hamiltonian is H0 run through
the first steps of a schedule (``spin_hamiltonian``).  A step is realised by
imaginary-time evolution exp(-tau * term) of its term followed by a
non-dissipative cooling step that folds the suppressed excited amplitude
back onto the ground component.  A ``ScheduleStep`` checks its term's +-1
spectrum and its anticommuting pairing once, when it is built, so a
schedule's stages run the fold kernel (``_fold``) without checks;
``cooling_step`` and ``ite_apply`` check every call.  The worked
checkpoint states (``schedule_checkpoints``) build all the product states
of their rows in one pass over the sites (``state_from_rows``).

Logical encoding: chain patterns map by Hadamard-type rotations

    chain 1:  |xx>   -> (|0> - |1>)/sqrt2,   |xbar xbar> -> (|0> + |1>)/sqrt2
    chains 2,3: |xxx> -> (|0> + |1>)/sqrt2,  |xbar^3>    -> (|1> - |0>)/sqrt2

The relative sign between chain 1 and chains 2,3 is fixed so that the
mid-pair exchange acts on the logical pair as (II + i XX)/sqrt2 (up to a
global phase); flipping it would conjugate that gate into (II - i XX).
With this choice the far-pair exchange comes out exactly I (x) (II - i YX)
/ sqrt2 for the anticlockwise direction.

|V| of a word comes from one of two runs of the same schedules, chosen by
tau alone (``spin_method``).  The vector replay (``jones_spin_replay``) is
the finite-tau experiment.  Its stage is normalize(g + e^(-2 tau) P e), with
g and e the term's ground and excited parts and P the pairing.  Once
e^(-2 tau) <= 2^-53, the double's unit roundoff, that is tau >= WALK_TAU =
53 ln2 / 2 ~ 18.37, the stage equals its tau -> inf limit to within one
rounding.  That limit is a forced Pauli measurement: project onto the
term's -1 eigenspace, or apply P if g = 0.  The Majorana exchanges are
Clifford (Bravyi & Kitaev 2002), phi0 = prepare_logical(0) is a stabilizer
state (``PHI0_GENERATORS``), and so ``jones_spin_tableau`` runs every stage
as an exact stabilizer-tableau walk (``pauli.StabilizerState``).  It reads
|<phi0|phi_f>|^2 = 2^-k off the k random outcomes of measuring phi0's ten
generators on the final state, or 0 when one is contradicted.  The four
letters take phi0 to only 24 distinct stabilizer states, so the walk runs
on the shared finite automaton (``automaton.Automaton``), filled on first
use: each (state, letter) runs its stages once, each state's k is read
once, and every later letter is one index into its state's row, a list.
``verify`` and the stage-by-stage checks run the replay at their own tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product as iproduct

import numpy as np

from .automaton import Automaton
from .braidlang import DEFAULT_TAU, BraidWord, CapacityError, DegenerateEvolutionError
# every operator here is a pauli.PauliTerm: Hamiltonian terms and pairings
# with real coefficients, Majorana products with complex ones.  dense_sum has
# no caller here; it stays bound because perfbench/tracing.py wraps
# spin_sim.apply_pauli and spin_sim.dense_sum by name
from .pauli import PauliTerm, apply_pauli, dense_sum, majorana_string  # noqa: F401
from .pauli import CERTAIN, CONTRADICTED, RANDOM, StabilizerState, pauli_word

N_SITES = 10
DIM = 1 << N_SITES
GROUND_ENERGY = -7.0

NORM_TOL = 1e-12
GROUND_TOL = 1e-10

LETTER_NAMES = {1: "s1", -1: "s1^-1", 2: "s2", -2: "s2^-1"}
BRAID_NAMES = tuple(LETTER_NAMES.values())


def _norm(state: np.ndarray) -> float:
    # the same sum np.linalg.norm forms for a complex vector (numpy 2.4),
    # without its dispatch; the replay calls this on every stage
    re, im = state.real, state.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _nonzero_norm(state: np.ndarray) -> float:
    nrm = _norm(state)
    if nrm < NORM_TOL:
        raise DegenerateEvolutionError("state has no weight in the surviving eigenspace")
    return nrm


def normalize(state: np.ndarray) -> np.ndarray:
    """state / |state| as a new complex array: the float64 view times
    1/|state|, the product numpy's complex division by c + 0i forms too,
    so only the sign of an exact zero part can differ.  A real or strided
    state is taken as a contiguous complex array first."""
    state = np.ascontiguousarray(state, dtype=complex)
    return (state.view(np.float64) * (1.0 / _nonzero_norm(state))).view(complex)


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


# the kets stacked, one row per axis letter, and each letter's row
_KET_ROWS = np.array(list(_KETS.values()))
_KET_ROW = {ch: i for i, ch in enumerate(_KETS)}


def _product_states(patterns) -> np.ndarray:
    """Row r is the product state of ``patterns[r]``, from one pass over the
    sites: each row's partial state times its ket at the next site, so each
    row is the Kronecker product of its kets taken left to right."""
    for pattern in patterns:
        if len(pattern) != N_SITES:
            raise ValueError(f"pattern {pattern!r} must have {N_SITES} characters")
    rows = len(patterns)
    # kets[site][r] is row r's ket at that site
    kets = _KET_ROWS[np.array([[_KET_ROW[ch] for ch in pattern] for pattern in patterns]).T]
    v = np.ones((rows, 1), dtype=complex)
    for ket in kets:
        # the two entries of each new pair written as two long products, not
        # as one broadcast whose inner loop would be the pair
        out = np.empty((rows, v.shape[1], 2), dtype=complex)
        np.multiply(v, ket[:, :1], out=out[:, :, 0])
        np.multiply(v, ket[:, 1:], out=out[:, :, 1])
        v = out.reshape(rows, -1)
    return v


def product_state(pattern: str) -> np.ndarray:
    """Ten-character pattern (one axis letter per site) to a state vector."""
    return _product_states((pattern,))[0]


def state_from_rows(rows) -> np.ndarray:
    """Normalised superposition of (coefficient, pattern) rows: every row's
    product state from one pass over the sites, then the rows weighted and
    summed in their listed order."""
    coeffs, patterns = zip(*rows)
    v = np.zeros(DIM, dtype=complex)
    for coeff, state in zip(coeffs, _product_states(patterns)):
        v += coeff * state
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


# H0, and the stages the paper labels as (schedule, steps run from H0)
_H0_TERMS = (_t(-1, x=(1, 2)), _t(-1, x=(4, 5)), _t(-1, x=(5, 6)),
             _t(-1, x=(8, 9)), _t(-1, x=(9, 10)), _t(1, z=3), _t(1, z=7))
_STAGES = {"H0": ("s1", 0), "H1": ("s1", 1), "H2": ("s1", 2), "H3": ("s1", 3),
           "H'1": ("s2", 1), "H'2": ("s2", 3), "H'3": ("s2", 4), "H'4": ("s2", 5),
           "H'5": ("s2", 6)}

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

# fermionic label -> spin partner with identical spectrum: the label without M
JW_PARTNERS = {label: label.replace("M", "") for label in _FERMI_PAIRS}


def spin_hamiltonian(label: str) -> tuple[PauliTerm, ...]:
    """The commuting Pauli terms of a labelled spin stage Hamiltonian."""
    if label not in _STAGES:
        raise KeyError(f"unknown spin Hamiltonian label {label!r}")
    return _stage_terms(*_STAGES[label])


@lru_cache(maxsize=None)
def _stage_terms(name: str, steps: int) -> tuple[PauliTerm, ...]:
    """H0 run through the first ``steps`` steps of schedule ``name``: each
    step drops the terms that anticommute with its term, then appends it."""
    terms = _H0_TERMS
    for step in SCHEDULES[name][:steps]:
        terms = (*(t for t in terms if t.commutes_with(step.term)), step.term)
    return terms


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
    bras: np.ndarray             # vectors.conj(), the rows as bras

    def coefficients(self, state: np.ndarray) -> np.ndarray:
        """Expansion of a state over the basis; the state must lie in the
        ground space."""
        coeffs = self.bras @ state
        residual = _norm(state) ** 2 - _norm(coeffs) ** 2
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
    bras = vectors.conj()
    gram = bras @ vectors.T
    assert np.max(np.abs(gram - np.eye(8))) < 1e-10, "ground basis is not orthonormal"
    vectors.setflags(write=False)
    bras.setflags(write=False)
    return GroundBasis(vectors=vectors, bras=bras)


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
    if abs(_norm(amplitudes) - 1.0) > 1e-10:
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
    coeffs = ground_basis().bras @ state
    return _norm(coeffs) ** 2


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
    # (s - T s) * 0.5 on the float64 view, as in ``_fold``
    ground = state - apply_pauli(term, state, N_SITES)
    halved = ground.view(np.float64)
    halved *= 0.5
    return ground, state - ground


def _fold(state: np.ndarray, term: PauliTerm, tau: float,
          pairing: PauliTerm | None) -> np.ndarray:
    """normalize(g + exp(-2 tau) * (pairing e, or e without a pairing)).

    g = (s - T s)/2 and e = s - g are the parts of the state in the ground
    (-1) and excited (+1) eigenspaces of the term T.  exp(-tau T)|s> is
    proportional to g + exp(-2 tau) e, which stays finite for every tau up
    to inf; the pairing then folds the suppressed excited part onto the
    ground eigenspace.  Without a pairing, a state with no ground part
    would survive any finite tau but vanish in the projective limit; that
    degenerate case is rejected for tau > 0 so schedules fail loudly
    instead of silently stalling.  The caller has checked tau, the term's
    +-1 spectrum and the pairing (``_stage``, ``ScheduleStep``).

    The products with a real scalar (the halving, exp(-2 tau), 1/norm) run
    in place on the float64 view of fresh arrays, with the values numpy's
    complex arithmetic gets by casting the scalar to c + 0i; only the sign
    of an exact zero part can differ.  The products with the Pauli
    coefficient vectors stay complex.
    """
    ground, excited = _ground_excited_split(state, term)
    if pairing is not None:
        excited = apply_pauli(pairing, excited, N_SITES)
    elif tau > 0 and _norm(ground) < NORM_TOL:
        raise DegenerateEvolutionError(
            "state is orthogonal to the surviving eigenspace of the term"
        )
    # excited becomes normalize(ground + exp(-2 tau) * excited)
    folded = excited.view(np.float64)
    folded *= math.exp(-2.0 * tau)
    folded += ground.view(np.float64)
    folded *= 1.0 / _nonzero_norm(excited)
    return excited


def _check_tau(tau: float) -> None:
    if not tau >= 0:    # NaN too
        raise ValueError("tau must be non-negative")


def _stage(state: np.ndarray, term: PauliTerm, tau: float,
           pairing: PauliTerm | None) -> np.ndarray:
    """``_fold`` after checking tau, the term's spectrum and the pairing."""
    _check_tau(tau)
    _check_unit_spectrum(term)
    if pairing is not None:
        _check_pairing(term, pairing)
    return _fold(np.ascontiguousarray(state, dtype=complex), term, tau, pairing)


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
    term.  The term's +-1 spectrum and the pairing's anticommutation are
    checked here, once, so a schedule's stages run ``_fold`` unchecked."""

    term: PauliTerm
    pairing: PauliTerm

    def __post_init__(self):
        _check_unit_spectrum(self.term)
        _check_pairing(self.term, self.pairing)


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


def check_ground_space(state: np.ndarray) -> None:
    """Reject a state whose weight deficit in the ground space of H0 is
    over ``GROUND_TOL``: the input check of every exchange schedule."""
    if 1.0 - ground_space_weight(state) > GROUND_TOL:
        raise ValueError("input state is not in the ground space of H0")


def braid_sequence(name: str, state: np.ndarray, tau: float = DEFAULT_TAU) -> np.ndarray:
    """Run the full exchange schedule for one braid generator.

    The input must lie in the ground space of H0 (weight deficit at most
    1e-10); the output does again, up to residues of order exp(-2 tau).
    """
    if name not in SCHEDULES:
        raise KeyError(f"unknown braid name {name!r}; choose from {BRAID_NAMES}")
    check_ground_space(state)
    for state in braid_sequence_states(name, state, tau):
        pass
    return state


def braid_sequence_states(name: str, state: np.ndarray, tau: float = DEFAULT_TAU):
    """Yield the state after every schedule step (for stage-by-stage checks):
    ``cooling_step`` of each step, with tau checked once and the step's own
    checks made when it was built."""
    _check_tau(tau)
    state = np.ascontiguousarray(state, dtype=complex)
    for step in SCHEDULES[name]:
        state = _fold(state, step.term, tau, step.pairing)
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
        final = braid_sequence(name, basis.vectors[j], tau)
        u[:, j] = basis.coefficients(final)
    logical = ENCODE @ u @ ENCODE.conj().T
    return u, logical


def braid_word_state(word: BraidWord, state: np.ndarray,
                     tau: float = DEFAULT_TAU) -> np.ndarray:
    """Apply a link braid word (generators 1 and 2 only) to a state."""
    if word.max_generator() > 2:
        raise CapacityError("the ten-site register realises generators s1 and s2 only")
    for g in word.letters:
        state = braid_sequence(LETTER_NAMES[g], state, tau)
    return state


def jones_spin_replay(word: BraidWord, tau: float = DEFAULT_TAU) -> float:
    """|V| at t = i from the protocol return amplitude: 2^{(n-1)/2} |<phi0|phi_f>|
    with n the word's strand count (spectator chains contribute factor 1)."""
    if word.strands > 3:
        raise CapacityError("the ten-site register supports at most three strands")
    # the replay only reads phi0: each stage's fold writes to arrays it made
    phi0 = prepare_logical(0)
    final = braid_word_state(word, phi0, tau)
    return float(2.0 ** ((word.strands - 1) / 2.0) * abs(np.vdot(phi0, final)))


# ---------------------------------------------------------------------------
# the schedules as an exact stabilizer-tableau walk
# ---------------------------------------------------------------------------

# e^(-2 tau) <= 2^-53, the double's unit roundoff: from here on every stage
# differs from its tau -> inf limit by less than one rounding of the replay
WALK_TAU = 53 * math.log(2) / 2

# the words that stabilize phi0 = prepare_logical(0): the negated H0 terms,
# which every ground state reads at +1, and the three chain parities
PHI0_GENERATORS = (*(-t for t in _H0_TERMS),
                   _t(1, z=(1, 2)), _t(-1, z=(4, 5, 6)), _t(-1, z=(8, 9, 10)))


def _walk_letter(ground, stages, tableau: StabilizerState, g: int) -> StabilizerState:
    """The tableau after letter g, on a copy: the H0 ground-space check,
    then each stage's forced measurement or pairing."""
    state = tableau.copy()
    # every H0 term reads -1 in the ground space
    if any(state.measure(w) != CERTAIN for w in ground):
        raise ValueError("input state is not in the ground space of H0")
    for minus_term, pairing in stages[g]:
        if state.measure(minus_term) == CONTRADICTED:
            state.conjugate(pairing)
    return state


def _overlap_k(generators, tableau: StabilizerState) -> int | None:
    """k with |<phi0|tableau>|^2 = 2^-k: the random outcomes of measuring
    phi0's generators at +1, on a copy; None when one is contradicted."""
    state, k = tableau.copy(), 0
    for w in generators:
        outcome = state.measure(w)
        if outcome == CONTRADICTED:
            return None
        k += outcome == RANDOM
    return k


@lru_cache(maxsize=1)
def _walk_tables() -> Automaton:
    """The walk as an ``automaton.Automaton`` over the 24 stabilizer states
    the letters reach from phi0, keyed by ``StabilizerState.key``, each with
    its k (``_overlap_k``); ``_walk_tables.cache_clear()`` empties it.  A
    row has 5 slots: s1 and s2 at 1 and 2, s2^-1 and s1^-1 at -2 and -1,
    that is 3 and 4.  Its words: phi0's generators, the H0 terms negated,
    and each letter's stages as (negated term, pairing)."""
    def words(terms):
        return tuple(pauli_word(t, N_SITES) for t in terms)

    stages = {}
    for g, name in LETTER_NAMES.items():
        steps = SCHEDULES[name]
        stages[g] = tuple(zip(words(-step.term for step in steps),
                              words(step.pairing for step in steps)))
    generators = words(PHI0_GENERATORS)
    return Automaton(StabilizerState.from_generators(generators, N_SITES), StabilizerState.key,
                     partial(_walk_letter, words(-t for t in _H0_TERMS), stages), 5,
                     partial(_overlap_k, generators))


def jones_spin_tableau(word: BraidWord) -> float:
    """|V| at t = i from the tau -> inf limit of every schedule stage.

    A stage projects onto the term's -1 eigenspace, or, when the state lies
    wholly in the +1 eigenspace, applies the pairing; both keep phi0's
    stabilizer states stabilizer states.  |<phi0|phi_f>|^2 is 2^-k, with k
    the number of phi0's generators whose +1 outcome is random on phi_f, or
    0 when one is contradicted.  The letters run on the automaton of
    ``_walk_tables``: one lookup each in its state's row, once it is filled.
    """
    if word.strands > 3:   # on three strands the letters are s1 and s2 only
        raise CapacityError("the ten-site register supports at most three strands")
    walk = _walk_tables()
    k = walk.values[walk.run(word.letters)]
    return 0.0 if k is None else 2.0 ** ((word.strands - 1 - k) / 2)


def spin_method(tau: float) -> str:
    """The spin method tau selects: "tableau" when tau >= WALK_TAU, else
    "replay" (NaN included)."""
    return "tableau" if tau >= WALK_TAU else "replay"


def jones_spin_abs(word: BraidWord, tau: float = DEFAULT_TAU) -> float:
    """|V| at t = i from the spin register: by :func:`jones_spin_tableau`
    when ``spin_method(tau)`` is "tableau", where it equals the replay to
    within one rounding, else by the vector replay :func:`jones_spin_replay`."""
    if spin_method(tau) == "tableau":
        return jones_spin_tableau(word)
    return jones_spin_replay(word, tau)


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

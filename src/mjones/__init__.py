"""Jones polynomials at t = i, three independent ways.

* :mod:`mjones.braidlang` - braid words and closure invariants
* :mod:`mjones.anyon_core` - Ising-anyon braiding on n pairs as Majorana exchanges
* :mod:`mjones.kauffman_oracle` - exact Temperley-Lieb bracket (classical oracle)
* :mod:`mjones.spin_sim` - ten-qubit imaginary-time braiding replay
* :mod:`mjones.tomography` - Pauli-basis state/process decompositions
* :mod:`mjones.verify` - cross-validation suite behind ``mjones verify``
"""

from .braidlang import (
    BraidSyntaxError,
    BraidWord,
    LinkInvariants,
    arf_invariant,
    closure_permutation,
    format_braid,
    jones_from_arf,
    link_invariants,
    lookup_arf_data,
    parse_braid,
)
from .anyon_core import (
    JonesValue,
    braid_generators,
    evolve,
    jones_majorana_abs,
    jones_su2_2,
    vacuum_amplitude,
)
from .kauffman_oracle import (
    A_AT_T_I,
    CapacityError,
    LaurentPolynomial,
    bracket,
    eval_at,
    jones_at_i,
    jones_polynomial,
)
from .pauli import PauliTerm
from .spin_sim import (
    GroundBasis,
    braid_sequence,
    cooling_step,
    extract_braid_matrix,
    ground_basis,
    ite_apply,
    jones_spin_abs,
    logical_decode,
    logical_encode,
    prepare_logical,
    spin_hamiltonian,
)
from .tomography import ChiMatrix, chi_from_unitary, density_matrix, pauli_coefficients

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

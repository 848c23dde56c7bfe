"""Jones polynomials at t = i, three independent ways.

* :mod:`mjones.braidlang` - braid words and closure invariants
* :mod:`mjones.seifert` - the Gauss sum of the Seifert form behind the arf route, in
  one pass over the word
* :mod:`mjones.anyon_core` - Ising-anyon braiding on n pairs as Majorana exchanges
* :mod:`mjones.kauffman_oracle` - exact Temperley-Lieb bracket (classical oracle)
* :mod:`mjones.spin_sim` - ten-qubit imaginary-time braiding replay and its exact
  tau -> inf stabilizer-tableau walk
* :mod:`mjones.tomography` - Pauli-basis state/process decompositions
* :mod:`mjones.verify` - cross-validation suite behind ``mjones verify``

The public names and the submodules resolve on first use (PEP 562), so
``import mjones`` loads no submodule.  numpy comes in only with ``pauli``
and the modules built on numpy (``anyon_core``, ``spin_sim``,
``tomography``, ``verify``); the braid invariants, the bracket and the
``braid-info`` command run without it.
"""

from importlib import import_module

# the submodule that defines each public name
_EXPORTS = {
    "braidlang": ("BraidSyntaxError", "BraidWord", "CapacityError", "LinkInvariants",
                  "arf_invariant", "format_braid", "jones_from_arf", "link_invariants",
                  "lookup_arf_data", "parse_braid"),
    "anyon_core": ("braid_generators", "evolve", "jones_majorana_abs", "jones_su2_2"),
    "kauffman_oracle": ("A_AT_T_I", "LaurentPolynomial", "bracket", "eval_at", "jones_at_i",
                        "jones_polynomial"),
    "pauli": ("PauliTerm",),
    "spin_sim": ("GroundBasis", "braid_sequence", "cooling_step", "extract_braid_matrix",
                 "ground_basis", "ite_apply", "jones_spin_abs", "logical_decode",
                 "logical_encode", "prepare_logical", "spin_hamiltonian"),
    "tomography": ("ChiMatrix", "chi_from_unitary", "density_matrix", "pauli_coefficients"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset((*_EXPORTS, "cli", "verify"))

__all__ = sorted({*_HOME, *_EXPORTS})
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule binds it on the package, so this runs once
        return import_module(f".{name}", __name__)
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{home}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

"""Construction and certification of the 2-transitive equiangular line
families: sign-matrix sets from quadratic-space hyperplanes, displacement
orbits of parity eigenspaces for odd primes, and the two fiducial-orbit sets
found by frame-potential search.

Submodule attributes are re-exported lazily so that the command-line entry
point can cap BLAS worker threads before numpy is first loaded.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "finfield": (
        "HyperplaneType",
        "QuadForm2",
        "Hyperplane",
        "standard_form",
        "radical",
        "singular_count",
        "classify_hyperplane",
        "enumerate_hyperplanes",
        "character_value",
        "nonsingular_vectors",
        "transvection",
        "transvection_on_functional",
    ),
    "heisenberg": (
        "HeisenbergElement",
        "group_elements",
        "schroedinger_rep",
        "displacement",
        "valid_rep_indices",
        "check_unitary",
        "commutant_dimension",
    ),
    "weil": (
        "SymplecticAction",
        "weil_generators",
        "induced_symplectic",
        "parity_operator",
        "parity_split",
        "NotNormalizing",
        "NotSymplectic",
    ),
    "lineset": (
        "LineSet",
        "GramMatrix",
        "AngleCertificate",
        "translations",
        "construct_case_iii",
        "construct_case_iv",
        "gram",
        "certify_equiangular",
        "certify_tight",
        "dimension_pair",
        "classification_rows",
        "SpanDeficient",
        "NotEquiangular",
        "WelchViolation",
        "UnknownCase",
    ),
    "fiducial": (
        "SearchConfig",
        "SearchReport",
        "NotConverged",
        "search_fiducial",
        "orbit_lineset",
        "displacements",
        "frame_potential",
        "frame_potential_grad",
        "potential_bound",
    ),
    "action": (
        "Perm",
        "NotASymmetry",
        "NotAProjector",
        "induced_permutation",
        "StabilizerChain",
        "two_transitivity",
        "group_order",
        "close_permutations",
        "ActionCertificate",
        "action_certificate",
        "MultiplicityCertificate",
        "multiplicity_certificate",
        "projector_commutant_dimension",
        "scalar_kernel_check",
    ),
    "symmetries": (
        "translation_unitaries",
        "geometry_unitaries",
        "symmetry_unitaries",
        "stabilizer_unitaries",
    ),
    "serialize": (
        "serialize_lineset",
        "parse_lineset",
        "gram_csv",
    ),
}

_ATTR_TO_MODULE = {
    name: module for module, names in _EXPORTS.items() for name in names
}

__all__ = ["__version__", *_ATTR_TO_MODULE]


def __getattr__(name: str):
    module = _ATTR_TO_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(__all__)

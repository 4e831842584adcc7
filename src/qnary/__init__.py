"""Lyndon word combinatorics and pseudo-orbit spectral statistics of
q-nary quantum graphs."""

from .words import (
    DEFAULT_ENUMERATION_BUDGET,
    BudgetExceededError,
    Word,
    count_lyndon,
    count_strictly_decreasing,
    count_strictly_decreasing_bruteforce,
    duval_factorize,
    is_lyndon,
    is_strictly_decreasing,
    lyndon_subset_series,
    lyndon_words,
    verify_lyndon_count_identity,
)
from .debruijn import (
    QNaryGraph,
    build_graph,
    edge_multiplicities,
    primitive_pseudo_orbits,
)
from .quantum import (
    CharPolyCoefficients,
    SpectralInstance,
    assemble_sigma,
    build_instance,
    char_poly_direct,
    coeff_from_pseudo_orbits,
    evolution_operator,
    expansion_terms,
    orbit_amplitude,
)
from .spectral_stats import (
    diagonal_variance,
    exact_grouped_variance,
    monte_carlo_coefficient_means,
    monte_carlo_variance,
    rmt_reference,
    variance_report,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CharPolyCoefficients",
    "DEFAULT_ENUMERATION_BUDGET",
    "QNaryGraph",
    "SpectralInstance",
    "Word",
    "assemble_sigma",
    "build_graph",
    "build_instance",
    "char_poly_direct",
    "coeff_from_pseudo_orbits",
    "count_lyndon",
    "count_strictly_decreasing",
    "count_strictly_decreasing_bruteforce",
    "diagonal_variance",
    "duval_factorize",
    "edge_multiplicities",
    "evolution_operator",
    "exact_grouped_variance",
    "expansion_terms",
    "is_lyndon",
    "is_strictly_decreasing",
    "lyndon_subset_series",
    "lyndon_words",
    "monte_carlo_coefficient_means",
    "monte_carlo_variance",
    "orbit_amplitude",
    "primitive_pseudo_orbits",
    "rmt_reference",
    "variance_report",
    "verify_lyndon_count_identity",
]

"""Exact spectra of non-commuting graphs of four finite group families.

Builds the non-commuting graphs of the generalized quaternion, quasidihedral,
U_6n and metacyclic families, certifies their complete multipartite structure,
and compares closed-form distance, distance Laplacian and distance signless
Laplacian spectra against an exact characteristic-polynomial oracle.  All
arithmetic is arbitrary-precision integer; nothing here ever touches floating
point.
"""

from .closedform import (
    EigenbasisResult,
    EigenFamily,
    NonIntegralSpectrum,
    SpectrumSpec,
    claimed_partition_sizes,
    eigenbasis_q4n,
    make_spectrum,
    multipartite_distance_charpoly,
    spectrum_for,
    spectrum_to_polynomial,
)
from .exactalg import (
    DegenerateQuadratic,
    IntMatrix,
    IntPolynomial,
    QuadraticEig,
    char_poly,
    char_poly_factors,
    is_perfect_square,
    rational_roots_of_quadratic,
)
from .families import (
    ALL_KINDS,
    FAMILIES,
    GroupElement,
    GroupSpec,
    InvalidParameters,
    MatrixKind,
)
from .graphs import (
    AbelianGroupError,
    DisconnectedGraph,
    NCGraph,
    NotCompleteMultipartite,
    OrderCapExceeded,
    PartitionStructure,
    complete_multipartite,
    distance_matrix,
    matrix_of_kind,
    non_commuting_graph,
    oracle,
    part_major,
    partition_structure,
)
from .groups import (
    FiniteGroup,
    center,
    centralizer,
    enumerate_elements,
    is_ca_group,
)
from .verify import (
    DEFAULT_ORDER_CAP,
    IntegralityRecord,
    VerificationReport,
    default_grid,
    integrality_record,
    iter_integral,
    iter_verify,
    predicted_integral,
    search_integral,
    verify_grid,
    verify_instance,
)

__version__ = "0.1.0"

"""Exact toolkit for curves with a unique multiple point on toric surfaces.

Lattice polygons, Laurent polynomials, vanishing-order linear systems, the
five infinite families, a fixed blow-up surface ledger, Seshadri bounds and
weighted-projective slope analysis — all over exact rational arithmetic.
"""

__version__ = "0.1.0"

from .classify import (
    ClassificationHit,
    IntrinsicPair,
    classify_dataset,
    expected_case,
    intersection_product,
    numeric_invariants,
)
from .errors import LatticeCurveError
from .families import (
    FamilySpec,
    Parametrization,
    family_invariants,
    family_parametrization,
    family_polygon,
    verify_family_end_to_end,
    verify_multiplicity_lemma,
)
from .laurent import (
    IrreducibilityCertificate,
    LaurentPolynomial,
    UniPoly,
    implicitize,
    irreducibility_certificate,
    ord_profile,
    uni_resultant,
    verify_factorization,
)
from .linsys import LinearSystem, compute_system, expected_dimension
from .polygon import (
    LatticePolygon,
    UnimodularMap,
    canonical_form,
    convex_hull,
    enumerate_polygons,
    equivalent,
    is_decomposable,
    minkowski_decompositions,
    minkowski_sum,
    mixed_volume,
    multiplicity_cap,
    polygon,
)
from .seshadri import (
    SeshadriEstimate,
    component_minimum,
    estimate,
    ito_family_i_lower,
    rationality_certificates,
    segment_equality,
    width_upper_bound,
)
from .surface import (
    e_k_class,
    is_principal,
    kxc_decomposition_check,
    pair,
    rr_polygon,
    verify_ek,
    verify_ek_symbolic,
    verify_ledger,
)
from .wpp import (
    ClassEntry,
    WppContext,
    best_approximation,
    ingest_table,
    self_intersection_on_x,
    slope_compare,
)

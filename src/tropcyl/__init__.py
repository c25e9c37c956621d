"""Exact tropical-cylinder machinery for log Calabi-Yau surface pairs.

The package builds the singular integral-affine base attached to a cyclic
sequence of boundary self-intersection numbers, validates and extends
spines drawn on it, completes them to tropical cylinders, and reproduces
the focus-focus wall-crossing cylinder counts of the explicit degree-7
del Pezzo family.  All arithmetic is exact (integers and rationals); all
values are immutable and all operations pure, so everything is safe to
share across threads.
"""

from .errors import (
    DegenerateRay,
    HitOrigin,
    InvalidArgument,
    InvalidPair,
    InvalidQuery,
    MalformedCylinder,
    NotExtendable,
    NotInFamily,
    OriginNotInChart,
    OriginVertex,
    OutOfChart,
    StructuralError,
    TropcylError,
    UnbalancedNonRadial,
    UnsupportedBase,
    WrongHomeCone,
    ZeroVector,
)
from .lattice import (
    ORIGIN,
    BasePoint,
    CurveClass,
    IntMatrix2,
    LooijengaPair,
    TangentVector,
    TropicalBase,
    build_base,
    fan_closure,
    intersection_matrix,
    is_positive,
    lattice_length_of_point,
    monodromy,
    norm_sq,
    primitive_part,
    transport,
    verify_toric_criterion,
    wall_chart,
    wedge_lattice_length,
    winding_number,
)
from .spines import (
    CanonicalImage,
    CylinderInB,
    CylinderInBTilde,
    Edge,
    TropicalTree,
    Vertex,
    Violation,
    a_value,
    canonical_image,
    check_structure,
    direction_at,
    direction_sum,
    images_equal,
    is_balanced,
    make_edge,
    make_tree,
    pi1_balanced,
    relabel,
    subdivide_edge,
    validate_cylinder_b,
    validate_extended_spine,
    validate_spine,
)
from .extension import (
    DEL_PEZZO_PAIR,
    ExtensionResult,
    RayHit,
    cylinder_in_b,
    del_pezzo_base,
    extend,
    extend_step,
    family_spine,
    lift_to_tilde,
    ray_trace,
    TracePoint,
    trace_path_image,
    trace_points,
    tropical_trace,
)
from .wallcross import (
    CountQuery,
    SparseLaurentSeries,
    backward_count,
    count,
    count_spine,
    focus_focus_apply,
    focus_focus_inverse,
    series_add,
    series_mul,
    symmetry_check,
    virtual_dim,
)

__version__ = "0.1.0"

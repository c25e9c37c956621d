"""Exact tropical-cylinder machinery for log Calabi-Yau surface pairs.

The package builds the singular integral-affine base attached to a cyclic
sequence of boundary self-intersection numbers, validates and extends
spines drawn on it, completes them to tropical cylinders, and reproduces
the focus-focus wall-crossing cylinder counts of the explicit degree-7
del Pezzo family.  All arithmetic is exact (integers and rationals); all
values are immutable and all operations pure, so everything is safe to
share across threads.

`__all__` is the supported surface: the functions the command line, the
benchmark's library calls, the README example and the acceptance suite
use (`spine_to_json` writes the benchmark's spine files), the value
classes they take or return, and every error class.
Helpers outside it stay importable from their submodules.
"""

from .errors import (
    DegenerateRay,
    HitOrigin,
    InvalidArgument,
    InvalidPair,
    InvalidQuery,
    NotExtendable,
    NotInFamily,
    OriginVertex,
    StructuralError,
    TropcylError,
    UnbalancedNonRadial,
    UnsupportedBase,
    WrongHomeCone,
    ZeroVector,
)
from .lattice import (
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
    monodromy,
    verify_toric_criterion,
)
from .spines import (
    CanonicalImage,
    CylinderInB,
    CylinderInBTilde,
    Edge,
    TropicalTree,
    Vertex,
    Violation,
    canonical_image,
    images_equal,
    is_balanced,
    make_edge,
    make_tree,
    relabel,
    subdivide_edge,
    validate_cylinder_b,
    validate_extended_spine,
    validate_spine,
)
from .extension import (
    ExtensionResult,
    cylinder_in_b,
    del_pezzo_base,
    extend,
    extend_step,
    family_spine,
    lift_to_tilde,
    trace_path_image,
    tropical_trace,
)
from .wallcross import (
    CountQuery,
    SparseLaurentSeries,
    backward_count,
    count,
    count_spine,
    count_table,
    focus_focus_apply,
    symmetry_check,
    virtual_dim,
)
from .serialize import SchemaError, spine_to_json

__all__ = [
    # errors
    "DegenerateRay",
    "HitOrigin",
    "InvalidArgument",
    "InvalidPair",
    "InvalidQuery",
    "NotExtendable",
    "NotInFamily",
    "OriginVertex",
    "SchemaError",
    "StructuralError",
    "TropcylError",
    "UnbalancedNonRadial",
    "UnsupportedBase",
    "WrongHomeCone",
    "ZeroVector",
    # lattice
    "BasePoint",
    "CurveClass",
    "IntMatrix2",
    "LooijengaPair",
    "TangentVector",
    "TropicalBase",
    "build_base",
    "fan_closure",
    "intersection_matrix",
    "is_positive",
    "monodromy",
    "verify_toric_criterion",
    # spines
    "CanonicalImage",
    "CylinderInB",
    "CylinderInBTilde",
    "Edge",
    "TropicalTree",
    "Vertex",
    "Violation",
    "canonical_image",
    "images_equal",
    "is_balanced",
    "make_edge",
    "make_tree",
    "relabel",
    "subdivide_edge",
    "validate_cylinder_b",
    "validate_extended_spine",
    "validate_spine",
    # extension
    "ExtensionResult",
    "cylinder_in_b",
    "del_pezzo_base",
    "extend",
    "extend_step",
    "family_spine",
    "lift_to_tilde",
    "trace_path_image",
    "tropical_trace",
    # wall-crossing
    "CountQuery",
    "SparseLaurentSeries",
    "backward_count",
    "count",
    "count_spine",
    "count_table",
    "focus_focus_apply",
    "symmetry_check",
    "virtual_dim",
    # serialize
    "spine_to_json",
]

__version__ = "0.1.0"

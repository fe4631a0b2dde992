"""conekit: linear cones over ordered fields, hyperbolic norms, Lorentz forms.

Exact rational numerics (fractions.Fraction): a float enters at its exact
binary value.  See the README for the module map and the CLI.
"""

__version__ = "0.1.0"

from .cone import (
    Cone,
    FutureCone,
    Orthant,
    PCone,
    Polyhedral,
    contains,
    dual_contains,
    in_core,
    is_proper,
    leq,
    self_duality_report,
)
from .errors import ConekitError
from .extension import (
    CoordBaseNorm,
    ExtensionProblem,
    WickBaseNorm,
    equivalence_constant,
    extended_norm,
    grid_oracle,
)
from .hypnorm import (
    DiscreteLq,
    FormInduced,
    PHyperbolic,
    norm_eval,
    polar_inner,
    polarizability_residual,
    reverse_cs_residual,
    reverse_triangle_residual,
)
from .lorentz import (
    CausalClass,
    GramForm,
    LorentzFrame,
    Signature,
    causal_class,
    classify,
    decompose,
    future_defect,
    gram_from_cone_basis,
    minkowski_form,
    minkowski_frame,
    wick_inner,
    wick_norm,
)
from .numerics import SymMatrix, Vector
from .order import (
    OrderedSequence,
    completeness_certificate,
    is_bounded_above,
    is_nondecreasing,
    monotone_wick_check,
)
from .span import FormalDifference, embed, equiv, extend_linear, future_decompose

__all__ = [
    "CausalClass",
    "Cone",
    "ConekitError",
    "CoordBaseNorm",
    "DiscreteLq",
    "ExtensionProblem",
    "FormInduced",
    "FormalDifference",
    "FutureCone",
    "GramForm",
    "LorentzFrame",
    "Orthant",
    "OrderedSequence",
    "PCone",
    "PHyperbolic",
    "Polyhedral",
    "Signature",
    "SymMatrix",
    "Vector",
    "WickBaseNorm",
    "causal_class",
    "classify",
    "completeness_certificate",
    "contains",
    "decompose",
    "dual_contains",
    "embed",
    "equiv",
    "equivalence_constant",
    "extend_linear",
    "extended_norm",
    "future_decompose",
    "future_defect",
    "gram_from_cone_basis",
    "grid_oracle",
    "in_core",
    "is_bounded_above",
    "is_nondecreasing",
    "is_proper",
    "leq",
    "minkowski_form",
    "minkowski_frame",
    "monotone_wick_check",
    "norm_eval",
    "polar_inner",
    "polarizability_residual",
    "reverse_cs_residual",
    "reverse_triangle_residual",
    "self_duality_report",
    "wick_inner",
    "wick_norm",
]

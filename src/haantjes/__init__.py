"""Exact torsion calculus for polynomial operator fields on Q^n.

The package computes Nijenhuis and higher-level Haantjes torsions,
Froelicher-Nijenhuis brackets and the rank-(1,2) obstruction tensor of
operator fields with polynomial entries, entirely over exact rationals.
On top of the tensor calculus it decides triangularizability of operator
fields in dimensions three and four, checks integrability of image
distributions, and searches for linear tensorial conditions equivalent to
the triangularizability of linearized operator fields.
"""

from .polyring import Poly, PolyParseError, RationalMatrix, sum_of_products
from .geometry import (
    AffineChange,
    OperatorField,
    Tensor12,
    VectorField,
    contract_lower_j,
    contract_lower_k,
    contract_upper,
    lie_bracket,
    load_operator,
    operator_from_json,
    operator_to_json,
)
from .torsion import (
    fn_bracket,
    fn_bracket_level,
    fn_bracket_step,
    nijenhuis,
    tensor_t,
    torsion_level,
    torsion_step,
)
from .structure import (
    Distribution,
    RegularityReport,
    Verdict,
    default_sample_points,
    image_flag,
    is_integrable,
    regularity_check,
    verdict,
)
from .linearizer import (
    Candidate,
    LinearSystemQ,
    ParamOperator,
    SearchResult,
    build_linearized,
    cond3_system,
    default_candidates,
    extract_system,
    linearized_system,
    search_tensor,
    t_pattern_candidates,
)

__version__ = "0.1.0"

__all__ = [
    "AffineChange",
    "Candidate",
    "Distribution",
    "LinearSystemQ",
    "OperatorField",
    "ParamOperator",
    "Poly",
    "PolyParseError",
    "RationalMatrix",
    "RegularityReport",
    "SearchResult",
    "Tensor12",
    "VectorField",
    "Verdict",
    "build_linearized",
    "cond3_system",
    "contract_lower_j",
    "contract_lower_k",
    "contract_upper",
    "default_candidates",
    "default_sample_points",
    "extract_system",
    "fn_bracket",
    "fn_bracket_level",
    "fn_bracket_step",
    "image_flag",
    "is_integrable",
    "lie_bracket",
    "linearized_system",
    "load_operator",
    "nijenhuis",
    "operator_from_json",
    "operator_to_json",
    "regularity_check",
    "search_tensor",
    "sum_of_products",
    "t_pattern_candidates",
    "tensor_t",
    "torsion_level",
    "torsion_step",
    "verdict",
]

"""Edge-type combinatorics for directed graphs.

Feasibility and structure of degree-constrained graph classes, exact
enumeration oracles, maximum-entropy counting bounds, type-class
probability laws, and lossy-compression rate bounds under a per-vertex
local-structure distortion.
"""

from .graphs import (
    DiGraph,
    DistortionValue,
    and_,
    complement,
    density,
    distortion,
    respects_restriction,
    xor,
)
from .typealg import (
    ComponentPartition,
    EdgeType,
    InvariantMasks,
    StructureMatrix,
    components_from_masks,
    components_from_structure,
    flow_feasible,
    flow_invariants,
    gale_ryser_feasible,
    invariant_positions,
    normalize,
    reduce_by_invariants,
    structure_matrix,
)

__all__ = [
    "DiGraph",
    "DistortionValue",
    "EdgeType",
    "StructureMatrix",
    "InvariantMasks",
    "ComponentPartition",
    "xor",
    "and_",
    "complement",
    "distortion",
    "respects_restriction",
    "density",
    "gale_ryser_feasible",
    "normalize",
    "structure_matrix",
    "invariant_positions",
    "components_from_structure",
    "flow_feasible",
    "flow_invariants",
    "components_from_masks",
    "reduce_by_invariants",
]

__version__ = "0.1.0"

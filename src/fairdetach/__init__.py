"""Fair detachments of edge-colored multigraphs.

The package splits amalgamated multigraph vertices apart while sharing
edges, loops and colors out within one of every fair quota, preserving
color-class connectivity where the degree ratios allow it, and uses that
machinery to generate verified Hamiltonian decompositions of lambda-fold
complete graphs and uniform group divisible multigraphs.
"""

from .bee import (
    bee_coloring,
    is_balanced,
    is_equalized,
    is_equitable,
)
from .engine import (
    DetachmentTrace,
    MoveSet,
    StepRecord,
    condition3_colors,
    detach_all,
    detach_step,
)
from .errors import (
    DocumentError,
    GraphError,
    InfeasibleError,
    PreconditionError,
)
from .evencolor import (
    evenly_equitable_coloring,
    is_evenly_equitable,
)
from .hamilton import (
    Feasibility,
    GddParams,
    HamDecomposition,
    gdd_feasible,
    ham_decompose_gdd,
    ham_decompose_lambda_kn,
    walecki_odd,
)
from .multigraph import (
    AmalgamationSpec,
    ColoredMultigraph,
    DetachmentMap,
    Multigraph,
)
from .verify import (
    DetachmentReport,
    assert_step_relations,
    is_gdd,
    verify_detachment,
    verify_ham_decomposition,
    verify_trace,
)

__version__ = "0.1.0"

__all__ = [
    "AmalgamationSpec",
    "ColoredMultigraph",
    "DetachmentMap",
    "DetachmentReport",
    "DetachmentTrace",
    "DocumentError",
    "Feasibility",
    "GddParams",
    "GraphError",
    "HamDecomposition",
    "InfeasibleError",
    "MoveSet",
    "Multigraph",
    "PreconditionError",
    "StepRecord",
    "assert_step_relations",
    "bee_coloring",
    "condition3_colors",
    "detach_all",
    "detach_step",
    "evenly_equitable_coloring",
    "gdd_feasible",
    "ham_decompose_gdd",
    "ham_decompose_lambda_kn",
    "is_balanced",
    "is_equalized",
    "is_equitable",
    "is_evenly_equitable",
    "is_gdd",
    "verify_detachment",
    "verify_ham_decomposition",
    "verify_trace",
    "walecki_odd",
]

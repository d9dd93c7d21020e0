"""hierkit: balanced reorganization of class hierarchies plus a
video-representation and event-scoring pipeline."""

from .bottomup import (
    ReorgConfig,
    SubsamplePlan,
    bottom_up_pipeline,
    selected_indices,
    subsample_plan,
)
from .encoding import Codebook, average_pool, kmeans_fit, l1_normalize, vlad_encode
from .errors import ContractViolation, HierkitError, ParseError, StructureError
from .evaluation import (
    EvalResult,
    ScoredList,
    average_precision,
    late_fuse,
    mean_average_precision,
)
from .labelmap import LabelClass, LabelMap, read_label_map, write_label_map
from .svm import (
    SvmModel,
    chi2_kernel,
    kkt_violation,
    svm_score,
    train_kernel_svm,
)
from .taxonomy import (
    StatsReport,
    Taxonomy,
    TaxonomyNode,
    build_taxonomy,
    parse_counts,
    parse_isa_edges,
    parse_names,
    stats,
    subtree_counts,
)
from .topdown import (
    SelectionResult,
    TopDownConfig,
    assign_to_selected,
    top_down_pipeline,
    top_down_select,
)

__version__ = "0.1.0"

__all__ = [
    "ReorgConfig",
    "SubsamplePlan",
    "bottom_up_pipeline",
    "selected_indices",
    "subsample_plan",
    "Codebook",
    "average_pool",
    "kmeans_fit",
    "l1_normalize",
    "vlad_encode",
    "ContractViolation",
    "HierkitError",
    "ParseError",
    "StructureError",
    "EvalResult",
    "ScoredList",
    "average_precision",
    "late_fuse",
    "mean_average_precision",
    "LabelClass",
    "LabelMap",
    "read_label_map",
    "write_label_map",
    "SvmModel",
    "chi2_kernel",
    "kkt_violation",
    "svm_score",
    "train_kernel_svm",
    "StatsReport",
    "Taxonomy",
    "TaxonomyNode",
    "build_taxonomy",
    "parse_counts",
    "parse_isa_edges",
    "parse_names",
    "stats",
    "subtree_counts",
    "SelectionResult",
    "TopDownConfig",
    "assign_to_selected",
    "top_down_pipeline",
    "top_down_select",
]

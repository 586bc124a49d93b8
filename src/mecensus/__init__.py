"""Census of Markov equivalence classes of acyclic digraphs.

Counts equivalence classes per vertex count by generating one skeleton
per isomorphism class, enumerating each skeleton's acyclic orientations,
and keying orientations by their immorality pattern.
"""

from .census import (
    CensusReport,
    SkeletonRecord,
    census,
    extrapolate_ratio,
    gaussian_chi2,
    median_edge_count,
    median_edges_prediction,
    merge,
    ratio_asymptote,
    robinson_adg_count,
)
from .graphs import Graph, apply_permutation, complement, degree_sequence, encode
from .markov import (
    SkeletonClassTable,
    classify_skeleton,
    find_v_configurations,
    max_vconfig_prediction,
)
from .orderly import (
    GenerationLayer,
    augment_children,
    canonical_search,
    canonicalize,
    generate_all,
    is_canonical,
)
from .oracles import (
    Orientation,
    class_code,
    count_acyclic_orientations,
    enumerate_acyclic_orientations,
)
from .automorphisms import automorphism_group_size, labelling_count

__version__ = "0.1.0"

__all__ = [
    "CensusReport",
    "Graph",
    "GenerationLayer",
    "Orientation",
    "SkeletonClassTable",
    "SkeletonRecord",
    "apply_permutation",
    "augment_children",
    "automorphism_group_size",
    "canonical_search",
    "canonicalize",
    "census",
    "class_code",
    "classify_skeleton",
    "complement",
    "count_acyclic_orientations",
    "degree_sequence",
    "encode",
    "enumerate_acyclic_orientations",
    "extrapolate_ratio",
    "find_v_configurations",
    "gaussian_chi2",
    "generate_all",
    "is_canonical",
    "labelling_count",
    "max_vconfig_prediction",
    "median_edge_count",
    "median_edges_prediction",
    "merge",
    "ratio_asymptote",
    "robinson_adg_count",
]

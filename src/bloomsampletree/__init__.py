"""Store integer sets in Bloom filters; sample from and reconstruct them.

The central structure is a binary tree of Bloom filters partitioning the
namespace level by level, which lets sampling and reconstruction prune
away namespace regions that cannot overlap a query filter.
"""

from .hashing import FamilyKind, HashFamily, make_family, hash_many, preimage
from .bloom import BloomFilter, FamilyMismatchError, build_filter
from .estimate import (
    fp_probability,
    population_estimate,
    intersection_estimate_counts,
    fso_probability,
    uniformity_epsilon,
    sample_visit_bound,
    reconstruct_visit_bound,
    critical_depth,
)
from .bst import (
    BloomSampleTree,
    TreePlan,
    PlanError,
    OpCounters,
    SampleOutcome,
    plan_from_accuracy,
    plan_with_m,
    max_leaf_capacity,
    DEFAULT_THRESHOLD,
    DEFAULT_COST_RATIO,
)
from .baselines import (
    ReconstructionMode,
    da_sample,
    da_reconstruct,
    hi_sample,
    hi_reconstruct,
)
from .evalkit import (
    gen_uniform,
    gen_clustered,
    ClusteredSampler,
    ChiSquaredReport,
    chi_squared_uniformity,
    measured_accuracy,
    calibrate_cost_ratio,
    SweepConfig,
    BenchRecord,
    run_sweep,
    write_csv,
)

__version__ = "0.1.0"

"""Cells, kernels, and stabilizers for subsets of finite groups.

The library half builds finite groups from short specs, works with subsets
as bitmasks, enumerates the cells of a generating subset, and extracts
kernels and the canonical subgroup attached to the subset. The theorem half
turns the classical sumset statements (Kneser, Olson, the cell-intersection
lemma, the subgroup-kernel chain, and the strengthened dichotomy) into
executable checkers and sweeps that report any counterexample found.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .cache import ENV_CACHE_DIR, DiskCache, resolve_cache_dir
from .cells import (
    ENUMERATION_CAP,
    BalandraudResult,
    CellRecord,
    ChainViolation,
    EnumerationCapError,
    KernelChainReport,
    KernelRecord,
    balandraud_details,
    balandraud_subgroup,
    cell_closure,
    enumerate_cells,
    is_cell,
    kernel_chain,
    kernels_at,
    make_record,
    normalize_s,
)
from .groups import (
    DEFAULT_ORDER_CAP,
    WIDE_ORDER_CAP,
    ElementSet,
    Group,
    GroupAxiomError,
    GroupSpecError,
    all_subgroups,
    build_group,
    builtin_specs,
    generated_subgroup,
    is_subgroup,
    iter_bits,
    require_same_group,
)
from .setops import difference_counts, left_stabilizer, product
from .specs import (
    SubsetSpecError,
    check_subset_spec,
    expand_subset_specs,
    iter_identity_subsets,
    parse_group_tokens,
    parse_subset_spec,
    sample_identity_subsets,
)
from .theorems import (
    DRIVER_NAMES,
    Status,
    SweepConfig,
    SweepConfigError,
    SweepResult,
    Theorem,
    TheoremVerdict,
    check_cell_intersection,
    check_corollary_kernel_structure,
    check_dichotomy,
    check_kneser,
    check_olson,
    check_theorem_subgroup_kernels,
    run_sweep,
)

__all__ = [
    "__version__",
    "ENV_CACHE_DIR", "DiskCache", "resolve_cache_dir",
    "ENUMERATION_CAP", "BalandraudResult", "CellRecord", "ChainViolation",
    "EnumerationCapError", "KernelChainReport", "KernelRecord",
    "balandraud_details", "balandraud_subgroup", "cell_closure",
    "enumerate_cells", "is_cell", "kernel_chain", "kernels_at", "make_record",
    "normalize_s",
    "DEFAULT_ORDER_CAP", "WIDE_ORDER_CAP", "ElementSet", "Group",
    "GroupAxiomError", "GroupSpecError", "all_subgroups", "build_group",
    "builtin_specs", "generated_subgroup", "is_subgroup", "iter_bits",
    "require_same_group",
    "difference_counts", "left_stabilizer", "product",
    "SubsetSpecError", "check_subset_spec", "expand_subset_specs", "iter_identity_subsets",
    "parse_group_tokens", "parse_subset_spec", "sample_identity_subsets",
    "DRIVER_NAMES", "Status", "SweepConfig", "SweepConfigError", "SweepResult",
    "Theorem", "TheoremVerdict", "check_cell_intersection",
    "check_corollary_kernel_structure", "check_dichotomy", "check_kneser",
    "check_olson", "check_theorem_subgroup_kernels", "run_sweep",
]

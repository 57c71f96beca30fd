"""Minimal spanning trees, energies, and dimension estimation for finite
point sets under pluggable (quasi-)metric distance oracles."""

__version__ = "0.1.0"

from .dimension import (
    DimensionEstimate,
    PackingResult,
    WindowPolicy,
    box_dimension,
    greedy_packing,
    mst_dimension,
    packing_lower_bound_check,
)
from .energy import EnergyReport, count_edges_longer_than, energies, energy
from .errors import (
    CheckFailedError,
    EstimationError,
    InputError,
    InsufficientScalesError,
    ResourceError,
    ToolkitError,
)
from .generators import (
    ShapeFamily,
    builtin_shape,
    generate_grid,
    generate_uniform,
)
from .lemma_checks import (
    lemma1_check,
    lemma1_sweep,
    lemma2_check,
    lemma4_check,
    theorem1_check,
)
from .metric import (
    DistanceSpec,
    Lp,
    PointCloud,
    Power,
    PowerQuasi,
    Snowflake,
    distance,
    read_cloud,
    validate_quasi_metric,
    write_cloud,
)
from .mst import (
    SpanningTree,
    brute_force_min_tree,
    build_mst_kruskal,
    build_mst_prim,
    tree_total_length,
)

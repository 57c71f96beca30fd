"""Minimal spanning trees, energies, and dimension estimation for finite
point sets under pluggable (quasi-)metric distance oracles."""

__version__ = "0.1.0"

from .dimension import (
    DimensionEstimate,
    PackingResult,
    box_dimension,
    greedy_packing,
    mst_dimension,
)
from .energy import EnergyReport, energies, energy
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
    build_mst_kruskal,
    build_mst_prim,
)

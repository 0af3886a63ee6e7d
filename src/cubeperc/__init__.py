"""Monte Carlo and exact-enumeration laboratory for bond percolation on the hypercube."""

__version__ = "0.1.0"

from .cube import (  # noqa: F401
    CubeDim,
    PathList,
    VertexSet,
    ball_volume_exact,
    disjoint_short_paths,
    hamming_ball,
    hamming_distance,
    large_deviation_bound,
    min_overlap_delta,
    tail_sum_exact,
)
from .gen import (  # noqa: F401
    EdgeId,
    OccupiedGraph,
    SeedSpec,
    load_occupancy,
    sample_subgraph,
    save_occupancy,
    sprinkle_split,
    union_graphs,
)
from .clusters import (  # noqa: F401
    ClusterLabeling,
    cluster_size_of,
    count_z_geq,
    label_components,
    top_two,
)
from .stats import (  # noqa: F401
    Estimate,
    RadialProfile,
    TriangleReport,
    n_alpha,
    radial_convolution,
    replicate_stats,
    triangle_diagram_hat,
    two_point_profile,
    z_concentration_check,
)
from .critical import (  # noqa: F401
    PcResult,
    ReplicateSchedule,
    WindowCoord,
    pc_expansion_reference,
    solve_pc,
    window_coord,
)
from .experiments import (  # noqa: F401
    DualityReport,
    ExactOracle,
    ObservableFlags,
    SprinkleReport,
    SweepConfig,
    SweepRecord,
    duality_experiment,
    exact_enumerate,
    regime_summary,
    run_sweep,
    sprinkling_experiment,
)

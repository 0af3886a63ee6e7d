"""Monte Carlo and exact-enumeration laboratory for bond percolation on the hypercube."""

__version__ = "0.1.0"

from .cube import (  # noqa: F401
    CubeDim,
    PathList,
    ball_volume_exact,
    disjoint_short_paths,
    hamming_ball,
    hamming_distance,
    large_deviation_bound,
    min_overlap_delta,
    tail_sum_exact,
)
from .gen import (  # noqa: F401
    OccupiedGraph,
    SeedSpec,
    sample_subgraph,
    sprinkle_split,
)
from .clusters import (  # noqa: F401
    ClusterLabeling,
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
    ExactOracle,
    ObservableFlags,
    SprinkleReport,
    SweepConfig,
    SweepRecord,
    exact_enumerate,
    regime_summary,
    run_sweep,
    sprinkling_experiment,
)

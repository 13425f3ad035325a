"""Deterministic desk-scale studies of 5G links for vehicles and trains.

Four studies share one toolkit: highway sensor-fusion positioning, multi-TRP
rail downlink throughput, macro-cell path-gain-drop scheduling, and
throughput-prediction error analysis. Everything is reproducible from a
(config, seed) pair via counter-based random substreams.
"""

from .channel import (
    SPEED_OF_LIGHT,
    TapProfile,
    default_rail_profile,
    macro_pathgain,
    pathloss_db,
    sector_gain_db,
)
from .config import RunConfig, load_config, parse_config
from .errors import ConfigurationError, EstimationError, GeometryError, NumericalError
from .hst import (
    HstLinkParams,
    Mcs,
    Numerology,
    Scheme,
    SlotResult,
    bin_by_position,
    bler,
    effective_snr,
    run_hst_sweep,
    transport_block_size,
)
from .positioning import (
    EkfParams,
    ErrorCdf,
    MeasurementFrame,
    NoiseModel,
    PointFixes,
    StateEstimate,
    ekf_fuse,
    empirical_cdf,
    horizontal_errors,
    initial_state_from_frame,
    nr_only_position,
    nr_only_positions,
    point_fixes,
    simulate_measurements,
)
from .qos import (
    ThroughputTrace,
    horizon_errors,
    predict,
    prediction_error,
    window_bits,
)
from .rng import substream
from .runner import VERSION as __version__, RunManifest, run
from .scenario import (
    Deployment,
    Trajectory,
    build_linear_deployment,
    build_rail_deployment,
    linear_trajectory,
    snake_trajectory,
)
from .scheduler import (
    CellParams,
    DropPolicy,
    TrafficConfig,
    UserRecord,
    density_sweep,
    mean_user_throughput,
    median_file_time,
    simulate_cell,
)

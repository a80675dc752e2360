"""Digital twin of a diamond 14N nuclear-spin gyroscope.

Spin-1 double-quantum 4-Ramsey simulation end to end (spin dynamics,
optical readout with photon shot noise, rotation estimation) plus the
analysis toolchain: fringe fitting, calibration, Allan deviation,
sensitivity and dynamic-range budgets, and a rate-table simulator.
"""

__version__ = "0.1.0"

from .analysis import (
    AllanSeries,
    FringeFit,
    WorkingPoint,
    allan_deviation,
    calibration_from_fringes,
    calibration_from_slope,
    calibration_from_sweep,
    dynamic_range,
    fit_decaying_sine,
    linearity,
    one_rad_rotation_rate,
    power_spectrum,
    rotation_from_signal,
    select_working_point,
    snap_to_cos_null,
)
from .config import (
    ExperimentConfig,
    FringeScanConfig,
    build_config,
    default_config,
    load_config,
)
from .detector import (
    DetectorConfig,
    NoiseHooks,
    photoelectron_count,
    psn_fractional_uncertainty,
    psn_rotation_sensitivity,
    readout_signal,
    signal_sigma,
)
from .errors import (
    ConfigError,
    FitConvergenceError,
    GyroSimError,
    InsufficientSpanError,
    NonUniformGridError,
    SingularSplittingError,
)
from .ratetable import RateTrajectory
from .sequence import (
    DEFAULT_PHASE_TABLE,
    FringeSeries,
    SequenceConfig,
    combine_4ramsey,
    ramsey_projections,
    ramsey_signals,
    run_gyro_stream,
    sweep_fringes,
)
from .spin import (
    ABSOLUTE_FRAME,
    LITERATURE_CONSTANTS,
    FieldEnvironment,
    PhysicalConstants,
    RotatingFrame,
    dq_pulse,
    dq_splitting,
    sq_pi_pulse,
    transition_frequencies,
)

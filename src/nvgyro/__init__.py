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
    allan_deviation,
    calibration_from_fringes,
    calibration_from_sweep,
    dynamic_range,
    fit_decaying_sine,
    one_rad_rotation_rate,
    power_spectrum,
    rotation_from_signal,
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
    readout_signal,
    signal_sigma,
)
from .errors import ConfigError
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
    FieldEnvironment,
    PhysicalConstants,
    RotatingFrame,
    dq_pulse,
    dq_splitting,
    sq_pi_pulse,
    transition_frequencies,
)

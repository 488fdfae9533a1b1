"""Muscle-tendon actuation toolkit.

Forward-simulates Hill-type muscle actuators on synthetic tendon-driven
plants, recovers per-muscle control signals from joint-force trajectories
through a bounded linear least-squares problem, and batch-converts session
recordings between sample rates.
"""

from .activation import TauMode, smoothstep, step_activation, time_constant
from .inverse import (
    FrameSolution,
    InfeasibleFrameError,
    InverseInputs,
    InversionOptions,
    RoundTripReport,
    TrajectoryInversion,
    build_qp,
    invert_frame,
    invert_trajectory,
    recover_ctrl,
    roundtrip,
    tau_linearization,
)
from .muscle import (
    CalibrationError,
    MuscleGeometry,
    MuscleParams,
    actuator_force,
    calibrate_geometry,
    flv_curves,
    gain_bias,
    normalized_state,
)
from .pipeline import (
    ConfigurationError,
    Manifest,
    PipelineOptions,
    Session,
    SessionFormatError,
    SessionRecord,
    SessionTruncatedError,
    SessionVersionError,
    process_session,
    read_session,
    run_batch,
    write_session,
)
from .plant import (
    Plant,
    PlantError,
    PlantFormatError,
    PlantState,
    RolloutResult,
    acc0,
    forward_step,
    inverse_dynamics,
    load_plant,
    make_fixture,
    rest_state,
    rollout,
    save_plant,
    smooth_random_controls,
    tendon_kinematics,
)
from .qp import BoxQp, QpDiagnostics, kkt_residual, solve_box_qp
from .timeseries import differentiate, resample

__version__ = "0.1.0"

__all__ = [
    "TauMode", "smoothstep", "step_activation", "time_constant",
    "FrameSolution", "InfeasibleFrameError", "InverseInputs",
    "InversionOptions", "RoundTripReport", "TrajectoryInversion",
    "build_qp", "invert_frame", "invert_trajectory", "recover_ctrl",
    "roundtrip", "tau_linearization",
    "CalibrationError", "MuscleGeometry", "MuscleParams", "actuator_force",
    "calibrate_geometry", "flv_curves", "gain_bias", "normalized_state",
    "ConfigurationError", "Manifest", "PipelineOptions", "Session",
    "SessionFormatError", "SessionRecord", "SessionTruncatedError",
    "SessionVersionError", "process_session", "read_session", "run_batch",
    "write_session",
    "Plant", "PlantError", "PlantFormatError", "PlantState", "RolloutResult",
    "acc0", "forward_step", "inverse_dynamics", "load_plant", "make_fixture",
    "rest_state", "rollout", "save_plant", "smooth_random_controls",
    "tendon_kinematics",
    "BoxQp", "QpDiagnostics", "kkt_residual", "solve_box_qp",
    "differentiate", "resample",
    "__version__",
]

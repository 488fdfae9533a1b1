"""Muscle-tendon actuation toolkit.

Forward-simulates Hill-type muscle actuators on synthetic tendon-driven
plants, recovers per-muscle control signals from joint-force trajectories
through a bounded linear least-squares problem, and batch-converts session
recordings between sample rates.

The package root exports the library API that the command line and the
README example use; everything else is imported from its submodule.
"""

from .inverse import RoundTripReport, TrajectoryInversion, invert_trajectory, roundtrip
from .muscle import CalibrationError, MuscleGeometry, MuscleParams
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
    load_plant,
    make_fixture,
    rest_state,
    rollout,
    save_plant,
    smooth_random_controls,
)

__version__ = "0.1.0"

__all__ = [
    "RoundTripReport", "TrajectoryInversion", "invert_trajectory", "roundtrip",
    "CalibrationError", "MuscleGeometry", "MuscleParams",
    "ConfigurationError", "Manifest", "PipelineOptions", "Session",
    "SessionFormatError", "SessionRecord", "SessionTruncatedError",
    "SessionVersionError", "process_session", "read_session", "run_batch",
    "write_session",
    "Plant", "PlantError", "PlantFormatError", "PlantState", "RolloutResult",
    "load_plant", "make_fixture", "rest_state", "rollout", "save_plant",
    "smooth_random_controls",
    "__version__",
]

"""tanklab: indoor water-tank testbed simulator.

Simulates a miniature UUV (differential propulsion + syringe buoyancy),
observes it with an overhead tag-tracking camera model, moves commands and
telemetry over a depth-attenuated radio protocol, and recovers planar
kinematics from the detections for comparison against ground truth.
"""

from . import camera, frames, link, metrics, runner, scenarios, tracking, vehicle
from .frames import PlaneCoefficients, Pose, body_velocities, extract_yaw, fit_plane, to_world, world_rotation
from .runner import RunArtifacts, run_scenario
from .scenarios import BUILTIN_SCENARIOS, Scenario
from .tracking import (
    Detections,
    PipelineConfig,
    run_pipeline,
    segment_stream,
    state_series,
)
from .vehicle import ActuatorCommand, VehicleParams, VehicleState

__all__ = [
    "ActuatorCommand",
    "BUILTIN_SCENARIOS",
    "Detections",
    "PipelineConfig",
    "PlaneCoefficients",
    "Pose",
    "RunArtifacts",
    "Scenario",
    "VehicleParams",
    "VehicleState",
    "body_velocities",
    "camera",
    "extract_yaw",
    "fit_plane",
    "frames",
    "link",
    "metrics",
    "run_pipeline",
    "run_scenario",
    "runner",
    "scenarios",
    "segment_stream",
    "state_series",
    "to_world",
    "tracking",
    "vehicle",
    "world_rotation",
]

__version__ = "0.1.0"

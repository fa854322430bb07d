"""tanklab: indoor water-tank testbed simulator.

Simulates a miniature UUV (differential propulsion + syringe buoyancy),
observes it with an overhead tag-tracking camera model, moves commands and
telemetry over a depth-attenuated radio protocol, and recovers planar
kinematics from the detections for comparison against ground truth.
"""

from . import camera, frames, link, metrics, runner, scenarios, tracking, vehicle
from .runner import run_scenario

__version__ = "0.1.0"

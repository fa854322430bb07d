"""Overhead observation model: ground-truth state -> camera-frame tag pose.

Detection is pose-level: the tag's world pose is composed with the camera
extrinsics, then perturbed with translation/rotation noise, dropouts
(elevated inside glare regions), and optional spurious z outliers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .frames import Pose, axis_angle, rot_z
from .vehicle import VehicleState


@dataclass(frozen=True)
class GlareRegion:
    x: float
    y: float
    radius: float
    dropout_prob: float


@dataclass
class CameraConfig:
    pose: Pose = field(default_factory=Pose.identity)  # camera in world frame
    frame_rate: float = 30.0
    timestamp_jitter_sigma: float = 0.003
    translation_noise_sigma: float = 0.003
    rotation_noise_sigma: float = 0.01
    dropout_prob: float = 0.02
    glare_regions: tuple[GlareRegion, ...] = ()
    spurious_z_prob: float = 0.0     # injects +spurious_z_offset outliers
    spurious_z_offset: float = 0.2
    visibility_depth: float = 0.05   # tag invisible when submerged deeper

    def validate(self) -> None:
        if self.frame_rate <= 0:
            raise ValueError("frame_rate must be > 0")
        for name in ("dropout_prob", "spurious_z_prob"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError("%s must be in [0, 1]" % name)


@dataclass
class TagConfig:
    tag_id: int = 0
    mount_offset: Pose = field(default_factory=Pose.identity)  # body frame


def observe(
    state: VehicleState,
    cam: CameraConfig,
    tag: TagConfig,
    rng: np.random.Generator,
) -> Pose | None:
    """One camera frame: the tag's noisy pose in the camera frame, or None on
    dropout or when the tag is submerged.

    The frame's capture time comes from :func:`frame_clock`, so timing noise
    is applied there and not here.
    """
    if state.z > cam.visibility_depth:
        return None

    dropout = cam.dropout_prob
    for g in cam.glare_regions:
        if math.hypot(state.x - g.x, state.y - g.y) <= g.radius:
            dropout = max(dropout, g.dropout_prob)
    if dropout > 0.0 and rng.random() < dropout:
        return None

    body = Pose(state.position, rot_z(state.psi))
    tag_world = body.compose(tag.mount_offset)
    rc = cam.pose.rotation
    q = rc.T @ (tag_world.translation - cam.pose.translation)
    r_bc = rc.T @ tag_world.rotation

    if cam.translation_noise_sigma > 0.0:
        q = q + rng.normal(0.0, cam.translation_noise_sigma, size=3)
    if cam.rotation_noise_sigma > 0.0:
        axis = rng.normal(size=3)
        angle = rng.normal(0.0, cam.rotation_noise_sigma)
        r_bc = axis_angle(axis, angle) @ r_bc
    if cam.spurious_z_prob > 0.0 and rng.random() < cam.spurious_z_prob:
        q = q + np.array([0.0, 0.0, cam.spurious_z_offset])

    return Pose(q, r_bc)


def frame_clock(
    cam: CameraConfig, duration: float, rng: np.random.Generator
) -> np.ndarray:
    """Capture timestamps over [0, duration): nominal spacing plus jitter.

    Jitter is clamped to +/-40% of the frame period so the sequence stays
    strictly increasing.
    """
    if duration <= 0:
        raise ValueError("duration must be > 0")
    period = 1.0 / cam.frame_rate
    n = int(math.floor(duration * cam.frame_rate))
    nominal = np.arange(n) * period
    if cam.timestamp_jitter_sigma > 0.0:
        jitter = rng.normal(0.0, cam.timestamp_jitter_sigma, size=n)
        jitter = np.clip(jitter, -0.4 * period, 0.4 * period)
        nominal = nominal + jitter
        nominal[0] = max(nominal[0], 0.0)
    return nominal

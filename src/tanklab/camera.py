"""Overhead observation model: ground-truth states -> camera-frame tag poses.

Detection is pose-level: the tag's world pose is composed with the camera
extrinsics, then perturbed with translation/rotation noise, dropouts and
optional spurious z outliers.  As with the paper's recorded video, whose
tags are found offline, one call observes every frame of a run.  Each frame
the tag is not submerged in draws, in order: its dropout ``random()``; if
seen, one ``standard_normal`` draw of its translation noise (3), rotation
axis (3) and angle (1), scaled as ``normal`` scales, then its spurious-z
``random()``; each only if its sigma or probability > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frames import Pose, mm
from .tracking import DETECTION_CSV_HEADER


@dataclass
class CameraConfig:
    frame_rate: float = 30.0
    timestamp_jitter_sigma: float = 0.003
    translation_noise_sigma: float = 0.003
    rotation_noise_sigma: float = 0.01
    dropout_prob: float = 0.02
    spurious_z_prob: float = 0.0     # injects +spurious_z_offset outliers
    spurious_z_offset: float = 0.2
    visibility_depth: float = 0.05   # tag invisible when submerged deeper


@dataclass
class TagConfig:
    tag_id: int = 0


def observe(frames: np.ndarray, pose: Pose, cam: CameraConfig, tag: TagConfig,
            rng: np.random.Generator) -> np.ndarray:
    """The detection table of a run seen from ``pose``, the camera in the world
    frame: one ``DETECTION_CSV_HEADER`` row per frame the tag is seen in.  ``frames``
    is ``(n, 5)``: each frame's capture time (from :func:`frame_clock`, which
    applies the timing noise), then the vehicle's ``x``, ``y``, ``z`` (depth) and ``psi``.

    The draws run frame by frame, because a frame's fate decides them: a
    submerged frame draws nothing, a dropped one only its dropout.  The
    geometry then runs once over the frames kept, as stacked products.
    """
    sigma_t, sigma_r = cam.translation_noise_sigma, cam.rotation_noise_sigma
    width = 3 * (sigma_t > 0.0) + 4 * (sigma_r > 0.0)
    kept, normals, spurious = [], [], []
    for i, z in enumerate(frames[:, 3].tolist()):
        if z > cam.visibility_depth:
            continue
        if cam.dropout_prob > 0.0 and rng.random() < cam.dropout_prob:
            continue
        kept.append(i)
        if width:
            normals.append(rng.standard_normal(width))
        if cam.spurious_z_prob > 0.0:
            spurious.append(rng.random() < cam.spurious_z_prob)

    n = len(kept)
    seen = frames[kept]
    normals = np.array(normals).reshape(n, width)
    # Every product is frames.mm, whose in-order sums give each frame the bits
    # of the same sums on that frame alone, on any BLAS kernel and CPU; the
    # sines and cosines are math's, one angle at a time.
    psi = seen[:, 4].tolist()
    c, s = np.array([math.cos(v) for v in psi]), np.array([math.sin(v) for v in psi])
    rz = np.zeros((n, 3, 3))
    rz[:, 0, 0], rz[:, 0, 1], rz[:, 1, 0], rz[:, 1, 1], rz[:, 2, 2] = c, -s, s, c, 1.0
    rc = pose.rotation
    q = mm(seen[:, 1:4] - pose.translation, rc)  # each row is rc.T @ d
    r_bc = mm(rc.T, rz)

    if sigma_t > 0.0:
        q = q + (0.0 + sigma_t * normals[:, :3])
    if sigma_r > 0.0:
        a = 0.0 + normals[:, -4:-1]
        angles = (0.0 + sigma_r * normals[:, -1]).tolist()
        norm = np.sqrt(mm(a[:, None, :], a[:, :, None]))[:, :, 0]
        a = a / np.where(norm == 0.0, 1.0, norm)  # a zero axis: k = 0, a factor of eye(3)
        k = np.zeros((n, 3, 3))
        k[:, 0, 1], k[:, 0, 2], k[:, 1, 2] = -a[:, 2], a[:, 1], -a[:, 0]
        k[:, 1, 0], k[:, 2, 0], k[:, 2, 1] = a[:, 2], -a[:, 1], a[:, 0]
        sin = np.array([math.sin(v) for v in angles]).reshape(n, 1, 1)
        versin = np.array([1.0 - math.cos(v) for v in angles]).reshape(n, 1, 1)
        r_bc = mm(np.eye(3) + sin * k + versin * mm(k, k), r_bc)
    if cam.spurious_z_prob > 0.0:
        q[np.array(spurious, dtype=bool)] += (0.0, 0.0, cam.spurious_z_offset)

    table = np.empty((n, len(DETECTION_CSV_HEADER)))
    table[:, 0] = seen[:, 0]
    table[:, 1] = tag.tag_id
    table[:, 2:5] = q
    table[:, 5:] = r_bc.reshape(n, 9)
    return table


def frame_clock(
    cam: CameraConfig, duration: float, rng: np.random.Generator
) -> np.ndarray:
    """Capture timestamps over [0, duration): nominal spacing plus jitter.

    Jitter is clamped to +/-40% of the frame period so the sequence stays
    strictly increasing.  A run shorter than one frame period has no frame.
    """
    period = 1.0 / cam.frame_rate
    n = int(math.floor(duration * cam.frame_rate))
    nominal = np.arange(n) * period
    if cam.timestamp_jitter_sigma > 0.0:
        jitter = rng.normal(0.0, cam.timestamp_jitter_sigma, size=n)
        jitter = np.clip(jitter, -0.4 * period, 0.4 * period)
        nominal = nominal + jitter
        if n:
            nominal[0] = max(nominal[0], 0.0)
    return nominal

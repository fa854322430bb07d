"""Plane fitting and tilt correction.

An overhead camera is never mounted perfectly level.  This demo generates
noiseless detections of a vehicle moving on the water surface, seen by a
camera tilted 3 degrees, and shows that fitting a plane to the detection
cloud recovers the tilt and that transforming into the fitted world frame
drives the out-of-plane coordinate to zero.
"""

import math

import numpy as np

from tanklab import frames
from tanklab.frames import Pose, rot_x, rot_z, vec3


def main():
    tilt = math.radians(3.0)
    cam = Pose(vec3(2.0, 2.0, -2.4), rot_x(tilt))

    # vehicle gliding across the surface with a gentle weave
    times = np.arange(0, 5.0, 1 / 30)
    q = []
    for t in times:
        p = vec3(1.0 + 0.3 * t, 1.0 + 0.08 * math.sin(2 * t), 0.0)
        q.append(cam.rotation.T @ (p - cam.translation))
    q = np.array(q)

    plane = frames.fit_plane(q)
    normal = plane.normal / np.linalg.norm(plane.normal)
    recovered_tilt = math.degrees(math.acos(abs(normal[2])))
    print("fitted plane: a=%+.6f b=%+.6f d=%.4f" % (plane.a, plane.b, plane.d))
    print("camera tilt:  true %.3f deg, recovered %.3f deg" % (3.0, recovered_tilt))

    r = frames.world_rotation(plane)
    world = (q - q[0]) @ r.T
    print("out-of-plane |z| before correction: %.4f m (raw camera z spread)"
          % (q[:, 2].max() - q[:, 2].min()))
    print("out-of-plane |z| after  correction: %.2e m" % np.abs(world[:, 2]).max())

    # absolute yaw in the recovered frame is offset by the arbitrary basis,
    # but heading changes come through exactly
    yaw_a = frames.extract_yaw(r @ cam.rotation.T @ rot_z(0.0))
    yaw_b = frames.extract_yaw(r @ cam.rotation.T @ rot_z(0.7))
    print("a 0.7 rad heading change seen through the tilted camera: %.4f rad"
          % abs(yaw_b - yaw_a))


if __name__ == "__main__":
    main()

"""Independent straight-line reimplementations of the estimation pipeline,
the detection gate and gap split, the camera model, the segment residuals,
the depth-reversal counter, the turn counter, the telemetry sensors and
the plant's heave channel.

Deliberately naive: one detection at a time through the z gate,
least-squares via numpy lstsq, loop-based angle unwrap,
explicit endpoint/interior difference formulas, a direct O(n*w) trailing
mean, one camera frame at a time, every truth channel interpolated at both
the compared and the lagged times, and one depth or yaw-rate sample at a
time, one telemetry tick's step and its message at a time, and one heave
step at a time.  Used to cross-check the production code sample by sample.
"""

import bisect
import math
import statistics

import numpy as np

from tanklab.link import FLAG_FILL_VALID, FLAG_IR_DEGRADED, Telemetry, encode
from tanklab.vehicle import GRAVITY, WATER_DENSITY


def bf_segment_stream(table, max_gap, outlier_z_jump):
    """Gap-bounded segments of a detection table, as row arrays of it.

    A detection is rejected when its z (column 4) is more than
    ``outlier_z_jump`` from the median z of the last five kept detections,
    or of the first five detections while none is kept.  The kept rows
    split wherever the time gap exceeds ``max_gap``; runs of fewer than two
    rows are dropped."""
    zs = [float(v) for v in table[:, 4]]
    kept, recent = [], []
    for i, z in enumerate(zs):
        if abs(z - statistics.median(recent[-5:] or zs[:5])) > outlier_z_jump:
            continue
        kept.append(i)
        recent.append(z)
    runs = []
    for i in kept:
        if not runs or table[i, 0] - table[runs[-1][-1], 0] > max_gap:
            runs.append([])
        runs[-1].append(i)
    return [table[run] for run in runs if len(run) >= 2]


def bf_fit_plane(points):
    pts = np.asarray(points, dtype=float)
    a = np.column_stack([pts[:, 0], pts[:, 1], np.ones(len(pts))])
    coef, *_ = np.linalg.lstsq(a, pts[:, 2], rcond=None)
    return float(coef[0]), float(coef[1]), float(coef[2])


def bf_world_rotation(a, b):
    n = np.array([a, b, -1.0])
    u3 = n / np.linalg.norm(n)
    u1 = np.cross(n, [1.0, 0.0, 0.0])
    u1 = u1 / np.linalg.norm(u1)
    u2 = np.cross(u3, u1)
    r = np.array([u1, u2, u3])
    if np.linalg.det(r) < 0:
        r = np.array([-u1, u2, u3])
    return r


def bf_unwrap(angles):
    out = [float(angles[0])]
    for ang in angles[1:]:
        prev = out[-1]
        a = float(ang)
        while a - prev > math.pi:
            a -= 2 * math.pi
        while a - prev < -math.pi:
            a += 2 * math.pi
        out.append(a)
    return out


def bf_interp(tq, t, v):
    out = []
    for q in tq:
        if q <= t[0]:
            out.append(v[0])
            continue
        if q >= t[-1]:
            out.append(v[-1])
            continue
        j = 0
        while t[j + 1] < q:
            j += 1
        frac = (q - t[j]) / (t[j + 1] - t[j])
        out.append(v[j] + frac * (v[j + 1] - v[j]))
    return out


def bf_diff(values, dt):
    n = len(values)
    out = [0.0] * n
    out[0] = (values[1] - values[0]) / dt
    out[-1] = (values[-1] - values[-2]) / dt
    for i in range(1, n - 1):
        out[i] = (values[i + 1] - values[i - 1]) / (2 * dt)
    return out


def bf_trailing_mean(values, window):
    out = []
    for i in range(len(values)):
        lo = max(0, i - window + 1)
        chunk = values[lo : i + 1]
        out.append(sum(chunk) / len(chunk))
    return out


def bf_pipeline(times, translations, rotations, window, rate):
    """Full pipeline over one segment, returning dict of sample arrays."""
    a, b, d = bf_fit_plane(translations)
    r = bf_world_rotation(a, b)
    origin = np.asarray(translations[0], dtype=float)

    world = [r @ (np.asarray(q, float) - origin) for q in translations]
    yaw_raw = []
    for rot in rotations:
        m = r @ np.asarray(rot, float)
        yaw_raw.append(math.atan2(m[1, 0], m[0, 0]))
    yaw = bf_unwrap(yaw_raw)

    t0, t1 = times[0], times[-1]
    n = int(math.floor((t1 - t0) * rate + 1e-9)) + 1
    grid = [t0 + i / rate for i in range(n)]
    x = bf_interp(grid, times, [w[0] for w in world])
    y = bf_interp(grid, times, [w[1] for w in world])
    psi = bf_interp(grid, times, yaw)

    dt = 1.0 / rate
    xdot = bf_trailing_mean(bf_diff(x, dt), window)
    ydot = bf_trailing_mean(bf_diff(y, dt), window)
    rr = bf_trailing_mean(bf_diff(psi, dt), window)

    u, v = [], []
    for i in range(n):
        c, s = math.cos(psi[i]), math.sin(psi[i])
        u.append(c * xdot[i] + s * ydot[i])
        v.append(-s * xdot[i] + c * ydot[i])
    return {
        "t": np.array(grid),
        "x": np.array(x),
        "y": np.array(y),
        "psi": np.array(psi),
        "u": np.array(u),
        "v": np.array(v),
        "r": np.array(rr),
    }


def bf_observe(x, y, z, psi, pose, cam, tag, rng):
    """One frame of the camera at ``pose``: the tag's noisy camera-frame
    ``(translation, rotation)``, or None on dropout or when the tag is
    submerged.  Draws from ``rng`` in the order the batched camera pass must
    keep, with the same numpy forms, so its rows are bit-equal to the pass's."""
    if z > cam.visibility_depth:
        return None

    if cam.dropout_prob > 0.0 and rng.random() < cam.dropout_prob:
        return None

    c, s = math.cos(psi), math.sin(psi)
    rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    rc = pose.rotation
    q = rc.T @ (np.array([x, y, z]) - pose.translation)
    r_bc = rc.T @ rz

    if cam.translation_noise_sigma > 0.0:
        q = q + rng.normal(0.0, cam.translation_noise_sigma, size=3)
    if cam.rotation_noise_sigma > 0.0:
        a = rng.normal(size=3)
        angle = rng.normal(0.0, cam.rotation_noise_sigma)
        n = np.linalg.norm(a)
        if n == 0.0:
            aa = np.eye(3)
        else:
            a = a / n
            k = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
            aa = np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)
        r_bc = aa @ r_bc
    if cam.spurious_z_prob > 0.0 and rng.random() < cam.spurious_z_prob:
        q = q + np.array([0.0, 0.0, cam.spurious_z_offset])

    return q, r_bc


def bf_residuals(truth, estimates, rotation, origin, window, rate):
    """Estimate-minus-truth residuals of one segment, or ``None`` where no
    estimate past the smoothing edges overlaps truth.

    Truth is mapped into the segment's frame once per time set: at the
    compared times for pose and one filter group delay earlier for
    velocity, each interpolating all seven channels."""
    est = estimates[window : len(estimates) - window]
    t = est.timestamp
    if t.size == 0 or t[0] > truth.t[-1] or t[-1] < truth.t[0]:
        return None

    m = rotation[:2, :2]
    sign = 1.0 if (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) >= 0 else -1.0

    def in_frame(times):
        s = {name: np.interp(times, truth.t, truth[name])
             for name in ("x", "y", "z", "psi", "u", "v", "r")}
        p = np.column_stack([s["x"], s["y"], s["z"]]) - origin
        pw = p @ rotation.T
        bx = np.column_stack([np.cos(s["psi"]), np.sin(s["psi"]), np.zeros_like(s["psi"])])
        bw = bx @ rotation.T
        return {"x": pw[:, 0], "y": pw[:, 1], "psi": np.arctan2(bw[:, 1], bw[:, 0]),
                "u": s["u"], "v": sign * s["v"], "r": sign * s["r"]}

    pose = in_frame(t)
    vel = in_frame(t - (window - 1) / 2.0 / rate)
    dpsi = est.psi - pose["psi"]
    dpsi = dpsi - 2 * math.pi * np.floor((dpsi + math.pi) / (2 * math.pi))
    return {
        "t": t,
        "x": est.x - pose["x"],
        "y": est.y - pose["y"],
        "psi": np.where(dpsi <= -math.pi, math.pi, dpsi),  # wrapped to (-pi, pi]
        "u": est.u - vel["u"],
        "v": est.v - vel["v"],
        "r": est.r - vel["r"],
    }


def bf_count_reversals(depth, min_excursion):
    """Direction reversals of a depth profile, ignoring excursions smaller
    than ``min_excursion``: a hysteresis loop over every sample."""
    d = [float(v) for v in depth]
    if len(d) < 3:
        return 0
    reversals = 0
    direction = 0
    anchor = d[0]
    for v in d[1:]:
        delta = v - anchor
        if direction == 0:
            if abs(delta) >= min_excursion:
                direction = 1 if delta > 0 else -1
                anchor = v
        elif direction * delta >= 0:
            anchor = max(anchor, v) if direction > 0 else min(anchor, v)
        elif abs(delta) >= min_excursion:
            reversals += 1
            direction = -direction
            anchor = v
    return reversals


def bf_count_sign_changes(values, hysteresis):
    """Sign changes that swing past +/-hysteresis: a two-state loop over
    every sample, which neither a NaN nor a value within the band moves."""
    state = 0
    changes = 0
    for v in values:
        if v > hysteresis:
            if state == -1:
                changes += 1
            state = 1
        elif v < -hysteresis:
            if state == 1:
                changes += 1
            state = -1
    return changes


def bf_signal_quality(reading):
    """The signal quality of one 9-channel reading: 'none' when its
    channels lie within 0.05 of each other, 'degraded' when its floor is
    above 0.5 or 3 or more channels read 0.999 or above, else 'ok'."""
    floor = min(reading)
    if max(reading) - floor < 0.05:
        return "none"
    if floor > 0.5 or sum(c >= 0.999 for c in reading) >= 3:
        return "degraded"
    return "ok"


def bf_telemetry_ticks(step_t, period):
    """The step of each telemetry tick, one tick at a time: the first step
    after the last tick with ``t_k + 1e-12 >= due``, the due advanced by
    one period a tick, until a tick falls past the last step."""
    after, n = (step_t + 1e-12).tolist(), len(step_t)
    ticks, k, due = [], -1, 0.0
    while (k := max(k + 1, bisect.bisect_left(after, due))) < n:
        ticks.append(k)
        due += period
    return ticks


def bf_telemetry(fill, z, ambient, noise_sigma, params, rng):
    """The encoded telemetry frame of each tick: the IR response (falloff
    sigma 0.07 of travel), its signal quality (noise floor 0.05) and
    centroid, and one depth noise draw, one tick at a time in Python
    floats."""
    frames = []
    for f, depth in zip([float(v) for v in fill], [float(v) for v in z]):
        pos = f / params.syringe_capacity
        reading = [min(1.0, max(0.0, math.exp(-((k / 8.0 - pos) ** 2) / (2.0 * 0.07**2))
                                + ambient)) for k in range(9)]
        floor = min(reading)
        flags, fill_tenth = 0, 0
        quality = bf_signal_quality(reading)
        if quality != "none":
            num = den = 0.0
            for k, c in enumerate(reading):
                num += (k / 8.0) * (c - floor)
                den += c - floor
            fill_tenth = max(0, min(255, round(params.syringe_capacity * num / den * 10)))
            flags |= FLAG_FILL_VALID
            if quality == "degraded":
                flags |= FLAG_IR_DEGRADED
        if noise_sigma > 0.0:
            depth += rng.normal(0.0, noise_sigma)
        depth = round(depth * 1000.0) / 1000.0
        frames.append(encode(Telemetry(
            max(0, min(0xFFFF, round(depth * 1000))),
            tuple(max(0, min(255, round(c * 255))) for c in reading), fill_tenth, flags)))
    return frames


def bf_heave_steps(heave, pump, dt, p, m):
    """``m`` steps of the heave channel ``(z, w, fill)`` under a fill direction,
    every quantity stepped in plain floats: the scalar model's per-step
    loop, without its fixed-point probe, so every step is computed.
    Returns the pre-step ``(z, w, fill)`` of each step, flat, and the
    state after the last."""
    rate = p.pump_max_rate / 60.0
    dfill = {1: rate * dt, -1: -(rate * dt)}.get(pump, 0.0)
    capacity, neutral, depth = p.syringe_capacity, p.neutral_fill, p.tank_depth
    mass, c_w = p.mass, p.drag_heave
    g_rho = GRAVITY * WATER_DENSITY

    out = []
    z, w, fill = heave
    for _ in range(m):
        out.extend((z, w, fill))
        fill += dfill
        fill = 0.0 if fill < 0.0 else capacity if fill > capacity else fill
        buoy = g_rho * (fill - neutral) * 1e-6  # N, +down

        w = w + dt * (buoy - c_w * w * abs(w)) / mass
        z = z + dt * w
        if z < 0.0:
            z, w = 0.0, 0.0
        elif z > depth:
            z, w = depth, 0.0
    return out, (z, w, fill)

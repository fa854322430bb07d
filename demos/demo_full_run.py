"""A complete scenario run: simulate, track, and score.

Runs the built-in circle scenario (constant differential thrust, turn
radius about 6 ft), writes the CSV artifacts, and compares the radius of
the estimated track against ground truth -- the same comparison made
against the physical experiments the testbed mirrors.
"""

import numpy as np

from tanklab.metrics import circle_fit
from tanklab.runner import run_scenario
from tanklab.scenarios import get_scenario


def main():
    scenario = get_scenario("circle")
    art = run_scenario(scenario, out_dir="runs/demo_circle")

    print("scenario %s: %.0f s, seed %d" % (scenario.name, scenario.duration, scenario.seed))
    print("camera frames %d, detections %d (coverage %.1f%%)"
          % (art.metrics["n_frames"], len(art.detections), 100 * art.metrics["detection_coverage"]))

    steady = art.truth.t > 10.0
    _, r_truth = circle_fit(np.column_stack([art.truth.x[steady], art.truth.y[steady]]))
    est = art.estimates
    pts = np.column_stack([est.x, est.y])[est.timestamp > 10.0]
    _, r_est = circle_fit(pts)
    print("turn radius: truth %.3f m, estimated %.3f m (target ~1.83 m)"
          % (r_truth, r_est))

    for name in ("rmse_xy", "rmse_psi", "rmse_u", "rmse_v", "rmse_r", "mean_v"):
        print("  %-10s %.5f" % (name, art.metrics[name]))
    print("artifacts written to runs/demo_circle/")


if __name__ == "__main__":
    main()

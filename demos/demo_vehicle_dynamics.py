"""Vehicle plant behavior: terminal speeds, buoyancy cycle, IR feedback.

Steps the plant model directly (no camera, no radio) to show the three
behaviors the scenarios rely on: quadratic-drag terminal surge, the
syringe-driven dive/rise cycle, and the 9-channel IR estimate of plunger
position.
"""

import math

from tanklab.vehicle import (
    ActuatorCommand,
    VehicleParams,
    VehicleState,
    estimate_plunger,
    ir_response,
    signal_quality,
    step,
)

DT = 1.0 / 240.0


def main():
    p = VehicleParams()

    # terminal surge at 50% on both motors
    state = VehicleState()
    cmd = ActuatorCommand(0.5, 0.5)
    for _ in range(240 * 15):
        state = step(state, cmd, DT, p)
    analytic = math.sqrt(2 * 0.5 * p.max_thrust_per_prop / p.drag_surge)
    print("terminal surge at 50%%: simulated %.4f m/s, analytic %.4f m/s"
          % (state.u, analytic))

    # buoyancy cycle: fill the syringe, sink, expel, rise
    state = VehicleState()
    t = 0.0
    # the pump command is a fill direction: +1 intake, -1 expel, 0 off
    phase = [("intake", 1, 8.0), ("off", 0, 12.0), ("expel", -1, 15.0), ("off", 0, 20.0)]
    print("\nbuoyancy cycle (pump at %.0f mL/min):" % p.pump_max_rate)
    for name, pump, duration in phase:
        for _ in range(int(duration / DT)):
            state = step(state, ActuatorCommand(pump=pump), DT, p)
            t += duration and DT
        print("  t=%5.1f s  pump=%-6s  fill=%5.2f mL  depth=%.3f m"
              % (t, name, state.fill, state.z))

    # IR plunger feedback, one row per fill
    print("\nIR plunger estimate (ambient 0.05):")
    fills = [5.0, 12.5, 20.0]
    readings = ir_response(fills, 0.05, p)
    for fill, est, quality in zip(fills, estimate_plunger(readings, p), signal_quality(readings)):
        print("  true %5.1f mL -> estimated %5.2f mL (%s)" % (fill, est, quality))
    glare = ir_response([12.5], 0.95, p)
    print("  under heavy surface light the reading degrades: quality=%s"
          % signal_quality(glare)[0])

if __name__ == "__main__":
    main()

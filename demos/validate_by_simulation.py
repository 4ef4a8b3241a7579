"""Cross-check the boundary-value construction against simulation.

Two independent routes to the same numbers:

1. The defining integral P(tau) = int_0^inf Phi(t)' Q Phi(t + tau) dt is
   evaluated directly by simulating the fundamental matrix Phi and
   applying Simpson's rule with an exponential tail correction. One
   simulation per horizon serves all five lags.
2. The quadratic cost int_0^inf x(t)' Q x(t) dt of a point-mass history
   x0 must equal x0' P(0) x0, so we simulate a trajectory, integrate the
   cost, and compare.

Neither route touches the auxiliary boundary-value problem, so agreement
here certifies the construction end to end.

Run as:  python3 demos/validate_by_simulation.py
"""

import numpy as np

from delaylyap import (
    HistorySpec,
    P_at,
    TimeDelaySystem,
    Weight,
    cost_to_go,
    oracle_P,
    sincos_kernel,
    solve,
)

# the rotation-coupled example again
A1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
B0 = 0.3 * np.eye(2)
Ad, Bd, Cd = sincos_kernel(B0, A1 @ B0, np.pi)
sys = TimeDelaySystem(-np.eye(2), A1, Ad, Bd, Cd, h=1.0)
weight = Weight(np.eye(2))
sol = solve(sys, weight)

print("route 1: quadrature of the defining integral")
print("   tau   |P_bvp - P_sim|")
taus = [0.0, 0.25, 0.5, 0.75, 1.0]
for tau, Po in zip(taus, oracle_P(sys, weight, taus)):
    print("  %4.2f   %.3e" % (tau, np.max(np.abs(P_at(sol, tau) - Po))))
print()

print("route 2: cost of a trajectory vs x0' P(0) x0")
P0 = P_at(sol, 0.0)
for x0 in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0]):
    est, traj = cost_to_go(sys, weight, HistorySpec.point_mass(x0))
    predicted = float(np.asarray(x0) @ P0 @ np.asarray(x0))
    print("  x0 = %s" % x0)
    print("    simulated cost  %.10f  (horizon %.0f, tail %.1e)"
          % (est.value, traj.ts[-1], est.tail))
    print("    predicted cost  %.10f  (difference %.2e)"
          % (predicted, abs(est.value - predicted)))

"""Acceptance suite: one test per published capability claim.

Each test prints a single ``[acceptance] PASS/FAIL`` line with the
measured margin, then asserts. The systems and tolerances mirror the
package's documented guarantees; expected numbers come from the
four-digit benchmark values, closed forms, or the independent
simulation oracles, never from the solver under test.
"""

import time

import numpy as np
import pytest

from delaylyap import (
    HistorySpec,
    P_at,
    SpectrumConditionViolated,
    TimeDelaySystem,
    Weight,
    assemble,
    check_spectrum,
    cost_to_go,
    endpoint_residuals,
    flip_residuals,
    oracle_P,
    residual_algebraic,
    residual_collapsed,
    residual_dde,
    solve,
    solve_boundary,
)
from delaylyap.cli import main as cli_main
from delaylyap.linalg import vec
from delaylyap.solver import OmegaBlocks

from systems import (
    random_stable_system,
    random_symmetric,
    random_system,
    scalar_decay,
    scalar_zero_root,
)
from test_solver import kron_assembly, stacked_derivative_oracle


def report(num, name, ok, detail):
    line = "[acceptance] %s criterion %s: %s (%s)" % (
        "PASS" if ok else "FAIL", num, name, detail)
    print(line)
    assert ok, line


def example1():
    """The four-digit benchmark, stated with its compact kernel factors."""
    A1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    Ad = np.pi * np.array([[0.0, -1.0], [1.0, 0.0]])
    Bd = A1 @ (0.3 * np.eye(2))
    Cd = np.eye(2)
    sys = TimeDelaySystem(-np.eye(2), A1, Ad, Bd, Cd, 1.0)
    return sys, Weight(np.eye(2))


def oracle_systems():
    """Example 1 plus two seeded random decaying systems of small size."""
    sys1, weight1 = example1()
    return [
        ("example1", sys1, weight1),
        ("random-n2-nd1", random_stable_system(101, n=2, nd=1), Weight(np.eye(2))),
        ("random-n1-nd2", random_stable_system(202, n=1, nd=2), Weight([[1.0]])),
    ]


def boundary_oracle(sys, blocks0, blocksh):
    """Literal evaluation of the two-point boundary form on given blocks.

    Returns the stacked vector directly: the last four slots carry plain
    copies of end-point blocks whose shapes differ from the slot's
    nominal unstacking when n != nd.
    """
    A0, A1, Bd = sys.A0, sys.A1, sys.Bd
    a1, a2, a3, a4, a5, a6 = blocks0
    b1, b2, b3, b4, b5, b6 = blocksh
    row1 = (a1 @ A0 + a2 @ A1 + a3 @ Bd + a4 @ Bd
            + A1.T @ b1 + A0.T @ b2 + Bd.T @ b5 + Bd.T @ b6)
    return np.concatenate([vec(M) for M in (row1, a1 - b2, a3, a5, b4, b6)])


def test_criterion_1_benchmark_blocks():
    sys, weight = example1()
    t0 = time.perf_counter()
    op = assemble(sys)
    sol = solve_boundary(op, weight)
    elapsed = time.perf_counter() - t0
    om = sol.omega0
    expected = {
        "omega1": 0.7072 * np.eye(2),
        "omega2": np.array([[0.2636, -0.3165], [0.3165, 0.2636]]),
        "omega3": np.zeros((2, 2)),
        "omega4": np.array([[0.1909, 0.3642], [-0.3642, 0.1909]]),
        "omega5": np.zeros((2, 2)),
        "omega6": np.array([[-0.1909, -0.3642], [0.3642, -0.1909]]),
    }
    worst = max(np.max(np.abs(getattr(om, key) - want))
                for key, want in expected.items())
    ok = worst <= 5e-4 and elapsed < 1.0
    report(1, "benchmark boundary blocks", ok,
           "worst entry error %.2e, solve %.3f s" % (worst, elapsed))


def test_criterion_2_cost_identity():
    sys, weight = example1()
    sol = solve(sys, weight)
    P0 = P_at(sol, 0.0)
    t0 = time.perf_counter()
    worst = 0.0
    for x0 in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0]):
        x0 = np.asarray(x0)
        est, _ = cost_to_go(sys, weight, HistorySpec.point_mass(x0))
        predicted = float(x0 @ P0 @ x0)
        rel = abs(est.value - predicted) / max(1.0, abs(predicted))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and elapsed < 30.0
    report(2, "cost identity for three histories", ok,
           "worst scaled error %.2e, %.1f s total" % (worst, elapsed))


def test_criterion_3_oracle_equivalence():
    worst = 0.0
    for name, sys, weight in oracle_systems():
        sol = solve(sys, weight)
        taus = [frac * sys.h for frac in (0.0, 0.25, 0.5, 0.75, 1.0)]
        for tau, Po in zip(taus, oracle_P(sys, weight, taus)):
            worst = max(worst, np.max(np.abs(Po - P_at(sol, tau))))
    ok = worst <= 1e-3
    report(3, "quadrature oracle matches the boundary solve", ok,
           "worst max-abs difference %.2e over 3 systems x 5 lags" % worst)


def test_criterion_4_residual_suite():
    cases = [(name, sys, weight) for name, sys, weight in oracle_systems()]
    cases.append(("delay-free-scalar",) + scalar_decay(a0=-1.0, h=1.0, q=1.0))
    failures = []
    margins = []
    for name, sys, weight in cases:
        sol = solve(sys, weight)
        checks = [("dde", residual_dde(sol), 1e-5),
                  ("algebraic", residual_algebraic(sol), 1e-6),
                  ("collapsed", residual_collapsed(sol), 1e-6)]
        flips = flip_residuals(sol)
        for key in ("omega1_flip", "omega3_flip", "omega4_flip"):
            checks.append((key, flips[key], 1e-8))
        checks.append(("omega1_symmetry_at_0", flips["omega1_symmetry_at_0"], 1e-9))
        for key, value in endpoint_residuals(sol).items():
            checks.append((key, value, 1e-9))
        for key, value, bound in checks:
            margins.append(value / bound)
            if value > bound:
                failures.append("%s %s=%.2e" % (name, key, value))
    ok = not failures
    report(4, "residual suite on every solved system", ok,
           "worst value at %.1e of its bound" % max(margins)
           if ok else "; ".join(failures))


def test_criterion_5_delay_free_closed_form():
    sys, weight = scalar_decay(a0=-1.0, h=1.0, q=1.0)
    sol = solve(sys, weight)
    worst = max(abs(P_at(sol, tau)[0, 0] - 0.5 * np.exp(-tau))
                for tau in np.linspace(0.0, 1.0, 21))
    ok = worst <= 1e-8
    report(5, "delay-free scalar closed form", ok,
           "worst error %.2e on 21 lags" % worst)


def test_criterion_6_spectrum_detection():
    sys_bad, weight_bad = scalar_zero_root()
    relative = None
    raised = False
    try:
        solve(sys_bad, weight_bad)
    except SpectrumConditionViolated as exc:
        raised = True
        relative = exc.report.relative
    sys_ok, _ = example1()
    verdict = check_spectrum(assemble(sys_ok)).verdict
    ok = raised and relative < 1e-10 and verdict == "satisfied"
    report(6, "solvability degeneracy detection", ok,
           "degenerate relative %.1e raised=%s, benchmark %s"
           % (relative if relative is not None else float("nan"),
              raised, verdict))


def test_criterion_7_assembly_oracle():
    rng = np.random.default_rng(7)
    shapes = lambda n, nd: [(n, n), (n, n), (n, nd), (n, nd), (nd, n), (nd, n)]
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 3))
        nd = int(rng.integers(1, 3))
        sys = random_system(rng, n, nd, h=float(rng.uniform(0.2, 2.0)))
        op = assemble(sys)
        _, F1, F2 = kron_assembly(sys)
        blocks0 = [rng.standard_normal(s) for s in shapes(n, nd)]
        blocksh = [rng.standard_normal(s) for s in shapes(n, nd)]
        om0 = OmegaBlocks(*blocks0)
        omh = OmegaBlocks(*blocksh)
        diff_e = np.max(np.abs(
            op.action(om0.stacked)
            - OmegaBlocks(*stacked_derivative_oracle(sys, blocks0)).stacked
        ))
        diff_b = np.max(np.abs(
            F1 @ om0.stacked + F2 @ omh.stacked
            - boundary_oracle(sys, blocks0, blocksh)
        ))
        # the package's G on omega(0), with omega(h) = expm(E h) omega(0)
        omh = OmegaBlocks.from_stacked(op.expm_Eh @ om0.stacked, n, nd)
        diff_g = np.max(np.abs(
            op.G @ om0.stacked - boundary_oracle(sys, blocks0, omh)
        ))
        worst = max(worst, diff_e, diff_b, diff_g)
    ok = worst <= 1e-13
    report(7, "operator assembly against literal products", ok,
           "worst max-abs deviation %.2e over 100 trials" % worst)


def test_criterion_8_linearity_in_weight():
    sys, _ = example1()
    op = assemble(sys)
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(20):
        Q1 = random_symmetric(rng, 2)
        Q2 = random_symmetric(rng, 2)
        s1 = solve_boundary(op, Weight(Q1)).omega0.stacked
        s2 = solve_boundary(op, Weight(Q2)).omega0.stacked
        s12 = solve_boundary(op, Weight(Q1 + Q2)).omega0.stacked
        scale = max(1.0, float(np.max(np.abs(s12))))
        worst = max(worst, float(np.max(np.abs(s1 + s2 - s12))) / scale)
    ok = worst <= 1e-10
    report(8, "superposition in the weight", ok,
           "worst relative deviation %.2e over 20 pairs" % worst)


def test_figure_data_csv(tmp_path):
    import json

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "system": {
            "A0": [[-1.0, 0.0], [0.0, -1.0]],
            "A1": [[0.0, 1.0], [-1.0, 0.0]],
            "h": 1.0,
            "kernel": {
                "Ad": [[0.0, -np.pi], [np.pi, 0.0]],
                "Bd": [[0.0, 0.3], [-0.3, 0.0]],
                "Cd": [[1.0, 0.0], [0.0, 1.0]],
            },
        },
        "Q": [[1.0, 0.0], [0.0, 1.0]],
    }))
    out = tmp_path / "out"
    rc = cli_main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"])
    lines = (out / "P_tau.csv").read_text().splitlines()
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[-1].split(",")]
    ok = (rc == 0 and len(lines) == 202
          and abs(first[1] - 0.7072) < 5e-4
          and abs(last[0] - 1.0) < 1e-12)
    report("figure", "201-point tabulation over the delay interval", ok,
           "%d data rows, P11(0)=%.4f" % (len(lines) - 1, first[1]))

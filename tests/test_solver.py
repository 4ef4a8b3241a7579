import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from delaylyap import (
    P_at,
    SpectrumConditionViolated,
    TimeDelaySystem,
    Weight,
    assemble,
    endpoint_residuals,
    evaluate_omega,
    flip_residuals,
    residual_algebraic,
    residual_collapsed,
    residual_dde,
    residual_report,
    solve,
    solve_boundary,
)
from delaylyap import linalg, solver
from delaylyap.cli import VALIDATION_BOUNDS
from delaylyap.solver import OmegaBlocks, _layout

from systems import (
    benchmark_sincos_pieces,
    benchmark_system,
    random_stable_system,
    random_symmetric,
    random_system,
    scalar_decay,
    scalar_zero_root,
)


def stacked_derivative_oracle(sys, blocks):
    """Literal matrix-product evaluation of the six block derivatives."""
    A0, A1, Ad, Bd, Cd = sys.A0, sys.A1, sys.Ad, sys.Bd, sys.Cd
    Ead = Cd @ scipy.linalg.expm(-Ad * sys.h)
    o1, o2, o3, o4, o5, o6 = blocks
    return [
        o1 @ A0 + o2 @ A1 + o3 @ Bd + o4 @ Bd,
        -A1.T @ o1 - A0.T @ o2 - Bd.T @ o5 - Bd.T @ o6,
        -o3 @ Ad + o1 @ Cd,
        -o4 @ Ad - o2 @ Ead,
        Ad.T @ o5 + Ead.T @ o1,
        Ad.T @ o6 - Cd.T @ o2,
    ]


class TestBlockLayout:
    @pytest.mark.parametrize("n,nd,expected", [
        (1, 1, 6), (2, 1, 16), (2, 2, 24), (3, 2, 42), (3, 3, 54),
    ])
    def test_state_size(self, n, nd, expected):
        shapes, off = _layout(n, nd)
        assert list(np.diff(off)) == [r * c for r, c in shapes]
        assert off[0] == 0 and off[-1] == expected

    def test_omega_blocks_roundtrip(self):
        rng = np.random.default_rng(2)
        n, nd = 3, 2
        blocks = [rng.standard_normal(s) for s in
                  [(n, n), (n, n), (n, nd), (n, nd), (nd, n), (nd, n)]]
        stacked = OmegaBlocks(*blocks).stacked
        assert np.array_equal(
            stacked, np.concatenate([M.reshape(-1, order="F") for M in blocks]))
        om = OmegaBlocks.from_stacked(stacked, n, nd)
        for got, want in zip(om, blocks):
            assert np.array_equal(got, want)
        # the blocks are views of the stacked state, not copies
        assert all(np.shares_memory(M, stacked) for M in om)
        # states stacked on a leading axis give stacked blocks, still views
        many = np.stack([stacked, 2 * stacked, -stacked])
        om = OmegaBlocks.from_stacked(many, n, nd)
        for got, want in zip(om, blocks):
            assert np.array_equal(got, [want, 2 * want, -want])
        assert all(np.shares_memory(M, many) for M in om)

    def test_omega_blocks_validation(self):
        with pytest.raises(ValueError):
            OmegaBlocks.from_stacked(np.zeros(7), 1, 1)
        with pytest.raises(TypeError):
            OmegaBlocks(*[np.zeros((2, 2))] * 5)


class TestAssembly:
    def test_matches_literal_dynamics(self):
        # the stacked generator must reproduce the block equations exactly
        rng = np.random.default_rng(41)
        for trial in range(100):
            n = int(rng.integers(1, 4))
            nd = int(rng.integers(1, 4))
            sys = random_system(rng, n, nd, h=float(rng.uniform(0.2, 2.0)))
            op = assemble(sys)
            blocks = [rng.standard_normal(s) for s in
                      [(n, n), (n, n), (n, nd), (n, nd), (nd, n), (nd, n)]]
            om = OmegaBlocks(*blocks)
            got = op.E @ om.stacked
            want = OmegaBlocks(*stacked_derivative_oracle(sys, blocks)).stacked
            assert np.max(np.abs(got - want)) < 1e-13

    def test_operator_shape(self):
        sys, _ = benchmark_system()
        op = assemble(sys)
        assert op.ns == 24
        assert op.E.shape == op.F1.shape == op.F2.shape == op.G.shape == (24, 24)

    def test_combined_matrix_definition(self):
        sys, _ = benchmark_system()
        op = assemble(sys)
        expected = op.F1 + op.F2 @ scipy.linalg.expm(op.E * sys.h)
        assert_allclose(op.G, expected, atol=1e-13)


class TestBoundarySolve:
    def test_benchmark_blocks(self):
        # boundary blocks known to four digits for the benchmark system
        sys, weight = benchmark_system()
        sol = solve(sys, weight)
        om = sol.omega0
        assert_allclose(om.omega1, 0.7072 * np.eye(2), atol=5e-4)
        assert_allclose(om.omega2,
                        [[0.2636, -0.3165], [0.3165, 0.2636]], atol=5e-4)
        assert_allclose(om.omega4,
                        [[0.1909, 0.3642], [-0.3642, 0.1909]], atol=5e-4)
        assert_allclose(om.omega6,
                        [[-0.1909, -0.3642], [0.3642, -0.1909]], atol=5e-4)
        assert np.max(np.abs(om.omega3)) < 1e-12
        assert np.max(np.abs(om.omega5)) < 1e-12

    def test_boundary_rows_literal(self):
        # re-evaluate the boundary condition with explicit matrix products
        for sys, weight in [benchmark_system(),
                            (random_stable_system(7), Weight(np.eye(2)))]:
            sol = solve(sys, weight)
            om0 = sol.omega0
            omh = evaluate_omega(sol, sys.h)
            A0, A1, Bd = sys.A0, sys.A1, sys.Bd
            row1 = (om0.omega1 @ A0 + om0.omega2 @ A1
                    + om0.omega3 @ Bd + om0.omega4 @ Bd
                    + A1.T @ omh.omega1 + A0.T @ omh.omega2
                    + Bd.T @ omh.omega5 + Bd.T @ omh.omega6)
            assert_allclose(row1, -weight.matrix, atol=1e-10)
            assert_allclose(om0.omega1, omh.omega2, atol=1e-10)
            for M in (om0.omega3, om0.omega5, omh.omega4, omh.omega6):
                assert np.max(np.abs(M)) < 1e-10

    def test_propagation_matches_block_dynamics(self):
        # finite differences of the propagated state against the literal
        # block derivatives
        sys, weight = benchmark_system()
        sol = solve(sys, weight)
        tau, eps = 0.3, 1e-6
        fd = (evaluate_omega(sol, tau + eps).stacked
              - evaluate_omega(sol, tau - eps).stacked) / (2 * eps)
        want = OmegaBlocks(
            *stacked_derivative_oracle(sys, evaluate_omega(sol, tau))).stacked
        assert np.max(np.abs(fd - want)) < 1e-7

    def test_zero_weight_gives_zero(self):
        sys, _ = benchmark_system()
        sol = solve(sys, Weight(np.zeros((2, 2))))
        assert np.max(np.abs(sol.omega0.stacked)) < 1e-14
        assert np.max(np.abs(P_at(sol, 0.4))) < 1e-13

    def test_linearity_in_weight(self):
        sys, _ = benchmark_system()
        op = assemble(sys)
        rng = np.random.default_rng(43)
        for _ in range(20):
            Q1 = random_symmetric(rng, 2)
            Q2 = random_symmetric(rng, 2)
            s1 = solve_boundary(op, Weight(Q1)).omega0.stacked
            s2 = solve_boundary(op, Weight(Q2)).omega0.stacked
            s12 = solve_boundary(op, Weight(Q1 + Q2)).omega0.stacked
            scale = max(1.0, np.max(np.abs(s12)))
            assert np.max(np.abs(s1 + s2 - s12)) < 1e-10 * scale

    def test_weight_dimension_mismatch(self):
        sys, _ = benchmark_system()
        with pytest.raises(ValueError):
            solve(sys, Weight(np.eye(3)))

    def test_zero_root_raises(self):
        sys, weight = scalar_zero_root()
        with pytest.raises(SpectrumConditionViolated) as info:
            solve(sys, weight)
        assert info.value.report.relative < 1e-10

    def test_rcond_recorded(self):
        # the conditioning a solution records is its spectrum report's
        # sigma_min(G) / max|G|; no second estimate is kept
        sys, weight = benchmark_system()
        sol = solve(sys, weight)
        assert not hasattr(sol, "rcond")
        report = sol.spectrum
        assert report.verdict == "satisfied"
        assert report.sigma_min > 0
        assert report.max_abs == np.max(np.abs(sol.op.G))
        assert report.relative == report.sigma_min / report.max_abs

    @pytest.mark.parametrize("seed", [None, 0])
    def test_one_decomposition_decides_and_solves(self, seed, monkeypatch):
        # the SVD that grades solvability is the only one taken of G; the
        # solution is the plain LU solve, bitwise
        if seed is None:
            sys, weight = benchmark_system()
        else:
            sys, weight = random_stable_system(seed, 6, 6), Weight(np.eye(6))
        op = assemble(sys)
        calls = []
        for mod, name in ((scipy.linalg, "svd"), (scipy.linalg, "svdvals"),
                          (np.linalg, "svd")):
            def counting(*args, _fn=getattr(mod, name), **kwargs):
                calls.append(_fn)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(mod, name, counting)
        sol = solve_boundary(op, weight)
        monkeypatch.undo()
        assert len(calls) == 1
        rhs = np.zeros(op.ns)
        rhs[: sys.n ** 2] = -weight.matrix.reshape(-1, order="F")
        assert np.array_equal(sol.omega0.stacked, scipy.linalg.solve(op.G, rhs))


class TestClosedForms:
    def test_delay_free_scalar(self):
        # no delayed terms: P(tau) = -q/(2 a0) e^(a0 tau)
        sys, weight = scalar_decay(a0=-1.0, h=1.0, q=1.0)
        sol = solve(sys, weight)
        for tau in np.linspace(0.0, 1.0, 21):
            assert_allclose(P_at(sol, tau), [[0.5 * np.exp(-tau)]], atol=1e-8)

    def test_delay_free_scalar_general_coefficients(self):
        sys, weight = scalar_decay(a0=-0.7, h=1.5, q=2.0)
        sol = solve(sys, weight)
        for tau in np.linspace(0.0, 1.5, 11):
            expected = 2.0 / 1.4 * np.exp(-0.7 * tau)
            assert_allclose(P_at(sol, tau), [[expected]], rtol=1e-9)

    def test_zero_delay_length(self):
        sys, weight = scalar_decay(a0=-1.0, h=0.0, q=1.0)
        op = assemble(sys)
        assert_allclose(op.G, op.F1 + op.F2, atol=0)
        sol = solve_boundary(op, weight)
        assert_allclose(P_at(sol, 0.0), [[0.5]], atol=1e-12)

    def test_benchmark_value_at_zero(self):
        sys, weight = benchmark_system()
        sol = solve(sys, weight)
        assert_allclose(P_at(sol, 0.0), 0.7072 * np.eye(2), atol=5e-4)


class TestPEvaluation:
    def test_reflection(self):
        sys, weight = benchmark_system()
        sol = solve(sys, weight)
        for tau in (0.2, 0.7, 1.0):
            assert np.array_equal(P_at(sol, -tau), P_at(sol, tau).T)

    def test_symmetry_at_zero(self):
        sys, weight = benchmark_system()
        sol = solve(sys, weight)
        P0 = P_at(sol, 0.0)
        assert np.max(np.abs(P0 - P0.T)) < 1e-9

    def test_domain(self):
        sys, weight = benchmark_system()
        sol = solve(sys, weight)
        with pytest.raises(ValueError):
            P_at(sol, 1.5)
        with pytest.raises(ValueError):
            P_at(sol, -1.5)
        with pytest.raises(ValueError):
            P_at(sol, np.nan)
        # endpoint slack
        P_at(sol, 1.0 + 1e-12)

    def test_evaluate_omega_at_zero_is_exact(self):
        sys, weight = benchmark_system()
        sol = solve(sys, weight)
        assert np.array_equal(evaluate_omega(sol, 0.0).stacked,
                              sol.omega0.stacked)

    def test_evaluate_omega_rejects_nonfinite(self):
        sys, weight = benchmark_system()
        sol = solve(sys, weight)
        with pytest.raises(ValueError):
            evaluate_omega(sol, np.inf)


def P_by_expm(sol, tau):
    """``P`` on ``[0, h]`` from two direct exponentials, as defined."""
    h = sol.system.h
    return 0.5 * (evaluate_omega(sol, tau).omega1
                  + evaluate_omega(sol, h - tau).omega2.T)


class TestPropagationTable:
    @pytest.mark.parametrize("seed", [None, 0, 1, 2, 3, 4])
    def test_matches_expm_formula(self, seed):
        if seed is None:
            sys, weight = benchmark_system()
            taus = np.linspace(0.0, sys.h, 201)
        else:
            sys = random_stable_system(seed, 6, 6)
            weight = Weight(np.eye(6))
            taus = np.linspace(0.0, sys.h, 21)
        sol = solve(sys, weight)
        for tau in taus:
            want = P_by_expm(sol, tau)
            got = P_at(sol, tau)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # one call over every lag, the reflected ones included, reads the
        # same bits as one call per lag
        lags = np.concatenate([taus, -taus])
        assert np.array_equal(P_at(sol, lags), np.array([P_at(sol, t) for t in lags]))

    @pytest.mark.parametrize("seed", [None, 0])
    def test_endpoints_are_bitwise(self, seed):
        if seed is None:
            sys, weight = benchmark_system()
        else:
            sys, weight = random_stable_system(seed, 6, 6), Weight(np.eye(6))
        sol = solve(sys, weight)
        for tau in (0.0, sys.h):
            assert np.array_equal(P_at(sol, tau), P_by_expm(sol, tau))
        assert "omega_table" not in vars(sol)
        assert "kernel_table" not in vars(sol)

    def test_table_is_built_once(self, monkeypatch):
        built = []
        original = linalg.ExpmTable

        def counting(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(linalg, "ExpmTable", counting)
        sys, weight = benchmark_system()
        sol = solve(sys, weight)
        P_at(sol, 0.0)
        P_at(sol, sys.h)
        assert built == []
        P_at(sol, 0.3)
        table = sol.omega_table
        P_at(sol, 0.7)
        assert len(built) == 1
        assert sol.omega_table is table

    def test_zero_delay_builds_no_table(self):
        sys, weight = scalar_decay(h=0.0)
        sol = solve(sys, weight)
        report = residual_report(sol)
        assert report["algebraic"] <= 1e-12
        assert "omega_table" not in vars(sol)
        assert "kernel_table" not in vars(sol)

    def test_residual_report_reads_in_batches(self, monkeypatch):
        # each quadrature rule reads the tables once for all of its nodes;
        # one read per node took 7,668 P_at and 24,787 table calls
        calls = {"P_at": 0, "table": 0}
        P_at_one, read_one = solver.P_at, linalg.ExpmTable.__call__

        def P_at_counted(sol, tau):
            calls["P_at"] += 1
            return P_at_one(sol, tau)

        def read_counted(table, t):
            calls["table"] += 1
            return read_one(table, t)

        monkeypatch.setattr(solver, "P_at", P_at_counted)
        monkeypatch.setattr(linalg.ExpmTable, "__call__", read_counted)
        sys, weight = benchmark_system()
        residual_report(solve(sys, weight))
        assert 0 < calls["P_at"] <= 500
        assert 0 < calls["table"] <= 500

    def test_residuals_check_the_served_table(self):
        # P_at and the residuals must read the same table: corrupting it
        # has to show in the residual report
        sys, weight = benchmark_system()
        sol = solve(sys, weight)
        sol.omega_table.terms[:, 0] += 1e-6
        report = residual_report(sol)
        assert report["collapsed"] > VALIDATION_BOUNDS["collapsed"]
        assert report["dde"] > VALIDATION_BOUNDS["dde"]


class TestEmbeddingConsistency:
    def test_compact_and_block_embeddings_agree(self):
        # same kernel through internal dimensions 2 and 4
        B0, B1, w = benchmark_sincos_pieces()
        sys_c, weight = benchmark_system()
        In = np.eye(2)
        Zn = np.zeros((2, 2))
        Ad_g = w * np.block([[Zn, -In], [In, Zn]])
        Bd_g = np.vstack([B1, -B0])
        Cd_g = np.hstack([In, Zn])
        sys_g = TimeDelaySystem(sys_c.A0, sys_c.A1, Ad_g, Bd_g, Cd_g, sys_c.h)
        sol_c = solve(sys_c, weight)
        sol_g = solve(sys_g, weight)
        assert sol_g.op.ns == 40
        for tau in np.linspace(0.0, 1.0, 9):
            assert_allclose(P_at(sol_c, tau), P_at(sol_g, tau), atol=1e-10)


@pytest.fixture(scope="module")
def benchmark_sol():
    sys, weight = benchmark_system()
    return sys, solve(sys, weight)


class TestResiduals:

    def test_dde_residual(self, benchmark_sol):
        _, sol = benchmark_sol
        assert residual_dde(sol) <= 1e-5

    def test_algebraic_residual(self, benchmark_sol):
        _, sol = benchmark_sol
        assert residual_algebraic(sol) <= 1e-6

    def test_collapsed_residual(self, benchmark_sol):
        _, sol = benchmark_sol
        assert residual_collapsed(sol) <= 1e-6

    def test_flip_residuals(self, benchmark_sol):
        _, sol = benchmark_sol
        flips = flip_residuals(sol)
        assert flips["omega1_flip"] <= 1e-8
        assert flips["omega3_flip"] <= 1e-8
        assert flips["omega4_flip"] <= 1e-8
        assert flips["omega1_symmetry_at_0"] <= 1e-9

    def test_endpoint_residuals(self, benchmark_sol):
        _, sol = benchmark_sol
        ends = endpoint_residuals(sol)
        for value in ends.values():
            assert value <= 1e-9

    def test_random_stable_system_residuals(self):
        sys = random_stable_system(11, n=2, nd=2)
        sol = solve(sys, Weight(np.eye(2)))
        report = residual_report(sol)
        assert report["dde"] <= 1e-5
        assert report["algebraic"] <= 1e-6
        assert report["collapsed"] <= 1e-6

    def test_report_contains_everything(self, benchmark_sol):
        _, sol = benchmark_sol
        report = residual_report(sol)
        for key in ("dde", "algebraic", "collapsed", "omega1_flip",
                    "omega1_symmetry_at_0", "omega4_at_h"):
            assert key in report

    def test_rejects_out_of_range_grid(self, benchmark_sol):
        _, sol = benchmark_sol
        with pytest.raises(ValueError):
            residual_dde(sol, taus=[-0.1])
        with pytest.raises(ValueError):
            residual_collapsed(sol, taus=[1.4])

    def test_dde_needs_positive_delay(self):
        sys, weight = scalar_decay(h=0.0)
        sol = solve(sys, weight)
        with pytest.raises(ValueError):
            residual_dde(sol)

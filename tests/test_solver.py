import dataclasses
import gc
import weakref
from functools import partial

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
    flip_residuals,
    residual_algebraic,
    residual_collapsed,
    residual_dde,
    residual_report,
    solve,
    solve_boundary,
)
from delaylyap import linalg, quadrature, solver
from delaylyap.cli import VALIDATION_BOUNDS
from delaylyap.solver import BlockAction, OmegaBlocks, _layout, _reversal

from systems import (
    benchmark_sincos_pieces,
    benchmark_system,
    embedded_degenerate_system,
    mirror_root_system,
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


def kron_assembly(sys):
    """``E``, ``F1`` and ``F2`` placed densely, one ``np.kron`` call per
    block: the literal oracle for the ``E`` that :class:`BlockAction`
    defines and the ``G = F1 + F2 expm(E h)`` that ``assemble`` forms from
    the structure of ``F1`` and ``F2``."""
    n = sys.n
    nd = sys.internal_dim
    A0, A1, Ad, Bd, Cd = sys.A0, sys.A1, sys.Ad, sys.Bd, sys.Cd
    In = np.eye(n)
    Ead = Cd @ linalg.expm(Ad, -sys.h)
    off = _layout(n, nd)[1]
    ns = off[-1]

    def place(M, i, j, blk):
        M[off[i]:off[i + 1], off[j]:off[j + 1]] = blk

    E = np.zeros((ns, ns))
    place(E, 0, 0, np.kron(A0.T, In))
    place(E, 0, 1, np.kron(A1.T, In))
    place(E, 0, 2, np.kron(Bd.T, In))
    place(E, 0, 3, np.kron(Bd.T, In))
    place(E, 1, 0, -np.kron(In, A1.T))
    place(E, 1, 1, -np.kron(In, A0.T))
    place(E, 1, 4, -np.kron(In, Bd.T))
    place(E, 1, 5, -np.kron(In, Bd.T))
    place(E, 2, 0, np.kron(Cd.T, In))
    place(E, 2, 2, -np.kron(Ad.T, In))
    place(E, 3, 1, -np.kron(Ead.T, In))
    place(E, 3, 3, -np.kron(Ad.T, In))
    place(E, 4, 0, np.kron(In, Ead.T))
    place(E, 4, 4, np.kron(In, Ad.T))
    place(E, 5, 1, -np.kron(In, Cd.T))
    place(E, 5, 5, np.kron(In, Ad.T))

    F1 = np.zeros((ns, ns))
    place(F1, 0, 0, np.kron(A0.T, In))
    place(F1, 0, 1, np.kron(A1.T, In))
    place(F1, 0, 2, np.kron(Bd.T, In))
    place(F1, 0, 3, np.kron(Bd.T, In))
    place(F1, 1, 0, np.eye(n * n))
    place(F1, 2, 2, np.eye(n * nd))
    place(F1, 3, 4, np.eye(nd * n))

    F2 = np.zeros((ns, ns))
    place(F2, 0, 0, np.kron(In, A1.T))
    place(F2, 0, 1, np.kron(In, A0.T))
    place(F2, 0, 4, np.kron(In, Bd.T))
    place(F2, 0, 5, np.kron(In, Bd.T))
    place(F2, 1, 1, -np.eye(n * n))
    place(F2, 4, 3, np.eye(n * nd))
    place(F2, 5, 5, np.eye(nd * n))
    return E, F1, F2


def evaluate_omega(sol, tau):
    """The stacked state at ``tau`` from one direct exponential, as
    defined, split into its blocks."""
    E = kron_assembly(sol.system)[0]
    stacked = linalg.expm(E, tau) @ sol.omega0.stacked
    return OmegaBlocks.from_stacked(stacked, sol.system.n, sol.system.internal_dim)


def grid_systems(h):
    """``random_system`` for every n and nd in 1..5 at delay ``h``, from
    one seeded generator."""
    rng = np.random.default_rng(61)
    return [random_system(rng, n, nd, h=h) for n in range(1, 6) for nd in range(1, 6)]


def _relerr(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


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

    @pytest.mark.parametrize("n,nd", [(1, 1), (2, 3), (3, 2)])
    def test_reversal_swaps_and_transposes(self, n, nd):
        w = np.random.default_rng(5).standard_normal(_layout(n, nd)[1][-1])
        om = OmegaBlocks.from_stacked(w, n, nd)
        flipped = OmegaBlocks.from_stacked(w[_reversal(n, nd)], n, nd)
        for i, j in ((0, 1), (2, 5), (3, 4)):
            assert np.array_equal(flipped[i], om[j].T)
            assert np.array_equal(flipped[j], om[i].T)

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
            want = OmegaBlocks(*stacked_derivative_oracle(sys, blocks)).stacked
            E = kron_assembly(sys)[0]
            for got in (E @ om.stacked, op.action(om.stacked)):
                assert np.max(np.abs(got - want)) < 1e-13

    @pytest.mark.parametrize("h", [0.0, 0.7])
    def test_block_action_on_identity_is_E(self, h):
        for sys in grid_systems(h):
            op = assemble(sys)
            got = BlockAction(sys)(np.eye(op.ns))
            assert np.array_equal(got, kron_assembly(sys)[0])
            # the norm of E's columns k < pi[k]; the others are those
            # permuted and negated, so the same up to the summation order
            assert op.E_norm == pytest.approx(linalg.norm1(got), rel=1e-15)

    @pytest.mark.parametrize("n,nd", [(2, 3), (5, 5), (12, 12)])
    def test_block_action_matches_dense_product(self, n, nd):
        sys = random_stable_system(0, n, nd)
        op = assemble(sys)
        act = BlockAction(sys)
        E = kron_assembly(sys)[0]
        rng = np.random.default_rng(67)
        for shape in ((op.ns,), (op.ns, 20), (op.ns, op.ns), (op.ns, 4, 5)):
            X = rng.standard_normal(shape)
            want = np.tensordot(E, X, 1)
            got = act(X)
            assert got.shape == X.shape
            assert _relerr(got, want) <= 1e-15
            out = np.empty_like(X)
            assert act(X, out=out) is out
            assert np.array_equal(out, got)

    @pytest.mark.parametrize("n,nd", [(1, 1), (2, 3), (3, 2), (9, 5), (12, 12)])
    def test_reversal_negates_E_exactly(self, n, nd):
        # exactly, so that the half-order exponential's p -> p and q -> q
        # blocks vanish and B = E_II + E_JI, C = E_II - E_JI hold unrounded
        E = BlockAction(random_stable_system(0, n, nd))(np.eye(_layout(n, nd)[1][-1]))
        pi = _reversal(n, nd)
        assert np.array_equal(E[np.ix_(pi, pi)], -E)
        # I: blocks 1, 3 and 4, the indices below their partners
        off = _layout(n, nd)[1]
        I = np.r_[:off[1], off[2]:off[4]]
        assert np.array_equal(I, np.flatnonzero(np.arange(off[-1]) < pi))
        J = pi[I]
        assert np.array_equal(E[np.ix_(J, J)], -E[np.ix_(I, I)])
        assert np.array_equal(E[np.ix_(I, J)], -E[np.ix_(J, I)])

    def test_operator_shape(self):
        sys, _ = benchmark_system()
        op = assemble(sys)
        E, F1, F2 = kron_assembly(sys)
        assert op.ns == 24
        assert op.expm_Eh.shape == op.G.shape == (24, 24)
        assert E.shape == F1.shape == F2.shape == (24, 24)

    def test_combined_matrix_definition(self):
        sys, _ = benchmark_system()
        op = assemble(sys)
        E, F1, F2 = kron_assembly(sys)
        expected = F1 + F2 @ scipy.linalg.expm(E * sys.h)
        assert_allclose(op.G, expected, atol=1e-13)

    # ns from 6 to 216, each through the block action and the half-order
    # exponential
    @pytest.mark.parametrize("case", ["benchmark", "n2", "n6", "grid0", "grid0.7"])
    def test_bitwise_the_kronecker_assembly(self, case):
        if case.startswith("grid"):
            systems = grid_systems(float(case[4:]))
        elif case == "benchmark":
            systems = [benchmark_system()[0]]
        else:
            systems = [random_stable_system(0, int(case[1:]), int(case[1:]))]
        for sys in systems:
            op = assemble(sys)
            assert isinstance(op.action, BlockAction)
            E, F1, F2 = kron_assembly(sys)
            pi = _reversal(sys.n, sys.internal_dim)
            EI = E[:, np.arange(op.ns) < pi]
            assert op.E_norm == pytest.approx(linalg.norm1(E), rel=1e-15)
            assert np.array_equal(op.expm_Eh, linalg.odd_expm(EI, sys.h, pi))
            # below the algebraic rows, G is F1 plus signed row blocks of
            # expm(E h): no product rounds there
            G = F1 + F2 @ op.expm_Eh
            m = sys.n ** 2
            assert np.array_equal(op.G[m:], G[m:])
            assert _relerr(op.G, G) <= 1e-13
            expm_Eh = scipy.linalg.expm(E * sys.h)
            assert _relerr(op.expm_Eh, expm_Eh) <= 1e-13
            assert _relerr(op.G, F1 + F2 @ expm_Eh) <= 1e-13

    @pytest.mark.parametrize("case", ["benchmark", "n2", "n6", "grid0", "grid0.7"])
    def test_omega2_rows_are_the_action_rows(self, case):
        if case.startswith("grid"):
            systems = grid_systems(float(case[4:]))
        elif case == "benchmark":
            systems = [benchmark_system()[0]]
        else:
            systems = [random_stable_system(0, int(case[1:]), int(case[1:]))]
        rng = np.random.default_rng(73)
        for sys in systems:
            op = assemble(sys)
            act = op.action
            rows = slice(act.off[1], act.off[2])
            for X in (op.expm_Eh, rng.standard_normal(op.ns),
                      rng.standard_normal((op.ns, 4, 5))):
                got = act.omega2_rows(X)
                assert got.shape == (sys.n ** 2,) + X.shape[1:]
                assert np.array_equal(got, act(X)[rows])

    def test_peak_memory(self, traced_peak):
        # n = nd = 8, ns = 384: expm(E h) and G, plus the grade's core
        # inverse at the peak, and Lanczos vectors only for the steps taken;
        # E is formed only as its columns I and freed before the grade, and
        # no full product E expm(E h) is formed
        sys = random_stable_system(0, 8, 8)
        op, peak = traced_peak(assemble, sys)
        assert peak <= 3.5 * op.G.nbytes

    def test_overflow_names_the_exponential(self):
        sys = random_stable_system(5, 2, 2, h=6.0)
        with pytest.raises(OverflowError, match=r"expm\(E h\) overflowed at "
                           r"h = 6, \|\|E h\|\|_1 = ") as info:
            assemble(sys)
        assert isinstance(info.value.__cause__, OverflowError)


# a system below and one above linalg.KRYLOV_MIN_ORDER
MEMO_ORDERS = pytest.mark.parametrize("n,nd", [(3, 2), (8, 8)], ids=["dense", "krylov"])


class TestAssemblyMemo:
    # below KRYLOV_MIN_ORDER a system is assembled and graded once, and
    # every weight's solve shares the arrays and the grade; from it, each
    # call assembles and grades

    @MEMO_ORDERS
    def test_second_weight_reuses_the_assembly(self, n, nd, monkeypatch):
        built = []

        class Counting(BlockAction):
            def __init__(self, sys):
                built.append(sys)
                super().__init__(sys)

        monkeypatch.setattr(solver, "BlockAction", Counting)
        sys = random_stable_system(2, n, nd)
        kept = assemble(sys).ns < linalg.KRYLOV_MIN_ORDER
        solve(sys, Weight(np.eye(n)))
        weight = Weight(random_symmetric(np.random.default_rng(3), n))
        sol = solve(sys, weight)
        assert built == ([sys] if kept else [sys] * 3)
        # the same system under a new identity is assembled afresh
        twin = TimeDelaySystem(sys.A0, sys.A1, sys.Ad, sys.Bd, sys.Cd, sys.h)
        fresh = solve_boundary(assemble(twin), weight)
        assert built[-1] is twin
        lags = [0.0, sys.h / 2, sys.h]
        assert P_at(sol, lags).tobytes() == P_at(fresh, lags).tobytes()

    @MEMO_ORDERS
    def test_arrays_are_read_only(self, n, nd):
        sys = random_stable_system(2, n, nd)
        op = assemble(sys)
        kept = op.ns < linalg.KRYLOV_MIN_ORDER
        again = assemble(sys)
        assert again is not op and again.system is sys
        for name in ("expm_Eh", "G"):
            M = getattr(op, name)
            assert (getattr(again, name) is M) == kept
            assert not M.flags.writeable
            with pytest.raises(ValueError):
                M[0, 0] = 0.0

    @MEMO_ORDERS
    def test_entry_goes_with_its_system(self, n, nd):
        # without the cycle collector, so that a reference cycle through
        # the memo would keep the system alive
        gc.disable()
        try:
            before = len(solver._assembled)
            sys = random_stable_system(2, n, nd)
            sol = solve(sys, Weight(np.eye(n)))
            P_at(sol, sys.h / 2)  # builds the solution's table too
            kept = sol.op.ns < linalg.KRYLOV_MIN_ORDER
            assert len(solver._assembled) == before + kept
            ref = weakref.ref(sys)
            del sys, sol
            assert ref() is None
            assert len(solver._assembled) == before
        finally:
            gc.enable()

    def test_weights_share_one_grade(self, decompositions):
        sys = random_stable_system(2, 3, 2)
        rng = np.random.default_rng(5)
        for Q in (np.eye(3), random_symmetric(rng, 3), random_symmetric(rng, 3)):
            solve(sys, Weight(Q))
        assert (decompositions["svd"], decompositions["lanczos"]) == (1, 0)

    def test_thresholds_apply_on_every_call(self):
        # the memo keeps the grade, never a verdict
        sys, weight = benchmark_system()
        op = assemble(sys)
        relative = op.sigma_min / op.max_abs
        with pytest.raises(SpectrumConditionViolated) as info:
            solve_boundary(assemble(sys), weight, hard=2 * relative)
        assert info.value.report.relative == relative
        sol = solve(sys, weight)
        assert sol.op.G is op.G
        assert sol.spectrum.verdict == "satisfied"

    def test_large_system_is_graded_per_assembly(self, decompositions):
        sys = random_stable_system(2, 8, 8)
        assemble(sys)
        assert (decompositions["svd"], decompositions["lanczos"]) == (0, 1)
        assemble(sys)
        solve(sys, Weight(np.eye(8)))
        assert (decompositions["svd"], decompositions["lanczos"]) == (0, 3)


@pytest.fixture(scope="class", params=[None, (3, 2), (8, 8), (12, 12), (9, 5)],
                ids=["benchmark", "n3_nd2", "n8", "n12", "n9_nd5"])
def large_order(request):
    """An operator (the benchmark's, ns = 24, or ``random_stable_system(0,
    n, nd)``'s, ns = 42, 384, 864 and 342), its identity-weight solution,
    and the dense exponential of ``E h``."""
    if request.param is None:
        sys = benchmark_system()[0]
    else:
        sys = random_stable_system(0, *request.param)
    op = assemble(sys)
    sol = solve_boundary(op, Weight(np.eye(sys.n)))
    return sys, op, sol, linalg.expm(kron_assembly(sys)[0], sys.h)


class TestLargeOrderRoute:
    # at every order, products with E go through the block action and
    # expm(E h) is taken at half the order; the dense products are the
    # reference

    def test_exponential(self, large_order):
        sys, op, _, expm_Eh = large_order
        assert isinstance(op.action, BlockAction)
        assert _relerr(op.expm_Eh, expm_Eh) <= 1e-13

    def test_boundary_matrix(self, large_order):
        sys, op, _, expm_Eh = large_order
        _, F1, F2 = kron_assembly(sys)
        assert _relerr(op.G, F1 + F2 @ expm_Eh) <= 1e-13

    def test_table(self, large_order):
        sys, op, sol, _ = large_order
        E = kron_assembly(sys)[0]
        dense = linalg.ExpmTable(partial(np.matmul, E), op.E_norm, sys.h,
                                 sol.omega0.stacked)
        taus = np.linspace(0.0, sys.h, 37)
        assert _relerr(sol.omega_table(taus), dense(taus)) <= 1e-13

    def test_overflow(self):
        # the half-order exponential overflows, and no RuntimeWarning leaks
        sys = random_stable_system(0, 8, 8, h=20.0)
        BlockAction(sys)  # the kernel factor expm(-Ad h) is finite
        with pytest.raises(OverflowError):
            assemble(sys)

    def test_lyapunov_matrix(self, large_order):
        # against a solution whose every product with E is dense
        sys, op, sol, expm_Eh = large_order
        E, F1, F2 = kron_assembly(sys)
        dense_op = dataclasses.replace(op, expm_Eh=expm_Eh, G=F1 + F2 @ expm_Eh,
                                       action=partial(np.matmul, E))
        dense_sol = solve_boundary(dense_op, sol.weight)
        lags = np.array([0.0, 0.25, 0.5, 0.75, 1.0]) * sys.h
        want = P_at(dense_sol, lags)
        assert _relerr(P_at(sol, lags), want) <= 1e-12


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

    @staticmethod
    def _solve_bitwise(op, weight):
        """``solve_boundary``, whose ``omega0`` must be numpy's plain LU
        solve, bitwise."""
        sol = solve_boundary(op, weight)
        rhs = np.zeros(op.ns)
        rhs[: op.system.n ** 2] = -weight.matrix.reshape(-1, order="F")
        assert np.array_equal(sol.omega0.stacked, np.linalg.solve(op.G, rhs))

    @pytest.mark.parametrize("seed", [None, 0])
    def test_one_decomposition_decides_and_solves(self, seed, decompositions):
        # below the Krylov cutoff, the assembly takes the one SVD of G that
        # grades solvability, and the solve takes none
        if seed is None:
            sys, weight = benchmark_system()
        else:
            sys, weight = random_stable_system(seed, 6, 6), Weight(np.eye(6))
        op = assemble(sys)
        assert op.ns < linalg.KRYLOV_MIN_ORDER
        assert (decompositions["svd"], decompositions["lanczos"]) == (1, 0)
        decompositions.clear()
        self._solve_bitwise(op, weight)
        assert not decompositions

    def test_large_system_takes_no_svd(self, decompositions):
        # at n = 12 (ns = 864) the assembly grades solvability by Lanczos
        # on one inverse of G's core, and the solve takes no decomposition
        op = assemble(random_stable_system(0, 12, 12))
        assert op.ns >= linalg.KRYLOV_MIN_ORDER
        assert (decompositions["svd"], decompositions["lanczos"]) == (0, 1)
        decompositions.clear()
        self._solve_bitwise(op, Weight(np.eye(12)))
        assert not decompositions

    @pytest.mark.parametrize("n", [8, 12])
    @pytest.mark.parametrize("make", [mirror_root_system, scalar_zero_root])
    def test_degenerate_block_raises_on_krylov_route(self, make, n):
        sys, weight = embedded_degenerate_system(make, n)
        op = assemble(sys)
        assert op.ns >= linalg.KRYLOV_MIN_ORDER
        with pytest.raises(SpectrumConditionViolated) as info:
            solve_boundary(op, weight)
        # the SVD grades it violated too
        assert np.linalg.svd(op.G, compute_uv=False)[-1] \
            < info.value.report.hard * info.value.report.max_abs


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
        _, F1, F2 = kron_assembly(sys)
        assert_allclose(op.G, F1 + F2, atol=0)
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
        # omega(0), and omega(h) through the operator's own expm(E h)
        ends = [sol.omega0, OmegaBlocks.from_stacked(
            sol.op.expm_Eh @ sol.omega0.stacked, sys.n, sys.internal_dim)]
        for tau, (a, b) in ((0.0, ends), (sys.h, ends[::-1])):
            want = 0.5 * (a.omega1 + b.omega2.T)
            assert np.array_equal(P_at(sol, tau), want)
        assert "omega_table" not in vars(sol)
        assert "kernel_table" not in vars(sys)

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
        assert "kernel_table" not in vars(sys)

    def test_residual_report_reads_in_batches(self, monkeypatch):
        # each round of each residual's quadrature reads the tables once for
        # the nodes of all of its integrals; one read per node took 7,668
        # P_at and 24,787 table calls, one read per rule 84 and 327
        calls = {"P_at": 0, "table": 0}
        P_at_one, read_one = solver.P_at, linalg.ExpmTable.__call__

        def P_at_counted(sol, tau):
            calls["P_at"] += 1
            return P_at_one(sol, tau)

        def read_counted(table, *args):
            calls["table"] += 1
            return read_one(table, *args)

        monkeypatch.setattr(solver, "P_at", P_at_counted)
        monkeypatch.setattr(linalg.ExpmTable, "__call__", read_counted)
        sys, weight = benchmark_system()
        residual_report(solve(sys, weight))
        assert 0 < calls["P_at"] <= 6
        assert 0 < calls["table"] <= 15

    def test_residual_work_counts(self, monkeypatch):
        # per residual function: its integrand calls (the quadrature rounds),
        # its table reads, and the panels of every integral it computes
        counts = {}
        current = [None]

        def count(key, n=1):
            counts.setdefault(current[0], {"calls": 0, "reads": 0, "panels": 0})
            counts[current[0]][key] += n

        read_one, rule_sums = linalg.ExpmTable.__call__, quadrature._rule_sums

        def read_counted(table, *args):
            count("reads")
            return read_one(table, *args)

        def rule_sums_counted(f, a, b, panels, order=quadrature.ORDER):
            count("calls")
            count("panels", panels * len(a))
            return rule_sums(f, a, b, panels, order)

        monkeypatch.setattr(linalg.ExpmTable, "__call__", read_counted)
        monkeypatch.setattr(quadrature, "_rule_sums", rule_sums_counted)
        for name in ("residual_dde", "residual_collapsed", "residual_algebraic"):
            def tagged(*args, _fn=getattr(solver, name), _name=name, **kwargs):
                current[0] = _name
                try:
                    return _fn(*args, **kwargs)
                finally:
                    current[0] = None
            monkeypatch.setattr(solver, name, tagged)
        sys, weight = benchmark_system()
        residual_report(solve(sys, weight))
        # every one of the 40 dde, 40 collapsed and 1 algebraic integrals
        # refines from 4 to 8 panels (972 panels in all), in 2 rounds of 2
        # table reads each; the lone reads are the stencil points, the
        # compared blocks and the flip residuals
        assert counts == {
            "residual_dde": {"calls": 2, "reads": 5, "panels": 40 * 12},
            "residual_collapsed": {"calls": 2, "reads": 5, "panels": 40 * 12},
            "residual_algebraic": {"calls": 2, "reads": 4, "panels": 12},
            None: {"calls": 0, "reads": 1, "panels": 0},
        }

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

    def test_dde_needs_positive_delay(self):
        sys, weight = scalar_decay(h=0.0)
        sol = solve(sys, weight)
        with pytest.raises(ValueError):
            residual_dde(sol)

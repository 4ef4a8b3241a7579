"""Tests of the benchmark's generator, checkers and tracer.

Run with ``PYTHONPATH=src python3 -m pytest bench``.
"""

import shutil

import numpy as np
import pytest

import checks
import delaylyap as dl
import inputs
import ops
import tracing
from tracing import END, NAME, OK, PARENT, START, WORK


def _stable_index(seed):
    return next(i for i in range(100) if inputs.sweep_case(seed, i)["family"] == inputs.STABLE)


def _solve_case(case):
    return ops.solve_op(dl.TimeDelaySystem(*case["matrices"], case["h"]),
                        [dl.Weight(Q) for Q in case["weights"]], case["lags"])


def _arrays(case):
    return list(case["matrices"]) + list(case["weights"]) + [case["x0"], np.array(case["lags"])]


@pytest.mark.parametrize("make", [inputs.sweep_case, inputs.dense_case])
def test_same_seed_gives_identical_inputs(make):
    for index in (0, 7):
        a, b = make(3, index), make(3, index)
        assert a["family"] == b["family"] and a["h"] == b["h"]
        assert all(np.array_equal(x, y) for x, y in zip(_arrays(a), _arrays(b)))
    assert not np.array_equal(make(3, 0)["matrices"][0], make(4, 0)["matrices"][0])


def test_degenerate_families_are_rejected_and_stable_ones_solved():
    families = set()
    for index in range(200):
        case = inputs.sweep_case(5, index)
        families.add(case["family"])
        assert checks.case_problems(case, _solve_case(case)) == []
    assert families == {inputs.STABLE, inputs.MIRROR, inputs.ZERO_ROOT}


def test_checker_fails_P_perturbed_by_1e_8():
    case = inputs.sweep_case(2, _stable_index(2))
    out = _solve_case(case)
    assert checks.case_problems(case, out) == []
    for lag in range(len(case["lags"])):
        bumped = [(v, [P.copy() for P in Ps]) for v, Ps in out]
        bumped[1][1][lag][0, 0] += 1e-8
        assert checks.case_problems(case, bumped)


def test_cost_check_accepts_the_solution():
    case = inputs.sweep_case(2, _stable_index(2))
    assert checks.cost_problems(case, _solve_case(case)) == []


def test_table_check_fails_entry_perturbed_by_1e_8(tmp_path):
    exact = tmp_path / "P_tau.csv"
    shutil.copyfile(checks.REFERENCE_TABLE, exact)
    assert checks.table_problems(exact) == []
    lines = exact.read_text().splitlines()
    row = lines[50].split(",")
    row[2] = repr(float(row[2]) + 1e-8)
    lines[50] = ",".join(row)
    bumped = tmp_path / "bumped.csv"
    bumped.write_text("\n".join(lines) + "\n")
    assert checks.table_problems(bumped)


def _span(name, start, end, parent, ok=True, work=0):
    return [name, start, end, parent, 0, ok, work]


def test_self_time_on_synthetic_tree():
    spans = [
        _span("op", 0.0, 10.0, -1),
        _span("solver.solve", 1.0, 7.0, 0),
        _span("linalg.expm", 2.0, 3.0, 1, work=8),
        _span("linalg.expm", 3.5, 5.0, 1, work=27),
        _span("solver.P_at", 7.0, 9.5, 0),
        _span("solver.P_at", 7.5, 9.0, 4),  # recursion counts once in time
    ]
    assert np.allclose(tracing.self_times(spans), [1.5, 3.5, 1.0, 1.5, 1.0, 1.5])
    m = tracing.summarize(spans, {"linalg.svd.calls": 4}, ops=2)
    assert m["solver.self_s"] == pytest.approx((3.5 + 1.0 + 1.5) / 2)
    assert m["linalg.self_s"] == pytest.approx(2.5 / 2)
    assert m["solver.P_at.s"] == pytest.approx(2.5 / 2)
    assert m["solver.P_at.calls"] == 1.0
    assert m["linalg.expm.calls"] == 1.0
    assert m["linalg.expm.dim3"] == 17.5
    assert m["linalg.svd.calls"] == 2.0


def test_children_overlapping_or_past_the_parent_count_once():
    spans = [_span("op", 0.0, 4.0, -1),
             _span("sim.simulate", 1.0, 3.0, 0),
             _span("sim.simulate", 2.0, 5.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_useful_ratios_and_doublings():
    spans = [
        _span("op", 0.0, 100.0, -1),
        _span("sim.oracle_P", 0.0, 50.0, 0),
        _span("sim.fundamental_matrix", 0.0, 10.0, 1),
        _span("sim.simulate", 0.0, 10.0, 2, work=100),
        _span("sim.fundamental_matrix", 10.0, 30.0, 1),
        _span("sim.simulate", 10.0, 30.0, 4, work=200),
        _span("sim.cost_to_go", 50.0, 90.0, 0, ok=False),
        _span("sim.simulate", 50.0, 60.0, 6, work=100),
        _span("sim.simulate", 60.0, 80.0, 6, work=50, ok=False),
        _span("quadrature.integrate", 90.0, 95.0, 0),
        _span("quadrature.fixed_quad", 90.0, 91.0, 9, work=4),
        _span("quadrature.fixed_quad", 91.0, 93.0, 9, work=8),
    ]
    m = tracing.summarize(spans, {}, ops=1)
    assert m["sim.oracle_P.doublings"] == 1
    assert m["sim.cost_to_go.doublings"] == 1
    assert m["sim.rk4_steps"] == 450
    assert m["sim.useful_step_ratio"] == pytest.approx(200 / 450)
    assert m["quadrature.useful_ratio"] == pytest.approx(8 / 12)
    assert m["quadrature.panels"] == 12


def _traced(tracer, cases):
    outs = []
    for i, case in enumerate(cases):
        with tracer.operation(i):
            outs.append(_solve_case(case))
    return outs


def test_traced_results_are_bitwise_equal_and_counts_repeat():
    cases = [inputs.sweep_case(9, i) for i in range(12)]
    plain = [_solve_case(c) for c in cases]
    originals = (dl.solve, dl.solver.assemble, dl.linalg.expm)
    summaries = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert dl.solve is not originals[0]
            traced = _traced(tracer, cases)
        finally:
            tracer.uninstall()
        assert (dl.solve, dl.solver.assemble, dl.linalg.expm) == originals
        assert all(ops.same_result(a, b) for a, b in zip(plain, traced))
        names = {s[NAME] for s in tracer.spans}
        assert {"solver.assemble", "spectrum.check", "linalg.expm",
                "solver.P_at"} <= names
        assert all(s[PARENT] < i and s[START] <= s[END] and s[OK] in (True, False)
                   and isinstance(s[WORK], int) for i, s in enumerate(tracer.spans))
        summaries.append(tracing.summarize(tracer.spans, tracer.counters, len(cases)))
    counts = [k for k in summaries[0] if not (k.endswith("_s") or k.endswith(".s"))]
    assert all(summaries[0][k] == summaries[1][k] for k in counts)
    assert summaries[0]["linalg.svd.calls"] > 0


def test_traced_cli_matches_untraced(tmp_path, capsys):
    args = ["sample", "--config", str(checks.REFERENCE_TABLE.parent.parent / "configs"
                                      / "example1.json"), "--tau", "0,0.5,1", "--quiet"]
    original = dl.cli.main
    assert dl.cli.main(args) == 0
    plain = capsys.readouterr().out
    spans_out = tmp_path / "spans.json"
    assert tracing.main([str(spans_out), "0"] + args) == 0
    assert capsys.readouterr().out == plain
    spans, _ = tracing.load([spans_out])
    assert spans[0][NAME] == "op"
    assert {"cli.main", "cli.cmd_sample", "config.parse_config", "solver.P_at"} <= {
        s[NAME] for s in spans}
    assert dl.cli.main is original

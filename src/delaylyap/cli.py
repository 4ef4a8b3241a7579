"""Command line front end.

Subcommands::

    solve        build the delay Lyapunov matrix, tabulate it, run residuals
    check        grade the solvability condition only
    validate     cross-check the construction against simulation oracles
    sample       evaluate the matrix at chosen lags, print as CSV
    dump-config  emit a normalized configuration

Exit codes: 0 success, 1 solvability violated, 2 borderline solvability,
3 input error, 4 numerical failure.
"""

import argparse
import json
import sys as _sys
import time
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import sim as sim_mod
from . import solver, spectrum
from .linalg import maxabs

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_BORDERLINE = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4

VALIDATION_BOUNDS = {
    "dde": 1e-5,
    "algebraic": 1e-6,
    "collapsed": 1e-6,
    "omega1_flip": 1e-8,
    "omega3_flip": 1e-8,
    "omega4_flip": 1e-8,
    "omega1_symmetry_at_0": 1e-9,
    "omega1_0_minus_omega2_h": 1e-9,
    "omega3_at_0": 1e-9,
    "omega5_at_0": 1e-9,
    "omega4_at_h": 1e-9,
    "omega6_at_h": 1e-9,
}


class _Parser(argparse.ArgumentParser):
    """Argument errors are input errors, exit code 3."""

    def error(self, message):
        self.print_usage(_sys.stderr)
        self.exit(EXIT_INPUT, "%s: error: %s\n" % (self.prog, message))


def _say(args, text):
    if not args.quiet:
        print(text)


def _matrix_list(M):
    return [[float(v) for v in row] for row in np.asarray(M)]


def _load(args):
    """Parse ``--config`` and apply the overrides, which go through the same
    checks as the file."""
    cfg = config_mod.parse_config(args.config)
    if args.tau_points is not None:
        cfg["tau"] = {"points": args.tau_points}
    for item in args.tolerance or []:
        key, val = item.split("=", 1) if "=" in item else ("singular", item)
        try:
            cfg["tolerances"][key] = float(val)
        except ValueError:
            raise config_mod.ConfigError("tolerance %r is not a number" % item)
    return config_mod.parse_config(cfg)


def _outdir(args):
    out = Path(args.out or "out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _p_csv_lines(taus, mats):
    """Header and one row per lag of a ``P`` table, without line ends."""
    n = mats[0].shape[0]
    yield ",".join(["tau"] + ["p_%d%d" % (i + 1, j + 1)
                              for i in range(n) for j in range(n)])
    for tau, P in zip(taus, mats):
        row = [tau] + [P[i, j] for i in range(n) for j in range(n)]
        yield ",".join("%.17g" % v for v in row)


def _write_p_csv(path, taus, mats):
    with open(path, "w") as fh:
        for line in _p_csv_lines(taus, mats):
            fh.write(line + "\n")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _spectrum_dict(report):
    return {
        "sigma_min": report.sigma_min,
        "max_abs": report.max_abs,
        "relative": report.relative,
        "verdict": report.verdict,
    }


def _verdict_exit(report):
    """Exit code of a solvability verdict."""
    return {spectrum.VIOLATED: EXIT_VIOLATED,
            spectrum.BORDERLINE: EXIT_BORDERLINE}.get(report.verdict, EXIT_OK)


def _solve_from_config(cfg):
    """The solution of a parsed configuration and the seconds its assembly,
    solvability grade and boundary solve took."""
    sys_ = config_mod.build_system(cfg)
    weight = config_mod.build_weight(cfg)
    t0 = time.perf_counter()
    sol = solver.solve_boundary(
        solver.assemble(sys_), weight,
        hard=cfg["tolerances"]["singular"],
        borderline=cfg["tolerances"]["borderline"],
    )
    return sol, time.perf_counter() - t0


def _report_lines(sol, residuals):
    lines = [
        "state dimension n=%d, kernel internal dimension nd=%d, stacked size ns=%d"
        % (sol.system.n, sol.system.internal_dim, sol.op.ns),
        "delay h=%.17g" % sol.system.h,
        "solvability: %s (sigma_min=%.6e, relative=%.6e)"
        % (sol.spectrum.verdict, sol.spectrum.sigma_min, sol.spectrum.relative),
    ]
    if residuals:
        lines.append("residuals:")
        for key in sorted(residuals):
            lines.append("  %-24s %.6e" % (key, residuals[key]))
    P0 = solver.P_at(sol, 0.0)
    lines.append("P(0) =")
    for row in P0:
        lines.append("  [" + ", ".join("%.10g" % v for v in row) + "]")
    return lines


def cmd_solve(args):
    cfg = _load(args)
    sol, elapsed = _solve_from_config(cfg)
    taus = config_mod.tau_grid(cfg)
    mats = solver.P_at(sol, taus)
    residuals = solver.residual_report(sol, quad_tol=cfg["tolerances"]["quadrature"])
    out = _outdir(args)
    _write_p_csv(out / "P_tau.csv", taus, mats)
    summary = {
        "command": "solve",
        "n": sol.system.n,
        "internal_dim": sol.system.internal_dim,
        "ns": sol.op.ns,
        "h": sol.system.h,
        "spectrum": _spectrum_dict(sol.spectrum),
        "residuals": residuals,
        "P0": _matrix_list(solver.P_at(sol, 0.0)),
        "tau_count": int(len(taus)),
        "solve_seconds": elapsed,
    }
    _write_json(out / "summary.json", summary)
    lines = _report_lines(sol, residuals)
    lines.append("wrote %d rows to %s" % (len(taus), out / "P_tau.csv"))
    (out / "report.txt").write_text("\n".join(lines) + "\n")
    _say(args, "\n".join(lines))
    if sol.spectrum.verdict == spectrum.BORDERLINE:
        _say(args, "warning: solvability is borderline")
    return _verdict_exit(sol.spectrum)


def cmd_check(args):
    cfg = _load(args)
    sys_ = config_mod.build_system(cfg)
    op = solver.assemble(sys_)
    report = spectrum.check(
        op,
        hard=cfg["tolerances"]["singular"],
        borderline=cfg["tolerances"]["borderline"],
    )
    _say(args, "solvability: %s" % report.verdict)
    _say(args, "sigma_min(G) = %.6e" % report.sigma_min)
    _say(args, "max|G|       = %.6e" % report.max_abs)
    _say(args, "relative     = %.6e" % report.relative)
    if args.out:
        out = _outdir(args)
        _write_json(out / "summary.json",
                    {"command": "check", "ns": op.ns,
                     "spectrum": _spectrum_dict(report)})
    return _verdict_exit(report)


def cmd_validate(args):
    cfg = _load(args)
    sol, _ = _solve_from_config(cfg)
    sys_, weight = sol.system, sol.weight
    tol = cfg["tolerances"]
    T, dt = cfg["simulation"]["T"], cfg["simulation"]["dt"]
    out = _outdir(args)
    checks = []

    def check(name, value, bound, **extra):
        # a check without a bound fails, its reason in ``extra``
        checks.append({"check": name, "value": value, "bound": bound,
                       "pass": bound is not None and bool(value <= bound), **extra})

    residuals = solver.residual_report(sol, quad_tol=tol["quadrature"])
    for key, bound in VALIDATION_BOUNDS.items():
        if key in residuals:
            check("residual_" + key, residuals[key], bound)

    taus = [f * sys_.h for f in (0.0, 0.25, 0.5, 0.75, 1.0)] if sys_.h > 0 else [0.0]
    oracle = sim_mod.oracle_P(sys_, weight, taus, T=T, dt=dt,
                              tail_tol=tol["tail"])
    for tau, P, Po in zip(taus, solver.P_at(sol, taus), oracle):
        check("oracle_P tau=%.17g" % tau, maxabs(P - Po),
              1e-3 * max(1.0, maxabs(Po)))

    P0 = solver.P_at(sol, 0.0)
    first_traj = None
    for hist in config_mod.build_histories(cfg):
        name = "cost x0=%s" % hist.x0.tolist()
        est, traj = sim_mod.cost_to_go(sys_, weight, hist, T=T, dt=dt,
                                       tail_tol=tol["tail"])
        if first_traj is None:
            first_traj = traj
        predicted = float(hist.x0 @ P0 @ hist.x0)
        if est.decaying:
            check(name, abs(est.value - predicted),
                  1e-3 * max(1.0, abs(predicted)),
                  simulated=est.value, predicted=predicted)
        else:
            check(name, est.value, None, note="cost integrand is not decaying")

    taus_grid = config_mod.tau_grid(cfg)
    _write_p_csv(out / "P_tau.csv", taus_grid, solver.P_at(sol, taus_grid))
    if first_traj is not None:
        first_traj.to_csv(out / "trajectory.csv")
    ok = all(c["pass"] for c in checks)
    payload = {
        "command": "validate",
        "spectrum": _spectrum_dict(sol.spectrum),
        "checks": checks,
        "all_passed": ok,
    }
    _write_json(out / "validation.json", payload)
    for c in checks:
        tag = "pass" if c["pass"] else "FAIL"
        if c.get("bound") is not None:
            _say(args, "%s %-28s value=%.3e bound=%.3e"
                 % (tag, c["check"], c["value"], c["bound"]))
        else:
            _say(args, "%s %-28s %s" % (tag, c["check"], c.get("note", "")))
    _say(args, "validation %s" % ("passed" if ok else "FAILED"))
    return _verdict_exit(sol.spectrum) if ok else EXIT_NUMERICAL


def cmd_sample(args):
    cfg = _load(args)
    sol, _ = _solve_from_config(cfg)
    if args.tau:
        try:
            taus = [float(v) for v in args.tau.split(",") if v.strip() != ""]
        except ValueError:
            raise config_mod.ConfigError("--tau must be a comma-separated list")
        if not taus:
            raise config_mod.ConfigError("--tau lists no values")
    else:
        taus = list(config_mod.tau_grid(cfg))
    mats = solver.P_at(sol, taus)
    for line in _p_csv_lines(taus, mats):
        print(line)
    if args.out:
        _write_p_csv(_outdir(args) / "P_tau.csv", taus, mats)
    return _verdict_exit(sol.spectrum)


def cmd_dump_config(args):
    if args.config:
        cfg = _load(args)
    else:
        cfg = config_mod.default_config()
    text = config_mod.dump_config(cfg)
    _sys.stdout.write(text)
    if args.out:
        (_outdir(args) / "config.json").write_text(text)
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="delaylyap",
                     description="Delay Lyapunov matrices for systems with "
                                 "a pointwise and a distributed delay.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required,
                       help="path to a JSON run configuration")
        p.add_argument("--out", default=None,
                       help="output directory (solve and validate default to "
                            "'out'; other commands write files only when "
                            "this is given)")
        p.add_argument("--tau-points", type=int, default=None,
                       help="override the tau grid point count")
        p.add_argument("--tolerance", action="append", default=None,
                       metavar="KEY=VALUE",
                       help="override a named tolerance (singular, borderline, "
                            "quadrature, tail); a bare number sets 'singular'")
        p.add_argument("--quiet", action="store_true",
                       help="suppress progress output")

    p = sub.add_parser("solve", help="solve and tabulate the Lyapunov matrix")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="grade the solvability condition")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("validate",
                       help="cross-check the solution against simulation")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sample", help="evaluate P at chosen lags")
    common(p)
    p.add_argument("--tau", default=None,
                   help="comma-separated lags (default: the config tau grid)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("dump-config", help="emit a normalized configuration")
    common(p, config_required=False)
    p.set_defaults(func=cmd_dump_config)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except spectrum.SpectrumConditionViolated as exc:
        print("solvability violated: %s" % exc, file=_sys.stderr)
        rep = exc.report
        print("sigma_min(G) = %.6e, relative = %.6e"
              % (rep.sigma_min, rep.relative), file=_sys.stderr)
        return EXIT_VIOLATED
    except ValueError as exc:
        print("input error: %s" % exc, file=_sys.stderr)
        return EXIT_INPUT
    except (OverflowError, MemoryError, RuntimeError,
            np.linalg.LinAlgError) as exc:
        print("numerical failure: %s" % exc, file=_sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    _sys.exit(main())

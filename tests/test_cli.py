import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import delaylyap
from delaylyap.cli import main
from delaylyap.config import default_config, dump_config, parse_config

from systems import random_stable_system

REPO_ROOT = Path(__file__).resolve().parent.parent
DEMO_CONFIGS = REPO_ROOT / "demos" / "configs"
# Source root of the delaylyap imported here; child processes import it too.
SRC_ROOT = Path(delaylyap.__file__).resolve().parents[1]

# What an installer's generated console script runs for `module:attr`.
SCRIPT_WRAPPER = """\
import sys
from {module} import {attr}
sys.argv[0] = "delaylyap"
sys.exit({attr}())
"""

BENCHMARK = {
    "system": {
        "A0": [[-1.0, 0.0], [0.0, -1.0]],
        "A1": [[0.0, 1.0], [-1.0, 0.0]],
        "h": 1.0,
        "kernel": {
            "B0": [[0.3, 0.0], [0.0, 0.3]],
            "B1": [[0.0, 0.3], [-0.3, 0.0]],
            "frequency": 3.141592653589793,
        },
    },
    "Q": [[1.0, 0.0], [0.0, 1.0]],
}

ZERO_ROOT = {
    "system": {
        "A0": [[0.0]],
        "A1": [[0.0]],
        "h": 1.0,
        "kernel": {"Ad": [[-1.0]], "Bd": [[0.0]], "Cd": [[0.0]]},
    },
    "Q": [[1.0]],
}


# `dump-config --config demos/configs/example1.json`, byte for byte: the
# key order of every section, indent=2 and a trailing newline.
EXAMPLE1_DUMP = """\
{
  "system": {
    "A0": [
      [
        -1.0,
        0.0
      ],
      [
        0.0,
        -1.0
      ]
    ],
    "A1": [
      [
        0.0,
        1.0
      ],
      [
        -1.0,
        0.0
      ]
    ],
    "h": 1.0,
    "kernel": {
      "B0": [
        [
          0.3,
          0.0
        ],
        [
          0.0,
          0.3
        ]
      ],
      "B1": [
        [
          0.0,
          0.3
        ],
        [
          -0.3,
          0.0
        ]
      ],
      "frequency": 3.141592653589793
    }
  },
  "Q": [
    [
      1.0,
      0.0
    ],
    [
      0.0,
      1.0
    ]
  ],
  "tau": {
    "points": 201
  },
  "simulation": {
    "T": null,
    "dt": null,
    "histories": [
      [
        1.0,
        0.0
      ],
      [
        0.0,
        1.0
      ]
    ]
  },
  "tolerances": {
    "singular": 1e-12,
    "borderline": 1e-08,
    "quadrature": 1e-10,
    "tail": 1e-05
  }
}
"""


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_ROOT), env.get("PYTHONPATH")]))
    return env


def declared_console_script():
    """The (module, attr) that pyproject.toml declares for `delaylyap`."""
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["delaylyap"]
    module, _, attr = target.partition(":")
    return module, attr


class TestSolve:
    def test_outputs(self, tmp_path):
        cfg = write_config(tmp_path, BENCHMARK)
        out = tmp_path / "out"
        rc = main(["solve", "--config", cfg, "--out", str(out), "--quiet"])
        assert rc == 0

        header, rows = read_csv(out / "P_tau.csv")
        assert header == ["tau", "p_11", "p_12", "p_21", "p_22"]
        assert rows.shape == (201, 5)
        assert rows[0, 0] == 0.0
        assert abs(rows[-1, 0] - 1.0) < 1e-12
        assert abs(rows[0, 1] - 0.7072) < 5e-4
        assert abs(rows[0, 2]) < 5e-4
        assert abs(rows[0, 4] - 0.7072) < 5e-4

        summary = json.loads((out / "summary.json").read_text())
        assert summary["command"] == "solve"
        assert summary["n"] == 2 and summary["internal_dim"] == 2
        assert summary["ns"] == 24
        assert summary["spectrum"]["verdict"] == "satisfied"
        assert summary["residuals"]["dde"] <= 1e-5
        assert summary["residuals"]["algebraic"] <= 1e-6
        P0 = np.array(summary["P0"])
        assert np.max(np.abs(P0 - 0.7072 * np.eye(2))) < 5e-4
        assert summary["tau_count"] == 201
        assert summary["solve_seconds"] < 5.0

        report = (out / "report.txt").read_text()
        assert "solvability: satisfied" in report
        assert "P(0) =" in report

    def test_solve_seconds_times_the_assembly(self, tmp_path, monkeypatch):
        assemble = delaylyap.solver.assemble

        def slow(sys):
            time.sleep(0.3)
            return assemble(sys)

        monkeypatch.setattr(delaylyap.solver, "assemble", slow)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(DEMO_CONFIGS / "example1.json"),
                     "--out", str(out), "--quiet"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["solve_seconds"] >= 0.3

    def test_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, BENCHMARK)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", cfg, "--out", str(a), "--quiet"]) == 0
        assert main(["solve", "--config", cfg, "--out", str(b), "--quiet"]) == 0
        assert (a / "P_tau.csv").read_bytes() == (b / "P_tau.csv").read_bytes()

    def test_tau_points_override(self, tmp_path):
        cfg = write_config(tmp_path, BENCHMARK)
        out = tmp_path / "out"
        rc = main(["solve", "--config", cfg, "--out", str(out),
                   "--tau-points", "5", "--quiet"])
        assert rc == 0
        _, rows = read_csv(out / "P_tau.csv")
        assert rows.shape[0] == 5
        assert np.allclose(rows[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_degenerate_system_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ZERO_ROOT)
        rc = main(["solve", "--config", cfg, "--out",
                   str(tmp_path / "out"), "--quiet"])
        assert rc == 1
        assert "solvability violated" in capsys.readouterr().err

    def test_borderline_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, BENCHMARK)
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "out"),
                   "--quiet", "--tolerance", "singular=1e-30",
                   "--tolerance", "borderline=1.0"])
        assert rc == 2


class TestCheck:
    def test_satisfied(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BENCHMARK)
        rc = main(["check", "--config", cfg])
        assert rc == 0
        assert "solvability: satisfied" in capsys.readouterr().out

    def test_takes_one_svd(self, decompositions):
        rc = main(["check", "--config", str(DEMO_CONFIGS / "example1.json"),
                   "--quiet"])
        assert rc == 0
        assert (decompositions["svd"], decompositions["lanczos"]) == (1, 0)

    def test_violated(self, tmp_path):
        cfg = write_config(tmp_path, ZERO_ROOT)
        out = tmp_path / "out"
        rc = main(["check", "--config", cfg, "--out", str(out), "--quiet"])
        assert rc == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["spectrum"]["verdict"] == "violated"
        assert summary["spectrum"]["relative"] < 1e-12

    def test_bare_tolerance_tightens_to_violation(self, tmp_path):
        cfg = write_config(tmp_path, BENCHMARK)
        rc = main(["check", "--config", cfg, "--quiet", "--tolerance", "0.5"])
        assert rc == 1

    def test_borderline_band(self, tmp_path):
        cfg = write_config(tmp_path, BENCHMARK)
        rc = main(["check", "--config", cfg, "--quiet",
                   "--tolerance", "singular=1e-30",
                   "--tolerance", "borderline=1.0"])
        assert rc == 2

    def test_overflow_names_the_exponential(self, tmp_path, capsys):
        sys = random_stable_system(5, 2, 2, h=6.0)
        payload = {
            "system": {
                "A0": sys.A0.tolist(),
                "A1": sys.A1.tolist(),
                "h": sys.h,
                "kernel": {"Ad": sys.Ad.tolist(), "Bd": sys.Bd.tolist(),
                           "Cd": sys.Cd.tolist()},
            },
            "Q": np.eye(2).tolist(),
        }
        rc = main(["check", "--config", write_config(tmp_path, payload), "--quiet"])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: expm(E h) overflowed at h = 6, "
                              "||E h||_1 = ")


class TestValidate:
    def test_passes_on_benchmark(self, tmp_path):
        payload = dict(BENCHMARK)
        payload["tau"] = {"points": 9}
        payload["simulation"] = {"T": None, "dt": None, "histories": [[1.0, 0.0]]}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        rc = main(["validate", "--config", cfg, "--out", str(out), "--quiet"])
        assert rc == 0

        result = json.loads((out / "validation.json").read_text())
        assert result["all_passed"] is True
        assert result["spectrum"]["verdict"] == "satisfied"
        names = [c["check"] for c in result["checks"]]
        assert any(name.startswith("residual_dde") for name in names)
        assert sum(name.startswith("oracle_P") for name in names) == 5
        assert any(name.startswith("cost") for name in names)
        assert all(c["pass"] for c in result["checks"])
        assert (out / "trajectory.csv").exists()
        assert (out / "P_tau.csv").exists()

    def test_growing_system_exits_4(self, tmp_path, capsys):
        payload = {
            "system": {
                "A0": [[1.0]],
                "A1": [[0.0]],
                "h": 1.0,
                "kernel": {"Ad": [[-1.0]], "Bd": [[0.0]], "Cd": [[0.0]]},
            },
            "Q": [[1.0]],
            "simulation": {"T": 20.0, "dt": None, "histories": [[1.0]]},
        }
        cfg = write_config(tmp_path, payload)
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["validate", "--config", cfg, "--out",
                       str(tmp_path / "out"), "--quiet"])
        assert rc == 4
        assert "numerical failure" in capsys.readouterr().err

    def test_non_decaying_cost_fails_without_a_bound(self, tmp_path, capsys,
                                                     monkeypatch):
        cost_to_go = delaylyap.sim.cost_to_go

        def not_decaying(*args, **kwargs):
            est, traj = cost_to_go(*args, **kwargs)
            return dataclasses.replace(est, decaying=False), traj

        monkeypatch.setattr(delaylyap.sim, "cost_to_go", not_decaying)
        out = tmp_path / "out"
        rc = main(["validate", "--config", str(DEMO_CONFIGS / "example1.json"),
                   "--out", str(out)])
        assert rc == 4
        result = json.loads((out / "validation.json").read_text())
        entry = next(c for c in result["checks"] if c["check"] == "cost x0=[1.0, 0.0]")
        assert entry["bound"] is None and entry["pass"] is False
        assert entry["note"] == "cost integrand is not decaying"
        assert result["all_passed"] is False
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("FAIL cost x0=[1.0, 0.0]")
                   and line.endswith("cost integrand is not decaying") for line in lines)


class TestSample:
    def test_explicit_lags(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BENCHMARK)
        rc = main(["sample", "--config", cfg, "--tau", "0,0.5,1", "--quiet"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "tau,p_11,p_12,p_21,p_22"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert rows.shape == (3, 5)
        assert np.allclose(rows[:, 0], [0.0, 0.5, 1.0])
        assert abs(rows[0, 1] - 0.7072) < 5e-4

    def test_bad_lag_list(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BENCHMARK)
        assert main(["sample", "--config", cfg, "--tau", "a,b"]) == 3
        capsys.readouterr()
        assert main(["sample", "--config", cfg, "--tau", ","]) == 3
        capsys.readouterr()

    def test_lag_outside_domain(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BENCHMARK)
        assert main(["sample", "--config", cfg, "--tau", "3.5"]) == 3
        capsys.readouterr()


class TestDumpConfig:
    def test_default_roundtrip(self, capsys):
        rc = main(["dump-config"])
        assert rc == 0
        text = capsys.readouterr().out
        assert parse_config(json.loads(text)) == default_config()

    def test_idempotent(self, tmp_path, capsys):
        rc = main(["dump-config"])
        first = capsys.readouterr().out
        assert rc == 0
        cfg = write_config(tmp_path, json.loads(first))
        rc = main(["dump-config", "--config", cfg])
        second = capsys.readouterr().out
        assert rc == 0
        assert first == second

    def test_example1_text(self, capsys):
        rc = main(["dump-config", "--config", str(DEMO_CONFIGS / "example1.json")])
        assert rc == 0
        text = capsys.readouterr().out
        assert text == EXAMPLE1_DUMP

        def reject(literal):
            raise ValueError("not strict JSON: %s" % literal)

        json.loads(text, parse_constant=reject)

    def test_parsed_config_is_the_document(self):
        cfg = parse_config(str(DEMO_CONFIGS / "example1.json"))
        assert type(cfg) is dict
        assert json.loads(dump_config(cfg)) == cfg

    def test_fills_defaults(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BENCHMARK)
        rc = main(["dump-config", "--config", cfg])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tau"] == {"points": 201}
        assert doc["simulation"]["histories"] == [[1.0, 0.0], [0.0, 1.0]]
        assert doc["tolerances"]["singular"] == 1e-12
        assert doc["tolerances"]["tail"] == 1e-5


class TestNoImplicitFiles:
    def test_stdout_commands_write_nothing(self, tmp_path, monkeypatch, capsys):
        # check, sample and dump-config print; they only write with --out
        cfg = write_config(tmp_path, BENCHMARK)
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert main(["check", "--config", cfg, "--quiet"]) == 0
        assert main(["sample", "--config", cfg, "--tau", "0", "--quiet"]) == 0
        assert main(["dump-config", "--config", cfg]) == 0
        capsys.readouterr()
        assert list(workdir.iterdir()) == []


class TestInputErrors:
    def test_missing_file(self, tmp_path, capsys):
        rc = main(["solve", "--config", str(tmp_path / "nope.json")])
        assert rc == 3
        assert "input error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{")
        assert main(["solve", "--config", str(path)]) == 3
        capsys.readouterr()

    def test_inconsistent_shapes(self, tmp_path, capsys):
        payload = json.loads(json.dumps(BENCHMARK))
        payload["system"]["A1"] = [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]]
        cfg = write_config(tmp_path, payload)
        assert main(["solve", "--config", cfg]) == 3
        capsys.readouterr()

    def test_model_refusal_is_an_input_error(self, tmp_path, capsys):
        # the model's own ValueError, not one of the parser's, exits 3 too
        payload = json.loads(json.dumps(BENCHMARK))
        payload["Q"] = [[1.0, 2.0], [0.0, 1.0]]
        cfg = write_config(tmp_path, payload)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert "input error: weight is not symmetric" in capsys.readouterr().err

    def test_unknown_tolerance(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BENCHMARK)
        assert main(["solve", "--config", cfg, "--tolerance", "bogus=1"]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("flags, section", [
        (["--tau-points", "0"], {}),
        (["--tau-points", "1"], {}),
        (["--tolerance", "tail=nan"], {}),
        (["--tolerance", "quadrature=-1"], {}),
        ([], {"tolerances": {"tail": float("nan")}}),
        ([], {"simulation": {"T": -1}}),
    ], ids=["tau-points-0", "tau-points-1", "tail-nan-flag", "quadrature-negative",
            "tail-nan-file", "T-negative-file"])
    def test_flags_and_file_share_checks(self, tmp_path, capsys, flags, section):
        payload = json.loads((DEMO_CONFIGS / "example1.json").read_text())
        payload.update(section)
        cfg = write_config(tmp_path, payload)
        assert main(["dump-config", "--config", cfg] + flags) == 3
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value, key", [
        (("tau",), {"values": [0.0, 2.0]}, "tau values"),
        (("system", "h"), 10 ** 400, "system.h"),
        (("system", "A0"), [[-(10 ** 400), 0], [0, -1]], "system.A0"),
        (("system", "A0"), [["-1", "0"], ["0", "-1"]], "system.A0"),
        (("system", "A0"), [[-1.0, 0.0], [True, -1.0]], "system.A0"),
    ], ids=["tau-values-beyond-h", "huge-int-scalar", "huge-int-matrix",
            "string-entries", "bool-entry"])
    def test_refused_while_parsing(self, tmp_path, capsys, path, value, key):
        # dump-config solves nothing, so these are refused by parse_config
        payload = json.loads((DEMO_CONFIGS / "example1.json").read_text())
        section = payload
        for name in path[:-1]:
            section = section[name]
        section[path[-1]] = value
        cfg = write_config(tmp_path, payload)
        assert main(["dump-config", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "input error" in err and key in err

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 3
        capsys.readouterr()

    def test_missing_required_config_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve"])
        assert exc.value.code == 3
        capsys.readouterr()


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        cfg = write_config(tmp_path, BENCHMARK)
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "delaylyap", "solve", "--config", cfg,
             "--out", str(out), "--quiet"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "P_tau.csv").exists()

    def test_console_script(self, tmp_path):
        module, attr = declared_console_script()
        wrapper = SCRIPT_WRAPPER.format(module=module, attr=attr)

        def run(cfg):
            return subprocess.run(
                [sys.executable, "-c", wrapper, "check", "--config", cfg,
                 "--quiet"],
                capture_output=True, text=True, env=child_env(),
            )

        proc = run(write_config(tmp_path, BENCHMARK))
        assert proc.returncode == 0, proc.stderr
        # main's return value must become the process exit status
        proc = run(str(DEMO_CONFIGS / "degenerate_zero_root.json"))
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("module", ["scipy.interpolate", "scipy.integrate",
                                        "scipy.linalg", "scipy"])
    def test_import_leaves_out(self, module):
        # the package imports no scipy: the oracles' Simpson rule and the
        # matrix exponential are its own
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, delaylyap; "
             "print(%r in sys.modules)" % module],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_commands_leave_out_scipy(self, tmp_path):
        # solve and validate on the paper's example run on numpy alone
        cfg = str(DEMO_CONFIGS / "example1.json")
        code = (
            "import sys; from delaylyap import cli\n"
            "for cmd in ('solve', 'validate'):\n"
            "    rc = cli.main([cmd, '--config', %r, '--out', %r, '--quiet'])\n"
            "    assert rc == 0, (cmd, rc)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
            % (cfg, str(tmp_path / "out"))
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.skipif(shutil.which("delaylyap") is None,
                        reason="no installed delaylyap script on PATH")
    def test_installed_console_script(self, tmp_path):
        exe = shutil.which("delaylyap")
        cfg = write_config(tmp_path, BENCHMARK)
        proc = subprocess.run(
            [exe, "check", "--config", cfg, "--quiet"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr


class TestShippedConfigs:
    def test_example_config_solves(self, tmp_path):
        cfg = DEMO_CONFIGS / "example1.json"
        assert cfg.is_file()
        out = tmp_path / "out"
        rc = main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"])
        assert rc == 0
        _, rows = read_csv(out / "P_tau.csv")
        assert abs(rows[0, 1] - 0.7072) < 5e-4

    def test_delay_free_config_solves(self, tmp_path):
        cfg = DEMO_CONFIGS / "delay_free_scalar.json"
        rc = main(["solve", "--config", str(cfg), "--out",
                   str(tmp_path / "out"), "--quiet"])
        assert rc == 0

    def test_degenerate_config_exits_1(self, tmp_path, capsys):
        cfg = DEMO_CONFIGS / "degenerate_zero_root.json"
        rc = main(["check", "--config", str(cfg), "--quiet"])
        assert rc == 1
        capsys.readouterr()

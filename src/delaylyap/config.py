"""Run configuration files.

A run is described by one JSON document::

    {
      "system": {
        "A0": [[...]], "A1": [[...]], "h": 1.0,
        "kernel": {"Ad": [[...]], "Bd": [[...]], "Cd": [[...]]}
      },
      "Q": [[...]],
      "tau": {"points": 201},
      "simulation": {"T": null, "dt": null, "histories": [[1.0, 0.0]]},
      "tolerances": {"singular": 1e-12, "borderline": 1e-08,
                     "quadrature": 1e-10, "tail": 1e-05}
    }

Matrices are row-major nested arrays. The kernel accepts either the
factored form above or the sine/cosine shorthand ``{"B0": ..., "B1":
..., "frequency": w}`` for kernels ``sin(w th) B0 + cos(w th) B1``. The
tau section may list explicit ``"values"`` instead of a point count.
Null ``T``/``dt`` mean automatic choices.

:func:`parse_config` returns the normalized document itself: a plain
``dict`` of JSON values with every default filled in, so dumping it and
parsing it again yields an equal dict. Every number must be finite, and
the tolerances, ``T`` and ``dt`` must be positive; a violation raises
:class:`ConfigError` naming the key.
"""

import json
import math

import numpy as np

from .model import TimeDelaySystem, Weight, sincos_kernel
from .sim import TAIL_TOL, HistorySpec
from .solver import QUAD_TOL
from .spectrum import BORDERLINE_THRESHOLD, HARD_THRESHOLD

DEFAULT_TOLERANCES = {
    "singular": HARD_THRESHOLD,
    "borderline": BORDERLINE_THRESHOLD,
    "quadrature": QUAD_TOL,
    "tail": TAIL_TOL,
}


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def _require(mapping, key, where):
    if not isinstance(mapping, dict):
        raise ConfigError("%s must be an object" % where)
    if key not in mapping:
        raise ConfigError("%s is missing the %r key" % (where, key))
    return mapping[key]


def _section(raw, key):
    obj = raw.get(key, {})
    if not isinstance(obj, dict):
        raise ConfigError("%s must be an object" % key)
    return obj


def _matrix(obj, name):
    if not (isinstance(obj, list) and obj
            and all(isinstance(row, list) and row for row in obj)
            and len({len(row) for row in obj}) == 1):
        raise ConfigError("%s must be a nonempty 2-d array" % name)
    return [[_number(v, name + " entry") for v in row] for row in obj]


def _number(obj, name, allow_none=False, positive=False):
    if obj is None and allow_none:
        return None
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError("%s must be a number" % name)
    try:
        value = float(obj)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError("%s must be finite" % name)
    if positive and value <= 0:
        raise ConfigError("%s must be positive" % name)
    return value


def _parse_kernel(obj):
    if not isinstance(obj, dict):
        raise ConfigError("system.kernel must be an object")
    factored = {"Ad", "Bd", "Cd"} & set(obj)
    shorthand = {"B0", "B1", "frequency"} & set(obj)
    if factored and shorthand:
        raise ConfigError("system.kernel mixes the factored and sincos forms")
    if factored:
        return {key: _matrix(_require(obj, key, "system.kernel"), "kernel." + key)
                for key in ("Ad", "Bd", "Cd")}
    if shorthand:
        return {
            "B0": _matrix(_require(obj, "B0", "system.kernel"), "kernel.B0"),
            "B1": _matrix(_require(obj, "B1", "system.kernel"), "kernel.B1"),
            "frequency": _number(_require(obj, "frequency", "system.kernel"),
                                 "kernel.frequency"),
        }
    raise ConfigError("system.kernel must give Ad/Bd/Cd or B0/B1/frequency")


def parse_config(source):
    """Load and normalize a run configuration.

    ``source`` is a file path or an already-decoded dictionary, which is
    not modified. Returns the normalized document as a new ``dict`` whose
    keys come in the order :func:`dump_config` prints.
    """
    if isinstance(source, dict):
        raw = source
    else:
        try:
            with open(source) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError("cannot read config: %s" % exc)
        except json.JSONDecodeError as exc:
            raise ConfigError("invalid JSON in %s: %s" % (source, exc))
    if not isinstance(raw, dict):
        raise ConfigError("top level of the config must be an object")

    sys_raw = _require(raw, "system", "config")
    system = {
        "A0": _matrix(_require(sys_raw, "A0", "system"), "system.A0"),
        "A1": _matrix(_require(sys_raw, "A1", "system"), "system.A1"),
        "h": _number(_require(sys_raw, "h", "system"), "system.h"),
        "kernel": _parse_kernel(_require(sys_raw, "kernel", "system")),
    }
    n = len(system["A0"])

    Q = _matrix(_require(raw, "Q", "config"), "Q")

    tau_raw = _section(raw, "tau")
    if tau_raw.get("values") is not None:
        values = tau_raw["values"]
        if not isinstance(values, list) or not values:
            raise ConfigError("tau.values must be a nonempty list")
        tau = {"values": [_number(v, "tau.values entry") for v in values]}
        tau_grid({"system": system, "tau": tau})
    else:
        points = tau_raw.get("points", 201)
        if isinstance(points, bool) or not isinstance(points, int) or points < 2:
            raise ConfigError("tau.points must be an integer >= 2")
        tau = {"points": points}

    sim_raw = _section(raw, "simulation")
    histories = sim_raw.get("histories")
    if histories is None:
        histories = [[1.0 if j == i else 0.0 for j in range(n)] for i in range(n)]
    if not isinstance(histories, list) or not histories:
        raise ConfigError("simulation.histories must be a nonempty list")
    simulation = {key: _number(sim_raw.get(key), "simulation." + key,
                               allow_none=True, positive=True)
                  for key in ("T", "dt")}
    simulation["histories"] = []
    for k, vec in enumerate(histories):
        name = "simulation.histories[%d]" % k
        if not isinstance(vec, list) or len(vec) != n:
            raise ConfigError("%s must be a vector of length %d" % (name, n))
        simulation["histories"].append([_number(v, name) for v in vec])

    tol_raw = _section(raw, "tolerances")
    unknown = set(tol_raw) - set(DEFAULT_TOLERANCES)
    if unknown:
        raise ConfigError("unknown tolerance keys: %s" % ", ".join(sorted(unknown)))
    tolerances = {key: _number(tol_raw.get(key, default), "tolerances." + key,
                               positive=True)
                  for key, default in DEFAULT_TOLERANCES.items()}

    return {"system": system, "Q": Q, "tau": tau, "simulation": simulation,
            "tolerances": tolerances}


def dump_config(cfg):
    """Serialize a configuration to JSON text, ending with a newline."""
    return json.dumps(cfg, indent=2) + "\n"


def build_system(cfg):
    """Materialize the TimeDelaySystem described by a configuration."""
    system, k = cfg["system"], cfg["system"]["kernel"]
    if "Ad" in k:
        Ad, Bd, Cd = np.array(k["Ad"]), np.array(k["Bd"]), np.array(k["Cd"])
    else:
        Ad, Bd, Cd = sincos_kernel(k["B0"], k["B1"], k["frequency"])
    return TimeDelaySystem(system["A0"], system["A1"], Ad, Bd, Cd, system["h"])


def build_weight(cfg):
    return Weight(cfg["Q"])


def tau_grid(cfg):
    """Evaluation grid for the Lyapunov matrix, all points in ``[0, h]``."""
    tau, h = cfg["tau"], cfg["system"]["h"]
    if "values" in tau:
        taus = np.asarray(tau["values"], dtype=float)
    else:
        taus = np.linspace(0.0, h, tau["points"])
    if np.any(taus < -1e-12) or np.any(taus > h * (1 + 1e-12) + 1e-12):
        raise ConfigError("tau values must lie in [0, h]")
    return taus


def build_histories(cfg):
    """Point-mass histories listed in the simulation section."""
    return [HistorySpec.point_mass(v) for v in cfg["simulation"]["histories"]]


def default_config():
    """Bundled demonstration configuration: a rotation-coupled system with
    a sine/cosine distributed kernel."""
    return parse_config({
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
    })

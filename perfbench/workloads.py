"""Workloads: the models each one sets up, the ops of one cycle, and the
check every op's output must pass.

Every input comes from the seed, except the model sizes and the sweep
shapes: those depend only on the workload and the cycle index, so that runs
under different seeds do the same amount of work.  The seed moves gamma, the
initial states, which model gets which shape, the swept parameters, the
ranges and the points.  Checks use the tolerances of the
``verify`` suite.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from statemetric import cli, geometry, manifest, oracle
from statemetric.geometry import GridSpec

WORKLOADS = ("grid_small_d", "grid_large_d", "pointwise", "verify")

SPIN_PARAMS = ("theta_1", "theta_2", "theta_3")
OSC_PARAMS = ("theta", "phi")

SPIN_METRIC_TOL = 1e-10      # verify: sphere_metrics
OSC_DIAG_TOL = 1e-6          # verify: oscillator_flat
OSC_OFFDIAG_TOL = 1e-8
ORACLE_TOL = 1e-6            # verify: three_way_agreement
CURVATURE_REL_TOL = 1e-3     # verify: sphere_metrics
RADIUS_TOL = 1e-6            # verify: two_spin_spheres
FD_SAMPLES = 3               # grid nodes per op checked against the fd oracle

# grid_large_d node counts per Hilbert dimension, chosen so that every op but
# the N=256 one takes about as long (~0.2 s on a 2-core box at defaults); the
# op latency median then falls inside a dense cluster, not between clusters
LARGE_D_NODES = {41: (170, 250), 61: (85, 125), 81: (45, 65), 128: (9, 12)}


@dataclass
class ModelSpec:
    """One model a workload emits and loads, with its closed forms."""

    key: str
    emit: list
    params: tuple
    spin_r2: float | None = None    # eigenstate metric diag(R^2 sin^2 t2, R^2, 0)
    osc_c: float | None = None      # oscillator metric diag(c, c)
    radius: float | None = None     # closed-form sphere radius
    rank: int | None = None
    path: str = ""
    model: object = None


@dataclass
class Op:
    kind: str                       # grid | metric | curvature | classify | verify
    model: str | None = None
    argv: list = field(default_factory=list)
    sweeps: dict = field(default_factory=dict)
    fixed: dict = field(default_factory=dict)
    fmt: str = ""
    point: dict = field(default_factory=dict)


class CheckFailed(Exception):
    pass


def _r(x) -> str:
    return repr(float(x))


def _spin(key, rng, s, m=None, coeffs=None):
    gamma = float(rng.uniform(0.5, 2.0))
    emit = ["spin", "--s", _r(s), "--gamma", _r(gamma)]
    if coeffs is not None:
        emit += ["--coeffs", ",".join(_r(c) for c in coeffs)]
        return ModelSpec(key, emit, SPIN_PARAMS)
    if m is None:
        m = float(rng.integers(0, round(2 * s) + 1)) - s
    emit += ["--m", _r(m)]
    r2 = 0.5 * gamma**2 * (s * (s + 1) - m * m)
    return ModelSpec(key, emit, SPIN_PARAMS, spin_r2=r2, radius=math.sqrt(r2), rank=2)


def _superposition(key, rng):
    coeffs = rng.uniform(0.3, 1.0, 3)
    return _spin(key, rng, 1.0, coeffs=coeffs / np.linalg.norm(coeffs))


def _two_spin(variant, rng):
    gamma = float(rng.uniform(0.5, 2.0))
    emit = [f"two_spin_{variant}", "--gamma", _r(gamma)]
    if variant == "dm_xx":
        emit += ["--initial", str(rng.choice(["up_down", "down_up"]))]
    elif variant == "sum":
        emit += ["--initial", str(rng.choice(["up_up", "down_down"]))]
    else:
        emit += ["--eta", _r(rng.uniform(0.2, np.pi - 0.2)),
                 "--chi", _r(rng.uniform(-np.pi, np.pi)),
                 "--initial", str(rng.choice(["plus_minus", "minus_plus"]))]
    return ModelSpec(f"two_spin_{variant}", emit, SPIN_PARAMS,
                     radius=gamma / 2, rank=2)


def _oscillator(key, rng, truncation):
    gamma = float(rng.uniform(0.5, 2.0))
    n = int(rng.integers(0, 3))
    emit = ["oscillator", "--trunc", str(truncation), "--n", str(n),
            "--gamma", _r(gamma)]
    return ModelSpec(key, emit, OSC_PARAMS, osc_c=gamma**2 * (2 * n + 1) / 2, rank=2)


def model_specs(workload: str, seed: int, smoke: bool) -> list:
    rng = np.random.default_rng([seed, 0])
    small = [
        _spin("spin_half", rng, 0.5),
        _spin("spin_1", rng, 1.0),
        _superposition("spin_1_superposition", rng),
        _two_spin("dm_xx", rng),
        _two_spin("sum", rng),
        _two_spin("directional", rng),
    ]
    if workload == "grid_small_d":
        return small
    if workload == "grid_large_d":
        spins = (2, 3, 4) if smoke else (20, 30, 40)
        truncs = (24, 32) if smoke else (128, 256)
        return ([_spin(f"spin_{s}", rng, float(s)) for s in spins]
                + [_oscillator(f"oscillator_{n}", rng, n) for n in truncs])
    if workload == "pointwise":
        return small + [_spin("spin_3half", rng, 1.5), _oscillator("oscillator_32", rng, 32)]
    if workload == "verify":
        return []
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# running one op


def run_cli(argv):
    """statemetric.cli.main with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def setup(specs, work_dir):
    """Emit every model's manifest, write it, and load it back."""
    for spec in specs:
        rc, text, err = run_cli(["models", "emit", *spec.emit])
        if rc != 0:
            raise CheckFailed(f"models emit {spec.emit} exited {rc}: {err.strip()}")
        spec.path = str(work_dir / f"{spec.key}.json")
        with open(spec.path, "w", encoding="utf-8") as fh:
            fh.write(text)
        spec.model = manifest.load_model(spec.path)
    return {spec.key: spec for spec in specs}


def execute(op: Op, models):
    """Run an op; returns (exit code, stdout or classify report).  Only this
    call is timed."""
    if op.kind == "classify":
        model = models[op.model].model
        return 0, geometry.classify(geometry.metric_field(model, GridSpec(op.sweeps, op.fixed)))
    rc, out, _err = run_cli(op.argv)
    return rc, out


def render(op: Op, result) -> str:
    """Byte form of an op's output; classify reports are rendered here."""
    if op.kind != "classify":
        return result
    return json.dumps({
        "classification": result.classification,
        "rank": result.rank,
        "gaussian_curvature": result.gaussian_curvature,
        "radius": result.radius,
        "scalar_curvature": result.scalar_curvature,
        "section": result.section,
        "label": result.label(),
    })


# ---------------------------------------------------------------------------
# one cycle of ops


def _at(point):
    return [arg for p, v in point.items() for arg in ("--at", f"{p}={_r(v)}")]


def _sweep_args(sweeps):
    return [arg for p, (lo, hi, n) in sweeps.items()
            for arg in ("--sweep", f"{p}={_r(lo)}:{_r(hi)}:{n}")]


def _range(rng, lo_min, lo_max, w_min, w_max, hi_max=np.inf):
    lo = float(rng.uniform(lo_min, lo_max))
    return lo, float(min(lo + rng.uniform(w_min, w_max), hi_max))


def _grid_op(spec, rng, shape, fmt):
    if spec.osc_c is not None:
        sweeps = {p: (*_range(rng, -1.0, 0.0, 0.5, 1.0), n)
                  for p, n in zip(OSC_PARAMS, shape)}
        fixed = {}
    else:
        pair = [SPIN_PARAMS[i] for i in sorted(rng.choice(3, 2, replace=False))]
        sweeps = {p: (*_range(rng, -np.pi, np.pi, 0.5, 2.0), n)
                  for p, n in zip(pair, shape)}
        fixed = {p: float(rng.uniform(-np.pi, np.pi)) for p in SPIN_PARAMS if p not in pair}
    argv = ["grid", spec.path, *_sweep_args(sweeps), *_at(fixed), "--format", fmt]
    return Op("grid", spec.key, argv, sweeps, fixed, fmt)


def _point(spec, rng, theta2_margin, osc_half_width):
    if spec.osc_c is not None:
        return {p: float(rng.uniform(-osc_half_width, osc_half_width)) for p in OSC_PARAMS}
    return {"theta_1": float(rng.uniform(-np.pi, np.pi)),
            "theta_2": float(rng.uniform(theta2_margin, np.pi - theta2_margin)),
            "theta_3": float(rng.uniform(-np.pi, np.pi))}


def _classify_op(spec, rng, n):
    if spec.osc_c is not None:
        sweeps = {p: (*_range(rng, -1.0, 0.0, 0.5, 1.0), n) for p in OSC_PARAMS}
        fixed = {}
    else:
        lo2, hi2 = _range(rng, 0.4, 1.4, 0.4, 1.2, hi_max=np.pi - 0.4)
        sweeps = {"theta_1": (*_range(rng, -np.pi, np.pi - 1.5, 0.5, 1.5), n),
                  "theta_2": (lo2, hi2, n)}
        fixed = {"theta_3": float(rng.uniform(-np.pi, np.pi))}
    return Op("classify", spec.key, sweeps=sweeps, fixed=fixed)


def _shapes(lo_nodes, hi_nodes, count, k):
    """count sweep shapes with node counts spread evenly over [lo, hi].

    The spread keeps op latencies dense around their median.  The node
    counts move with the cycle index (not the seed), even slots up and odd
    slots down by the same amount, so successive cycles fill in between while
    every cycle, under every seed, holds the same number of nodes.
    """
    shift = (k * 0.6180339887498949) % 1.0 - 0.5
    step = (hi_nodes - lo_nodes) / count
    shapes = []
    for j in range(count):
        target = lo_nodes + (j + 0.5 + shift * (-1) ** j) * step
        n1 = max(3, round(math.sqrt(target)))
        shapes.append((n1, max(3, round(target / n1))))
    return shapes


def cycle(workload: str, seed: int, k: int, models, smoke: bool) -> list:
    """The ops of cycle k; the same (seed, k) always gives the same ops."""
    rng = np.random.default_rng([seed, 1, k])
    specs = list(models.values())
    ops = []
    if workload == "grid_small_d":
        shapes = _shapes(9, 16, 12, k) if smoke else _shapes(400, 1600, 12, k)
        # slots 0, 3, 4, 7, 8, 11 go to csv and the rest to json, so each
        # format gets as many upward as downward moved slots
        for fmt, slots in (("csv", (0, 3, 4, 7, 8, 11)), ("json", (1, 2, 5, 6, 9, 10))):
            for i, j in zip(rng.permutation(len(specs)), slots):
                ops.append(_grid_op(specs[i], rng, shapes[j], fmt))
    elif workload == "grid_large_d":
        for spec in specs:
            if smoke:
                ops += [_grid_op(spec, rng, shape, fmt)
                        for fmt, shape in zip(("csv", "json"), _shapes(9, 16, 2, k))]
            elif spec.model.rep.dim > 128:
                # one op: loading the 9.9 MB manifest alone outlasts the others
                fmt = ("csv", "json")[k % 2]
                ops.append(_grid_op(spec, rng, (3, 3), fmt))
            else:
                lo, hi = LARGE_D_NODES[spec.model.rep.dim]
                ops += [_grid_op(spec, rng, shape, fmt)
                        for fmt, shape in zip(("csv", "json"), _shapes(lo, hi, 2, k))]
    elif workload == "pointwise":
        n = 3 if smoke else 5
        for spec in specs:
            point = _point(spec, rng, 0.3, 0.5)
            ops.append(Op("metric", spec.key, ["metric", spec.path, *_at(point)],
                          point=point))
        for spec in specs:
            if spec.radius is None and spec.osc_c is None:
                continue  # no closed form to check a curvature against
            point = _point(spec, rng, 0.6, 0.6)
            section = ",".join(spec.params[:2])
            ops.append(Op("curvature", spec.key,
                          ["curvature", spec.path, *_at(point), "--section", section],
                          point=point))
        for spec in specs:
            ops.append(_classify_op(spec, rng, n))
    elif workload == "verify":
        ops.append(Op("verify", argv=["verify", "--only", "oracle_quality"] if smoke
                      else ["verify"]))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


# ---------------------------------------------------------------------------
# output checks


@dataclass
class CheckStats:
    nodes: int = 0
    radius_rel_err: list = field(default_factory=list)


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _expected_points(op: Op, params):
    axes = [np.linspace(lo, hi, n) for lo, hi, n in op.sweeps.values()]
    grids = np.meshgrid(*axes, indexing="ij")
    cols = {p: g.ravel() for p, g in zip(op.sweeps, grids)}
    count = len(next(iter(cols.values())))
    for p, v in op.fixed.items():
        cols[p] = np.full(count, v)
    return np.stack([cols[p] for p in params], axis=1)


def _parse_grid(op: Op, text: str, spec: ModelSpec):
    """(points (N, P), metrics (N, d, d)) from grid CSV or JSON output."""
    dim = len(spec.params)
    if op.fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        names = list(op.sweeps)
        upper = [(i, j) for i in range(dim) for j in range(i, dim)]
        header = names + [f"g_{i + 1}{j + 1}" for i, j in upper]
        _require(rows and rows[0] == header, f"csv header {rows[:1]} != {header}")
        values = np.array([[float(x) for x in row] for row in rows[1:]])
        _require(values.ndim == 2 and values.shape[1] == len(header), "ragged csv rows")
        swept = {p: values[:, k] for k, p in enumerate(names)}
        points = np.stack([swept[p] if p in swept else np.full(len(values), op.fixed[p])
                           for p in spec.params], axis=1)
        g = np.zeros((len(values), dim, dim))
        for col, (i, j) in enumerate(upper, start=len(names)):
            g[:, i, j] = g[:, j, i] = values[:, col]
        return points, g
    doc = json.loads(text)
    _require(doc["parameters"] == list(spec.params), "json parameters differ")
    _require({k: tuple(v) for k, v in doc["sweeps"].items()}
             == {k: tuple(v) for k, v in op.sweeps.items()}, "json sweeps differ")
    points = np.array([[node["point"][p] for p in spec.params] for node in doc["nodes"]])
    g = np.array([node["g"] for node in doc["nodes"]], dtype=float)
    _require(g.shape[1:] == (dim, dim), f"json metric shape {g.shape}")
    _require(np.array_equal(g, np.swapaxes(g, 1, 2)), "json metric not symmetric")
    return points, g


def _check_closed_form(spec: ModelSpec, points, g, where):
    """Closed-form metric on every node; False when the model has none."""
    if spec.spin_r2 is not None:
        t2 = points[:, spec.params.index("theta_2")]
        expected = np.zeros_like(g)
        expected[:, 0, 0] = spec.spin_r2 * np.sin(t2) ** 2
        expected[:, 1, 1] = spec.spin_r2
        err = float(np.max(np.abs(g - expected)))
        _require(err <= SPIN_METRIC_TOL, f"{where}: spin metric off closed form by {err:.2e}")
        return True
    if spec.osc_c is not None:
        diag = float(np.max(np.abs(np.diagonal(g, axis1=1, axis2=2) - spec.osc_c)))
        off = float(np.max(np.abs(g[:, 0, 1])))
        _require(diag <= OSC_DIAG_TOL and off <= OSC_OFFDIAG_TOL,
                 f"{where}: oscillator metric off closed form ({diag:.2e}, {off:.2e})")
        return True
    return False


def _check_oracle(spec: ModelSpec, points, g, rng, where):
    model = spec.model
    picks = rng.choice(len(points), size=min(FD_SAMPLES, len(points)), replace=False)
    for idx in picks:
        point = dict(zip(spec.params, points[idx]))
        ref = oracle.fd_metric(model.circuit, point, model.initial_state, model.gamma)
        err = float(np.max(np.abs(g[idx] - ref.g)))
        _require(err <= ORACLE_TOL, f"{where}: node {idx} off the fd oracle by {err:.2e}")


def check(op: Op, rc, result, models, rng, stats: CheckStats):
    """Raise CheckFailed unless the op's output is right."""
    where = f"{op.kind} {op.model or ''} {op.fmt}".strip()
    _require(rc == 0, f"{where}: exit code {rc}")
    if op.kind == "verify":
        lines = result.splitlines()
        expected = 1 if "--only" in op.argv else 10
        _require(lines and lines[-1] == f"{expected}/{expected} checks passed",
                 f"verify: {lines[-1:] or 'no output'}")
        _require(all(line.startswith("PASS") for line in lines[:-1]), "verify: a check failed")
        return
    spec = models[op.model]
    if op.kind == "grid":
        points, g = _parse_grid(op, result, spec)
        expected = _expected_points(op, spec.params)
        _require(points.shape == expected.shape and np.array_equal(points, expected),
                 f"{where}: nodes differ from the requested grid")
        _require(np.all(np.isfinite(g)), f"{where}: non-finite metric entries")
        if not _check_closed_form(spec, points, g, where):
            _check_oracle(spec, points, g, rng, where)
        stats.nodes += len(g)
        return
    if op.kind == "metric":
        doc = json.loads(result)
        _require(doc["point"] == op.point, f"{where}: point not echoed")
        g = np.array(doc["g"], dtype=float)[None]
        points = np.array([[op.point[p] for p in spec.params]])
        if not _check_closed_form(spec, points, g, where):
            _check_oracle(spec, points, g, rng, where)
        _require(doc["oracle_max_diff"] <= ORACLE_TOL,
                 f"{where}: oracle_max_diff {doc['oracle_max_diff']:.2e}")
        if spec.rank is not None:
            _require(doc["rank"] == spec.rank, f"{where}: rank {doc['rank']} != {spec.rank}")
        _require(doc["flat"] is (spec.osc_c is not None), f"{where}: flat = {doc['flat']}")
        return
    if op.kind == "curvature":
        doc = json.loads(result)
        if spec.osc_c is not None:
            _require(doc["classification"] == "flat", f"{where}: {doc['classification']}")
            return
        _require(doc["classification"] == "sphere", f"{where}: {doc['classification']}")
        k_err = abs(doc["gaussian_curvature"] * spec.radius**2 - 1.0)
        _require(k_err <= CURVATURE_REL_TOL, f"{where}: relative curvature error {k_err:.2e}")
        stats.radius_rel_err.append(abs(doc["radius"] - spec.radius) / spec.radius)
        return
    if op.kind == "classify":
        report = result
        if spec.osc_c is not None:
            _require(report.classification == "flat", f"{where}: {report.label()}")
        elif spec.radius is not None:
            _require(report.classification == "sphere", f"{where}: {report.label()}")
            err = abs(report.radius - spec.radius)
            _require(err <= RADIUS_TOL, f"{where}: |R - R_exact| = {err:.2e}")
            stats.radius_rel_err.append(err / spec.radius)
        else:
            _require(report.rank == 3 and report.scalar_curvature is not None
                     and math.isfinite(report.scalar_curvature)
                     and report.classification in ("sphere", "generic"),
                     f"{where}: rank-3 field gave {report.label()}, rank {report.rank}")
        return
    raise CheckFailed(f"unknown op kind {op.kind!r}")

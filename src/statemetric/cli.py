"""Command-line front end.

Subcommands: validate, metric, grid, curvature, verify, models.  Exit codes:
0 success, 1 domain failure (non-Hermitian generators, open algebra,
degenerate section, failed verification), 2 usage or parse failure.
``main`` can be called repeatedly in one process: it builds its parser once,
on the first call, and dispatches each command by name to ``cmd_<command>``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import geometry, liealg, linalg, manifest, models, oracle, verify
from .errors import (
    DegenerateSection,
    EmptyGrid,
    ManifestError,
    MissingParameter,
    StatemetricError,
)
from .geometry import GridSpec

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _emit_json(obj):
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _parse_at(pairs, parameter_names, defaults_zero=False):
    point = {}
    for item in pairs or ():
        if "=" not in item:
            raise ManifestError(f"--at expects name=value, got {item!r}")
        name, _, value = item.partition("=")
        if name not in parameter_names:
            raise MissingParameter(f"unknown parameter {name!r}; "
                                   f"circuit has {list(parameter_names)}")
        if name in point:
            raise ManifestError(f"--at {name}: bound more than once")
        try:
            point[name] = float(value)
        except ValueError:
            raise ManifestError(f"--at {name}: {value!r} is not a number") from None
        if not math.isfinite(point[name]):
            raise ManifestError(f"--at {name}: {value!r} is not finite")
    missing = [p for p in parameter_names if p not in point]
    if missing:
        if not defaults_zero:
            raise MissingParameter(
                f"parameters {missing} unbound; pass --at or --defaults-zero")
        point.update({p: 0.0 for p in missing})
    return point


def cmd_validate(args) -> int:
    try:
        model = manifest.load_model(args.manifest)
    except StatemetricError as exc:
        if isinstance(exc, ManifestError):
            raise
        print(f"FAIL: {exc}")
        return EXIT_DOMAIN
    rep = model.rep
    print(f"manifest: {model.name} (dimension {rep.dim}, {rep.size} generators)")
    # load_model has refused a generator over its Hermiticity bound and an
    # open algebra, so those columns are ok; only the Jacobi residual can fail
    for name, G in zip(rep.names, rep.generators):
        print(f"  hermiticity {name}: {linalg.hermiticity(G)[0]:.3e} [ok]")
    print(f"  closure residual: {rep.closure_residual:.3e} [ok]")
    jac = rep.jacobi_residual()
    jacobi_ok = jac <= rep.jacobi_bound()
    print(f"  jacobi residual: {jac:.3e} [{'ok' if jacobi_ok else 'FAIL'}]")
    print(f"  structure-constant purity |Re c|: {rep.constant_purity():.3e}")
    print(f"  detected kind: {liealg.detect_kind(rep)}")
    return EXIT_OK if jacobi_ok else EXIT_DOMAIN


def cmd_metric(args) -> int:
    model = manifest.load_model(args.manifest)
    point = _parse_at(args.at, model.parameter_names, args.defaults_zero)
    # the point and three shifted probes in one kernel call, for "flat" below
    x = model.circuit.angles(point)
    shifts = np.random.default_rng(0).uniform(-0.5, 0.5, (3, len(x)))
    stack = geometry.metric_stack(model, np.vstack([x, x + shifts]))
    g = stack[0]
    g_fd = oracle.fd_metric_batch(model.circuit, x[None], model.initial_state, model.gamma)[0]
    _emit_json({
        "name": model.name,
        "point": {p: point[p] for p in model.parameter_names},
        "gamma": model.gamma,
        "parameters": list(model.parameter_names),
        "g": [[float(v) for v in row] for row in g],
        "rank": int(geometry.ranks(g)),
        "flat": geometry.curvature_label(np.zeros(1), stack) == "flat",  # constant g
        "oracle_max_diff": float(np.max(np.abs(g - g_fd))),
    })
    return EXIT_OK


def _parse_sweeps(items):
    sweeps = {}
    for item in items:
        try:
            name, _, rng = item.partition("=")
            lo, hi, count = rng.split(":")
            lo, hi, count = float(lo), float(hi), int(count)
        except ValueError:
            raise ManifestError(
                f"--sweep expects name=min:max:count, got {item!r}") from None
        if name in sweeps:
            raise ManifestError(f"--sweep {name}: swept more than once")
        sweeps[name] = (lo, hi, count)  # GridSpec checks the bounds and count
    return sweeps


def _float_texts(values, fmt) -> list:
    """``list(map(fmt, values.ravel().tolist()))``, with ``fmt`` called once
    per distinct bit pattern: -0.0 and 0.0, or two NaN payloads, are
    formatted apart, and repeated values share one text."""
    values = np.ascontiguousarray(values, dtype=float).ravel()
    _, first, inverse = np.unique(values.view(np.int64), return_index=True,
                                  return_inverse=True)
    texts = np.array(list(map(fmt, values[first].tolist())), dtype=object)
    return texts[inverse].tolist()


def _json_floats(values) -> list:
    """Each float as ``json.dumps`` renders it: repr, unless it is not finite."""
    values = np.asarray(values, dtype=float)
    fmt = float.__repr__ if np.all(np.isfinite(values)) else json.dumps
    return _float_texts(values, fmt)


def _grid_json(doc: dict, points, metrics) -> str:
    """``json.dumps(doc, indent=2) + "\n"`` with doc["nodes"] built from
    points and metrics, without the pure-Python encoder on every node.

    The header and one node come from json.dumps, the node with the slot
    ``%s`` for each value; the nodes are that text repeated and filled with
    the rendered floats in one ``%``.
    """
    # "nodes" is the last key, so the header ends in its placeholder
    head = json.dumps({**doc, "nodes": None}, indent=2).removesuffix("null\n}")
    node = {"point": {p.replace("%", "%%"): "%s" for p in doc["parameters"]},
            "g": np.full(metrics.shape[1:], "%s").tolist()}
    text = json.dumps({"nodes": [node]}, indent=2)  # the node at its depth
    template = text.removeprefix('{\n  "nodes": [\n').removesuffix("\n  ]\n}")
    template = template.replace('"%s"', "%s")
    fields = np.concatenate([points, metrics.reshape(len(metrics), -1)], axis=1)
    nodes = ",\n".join([template] * len(fields)) % tuple(_json_floats(fields))
    return head + "[\n" + nodes + "\n  ]\n}\n"


def cmd_grid(args) -> int:
    model = manifest.load_model(args.manifest)
    sweeps = _parse_sweeps(args.sweep)
    for item in args.at or ():
        if item.partition("=")[0] in sweeps:
            raise ManifestError(f"--at {item}: the parameter is also swept")
    fixed = _parse_at(args.at, model.parameter_names, defaults_zero=True)
    fixed = {p: v for p, v in fixed.items() if p not in sweeps}
    field = geometry.metric_field(model, GridSpec(sweeps, fixed))
    names = list(sweeps)
    parameters = list(model.parameter_names)
    if args.format == "csv":
        upper = np.triu_indices(field.g.shape[-1])
        header = ",".join(names + [f"g_{i + 1}{j + 1}" for i, j in zip(*upper)])
        swept = field.angles[:, [parameters.index(n) for n in names]]
        fields = np.concatenate([swept, field.g[:, upper[0], upper[1]]], axis=1)
        row = ",".join(["%s"] * fields.shape[1]) + "\n"
        text = _float_texts(fields, repr)  # repr keeps nan and inf
        payload = header + "\n" + (row * len(fields)) % tuple(text)
    else:
        payload = _grid_json({
            "name": model.name,
            "gamma": model.gamma,
            "parameters": parameters,
            "sweeps": {n: list(sweeps[n]) for n in names},
            "fixed": fixed,
        }, field.angles, field.g)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def cmd_curvature(args) -> int:
    model = manifest.load_model(args.manifest)
    point = _parse_at(args.at, model.parameter_names, args.defaults_zero)
    section = tuple(args.section.split(","))
    if len(section) != 2 or section[0] == section[1]:  # a usage error here, exit 2
        raise ManifestError(f"--section expects two distinct parameters P,Q, got {args.section!r}")
    # the point and a probe shifted along the section, in one call
    x = model.circuit.angles(point)
    shift = [{section[0]: 0.3, section[1]: -0.2}.get(p, 0.0) for p in model.parameter_names]
    ks, (g, _, _) = geometry.section_curvatures(model, np.stack([x, x + shift]), section)
    if np.isnan(ks[0]):
        raise DegenerateSection(f"section {section} is degenerate at the point")
    cls = geometry.curvature_label(ks[np.isfinite(ks)], g)
    _emit_json({
        "name": model.name,
        "point": {p: point[p] for p in model.parameter_names},
        "section": list(section),
        "gaussian_curvature": float(ks[0]),
        "radius": float(1 / np.sqrt(ks[0])) if cls == "sphere" else None,
        "classification": cls,
    })
    return EXIT_OK


def cmd_verify(args) -> int:
    results = verify.run_checks(only=args.only)
    if not results:
        print(f"no checks match {args.only!r}", file=sys.stderr)
        return EXIT_USAGE
    width = max(len(r.check_id) for r in results)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.check_id:<{width}}  {r.detail}")
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_DOMAIN


def _complex_list(text: str):
    try:
        return tuple(complex(tok) for tok in text.split(","))
    except ValueError:
        raise ManifestError(f"--coeffs: {text!r} is not a list of complex numbers") from None


def cmd_models(args) -> int:
    if args.action == "list":
        for model_id in models.MODEL_IDS:
            print(model_id)
        return EXIT_OK
    if args.model_id not in models.MODEL_IDS:
        raise ManifestError(f"models emit needs a model id from {models.MODEL_IDS}, "
                            f"got {args.model_id!r}")
    params = {k: v for k, v in vars(args).items()
              if k not in ("command", "action", "model_id")}
    spec = {"spin": models.SpinModelSpec, "oscillator": models.OscillatorModelSpec}.get(
        args.model_id, models.TwoSpinModelSpec)
    fields = {f.name for f in dataclasses.fields(spec)}
    for name in params:
        if name not in fields:
            raise ManifestError(f"models emit {args.model_id} has no parameter {name!r}")
    if "m" in params and "coefficients" in params:
        raise ManifestError("models emit spin: give --m or --coeffs, not both")
    if "coefficients" in params:
        params["coefficients"] = _complex_list(params["coefficients"])
    if "gamma" in params:
        manifest.require_gamma(params["gamma"])  # the rule parse_manifest applies
    if args.model_id == "spin" and not {"m", "coefficients"} & params.keys():
        models._half_integer_spin(params.get("s", models.SpinModelSpec.s))  # bad --s: exit 1
        raise ManifestError("spin model needs either m or a coefficient list")
    model = models.build_model(args.model_id, **params)
    sys.stdout.write(manifest.emit(model))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statemetric",
        description="Fubini-Study metrics and curvature of quantum state "
                    "manifolds generated by Lie-algebra circuits.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a manifest's generators and algebra")
    p.add_argument("manifest")

    p = sub.add_parser("metric", help="metric tensor at one parameter point")
    p.add_argument("manifest")
    p.add_argument("--at", action="append", metavar="NAME=VALUE")
    p.add_argument("--defaults-zero", action="store_true",
                   help="treat unbound parameters as 0")

    p = sub.add_parser("grid", help="metric field over a parameter grid")
    p.add_argument("manifest")
    p.add_argument("--sweep", action="append", required=True,
                   metavar="NAME=MIN:MAX:COUNT")
    p.add_argument("--at", action="append", metavar="NAME=VALUE")
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("curvature", help="Gaussian curvature of a 2-parameter section")
    p.add_argument("manifest")
    p.add_argument("--at", action="append", metavar="NAME=VALUE")
    p.add_argument("--defaults-zero", action="store_true")
    p.add_argument("--section", required=True, metavar="P,Q")

    p = sub.add_parser("verify", help="run the built-in verification suite")
    p.add_argument("--only", metavar="SUBSTRING",
                   help="run only checks whose id contains SUBSTRING")

    # an option not given is absent from args; the model specs hold the defaults
    p = sub.add_parser("models", help="list catalog models or emit a manifest",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("action", choices=("list", "emit"))
    p.add_argument("model_id", nargs="?", default=None)
    p.add_argument("--s", type=float)
    p.add_argument("--m", type=float)
    p.add_argument("--coeffs", dest="coefficients",
                   help="comma-separated complex amplitudes, ascending m")
    p.add_argument("--mass", type=float)
    p.add_argument("--omega", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--trunc", dest="truncation", type=int)
    p.add_argument("--eta", type=float)
    p.add_argument("--chi", type=float)
    p.add_argument("--initial")
    p.add_argument("--gamma", type=float)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser.  It holds no command function, so a
    ``cmd_*`` rebound on this module after the first call is the one run."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (ManifestError, MissingParameter, EmptyGrid, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StatemetricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: validate, metric, grid, curvature, verify, models.  Exit codes:
0 success, 1 domain failure (non-Hermitian generators, open algebra,
degenerate section, failed verification), 2 usage or parse failure.
"""

from __future__ import annotations

import argparse
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
    UnknownModel,
)
from .geometry import GridSpec, metric_at

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
    ok = True
    for name, G in zip(rep.names, rep.generators):
        defect = linalg.hermiticity_defect(G)
        status = "ok" if defect <= linalg.HERM_TOL else "FAIL"
        ok = ok and defect <= linalg.HERM_TOL
        print(f"  hermiticity {name}: {defect:.3e} [{status}]")
    closed = rep.closed
    print(f"  closure residual: {rep.closure_residual:.3e} [{'ok' if closed else 'FAIL'}]")
    jac = rep.jacobi_residual()
    jacobi_ok = jac <= rep.jacobi_bound()
    ok = ok and closed and jacobi_ok
    print(f"  jacobi residual: {jac:.3e} [{'ok' if jacobi_ok else 'FAIL'}]")
    print(f"  structure-constant purity |Re c|: {rep.constant_purity():.3e}")
    print(f"  detected kind: {liealg.detect_kind(rep)}")
    return EXIT_OK if ok else EXIT_DOMAIN


def cmd_metric(args) -> int:
    model = manifest.load_model(args.manifest)
    point = _parse_at(args.at, model.parameter_names, args.defaults_zero)
    g = metric_at(model, point)
    g_fd = oracle.fd_metric(model.circuit, point, model.initial_state, model.gamma)
    rank, _ = geometry.rank_analysis(g)
    # constancy probe: three shifted points in one kernel call; each row of
    # shifts follows the order the parameters were bound in
    keys = list(point)
    shifts = np.random.default_rng(0).uniform(-0.5, 0.5, (3, len(keys)))
    probes = (model.circuit.angles(point)
              + shifts[:, [keys.index(p) for p in model.parameter_names]])
    flat = bool(np.all(np.abs(geometry.metric_stack(model, probes) - g.g)
                       <= geometry.CONSTANT_METRIC_TOL))
    _emit_json({
        "name": model.name,
        "point": {p: point[p] for p in model.parameter_names},
        "gamma": model.gamma,
        "parameters": list(model.parameter_names),
        "g": [[float(v) for v in row] for row in g.g],
        "rank": rank,
        "flat": flat,
        "oracle_max_diff": float(np.max(np.abs(g.g - g_fd.g))),
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


def _grid_json(doc: dict, points, metrics) -> str:
    """``json.dumps(doc, indent=2) + "\n"`` with doc["nodes"] built from
    points and metrics, without the pure-Python encoder on every node.

    The header comes from json.dumps; the nodes are one joined row
    template filled with the rendered floats in one ``%``.
    """
    # "nodes" is the last key, so the header ends in its placeholder
    head = json.dumps({**doc, "nodes": None}, indent=2).removesuffix("null\n}")
    point = manifest.json_object([(p.replace("%", "%%"), "%s") for p in doc["parameters"]], 3)
    template = "    " + manifest.json_object(
        [("point", point), ("g", manifest.array_template(metrics.shape[1:], 3))], 2)
    fields = np.concatenate([points, metrics.reshape(len(metrics), -1)], axis=1)
    nodes = ",\n".join([template] * len(fields)) % tuple(manifest.json_floats(fields))
    return head + "[\n" + nodes + "\n  ]\n}\n"


def cmd_grid(args) -> int:
    model = manifest.load_model(args.manifest)
    sweeps = _parse_sweeps(args.sweep)
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
        text = manifest.float_texts(fields, repr)  # repr keeps nan and inf
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
    if len(section) != 2:
        raise ManifestError(f"--section expects two comma-separated parameters, got {args.section!r}")
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
    if not args.model_id:
        raise UnknownModel("models emit requires a model id")
    manifest.require_gamma(args.gamma)  # the rule parse_manifest applies
    if args.model_id == "spin":
        params = {"s": args.s}
        if args.coeffs:
            params["coefficients"] = _complex_list(args.coeffs)
        else:
            params["m"] = args.m
    elif args.model_id == "oscillator":
        params = {"mass": args.mass, "omega": args.omega, "n": args.n,
                  "truncation": args.trunc}
    else:  # a two-spin id, or one build_model refuses
        params = {"eta": args.eta, "chi": args.chi, "initial": args.initial}
    model = models.build_model(args.model_id, gamma=args.gamma, **params)
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
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("metric", help="metric tensor at one parameter point")
    p.add_argument("manifest")
    p.add_argument("--at", action="append", metavar="NAME=VALUE")
    p.add_argument("--defaults-zero", action="store_true",
                   help="treat unbound parameters as 0")
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("grid", help="metric field over a parameter grid")
    p.add_argument("manifest")
    p.add_argument("--sweep", action="append", required=True,
                   metavar="NAME=MIN:MAX:COUNT")
    p.add_argument("--at", action="append", metavar="NAME=VALUE")
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("curvature", help="Gaussian curvature of a 2-parameter section")
    p.add_argument("manifest")
    p.add_argument("--at", action="append", metavar="NAME=VALUE")
    p.add_argument("--defaults-zero", action="store_true")
    p.add_argument("--section", required=True, metavar="P,Q")
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("verify", help="run the built-in verification suite")
    p.add_argument("--only", metavar="SUBSTRING",
                   help="run only checks whose id contains SUBSTRING")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("models", help="list catalog models or emit a manifest")
    p.add_argument("action", choices=("list", "emit"))
    p.add_argument("model_id", nargs="?")
    p.add_argument("--s", type=float, default=0.5)
    p.add_argument("--m", type=float, default=None)
    p.add_argument("--coeffs", help="comma-separated complex amplitudes, ascending m")
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--trunc", type=int, default=64)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--chi", type=float, default=0.0)
    p.add_argument("--initial", default="up_down")
    p.add_argument("--gamma", type=float, default=1.0)
    p.set_defaults(func=cmd_models)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ManifestError, MissingParameter, EmptyGrid, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StatemetricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())

"""Scenario runner CLI.

Subcommands: run, proptest, gram, extend, report.  Scenario files are JSON
with "schema": "conekit/1".  Rational values serialize as "p/q" strings so
that two runs with the same seed produce byte-identical reports (modulo the
wall_time_ms fields).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .cone import Cone, FutureCone, Orthant, PCone, Polyhedral, contains, is_proper
from .errors import ConekitError, ParseError, PreconditionFailed
from .extension import (
    CoordBaseNorm,
    ExtensionProblem,
    WickBaseNorm,
    extended_norm,
    grid_oracle,
)
from .hypnorm import FormInduced, PHyperbolic, polarizability_residual
from .lorentz import LorentzFrame, Signature, classify, gram_from_cone_basis, minkowski_frame
from .numerics import Vector, as_scalar
from .properties import SUITES, PropertyResult, run_suite

SCHEMA = "conekit/1"


# ---------------------------------------------------------------- encoding


def parse_scalar(s) -> Fraction:
    """``numerics.as_scalar`` of a JSON value: a JSON number with a decimal
    point at its binary value.  Anything ``as_scalar`` rejects, a nan or an
    infinity among them, is a ParseError.
    """
    try:
        return as_scalar(s)
    except (TypeError, ValueError, ZeroDivisionError, PreconditionFailed) as e:
        raise ParseError(f"cannot parse scalar {s!r}") from e


def parse_vector(obj) -> Vector:
    if not isinstance(obj, list) or not obj:
        raise ParseError(f"expected a coordinate list, got {obj!r}")
    return Vector([parse_scalar(c) for c in obj])


def _number(value, kind, what: str):
    """kind(value) for kind int or float; a bool, a value without one, a
    float that is not finite and an int with a fractional part are ParseErrors."""
    try:
        x = kind(value)
    except (TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"cannot parse {what} {value!r}") from e
    if isinstance(value, bool) or (kind is float and not math.isfinite(x)) or (isinstance(value, float) and x != value):
        raise ParseError(f"cannot parse {what} {value!r}")
    return x


def _dim(value, what: str, least: int) -> int:
    """A dimension field: an int >= least, else a ParseError."""
    n = _number(value, int, what)
    if n < least:
        raise ParseError(f"{what} must be >= {least}, got {value!r}")
    return n


def _trials(value) -> int | None:
    """A property suite's trial count: None (the suite's default) or an int >= 0."""
    if value is None:
        return None
    n = _number(value, int, "trials")
    if n < 0:
        raise ParseError(f"trials must be >= 0, got {value!r}")
    return n


def _parse_basis(obj) -> list:
    if not isinstance(obj, list):
        raise ParseError(f"expected a list of coordinate lists, got {obj!r}")
    return [parse_vector(b) for b in obj]


def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed JSON in {what}: {e}") from e


def _load_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:  # ValueError: bad JSON or bad UTF-8
        raise ParseError(f"cannot load {what} {path}: {e}") from e


def _field(obj: dict, key: str):
    """A required field of a task: missing, it is a ParseError."""
    try:
        return obj[key]
    except KeyError:
        raise ParseError(f"task missing field {key!r}") from None


def _tasks(doc, what: str) -> list:
    """The task list of a scenario or report: a list of JSON objects."""
    tasks = doc.get("tasks") if isinstance(doc, dict) else None
    if not isinstance(tasks, list) or not all(isinstance(t, dict) for t in tasks):
        raise ParseError(f"{what} needs a list of task objects")
    return tasks


def encode(value):
    """JSON-safe encoding; Fractions become 'p/q' strings."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, Vector):
        return [encode(c) for c in value.coords]
    if isinstance(value, Signature):
        return {
            "kind": value.kind.value,
            "plus": value.plus,
            "minus": value.minus,
            "zero": value.zero,
        }
    if isinstance(value, dict):
        return {k: encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


# ---------------------------------------------------------- scenario specs


def _parse_p(value, what: str):
    """The exponent p of a p-cone or p-norm: "inf" is math.inf, else a scalar >= 1."""
    p = math.inf if value == "inf" else parse_scalar(value)
    if p < 1:
        raise ParseError(f"{what} needs p >= 1, got {value!r}")
    return p


def parse_cone(spec) -> Cone:
    if not isinstance(spec, dict) or "family" not in spec:
        raise ParseError(f"bad cone spec: {spec!r}")
    fam = spec["family"]
    try:
        if fam == "pcone":
            p = _parse_p(spec["p"], "pcone")
            return PCone(p=p, spatial_dim=_dim(spec["spatial_dim"], "spatial_dim", 0))
        if fam == "orthant":
            return Orthant(dim=_dim(spec["dim"], "dim", 1))
        if fam == "polyhedral":
            return Polyhedral([parse_vector(g) for g in spec["generators"]])
        if fam == "future":
            n = _dim(spec["spatial_dim"], "spatial_dim", 0)
            frame = minkowski_frame(n)
            t = parse_vector(spec["t"]) if "t" in spec else frame.t
            return FutureCone(frame.form, t)
    except KeyError as e:
        raise ParseError(f"cone spec missing field {e}") from e
    raise ParseError(f"unknown cone family {fam!r}")


def parse_norm(spec, cone: Cone | None = None):
    if not isinstance(spec, dict) or "family" not in spec:
        raise ParseError(f"bad norm spec: {spec!r}")
    fam = spec["family"]
    try:
        if fam == "p":
            p = _parse_p(spec["p"], "p norm")
            return PHyperbolic(p=p, spatial_dim=_dim(spec["spatial_dim"], "spatial_dim", 0))
        if fam == "form":
            if not isinstance(cone, FutureCone):
                raise ParseError("form-induced norm needs a future cone")
            return FormInduced(cone)
    except KeyError as e:
        raise ParseError(f"norm spec missing field {e}") from e
    raise ParseError(f"unknown norm family {fam!r}")


# -------------------------------------------------------------- task kinds


def _env_seed() -> int | None:
    """The CONEKIT_SEED override; None when it is unset or empty."""
    env = os.environ.get("CONEKIT_SEED")
    try:
        return int(env) if env else None
    except ValueError:
        raise ParseError(f"CONEKIT_SEED must be an integer, got {env!r}") from None


def _task_seed(task, flags) -> int:
    if flags.seed is not None:
        return flags.seed
    env = _env_seed()
    return _number(task.get("seed", 0), int, "seed") if env is None else env


def _encode_suite(res: PropertyResult) -> dict:
    """The {status, metrics, witness} entry of one property-suite run."""
    return {
        "status": "pass" if res.passed else "fail",
        "metrics": encode({"trials": res.trials, **res.metrics}),
        "witness": encode(res.witness),
    }


def _task_norm(task, scenario):
    """The task's norm, else the scenario's.  A form-induced norm is built on
    the task's cone, else the scenario's, parsed only for that family."""
    spec = task.get("norm") or scenario.get("norm")
    cone = None
    if isinstance(spec, dict) and spec.get("family") == "form":
        cone_spec = task.get("cone") or scenario.get("cone")
        cone = None if cone_spec is None else parse_cone(cone_spec)
    return parse_norm(spec, cone)


def run_task(task, scenario, flags) -> dict:
    kind = task.get("kind")
    seed = _task_seed(task, flags)
    if kind in SUITES:
        return _encode_suite(run_suite(kind, trials=_trials(task.get("trials")), seed=seed))
    if kind == "polarizability_check":
        h = _task_norm(task, scenario)
        v = parse_vector(_field(task, "v"))
        w = parse_vector(_field(task, "w"))
        r = polarizability_residual(h, v, w)
        ok = r == 0 if isinstance(r, Fraction) else abs(r) <= flags.tol
        return {
            "status": "pass" if ok else "fail",
            "metrics": encode({"residual": r}),
            "witness": None if ok else encode({"v": v, "w": w, "residual": r}),
        }
    if kind == "signature":
        h = _task_norm(task, scenario)
        basis = _parse_basis(_field(task, "basis"))
        g = gram_from_cone_basis(h, basis)
        sig = classify(g)
        want = task.get("expect", "lorentzian")
        ok = sig.kind.value == want
        return {"status": "pass" if ok else "fail", "metrics": encode({"signature": sig}), "witness": None}
    if kind == "properness":
        cone = parse_cone(task.get("cone") or scenario.get("cone"))
        rep = is_proper(cone)
        want = bool(task.get("expect", True))
        ok = bool(rep) == want
        return {
            "status": "pass" if ok else "fail",
            "metrics": {"proper": bool(rep)},
            "witness": encode(rep.witness),
        }
    if kind == "extend":
        cone_spec = task.get("cone") or scenario.get("cone")
        res = extended_norm(_extension_problem(cone_spec, task.get("base_norm", "wick"), _field(task, "x")))
        out = {"value": res.value, "iterations": res.iterations}
        ok = True
        if "expect" in task:
            want = _number(parse_scalar(task["expect"]), float, "expect")
            tol = _number(task["tol"], float, "tol") if "tol" in task else flags.tol
            ok = abs(res.value - want) <= tol
            out["expect"] = want
        return {"status": "pass" if ok else "fail", "metrics": encode(out), "witness": None}
    if kind == "membership":
        cone = parse_cone(task.get("cone") or scenario.get("cone"))
        x = parse_vector(_field(task, "x"))
        inside = contains(cone, x)
        ok = inside == bool(task.get("expect", True))
        return {"status": "pass" if ok else "fail", "metrics": {"contains": inside}, "witness": None}
    raise ParseError(f"unknown task kind {kind!r}")


def _extension_problem(cone_spec, base_norm: str, x) -> ExtensionProblem:
    """The problem of ``run``'s extend task and of ``extend``."""
    cone = parse_cone(cone_spec)
    return ExtensionProblem(cone, _base_norm(base_norm, cone), parse_vector(x))


def _base_norm(name: str, cone: Cone):
    if name == "wick":
        if not isinstance(cone, FutureCone):
            raise ParseError("wick base norm needs a future cone")
        return WickBaseNorm(LorentzFrame(cone.form, cone.t))
    if name in ("l1", "l2", "linf"):
        return CoordBaseNorm(name)
    raise ParseError(f"unknown base norm {name!r}")


# ------------------------------------------------------------------ runner


def load_scenario(path: str) -> dict:
    data = _load_json(path, "scenario")
    if not isinstance(data, dict) or data.get("schema") != SCHEMA:
        raise ParseError(f'scenario must declare "schema": "{SCHEMA}"')
    _tasks(data, "scenario")
    return data


def run_scenario(path: str, flags) -> tuple[dict, int]:
    scenario = load_scenario(path)
    tasks = []
    any_fail = False
    for task in scenario["tasks"]:
        name = task.get("name") or task.get("kind", "?")
        t0 = time.perf_counter()
        try:
            entry = run_task(task, scenario, flags)
        except ParseError:
            raise
        except ConekitError as e:
            entry = {"status": "error", "metrics": {"error": str(e)}, "witness": None}
        entry["name"] = name
        entry["wall_time_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
        if entry["status"] != "pass":
            any_fail = True
        tasks.append(entry)
    report = {
        "schema": SCHEMA,
        "scenario": scenario.get("name", os.path.basename(path)),
        "version": __version__,
        "seed": flags.seed,
        "tasks": tasks,
    }
    return report, (1 if any_fail else 0)


def report_to_csv(report: dict) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["task", "status", "metric", "wall_time_ms"])
    for t in _tasks(report, "report"):
        metrics = t.get("metrics") or {}
        key = next(iter(metrics), "")
        w.writerow([_field(t, "name"), _field(t, "status"), metrics.get(key, ""), _field(t, "wall_time_ms")])
    return buf.getvalue()


def write_report(report: dict, flags):
    text = json.dumps(report, indent=2, sort_keys=True)
    if flags.out:
        with open(flags.out, "w") as fh:
            fh.write(text + "\n")
    for t in report["tasks"]:
        print(f"{t['name']}: {t['status']}")


# --------------------------------------------------------------------- cli


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="conekit", description="linear cone toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a scenario file")
    runp.add_argument("scenario")
    runp.add_argument("--tol", type=float, default=1e-9)

    prop = sub.add_parser("proptest", help="run property suites")
    prop.add_argument("--suite", choices=sorted(SUITES), default=None)
    prop.add_argument("--trials", type=int, default=None)

    gram = sub.add_parser("gram", help="Gram matrix and signature of a cone basis")
    gram.add_argument("--p", default="2")
    gram.add_argument("--spatial-dim", type=int, required=True)
    gram.add_argument("--basis", required=True, help="JSON list of vectors")

    ext = sub.add_parser("extend", help="extended norm of a target vector")
    ext.add_argument("--cone", required=True, help="JSON cone spec")
    ext.add_argument("--x", required=True, help="JSON coordinate list")
    ext.add_argument("--base-norm", default="wick")
    ext.add_argument("--oracle", action="store_true", help="also run the grid oracle")

    rep = sub.add_parser("report", help="convert a report JSON to CSV")
    rep.add_argument("report_path")

    for sp in (runp, prop):
        sp.add_argument("--seed", type=int, default=None)
    for sp in (runp, prop, rep):
        sp.add_argument("--out", default=None)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            report, code = run_scenario(args.scenario, args)
            write_report(report, args)
            return code
        if args.command == "proptest":
            names = [args.suite] if args.suite else sorted(SUITES)
            seed = _env_seed() if args.seed is None else args.seed
            trials = _trials(args.trials)
            ok = True
            results = []
            for name in names:
                res = run_suite(name, trials=trials, seed=seed)
                ok &= res.passed
                results.append(res)
                print(f"{name}: {'pass' if res.passed else 'fail'} ({res.trials} trials)")
            if args.out:
                payload = {
                    "schema": SCHEMA,
                    "version": __version__,
                    "seed": seed,
                    "tasks": [{"name": r.name, **_encode_suite(r)} for r in results],
                }
                with open(args.out, "w") as fh:
                    json.dump(payload, fh, indent=2, sort_keys=True)
                    fh.write("\n")
            return 0 if ok else 1
        if args.command == "gram":
            h = PHyperbolic(_parse_p(args.p, "--p"), _dim(args.spatial_dim, "--spatial-dim", 0))
            basis = _parse_basis(_parse_json(args.basis, "--basis"))
            g = gram_from_cone_basis(h, basis)
            sig = classify(g)
            out = {
                "gram": encode(g.gram.rows),
                "standard": encode(g.in_standard_coordinates().rows),
                "signature": encode(sig),
            }
            print(json.dumps(out, indent=2, sort_keys=True))
            return 0
        if args.command == "extend":
            cone_spec, x = _parse_json(args.cone, "--cone"), _parse_json(args.x, "--x")
            prob = _extension_problem(cone_spec, args.base_norm, x)
            res = extended_norm(prob)
            out = {"value": res.value, "iterations": res.iterations, "converged": res.converged}
            if args.oracle:
                out["oracle"] = grid_oracle(prob)
            print(json.dumps(encode(out), indent=2, sort_keys=True))
            return 0
        if args.command == "report":
            text = report_to_csv(_load_json(args.report_path, "report"))
            if args.out:
                with open(args.out, "w") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
            return 0
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ConekitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: ``density`` (closed-form density values), ``verify`` (check
suites with machine-readable reports), ``sequence`` (competitor decay tables
as CSV), ``functional`` (structured-triple energies from a JSON file), and
``check-hypotheses`` (sampled structural checks of a density pair).

Matrices are passed row-major comma-separated (e.g. a 3x2 matrix as
``a11,a12,a21,a22,a31,a32``); vectors likewise.  Exit codes: 0 all checks
passed, 1 a check failed, 2 malformed input.  Reports are byte-identical
for identical configuration and seed.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

import numpy as np

from . import densities as dens
from .constructions import SequenceParams, decay_table
from .errors import InputError, SdRelaxError
from .fields import SbvField, _cell_blocks, _field_from_payload, gauss_green_residual
from .functionals import _triple_from_payload, eval_F3dSD, eval_left, eval_right
from .meshes import build_mesh
from .solver import CellProblem, Kind, closed_form, solve

PASS, FAIL, BAD_INPUT = 0, 1, 2


def _parse_vector(text: str | None, size: int, name: str) -> np.ndarray:
    if text is None:
        raise InputError(f"--{name} is required here")
    try:
        v = np.asarray([float(x) for x in text.split(",")], dtype=float)
    except ValueError as exc:
        raise InputError(f"--{name}: expected comma-separated numbers, got {text!r}") from exc
    if v.size != size:
        raise InputError(f"--{name}: expected {size} entries, got {v.size}")
    if not np.all(np.isfinite(v)):
        raise InputError(f"--{name}: entries must be finite, got {text!r}")
    return v


def _parse_matrix(text: str, rows: int, cols: int, name: str) -> np.ndarray:
    return _parse_vector(text, rows * cols, name).reshape(rows, cols)


def _unit(v: np.ndarray, name: str) -> np.ndarray:
    norm = np.linalg.norm(v)
    if norm == 0:
        raise InputError(f"--{name} must be a nonzero direction")
    return v / norm


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _plain(value):
    return value.item() if isinstance(value, (np.bool_, np.floating, np.integer)) else value


def _emit(rows, args, command: str, passed: bool) -> None:
    rows = [{k: _plain(v) for k, v in row.items()} for row in rows]
    if args.format == "json":
        text = json.dumps({"command": command, "passed": bool(passed), "rows": rows}, indent=2)
        text += "\n"
    else:
        buf = io.StringIO()
        if rows:
            keys = list(rows[0].keys())
            buf.write(",".join(keys) + "\n")
            for row in rows:
                buf.write(",".join(_cell(row[k]) for k in keys) + "\n")
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    if not args.quiet and (not args.out or args.format == "json"):
        sys.stdout.write(text)
    elif not args.quiet and args.out:
        sys.stdout.write(f"report written to {args.out}\n")


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def cmd_density(args) -> int:
    kind = args.kind
    if kind == "hpure":
        value = dens.h_pure(
            _parse_vector(args.lam, 3, "lambda"), _unit(_parse_vector(args.nu, 3, "nu"), "nu")
        )
    elif kind == "h3d2d":
        value = dens.h_3d2d(
            _parse_vector(args.lam, 3, "lambda"), _unit(_parse_vector(args.eta, 2, "eta"), "eta")
        )
    elif kind == "psi1bar":
        value = dens.psi1_bar(
            _parse_vector(args.lam, 3, "lambda"), _unit(_parse_vector(args.eta, 2, "eta"), "eta")
        )
    elif kind == "w3d2dsd":
        value = dens.w_3d2dsd(
            _parse_matrix(args.A, 3, 2, "A"), _parse_matrix(args.B, 3, 2, "B")
        )
    elif kind == "w3dsd":
        value = dens.w_3dsd(_parse_matrix(args.A, 3, 3, "A"), _parse_matrix(args.B, 3, 2, "B"))
    elif kind == "w3dsd2d":
        d = _parse_vector(args.d, 3, "d") if args.d else None
        value = dens.w_3dsd2d(
            _parse_matrix(args.A, 3, 2, "A"), _parse_matrix(args.B, 3, 2, "B"), d
        )
    else:
        raise InputError(f"unknown density kind {kind!r}")
    if not args.quiet:
        print(repr(float(value)))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(repr(float(value)) + "\n")
    return PASS


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def _suite_closed_forms(args):
    rng = np.random.default_rng(args.seed)
    rows = []

    worst = 0.0
    for _ in range(args.samples):
        A = rng.uniform(-10, 10, (3, 2))
        B = rng.uniform(-10, 10, (3, 2))
        d = rng.uniform(-10, 10, 3)
        worst = max(worst, abs(dens.w_3d2dsd(A, B) - dens.w_3dsd2d(A, B, d)))
    rows.append({"check": "path-equality-bulk", "passed": worst == 0.0, "margin": worst})

    worst = 0.0
    for _ in range(args.samples):
        A = rng.uniform(-10, 10, (3, 3))
        worst = max(worst, abs(dens.w_3dsd(A, A[:, :2])))
    rows.append({"check": "sd-bulk-vanishes-on-diagonal", "passed": worst == 0.0, "margin": worst})

    worst = -np.inf
    tgrid = np.linspace(-50.0, 50.0, 2001)
    for _ in range(max(1, args.samples // 10)):
        lam = rng.uniform(-10, 10, 3)
        eta = _unit(rng.normal(size=2), "eta")
        closed = dens.psi1_bar(lam, eta)
        sampled = min(abs(lam @ np.array([eta[0], eta[1], t])) for t in tgrid)
        worst = max(worst, closed - sampled)
    rows.append({"check": "psi1-sampled-inf-above-closed", "passed": worst <= 1e-9, "margin": float(worst)})

    worst = 0.0
    for _ in range(args.samples):
        lam = rng.uniform(-10, 10, 3)
        eta = _unit(rng.normal(size=2), "eta")
        t = rng.uniform(0.1, 10.0)
        worst = max(worst, abs(dens.h_3d2d(t * lam, eta) - t * dens.h_3d2d(lam, eta)))
    rows.append({"check": "surface-1-homogeneous", "passed": worst <= 1e-9, "margin": worst})
    return rows


def _suite_gauss_green(args):
    rng = np.random.default_rng(args.seed)
    sizes = [2, 4, 8, 16, 32]
    rows = []
    for i in range(args.samples):
        n = sizes[i % len(sizes)]
        eta = _unit(rng.normal(size=2), "eta")
        mesh = build_mesh(2, n, eta)
        fld = SbvField(
            mesh,
            rng.uniform(-10, 10, (mesh.ncells, 3, 2)),
            rng.uniform(-10, 10, (mesh.ncells, 3)),
        )
        res = float(np.max(np.abs(gauss_green_residual(fld))))
        tol = 1e-10 * (1.0 + fld.scale())
        rows.append({"check": f"gauss-green-n{n}-sample{i}", "passed": res <= tol, "margin": res})
    return rows


def _suite_cell(args):
    rng = np.random.default_rng(args.seed)
    n = 8 if args.n is None else args.n
    directions = [
        np.array([1.0, 0.0]),
        np.array([0.0, 1.0]),
        np.array([1.0, 1.0]) / np.sqrt(2),
        np.array([1.0, -1.0]) / np.sqrt(2),
    ]

    instances = [
        (i, rng.uniform(-5, 5, 3), directions[i % len(directions)])
        for i in range(args.samples)
    ]

    def one(inst):
        i, lam, eta = inst
        problem = CellProblem(kind=Kind.H_3D2D, n=n, lam=lam, orientation=eta)
        result = solve(problem)
        floor = closed_form(problem)
        gap = result.value - floor
        return {
            "check": f"interfacial-cell-{i}",
            "passed": bool(gap >= -1e-9),
            "value": result.value,
            "floor": floor,
            "gap": gap,
        }

    return [one(inst) for inst in instances]


def cmd_verify(args) -> int:
    suites = {
        "closed-forms": _suite_closed_forms,
        "gauss-green": _suite_gauss_green,
        "cell": _suite_cell,
    }
    if args.suite not in suites:
        raise InputError(f"unknown suite {args.suite!r}; choose from {sorted(suites)}")
    if args.samples < 1:
        raise InputError("samples must be >= 1")
    if args.n is not None and args.n < 1:
        raise InputError(f"refinement --n must be >= 1, got {args.n}")
    rows = suites[args.suite](args)
    passed = all(r["passed"] for r in rows)
    _emit(rows, args, f"verify:{args.suite}", passed)
    return PASS if passed else FAIL


# ---------------------------------------------------------------------------
# sequence
# ---------------------------------------------------------------------------

def cmd_sequence(args) -> int:
    if args.kind == "gamma1":
        if not (args.lam and args.eta):
            raise InputError("sequence gamma1 needs --lambda and --eta")
        params = SequenceParams(
            kind="GAMMA1_SPLIT",
            n=2,
            lam=_parse_vector(args.lam, 3, "lambda"),
            eta=_unit(_parse_vector(args.eta, 2, "eta"), "eta"),
        )
        density = dens.psi1_pair()
    elif args.kind == "frame-w1":
        if not args.M:
            raise InputError("sequence frame-w1 needs --M")
        params = SequenceParams(kind="FRAME_W1", n=2, M=_parse_matrix(args.M, 3, 2, "M"))
        density = dens.psi1_pair()
    elif args.kind == "staircase":
        if not (args.A and args.B):
            raise InputError("sequence staircase needs --A and --B")
        params = SequenceParams(
            kind="STAIRCASE_TRACE",
            n=2,
            A=_parse_matrix(args.A, 3, 2, "A"),
            B=_parse_matrix(args.B, 3, 2, "B"),
        )
        density = dens.interfacial_normal_pair()
    else:
        raise InputError(f"unknown sequence kind {args.kind!r}")
    try:
        n_list = [int(x) for x in args.n_list.split(",")]
    except ValueError as exc:
        raise InputError(f"--n-list: expected comma-separated integers: {exc}") from exc

    table = decay_table(params, density, n_list)
    rows = [
        {
            "n": r.n,
            "energy": r.energy,
            "bound": r.bound,
            "slope_so_far": r.slope_so_far,
            "note": r.note,
            "passed": r.within_bound,
        }
        for r in table
    ]
    passed = all(r["passed"] for r in rows)
    _emit(rows, args, f"sequence:{args.kind}", passed)
    return PASS if passed else FAIL


# ---------------------------------------------------------------------------
# functional
# ---------------------------------------------------------------------------

def cmd_functional(args) -> int:
    try:
        with open(args.file) as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {args.file}: {exc}") from exc
    try:
        payload = json.loads(text)
        dimension = payload.get("dimension")
    except (json.JSONDecodeError, AttributeError) as exc:
        raise InputError(f"invalid JSON in {args.file}: {exc}") from exc
    if dimension == 3:
        # a cube field plus per-cell "G" blocks: evaluate the 3D functional
        field = _field_from_payload(payload)
        G3 = _cell_blocks(payload["cells"], "G", "3D functional")
        rows = [{"value": eval_F3dSD(field, G3), "passed": True}]
        _emit(rows, args, "functional-3d", True)
        return PASS
    triple = _triple_from_payload(payload)
    left, right = eval_left(triple), eval_right(triple)
    rows = [
        {
            "eval_left": left,
            "eval_right": right,
            "difference": abs(left - right),
            "passed": abs(left - right) == 0.0,
        }
    ]
    _emit(rows, args, "functional", rows[0]["passed"])
    return PASS if rows[0]["passed"] else FAIL


# ---------------------------------------------------------------------------
# check-hypotheses
# ---------------------------------------------------------------------------

def cmd_check_hypotheses(args) -> int:
    density = dens.density_by_name(args.density)
    report = dens.check_hypotheses(density, samples=args.samples, seed=args.seed)
    rows = [
        {
            "hypothesis": e.name,
            "passed": e.passed,
            "margin": e.worst_margin,
            "required": e.name in dens.REQUIRED_HYPOTHESES,
        }
        for e in report.entries
    ]
    _emit(rows, args, "check-hypotheses", report.required_ok)
    return PASS if report.required_ok else FAIL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdrelax",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="write the report to this file")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("density", help="evaluate a closed-form density")
    p.add_argument("--kind", required=True,
                   choices=("hpure", "h3d2d", "psi1bar", "w3d2dsd", "w3dsd", "w3dsd2d"))
    p.add_argument("--lambda", dest="lam", help="jump vector, 3 numbers")
    p.add_argument("--eta", help="2D normal, 2 numbers (normalized)")
    p.add_argument("--nu", help="3D normal, 3 numbers (normalized)")
    p.add_argument("--A", help="matrix, row-major")
    p.add_argument("--B", help="matrix, row-major")
    p.add_argument("--d", help="director, 3 numbers")
    common(p)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=("closed-forms", "cell", "gauss-green"))
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--n", type=int, default=None, help="mesh refinement for solver suites")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sequence", help="competitor decay table (CSV)")
    p.add_argument("--kind", required=True, choices=("gamma1", "frame-w1", "staircase"))
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--eta")
    p.add_argument("--M", help="3x2 matrix, row-major")
    p.add_argument("--A", help="3x2 matrix, row-major")
    p.add_argument("--B", help="3x2 matrix, row-major")
    p.add_argument("--n-list", dest="n_list", required=True, help="e.g. 2,4,8,16")
    common(p)
    p.set_defaults(func=cmd_sequence)

    p = sub.add_parser("functional", help="evaluate a structured-triple file")
    p.add_argument("--file", required=True)
    common(p)
    p.set_defaults(func=cmd_functional)

    p = sub.add_parser("check-hypotheses", help="sampled density hypothesis checks")
    p.add_argument("--density", default="interfacial-normal")
    p.add_argument("--samples", type=int, default=1000)
    common(p)
    p.set_defaults(func=cmd_check_hypotheses)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SdRelaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())

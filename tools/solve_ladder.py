"""Seeded `solve` refinement ladder, timed stage by stage, for two source trees.

    python tools/solve_ladder.py --before PARENT_CHECKOUT --after . --out BENCH_solve.json

For each rung (W_3D2DSD and H_3D2D n = 8..1024, W_3DSD and H_3DSD
n = 2..64) and each tree, fresh single-threaded processes (``REPEAT`` per
unit) import ``sdrelax`` from the tree's ``src/`` and run one problem with
data drawn from ``numpy.random.default_rng(seed)``, timing one of two
units (``UNITS``): ``solve`` alone, and the consumer unit, ``solve`` plus
what a caller reads of the minimizer: ``boundary_trace_gap`` against the
datum, the field file written (``field_to_json``) and ``result_to_json``
naming it.  Above ``FIELD_FILE_MAX_CELLS`` cells the field file is not
written (its text alone takes about 2 GB of memory to format at 1M
cells), and the consumer unit reads the dense offsets in its place.
Timing ``solve`` alone would credit a change that moves work into a
consumer; the consumer unit shows whether it did.  The trees alternate
within each repeat, and the tree that goes first alternates between
repeats.  The solve child times the stages by wrapping the functions that
``solve`` looks up in ``sdrelax.solver`` (``STAGES``): mesh (``_mesh_for``),
boundary piece table (``boundary_pieces``), term assembly (the chain table
of all axes, ``_chain_table``), the chain program outside the DP
(``_solve_chains``: candidates and per-row costs), the min-plus DP itself
(``_chain_dp``), the objective pass at the minimizer
(``_chain_objective``: ``value`` and, in trees that score ``value_exact``
there, the exact energy) and the generic re-evaluation (``surface_energy``,
which trees that score ``value_exact`` in the objective pass call only for
the closed-form psi1 kinds).  The wrappers pass every argument through, so
they time trees whatever the functions' signatures.  Stage times are
exclusive: a wrapped call nested in another counts only in its own stage,
so the DP counts in ``chain_dp_s`` and not in ``chains_s``, an objective
pass called inside ``_solve_chains`` counts in ``objective_s``, a piece
table built inside term assembly counts in ``pieces_s``, and one built
inside ``surface_energy`` (not looked up in ``sdrelax.solver``) counts in
``reevaluate_s``.  A stage none of whose functions exist in a tree is
reported as ``null``.  A row gives each time as the median and quartiles
over the repeats: the stages and ``total_s`` of the solve unit and
``consumer_s``, the largest peak RSS (``ru_maxrss`` of the child) of each
unit (``peak_rss_mb``, ``consumer_peak_rss_mb``), whether the field file
was written (``field_file``), the trace gap (``trace_gap``), and the DP's
size, read from the arguments of the ragged ``_chain_dp`` (``active, cand,
h, unary, ...``): its rows (``dp_rows``) and its steps (``dp_steps``),
``null`` in a tree without it.
``--out`` appends one run, with the environment and both trees' git
revisions, to the file's ``runs`` list.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

THREE_D = ("W_3DSD", "H_3DSD")
LADDER = [
    (kind, n)
    for kind in ("W_3D2DSD", "W_3DSD", "H_3D2D", "H_3DSD")
    for n in ((2, 4, 8, 16, 32, 64) if kind in THREE_D else (8, 16, 32, 64, 128, 256, 512, 1024))
]
REPEAT = 5
UNITS = ("solve", "consumer")
FIELD_FILE_MAX_CELLS = 2**18
# stage -> the sdrelax.solver functions timed as that stage
STAGES = {
    "mesh_s": ("_mesh_for",),
    "pieces_s": ("boundary_pieces",),
    "assembly_s": ("_chain_table",),
    "chains_s": ("_solve_chains",),
    "chain_dp_s": ("_chain_dp",),
    "objective_s": ("_chain_objective",),
    "reevaluate_s": ("surface_energy",),
}


def child(kind: str, n: int, seed: int, unit: str) -> dict:
    """Run one rung's ``unit`` in this process and report its times."""
    import numpy as np

    import sdrelax.solver as solver
    from sdrelax.fields import field_to_json

    times = {}
    nested = []  # per active wrapped call: time spent in wrapped calls inside it

    def timed(stage, fn):
        def wrapper(*args, **kwargs):
            nested.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                times[stage] += elapsed - nested.pop()
                if nested:
                    nested[-1] += elapsed

        return wrapper

    for stage, names in STAGES.items():
        present = [name for name in names if hasattr(solver, name)]
        times[stage] = 0.0 if present else None
        for name in present:
            setattr(solver, name, timed(stage, getattr(solver, name)))
    dp_calls = []  # (rows, steps) of every DP
    chain_dp = getattr(solver, "_chain_dp", None)

    def counted(active, cand, h, unary, *args):
        dp_calls.append((len(unary), len(active) - 1))
        return chain_dp(active, cand, h, unary, *args)

    if chain_dp is not None:
        solver._chain_dp = counted
    rng = np.random.default_rng(seed)
    if kind.startswith("H_"):
        eta = rng.normal(size=3 if kind in THREE_D else 2)
        lam = rng.uniform(-5, 5, 3)
        problem = solver.CellProblem(kind=kind, n=n, lam=lam, orientation=eta / np.linalg.norm(eta))
    else:
        A = rng.uniform(-5, 5, (3, 3 if kind == "W_3DSD" else 2))
        B = rng.uniform(-5, 5, (3, 2))
        problem = solver.CellProblem(kind=kind, n=n, A=A, B=B)
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        result = solver.solve(problem)
        if unit == "consumer":
            field = result.minimizer
            datum = solver._datum_for(problem, field.mesh)
            times["trace_gap"] = solver.boundary_trace_gap(field, datum)
            path = os.path.join(tmp, "minimizer.json")
            times["field_file"] = field.mesh.ncells <= FIELD_FILE_MAX_CELLS
            if times["field_file"]:
                with open(path, "w") as fh:
                    fh.write(field_to_json(field))
            else:
                field.offsets  # what the writer reads, without formatting it
            solver.result_to_json(result, minimizer_file=path)
        times["total_s"] = time.perf_counter() - t0
    times["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    times["dp_rows"] = None if chain_dp is None else sum(rows for rows, _ in dp_calls)
    times["dp_steps"] = None if chain_dp is None else sum(steps for _, steps in dp_calls)
    times["value"] = result.value
    times["value_exact"] = result.value_exact
    return times


def run_child(tree: str, kind: str, n: int, seed: int, unit: str) -> dict:
    threads = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), **threads)
    cmd = [sys.executable, os.path.abspath(__file__), "--one", kind, str(n), "--seed", str(seed)]
    cmd += ["--unit", unit]
    out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def revision(tree: str) -> dict:
    def git(*args):
        return subprocess.run(["git", "-C", tree, *args], capture_output=True, text=True).stdout.strip()

    return {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain", "-uno"))}


def environment() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "threads": "OPENBLAS/OMP/MKL_NUM_THREADS=1",
    }


def _spread(values):
    """Median and quartiles of a stage's times, or ``None`` where the stage
    is missing."""
    values = list(values)
    if None in values:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def ladder(before: str, after: str, seed: int) -> list[dict]:
    rows = []
    for kind, n in LADDER:
        runs = {(side, unit): [] for side in ("before", "after") for unit in UNITS}
        for r in range(REPEAT):
            sides = ("before", "after") if r % 2 == 0 else ("after", "before")
            for unit in UNITS:
                for side in sides:
                    tree = before if side == "before" else after
                    runs[side, unit].append(run_child(tree, kind, n, seed, unit))
        row = {"kind": kind, "n": n, "cells": n ** (3 if kind in THREE_D else 2)}
        for side in ("before", "after"):
            samples, consumer = runs[side, "solve"], runs[side, "consumer"]
            stats = {k: _spread(s[k] for s in samples) for k in (*STAGES, "total_s")}
            stats["peak_rss_mb"] = max(s["peak_rss_mb"] for s in samples)
            stats["consumer_s"] = _spread(s["total_s"] for s in consumer)
            stats["consumer_peak_rss_mb"] = max(s["peak_rss_mb"] for s in consumer)
            stats["field_file"] = consumer[0]["field_file"]
            stats["trace_gap"] = consumer[0]["trace_gap"]
            for key in ("dp_rows", "dp_steps", "value", "value_exact"):
                stats[key] = samples[0][key]
            row[side] = stats
        print(json.dumps(row), flush=True)
        rows.append(row)
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--before", help="checkout of the parent commit")
    p.add_argument("--after", help="checkout of the change")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--note", default="", help="what the change does")
    p.add_argument("--out", help="JSON file whose 'runs' list gets this run")
    p.add_argument("--one", nargs=2, metavar=("KIND", "N"), help=argparse.SUPPRESS)
    p.add_argument("--unit", choices=UNITS, default="solve", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.one:
        print(json.dumps(child(args.one[0], int(args.one[1]), args.seed, args.unit)))
        return 0
    if not (args.before and args.after):
        p.error("--before and --after are required")
    run = {
        "note": args.note,
        "seed": args.seed,
        "repeat": REPEAT,
        "env": environment(),
        "before": revision(args.before),
        "after": revision(args.after),
        "rows": ladder(args.before, args.after, args.seed),
    }
    if args.out:
        doc = {"runs": []}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                doc = json.load(fh)
        doc["runs"].append(run)
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

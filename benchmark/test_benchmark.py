"""Tests of the benchmark itself: the independent evaluator, the correctness
checks, the round cut, the traced run and the smoke mode.

Run from the root of the repository:  python -m pytest benchmark -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import harness  # noqa: E402
import sdrelax as sd  # noqa: E402
import sdrelax.energy  # noqa: E402,F401

surface_energy = sys.modules["sdrelax.energy"].surface_energy
NORMAL = sd.interfacial_normal_pair()
PSI1 = sd.psi1_pair()


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmark" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# independent 2D evaluator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("overestimate", [False, True])
def test_independent_energy_matches_surface_energy(n, overestimate):
    rng = np.random.default_rng(100 + n)
    eta = rng.normal(size=2)
    eta /= np.linalg.norm(eta)
    mesh = sd.build_mesh(2, n, eta)
    G = rng.uniform(-5, 5, (mesh.ncells, 3, 2))
    c = rng.uniform(-5, 5, (mesh.ncells, 3))
    field = sd.SbvField(mesh, G, c)
    A, lam = rng.uniform(-5, 5, (3, 2)), rng.uniform(-5, 5, 3)
    cases = [(None, None), (sd.AffineDatum(A), ("affine", A))]
    if n % 2 == 0:
        cases.append((sd.StepDatum(lam, mesh.orientation), ("step", lam)))
    for datum, spec in cases:
        want = surface_energy(field, NORMAL, datum=datum, overestimate=overestimate)
        got = checks.normal_energy_2d(n, eta, G, c, spec, overestimate)
        assert abs(got - want) <= 1e-12 * (1 + abs(want))


def test_independent_energy_sees_cell_order():
    # swapping two cells of a non-symmetric field changes the energy
    rng = np.random.default_rng(7)
    n = 3
    mesh = sd.build_mesh(2, n, np.array([0.6, 0.8]))
    G = rng.uniform(-5, 5, (n * n, 3, 2))
    c = rng.uniform(-5, 5, (n * n, 3))
    c2 = c.copy()
    c2[[1, 3]] = c2[[3, 1]]
    base = checks.normal_energy_2d(n, mesh.orientation, G, c)
    assert base == pytest.approx(surface_energy(sd.SbvField(mesh, G, c), NORMAL), rel=1e-12)
    assert checks.normal_energy_2d(n, mesh.orientation, G, c2) != pytest.approx(base, rel=1e-6)


# ---------------------------------------------------------------------------
# each check accepts the real output and rejects a perturbed one
# ---------------------------------------------------------------------------

def bump(x, rel=1e-6):
    return x + rel * (1.0 + abs(x))


def test_affine_checks_reject_perturbations():
    rng = np.random.default_rng(1)
    A, B = rng.uniform(-5, 5, (3, 2)), rng.uniform(-5, 5, (3, 2))
    r = sd.solve(sd.CellProblem(kind="W_3D2DSD", n=4, A=A, B=B))
    floor = checks.w_3d2dsd(A, B)
    comp = surface_energy(
        sd.build(sd.SequenceParams(kind="STAIRCASE_TRACE", n=4, A=A, B=B)),
        NORMAL,
        datum=sd.AffineDatum(A),
        overestimate=True,
    )
    assert checks.check_affine(r.value, r.value_exact, floor, 5.0, comp) == []
    assert checks.check_affine(floor - 1e-6, floor - 1e-6, floor, 5.0, comp)
    assert checks.check_affine(r.value, bump(r.value), floor, 5.0, comp)
    assert checks.check_affine(bump(comp), r.value_exact, floor, 5.0, comp)
    assert checks.check_affine(math.nan, r.value_exact, floor, 5.0, comp)
    assert checks.check_scaled(1e7 * r.value, r.value, 1e7) == []
    assert checks.check_scaled(bump(1e7 * r.value), r.value, 1e7)


def test_step_checks_reject_perturbations():
    lam, eta = np.array([1.5, -2.0, 0.5]), np.array([0.6, 0.8])
    r = sd.solve(sd.CellProblem(kind="H_3D2D", n=4, lam=lam, orientation=eta))
    gap = sd.boundary_trace_gap(r.minimizer, sd.StepDatum(lam, r.minimizer.mesh.orientation))
    closed = checks.h_3d2d(lam, eta)
    assert closed == pytest.approx(sd.h_3d2d(lam, eta), rel=1e-15)
    assert checks.check_step(r.value, closed, lam, gap) == []
    assert checks.check_step(bump(r.value), closed, lam, gap)
    assert checks.check_step(r.value, closed, lam, 1e-6)


def test_closed_forms_match_the_package():
    rng = np.random.default_rng(2)
    A, B, A3 = rng.uniform(-5, 5, (3, 2)), rng.uniform(-5, 5, (3, 2)), rng.uniform(-5, 5, (3, 3))
    lam, nu = rng.uniform(-5, 5, 3), np.array([0.0, 0.6, 0.8])
    assert checks.w_3d2dsd(A, B) == pytest.approx(sd.w_3d2dsd(A, B), rel=1e-14)
    assert checks.w_3dsd(A3, B) == pytest.approx(sd.w_3dsd(A3, B), rel=1e-14)
    assert checks.h_pure(lam, nu) == pytest.approx(sd.h_pure(lam, nu), rel=1e-14)


def test_evaluate_checks_reject_perturbations():
    rng = np.random.default_rng(3)
    mesh = sd.build_mesh(2, 4, np.array([0.8, -0.6]))
    field = sd.SbvField(mesh, rng.uniform(-5, 5, (16, 3, 2)), rng.uniform(-5, 5, (16, 3)))
    A = rng.uniform(-5, 5, (3, 2))
    datum = sd.AffineDatum(A)
    exact = surface_energy(field, NORMAL, datum=datum)
    over = surface_energy(field, NORMAL, datum=datum, overestimate=True)
    assert checks.check_exact_below_over(exact, over, "x") == []
    assert checks.check_exact_below_over(bump(over), over, "x")

    residual = sd.gauss_green_residual(field)
    assert checks.check_gauss_green(residual, field.scale()) == []
    assert checks.check_gauss_green(residual + 1e-6, field.scale())

    triple = sd.StructuredTriple(
        g=field, G=rng.uniform(-5, 5, (16, 3, 2)), d=rng.uniform(-5, 5, (16, 3))
    )
    left, right = sd.eval_left(triple), sd.eval_right(triple)
    assert checks.check_paths(left, right) == []
    assert checks.check_paths(left, np.nextafter(right, np.inf))

    back = sd.field_from_json(sd.field_to_json(field))
    assert checks.check_round_trip(field.gradients, field.offsets, back.gradients, back.offsets) == []
    off = back.offsets.copy()
    off[5, 1] = np.nextafter(off[5, 1], np.inf)
    assert checks.check_round_trip(field.gradients, field.offsets, back.gradients, off)

    ref = checks.normal_energy_2d(4, mesh.orientation, field.gradients, field.offsets, ("affine", A))
    assert checks.check_independent(exact, ref, "x") == []
    assert checks.check_independent(bump(exact), ref, "x")


def test_decay_checks_reject_perturbations():
    M = np.array([[1.5, -0.5], [0.25, 2.0], [0.0, 0.0]])
    tables = {
        "FRAME_W1": sd.decay_table(sd.SequenceParams(kind="FRAME_W1", n=4, M=M), PSI1, [4, 8, 16]),
        "GAMMA1_SPLIT": sd.decay_table(
            sd.SequenceParams(kind="GAMMA1_SPLIT", n=4, lam=[1.0, 2.0, 0.0], eta=[0.6, 0.8]),
            PSI1,
            [4, 8],
        ),
    }
    assert checks.check_decay(tables) == []
    row = tables["GAMMA1_SPLIT"][0]
    row.energy = bump(row.bound)
    assert checks.check_decay(tables)
    row.energy = 0.0
    tables["FRAME_W1"][-1].slope_so_far = -0.79
    assert checks.check_decay(tables)


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

def test_reference_refuses_a_second_thread():
    stop = threading.Event()
    t = threading.Thread(target=stop.wait, daemon=True)
    t.start()
    try:
        if harness.thread_count() == 1:
            pytest.skip("thread count unavailable")
        with pytest.raises(harness.HarnessError):
            harness.Reference().measure()
    finally:
        stop.set()
        t.join(timeout=5)
    assert not t.is_alive()


def test_round_cut_keeps_the_failed_share():
    shares = []
    for seconds in ("0.3", "2"):
        res = last_json(run_bench("--workload", "solve-affine", "--seed", "5", "--seconds", seconds, "--smoke"))
        assert res["correct"] is True
        assert res["attempted"] % 3 == 0
        shares.append(res["failed"] / res["attempted"])
    assert shares == [1 / 3, 1 / 3]


@pytest.mark.parametrize("workload", ["solve-affine", "solve-step", "evaluate"])
def test_smoke_run_and_traced_run(workload):
    res = last_json(run_bench("--workload", workload, "--seed", "3", "--seconds", "0.2", "--smoke"))
    assert res["correct"] is True
    assert set(res["metrics"]) == {"setup_s", "cells_per_ref", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in res["metrics"].values())

    res = last_json(
        run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--smoke", "--trace", "1")
    )
    assert res["correct"] is True
    m = {k: v["value"] for k, v in res["metrics"].items()}
    fracs = [v for k, v in m.items() if k.endswith(".self_frac")]
    assert sum(fracs) == pytest.approx(1.0, abs=1e-9)
    assert m["harness.self_frac"] < 0.05
    assert m["meshes.cells"] > 0 and m["energy.edges"] > 0
    if workload == "solve-affine":
        assert m["simplexlp.raised"] == 1
    if workload == "evaluate":
        assert m["simplexlp.calls"] == 0 and m["fields.json_bytes"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "evaluate", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout

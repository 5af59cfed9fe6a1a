"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime.  Tolerances are pinned here and match the package contracts."""

import time

import numpy as np
import pytest

from sdrelax.constructions import SequenceParams, build, datum_for, decay_table
from sdrelax.densities import (
    DensityPair,
    check_hypotheses,
    h_3d2d,
    h_pure,
    interfacial_normal_pair,
    psi1_pair,
    w_3d2dsd,
    w_3dsd2d,
)
from sdrelax.energy import surface_energy
from sdrelax.fields import SbvField, gauss_green_residual
from sdrelax.functionals import StructuredTriple, eval_left, eval_right, random_triple
from sdrelax.meshes import build_mesh
from sdrelax.solver import CellProblem, Kind, closed_form, refine_study, solve


class Timer:
    def __init__(self, budget_s: float):
        self.budget = budget_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        return False

    def check(self):
        assert self.elapsed < self.budget, f"runtime {self.elapsed:.2f}s over budget {self.budget}s"


def report(name: str, timer: Timer, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"PASS {name}: {timer.elapsed:.2f}s{suffix}")


def test_criterion_1_path_equality():
    rng = np.random.default_rng(101)
    with Timer(1.0) as t:
        worst = 0.0
        for _ in range(10_000):
            A = rng.uniform(-10, 10, (3, 2))
            B = rng.uniform(-10, 10, (3, 2))
            d = rng.uniform(-10, 10, 3)
            worst = max(worst, abs(w_3d2dsd(A, B) - w_3dsd2d(A, B, d)))
        assert worst == 0.0
    t.check()
    report("criterion-1 path equality", t, "10^4 samples, exact")


def test_criterion_2_gauss_green():
    rng = np.random.default_rng(102)
    sizes = [2, 4, 8, 16, 32]
    with Timer(10.0) as t:
        for i in range(100):
            n = sizes[i % len(sizes)]
            theta = rng.uniform(0.0, 2.0 * np.pi)
            mesh = build_mesh(2, n, np.array([np.cos(theta), np.sin(theta)]))
            fld = SbvField(
                mesh,
                rng.uniform(-10, 10, (mesh.ncells, 3, 2)),
                rng.uniform(-10, 10, (mesh.ncells, 3)),
            )
            residual = float(np.max(np.abs(gauss_green_residual(fld))))
            assert residual <= 1e-10 * (1.0 + fld.scale())
    t.check()
    report("criterion-2 Gauss-Green identity", t, "100 random fields")


def test_criterion_3_interfacial_cell_floor():
    rng = np.random.default_rng(103)
    sqrt2 = np.sqrt(2.0)
    directions = [
        ("axis", np.array([1.0, 0.0])),
        ("axis", np.array([0.0, 1.0])),
        ("diag", np.array([1.0, 1.0]) / sqrt2),
        ("diag", np.array([1.0, -1.0]) / sqrt2),
    ]
    with Timer(60.0) as t:
        for i in range(20):
            tag, eta = directions[i % len(directions)]
            lam = rng.uniform(-5, 5, 3)
            floor = h_3d2d(lam, eta)
            problem = CellProblem(kind=Kind.H_3D2D, n=16, lam=lam, orientation=eta)
            value16 = solve(problem).value
            assert value16 >= floor - 1e-9
            if tag == "axis":
                assert value16 <= floor + 1e-9
            else:
                assert value16 <= 1.05 * floor + 1e-9
            rows = refine_study(
                CellProblem(kind=Kind.H_3D2D, n=2, lam=lam, orientation=eta), [2, 4, 8, 16]
            )
            values = [r.value for r in rows]
            assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
    t.check()
    report("criterion-3 interfacial cell floor", t, "20 instances, n up to 16")


def test_criterion_4_bulk_cell_floor():
    rng = np.random.default_rng(104)
    pair = interfacial_normal_pair()
    with Timer(120.0) as t:
        for _ in range(10):
            A = rng.uniform(-5, 5, (3, 2))
            B = rng.uniform(-5, 5, (3, 2))
            problem = CellProblem(kind=Kind.W_3D2DSD, n=16, A=A, B=B)
            value = solve(problem).value
            floor = closed_form(problem)
            params = SequenceParams(kind="STAIRCASE_TRACE", n=16, A=A, B=B)
            upper = surface_energy(
                build(params), pair, datum=datum_for(params), overestimate=True
            )
            assert floor - 1e-9 <= value <= upper + 1e-9
        A = rng.uniform(-5, 5, (3, 2))
        assert solve(CellProblem(kind=Kind.W_3D2DSD, n=16, A=A, B=A)).value <= 1e-8
    t.check()
    report("criterion-4 bulk cell floor", t, "10 instances at n=16")


def test_criterion_5_3d_surface_density():
    with Timer(30.0) as t:
        for lam in np.eye(3):
            for nu in np.eye(3):
                problem = CellProblem(kind=Kind.H_3DSD, n=2, lam=lam, orientation=nu)
                assert solve(problem).value == pytest.approx(h_pure(lam, nu), abs=1e-9)
    t.check()
    report("criterion-5 3D surface density", t, "9 axis pairs on the n=2 cube")


def test_criterion_6_decay_constructions():
    psi1 = psi1_pair()
    with Timer(10.0) as t:
        lam = np.array([2.0, 1.0, 0.0])
        eta = np.array([1.0, 0.0])
        for n in range(2, 65):
            params = SequenceParams(kind="GAMMA1_SPLIT", n=n, lam=lam, eta=eta)
            value = surface_energy(build(params), psi1, datum=datum_for(params))
            assert value <= np.linalg.norm(lam) / n + 1e-13
        rng = np.random.default_rng(106)
        M = np.vstack([rng.uniform(-3, 3, (2, 2)), np.zeros((1, 2))])
        rows = decay_table(SequenceParams(kind="FRAME_W1", n=4, M=M), psi1, [4, 8, 16, 32])
        assert rows[-1].slope_so_far <= -0.8
        assert all(r.within_bound for r in rows)
    t.check()
    report("criterion-6 decay of explicit sequences", t, "n=2..64 split, frame slope")


def test_criterion_7_hypothesis_suite():
    with Timer(1.0) as t:
        flagship = check_hypotheses(interfacial_normal_pair(), samples=1000, seed=0)
        for name in ("H2", "H3", "H4"):
            entry = flagship.entry(name)
            assert entry.passed and entry.worst_margin <= 1e-9

        shifted = DensityPair(
            bulk=lambda A: 0.0,
            surface=lambda lam, nu: abs(float(np.dot(lam, nu))) + 1.0,
            p=2.0,
        )
        r1 = check_hypotheses(shifted, samples=1000, seed=0)
        e1 = r1.entry("H3")
        assert not e1.passed and e1.witness, "broken 1-homogeneity must carry a witness"
        lam, nu, tt = e1.witness["lam"], e1.witness["nu"], float(e1.witness["t"])
        assert abs(shifted.surface(tt * lam, nu) - tt * shifted.surface(lam, nu)) > 1e-9

        quadratic = DensityPair(
            bulk=lambda A: 0.0,
            surface=lambda lam, nu: float(np.dot(lam, lam)),
            p=2.0,
        )
        r2 = check_hypotheses(quadratic, samples=1000, seed=0)
        e2 = r2.entry("H2")
        assert not e2.passed and e2.witness
        lam, nu = e2.witness["lam"], e2.witness["nu"]
        assert quadratic.surface(lam, nu) > np.linalg.norm(lam) + 1e-9
    t.check()
    report("criterion-7 hypothesis suite", t, "flagship + two broken fixtures")


def test_criterion_8_director_independence():
    rng = np.random.default_rng(108)
    with Timer(30.0) as t:
        base = random_triple(rng, n=4)
        left, right = eval_left(base), eval_right(base)
        for _ in range(100):
            perturbed = StructuredTriple(
                g=base.g, G=base.G, d=rng.uniform(-10, 10, base.d.shape)
            )
            assert eval_left(perturbed) == left
            assert eval_right(perturbed) == right

        A = rng.uniform(-5, 5, (3, 2))
        values = {
            solve(CellProblem(kind=Kind.W_3D2D, n=4, A=A, d=rng.uniform(-10, 10, 3))).value
            for _ in range(5)
        }
        assert len(values) == 1
    t.check()
    report("criterion-8 director independence", t, "100 perturbations + 5 solves")

"""The three benchmark workloads.

Each workload draws one round of inputs at a time from the run's
``numpy.random.default_rng(seed)`` and returns the round's tasks.  Every
round has the same tasks in the same order, so the make-up of the work, and
the share of operations that fail, is the same in every run.

The package is reached only through module attributes (``sd.solve``,
``sdrelax.energy.surface_energy`` ...), which is where the tracer wraps it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

import checks
from harness import Task

import sdrelax as sd
import sdrelax.energy  # noqa: F401  (the package name ``energy`` is a function)
from sdrelax.errors import InfeasibleProblemError

UNIFORM = 5.0
SCALE = 1e7
# The scaled copy in solve-affine uses fixed data, drawn from this seed and
# not from the run's seed: at 1e7 it fails for every instance tried so far
# but not for every random one, and the failed share must not depend on
# the run's seed.
SCALED_DATA_SEED = 2017


def _energy():
    return sys.modules["sdrelax.energy"]


def _unit(rng, dim):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _uniform(rng, shape):
    return rng.uniform(-UNIFORM, UNIFORM, shape)


@dataclass(frozen=True)
class Sizes:
    n2: int
    n3: int
    decay: tuple[int, ...] = ()


class SolveAffine:
    """W_3D2DSD on the axis-aligned square and W_3DSD on the cube with affine
    data, plus a fixed W_3D2DSD instance scaled by 1e7 (a known fault: it
    raises InfeasibleProblemError)."""

    full = Sizes(n2=32, n3=8)
    smoke = Sizes(n2=4, n3=2)

    def __init__(self, sizes: Sizes):
        self.sizes = sizes
        self.normal = sd.interfacial_normal_pair()
        rng = np.random.default_rng(SCALED_DATA_SEED)
        self.fixed_A, self.fixed_B = _uniform(rng, (3, 2)), _uniform(rng, (3, 2))
        self.fixed_value = sd.solve(
            sd.CellProblem(kind="W_3D2DSD", n=sizes.n2, A=self.fixed_A, B=self.fixed_B)
        ).value

    def _competitor(self, A, B) -> float:
        params = sd.SequenceParams(kind="STAIRCASE_TRACE", n=self.sizes.n2, A=A, B=B)
        field = sd.build(params)
        return _energy().surface_energy(
            field, self.normal, datum=sd.AffineDatum(A), overestimate=True
        )

    def make_round(self, rng) -> list[Task]:
        n2, n3 = self.sizes.n2, self.sizes.n3
        A, B = _uniform(rng, (3, 2)), _uniform(rng, (3, 2))
        A3, B3 = _uniform(rng, (3, 3)), _uniform(rng, (3, 2))
        scale2 = float(np.max(np.abs(A)) + np.max(np.abs(B)))
        scale3 = float(np.max(np.abs(A3)) + np.max(np.abs(B3)))
        fA, fB = SCALE * self.fixed_A, SCALE * self.fixed_B

        def check_2d(r):
            return checks.check_affine(
                r.value, r.value_exact, checks.w_3d2dsd(A, B), scale2, self._competitor(A, B)
            )

        def check_3d(r):
            return checks.check_affine(r.value, r.value_exact, checks.w_3dsd(A3, B3), scale3)

        def check_scaled(r):
            return checks.check_scaled(r.value, self.fixed_value, SCALE)

        return [
            Task(
                "W_3D2DSD",
                n2 * n2,
                lambda: sd.solve(sd.CellProblem(kind="W_3D2DSD", n=n2, A=A, B=B)),
                check_2d,
            ),
            Task(
                "W_3DSD",
                n3**3,
                lambda: sd.solve(sd.CellProblem(kind="W_3DSD", n=n3, A=A3, B=B3)),
                check_3d,
            ),
            Task(
                "W_3D2DSD_x1e7",
                n2 * n2,
                lambda: sd.solve(sd.CellProblem(kind="W_3D2DSD", n=n2, A=fA, B=fB)),
                check_scaled,
                expect=InfeasibleProblemError,
            ),
        ]


class SolveStep:
    """H_3D2D on a square rotated to a random eta and H_3DSD on a cube rotated
    to a random nu, each followed by the trace gap of its minimizer."""

    full = Sizes(n2=16, n3=6)
    smoke = Sizes(n2=4, n3=2)

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    @staticmethod
    def _solve_and_gap(kind, n, lam, orientation):
        r = sd.solve(sd.CellProblem(kind=kind, n=n, lam=lam, orientation=orientation))
        mesh = r.minimizer.mesh
        gap = sd.boundary_trace_gap(r.minimizer, sd.StepDatum(lam, mesh.orientation))
        return r, gap

    def make_round(self, rng) -> list[Task]:
        n2, n3 = self.sizes.n2, self.sizes.n3
        eta, lam2 = _unit(rng, 2), _uniform(rng, 3)
        nu, lam3 = _unit(rng, 3), _uniform(rng, 3)

        def check_2d(out):
            r, gap = out
            return checks.check_step(r.value, checks.h_3d2d(lam2, eta), lam2, gap)

        def check_3d(out):
            r, gap = out
            return checks.check_step(r.value, checks.h_pure(lam3, nu), lam3, gap)

        return [
            Task("H_3D2D", n2 * n2, lambda: self._solve_and_gap("H_3D2D", n2, lam2, eta), check_2d),
            Task("H_3DSD", n3**3, lambda: self._solve_and_gap("H_3DSD", n3, lam3, nu), check_3d),
        ]


@dataclass
class Evaluated:
    field: object
    energies: dict
    residual: np.ndarray
    gaps: tuple[float, float]
    back: object
    paths: tuple[float, float] | None


class Evaluate:
    """Dense random SBV fields on rotated 2D and 3D meshes through the energy,
    divergence-theorem, trace-gap, functional and JSON entry points, plus the
    decay tables of the three competitor sequences.  No linear program runs."""

    full = Sizes(n2=32, n3=8, decay=(4, 8, 16, 32, 64))
    smoke = Sizes(n2=4, n3=2, decay=(4, 8))

    def __init__(self, sizes: Sizes):
        self.sizes = sizes
        normal, psi1 = sd.interfacial_normal_pair(), sd.psi1_pair()
        self.normal = normal
        self.densities = {"FRAME_W1": psi1, "GAMMA1_SPLIT": psi1, "STAIRCASE_TRACE": normal}
        # meshes of the competitors depend on n only
        self.decay_cells = sum(
            sd.build(params.with_n(n)).mesh.ncells
            for params in self._decay_params(np.random.default_rng(0)).values()
            for n in sizes.decay
        )

    @staticmethod
    def _decay_params(rng) -> dict:
        M = np.vstack([_uniform(rng, (2, 2)), np.zeros((1, 2))])
        lam = _uniform(rng, 3)
        lam[2] = 0.0
        return {
            "FRAME_W1": sd.SequenceParams(kind="FRAME_W1", n=2, M=M),
            "GAMMA1_SPLIT": sd.SequenceParams(kind="GAMMA1_SPLIT", n=2, lam=lam, eta=_unit(rng, 2)),
            "STAIRCASE_TRACE": sd.SequenceParams(
                kind="STAIRCASE_TRACE", n=2, A=_uniform(rng, (3, 2)), B=_uniform(rng, (3, 2))
            ),
        }

    @staticmethod
    def _draw_field(rng, dim, n):
        """Orientation, gradients and offsets of a dense random field."""
        ncells = n**dim
        return _unit(rng, dim), _uniform(rng, (ncells, 3, dim)), _uniform(rng, (ncells, 3))

    def _evaluate(self, dim, n, drawn, A, lam, G=None, d=None) -> Evaluated:
        energy = _energy()
        orientation, gradients, offsets = drawn
        mesh = sd.build_mesh(dim, n, orientation)
        field = sd.SbvField(mesh, gradients, offsets)
        data = {"affine": sd.AffineDatum(A), "step": sd.StepDatum(lam, mesh.orientation)}
        energies = {
            (kind, over): energy.surface_energy(field, self.normal, datum=datum, overestimate=over)
            for kind, datum in data.items()
            for over in (False, True)
        }
        residual = sd.gauss_green_residual(field)
        gaps = (
            sd.boundary_trace_gap(field, data["affine"]),
            sd.boundary_trace_gap(field, data["step"]),
        )
        back = sd.field_from_json(sd.field_to_json(field))
        paths = None
        if G is not None:
            triple = sd.StructuredTriple(g=field, G=G, d=d)
            paths = (sd.eval_left(triple), sd.eval_right(triple))
        return Evaluated(field, energies, residual, gaps, back, paths)

    def _check(self, n, drawn, A, lam, out: Evaluated) -> list[str]:
        field = out.field
        problems = []
        for kind in ("affine", "step"):
            problems += checks.check_exact_below_over(
                out.energies[kind, False], out.energies[kind, True], kind
            )
        problems += checks.check_gauss_green(out.residual, field.scale())
        if not all(np.isfinite(g) and g >= 0 for g in out.gaps):
            problems.append(f"trace gaps {out.gaps!r} are not finite and non-negative")
        problems += checks.check_round_trip(
            field.gradients, field.offsets, out.back.gradients, out.back.offsets
        )
        if out.paths is not None:
            problems += checks.check_paths(*out.paths)
        orientation, gradients, offsets = drawn
        if len(orientation) == 2:
            for kind, datum in (("affine", A), ("step", lam)):
                for over in (False, True):
                    ref = checks.normal_energy_2d(
                        n, orientation, gradients, offsets, (kind, datum), over
                    )
                    problems += checks.check_independent(
                        out.energies[kind, over], ref, f"2D {kind} overestimate={over}"
                    )
        return problems

    def make_round(self, rng) -> list[Task]:
        n2, n3 = self.sizes.n2, self.sizes.n3
        f2 = self._draw_field(rng, 2, n2)
        A2, lam2 = _uniform(rng, (3, 2)), _uniform(rng, 3)
        G, d = _uniform(rng, (n2 * n2, 3, 2)), _uniform(rng, (n2 * n2, 3))
        f3 = self._draw_field(rng, 3, n3)
        A3, lam3 = _uniform(rng, (3, 3)), _uniform(rng, 3)
        params = self._decay_params(rng)
        decay = self.sizes.decay

        def run_decay():
            return {
                kind: sd.decay_table(p, self.densities[kind], decay) for kind, p in params.items()
            }

        return [
            Task(
                "fields_2d",
                n2 * n2,
                lambda: self._evaluate(2, n2, f2, A2, lam2, G, d),
                lambda out: self._check(n2, f2, A2, lam2, out),
            ),
            Task(
                "fields_3d",
                n3**3,
                lambda: self._evaluate(3, n3, f3, A3, lam3),
                lambda out: self._check(n3, f3, A3, lam3, out),
            ),
            Task("decay", self.decay_cells, run_decay, lambda out: checks.check_decay(out)),
        ]


WORKLOADS = {"solve-affine": SolveAffine, "solve-step": SolveStep, "evaluate": Evaluate}


def make(name: str, smoke: bool = False):
    cls = WORKLOADS[name]
    return cls(cls.smoke if smoke else cls.full)

"""Relaxed energy densities and the runtime hypothesis checker.

Closed forms implemented here:

* ``h_pure``       -- interfacial cost of the normal jump component, |lam . nu|
* ``h_3d2d``       -- reduced interfacial density |lam . eta~| with
                      eta~ = (eta, 0) the in-plane embedding of a 2D normal
* ``w_3d2dsd``     -- doubly relaxed bulk density |A11 + A22 - B11 - B22|
* ``w_3dsd``       -- disarrangement bulk density |tr(A - (B|A e3))|
* ``w_3dsd2d``     -- reduced disarrangement bulk density |tr(A^ - B^)|,
                      independent of the director
* ``psi1_bar``     -- normal-component cost with the out-of-plane normal slot
                      minimized out: |lam . eta~| if lam3 == 0, else 0

General density pairs are plain callables plus declared growth data; the
checker samples the structural hypotheses (coercivity/growth of the bulk,
two-sided linear bounds, 1-homogeneity, and subadditivity of the surface
part) and reports concrete witnesses for any violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InputError
from .meshes import UNIT_TOL


def _check_unit(v: np.ndarray, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if not abs(np.linalg.norm(v) - 1.0) <= UNIT_TOL:  # NaN fails it too
        raise InputError(f"{name} must be a unit vector, |{name}| = {np.linalg.norm(v)!r}")
    return v


def h_pure(lam, nu) -> float:
    """|lam . nu| for a jump vector and a unit normal."""
    nu = _check_unit(nu, "nu")
    return float(abs(np.asarray(lam, dtype=float) @ nu))


def h_3d2d(lam, eta) -> float:
    """|lam . eta~|: only the in-plane jump components against a 2D normal."""
    eta = _check_unit(eta, "eta")
    lam = np.asarray(lam, dtype=float)
    return float(abs(lam[0] * eta[0] + lam[1] * eta[1]))


def w_3d2dsd(A, B) -> float:
    """|A11 + A22 - B11 - B22| for 3x2 (or larger) matrices; rows past the
    second are irrelevant."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    return float(abs(A[0, 0] + A[1, 1] - B[0, 0] - B[1, 1]))


def w_3dsd(A, B3) -> float:
    """|tr A - B3_11 - B3_22 - A_33| for A in R^{3x3} and B3 in R^{3x2};
    grouped so the value is exactly zero when B3 is the first two columns
    of A."""
    A = np.asarray(A, dtype=float)
    B3 = np.asarray(B3, dtype=float)
    return float(abs((A[0, 0] - B3[0, 0]) + (A[1, 1] - B3[1, 1])))


def w_3dsd2d(A, B, d=None) -> float:
    """|A11 + A22 - B11 - B22|; the director argument is accepted and
    ignored (the relaxed density does not depend on it)."""
    return w_3d2dsd(A, B)


def psi1_bar(lam, eta) -> float:
    """inf over t of |lam . (eta, t)|: zero whenever the jump has an
    out-of-plane component, else |lam . eta~|."""
    eta = _check_unit(eta, "eta")
    lam = np.asarray(lam, dtype=float)
    if lam[2] != 0.0:
        return 0.0
    return float(abs(lam[0] * eta[0] + lam[1] * eta[1]))


# ---------------------------------------------------------------------------
# density pairs
# ---------------------------------------------------------------------------

BULK_ZERO = "zero"
BULK_CUSTOM = "custom"
SURFACE_NORMAL = "normal"
SURFACE_PSI1 = "psi1"
SURFACE_CUSTOM = "custom"


@dataclass(frozen=True)
class DensityPair:
    """Bulk density on 3x3 matrices plus surface density on (jump, normal).

    ``p``, ``c_bulk`` and ``c_surf`` are declared constants; they are trusted
    by the solver but re-checked by sampling in :func:`check_hypotheses`.
    ``bulk_form``/``surface_form`` tag the built-in closed forms so the
    solver can pick its exact reformulation.
    """

    bulk: Callable[[np.ndarray], float]
    surface: Callable[[np.ndarray, np.ndarray], float]
    p: float = 2.0
    c_bulk: float = 1.0
    c_surf: float = 1.0
    bulk_form: str = BULK_CUSTOM
    surface_form: str = SURFACE_CUSTOM

    def __post_init__(self):
        for name in ("p", "c_bulk", "c_surf"):
            if not np.isfinite(getattr(self, name)):
                raise InputError(f"'{name}' must be finite, got {getattr(self, name)!r}")
        if self.p <= 1:
            raise InputError(f"growth exponent must exceed 1, got {self.p}")
        if self.c_bulk <= 0 or self.c_surf <= 0:
            raise InputError("declared constants must be positive")


def _zero_bulk(A) -> float:
    return 0.0


def interfacial_normal_pair() -> DensityPair:
    """The built-in pair: zero bulk plus |lam . nu| surface cost."""
    return DensityPair(
        bulk=_zero_bulk,
        surface=h_pure,
        p=2.0,
        c_bulk=1.0,
        c_surf=1.0,
        bulk_form=BULK_ZERO,
        surface_form=SURFACE_NORMAL,
    )


def psi1_pair() -> DensityPair:
    """Zero bulk plus the out-of-plane-relaxed surface cost ``psi1_bar``."""

    def surf(lam, nu):
        planar = np.linalg.norm(nu[:2])
        if planar < UNIT_TOL:
            return 0.0
        return psi1_bar(lam, nu[:2] / planar)

    return DensityPair(
        bulk=_zero_bulk,
        surface=surf,
        p=2.0,
        c_bulk=1.0,
        c_surf=1.0,
        bulk_form=BULK_ZERO,
        surface_form=SURFACE_PSI1,
    )


BUILTIN_DENSITIES = {
    "interfacial-normal": interfacial_normal_pair,
    "zero-bulk": interfacial_normal_pair,
}


def density_by_name(name: str) -> DensityPair:
    try:
        return BUILTIN_DENSITIES[name]()
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise InputError(
            f"unknown density '{name}'; built-ins: {sorted(BUILTIN_DENSITIES)}"
        ) from None


# ---------------------------------------------------------------------------
# hypothesis checking
# ---------------------------------------------------------------------------

@dataclass
class HypothesisEntry:
    name: str
    passed: bool
    worst_margin: float
    witness: dict = field(default_factory=dict)


REQUIRED_HYPOTHESES = ("H2", "H3", "H4")


@dataclass
class HypothesisReport:
    entries: list[HypothesisEntry]
    samples: int
    seed: int

    def entry(self, name: str) -> HypothesisEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    @property
    def required_ok(self) -> bool:
        """True iff the surface hypotheses the solver relies on hold."""
        return all(e.passed for e in self.entries if e.name in REQUIRED_HYPOTHESES)


def _random_unit(rng, dim):
    while True:
        v = rng.normal(size=dim)
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            return v / norm


def check_hypotheses(density: DensityPair, samples: int = 1000, seed: int = 0) -> HypothesisReport:
    """Sampled check of the structural hypotheses on a density pair.

    Required entries: H2 (linear upper bound on the surface cost), H3
    (positive 1-homogeneity), H4 (subadditivity).  Informational entries:
    H1a (bulk coercivity), H1b (bulk Lipschitz-type growth), H2-lower
    (surface coercivity).  The coercivity bounds only power compactness
    arguments, and the flagship purely interfacial pair deliberately fails
    both (zero bulk, zero cost on tangential jumps), so they are reported
    but excluded from ``required_ok``.

    Margins are signed violations (positive = violated), H2-H4's less ``1e-9 (1 + |bound|)``
    (scale-free); each failing entry carries the worst sampled witness, a violation.
    Samples are drawn from [-10, 10] entries; deterministic given the seed.
    """
    if samples < 1:
        raise InputError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    dim = 3
    tol = 1e-9

    def run(name, draw, violation):
        worst = -np.inf
        worst_witness: dict = {}
        for _ in range(samples):
            sample = draw()
            margin = violation(**sample)
            if margin > worst:
                worst = margin
                worst_witness = sample
        return HypothesisEntry(
            name=name,
            passed=bool(worst <= tol),
            worst_margin=float(worst),
            witness={} if worst <= tol else {k: np.asarray(v) for k, v in worst_witness.items()},
        )

    def draw_matrix():
        return {"A": rng.uniform(-10, 10, size=(3, 3))}

    def draw_matrix_pair():
        return {
            "A": rng.uniform(-10, 10, size=(3, 3)),
            "B": rng.uniform(-10, 10, size=(3, 3)),
        }

    def draw_jump():
        return {"lam": rng.uniform(-10, 10, size=dim), "nu": _random_unit(rng, dim)}

    def draw_jump_t():
        s = draw_jump()
        s["t"] = float(rng.uniform(0.1, 10.0))
        return s

    def draw_jump_pair():
        return {
            "lam1": rng.uniform(-10, 10, size=dim),
            "lam2": rng.uniform(-10, 10, size=dim),
            "nu": _random_unit(rng, dim),
        }

    def v_h1a(A):
        fa = np.linalg.norm(A)
        return (fa**density.p) / density.c_bulk - density.bulk(A)

    def v_h1b(A, B):
        lhs = abs(density.bulk(A) - density.bulk(B))
        fa, fb = np.linalg.norm(A), np.linalg.norm(B)
        rhs = density.c_bulk * np.linalg.norm(A - B) * (
            1.0 + fa ** (density.p - 1) + fb ** (density.p - 1)
        )
        return lhs - rhs

    def v_h2(lam, nu):
        bound = density.c_surf * np.linalg.norm(lam)
        return density.surface(lam, nu) - bound - tol * (1.0 + abs(bound))

    def v_h2_lower(lam, nu):
        return np.linalg.norm(lam) / density.c_surf - density.surface(lam, nu)

    def v_h3(lam, nu, t):
        lhs = density.surface(t * lam, nu)
        rhs = t * density.surface(lam, nu)
        return abs(lhs - rhs) - tol * (1.0 + abs(rhs))

    def v_h4(lam1, lam2, nu):
        rhs = density.surface(lam1, nu) + density.surface(lam2, nu)
        return density.surface(lam1 + lam2, nu) - rhs - tol * (1.0 + abs(rhs))

    entries = [
        run("H1a", draw_matrix, v_h1a),
        run("H1b", draw_matrix_pair, v_h1b),
        run("H2", draw_jump, v_h2),
        run("H2-lower", draw_jump, v_h2_lower),
        run("H3", draw_jump_t, v_h3),
        run("H4", draw_jump_pair, v_h4),
    ]
    return HypothesisReport(entries=entries, samples=samples, seed=seed)

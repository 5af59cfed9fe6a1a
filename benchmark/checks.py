"""Correctness checks of the benchmark's outputs.

Every check compares an output against a property of the method or against
a computation made here, outside the package: closed-form densities written
out from their formulas, and an independent vectorised 2D normal-form
energy.  Each check returns a list of problems, empty when the output is
correct.
"""

from __future__ import annotations

import struct

import numpy as np

# value_exact <= value holds in exact arithmetic; in floating point the two
# sums differ in rounding (seen up to ~5e-14 on W_3D2DSD at n = 16 and 32).
REL_TOL = 1e-12
STEP_TOL = 1e-9
TRACE_GAP_TOL = 1e-9
GAUSS_GREEN_TOL = 1e-10
INDEPENDENT_TOL = 1e-9
SCALED_TOL = 1e-9
FRAME_SLOPE_MAX = -0.8


def w_3d2dsd(A, B) -> float:
    """|A11 + A22 - B11 - B22|."""
    return abs(A[0, 0] + A[1, 1] - B[0, 0] - B[1, 1])


def w_3dsd(A, B) -> float:
    """|tr(A - (B | A e3))| = |A11 + A22 - B11 - B22| for A 3x3, B 3x2."""
    return abs(A[0, 0] + A[1, 1] - B[0, 0] - B[1, 1])


def h_3d2d(lam, eta) -> float:
    """|lam . (eta1, eta2, 0)|."""
    return abs(lam[0] * eta[0] + lam[1] * eta[1])


def h_pure(lam, nu) -> float:
    """|lam . nu|."""
    return abs(float(np.dot(lam, nu)))


def _tol(rel: float, *scales: float) -> float:
    return rel * (1.0 + max(abs(s) for s in scales))


# ---------------------------------------------------------------------------
# solve workloads
# ---------------------------------------------------------------------------

def check_affine(value, value_exact, floor, scale, competitor=None) -> list[str]:
    """Affine-datum cell problem: certified floor, exact re-evaluation below
    the objective, and (2D) the minimum below an explicit competitor."""
    problems = []
    if not np.isfinite(value):
        return [f"value {value!r} is not finite"]
    if value < floor - _tol(REL_TOL, floor, scale):
        problems.append(f"value {value!r} below the closed-form floor {floor!r}")
    if value_exact > value + _tol(REL_TOL, value):
        problems.append(f"value_exact {value_exact!r} exceeds value {value!r}")
    if competitor is not None and value > competitor + _tol(REL_TOL, competitor):
        problems.append(f"value {value!r} above the staircase competitor {competitor!r}")
    return problems


def check_scaled(value, base, factor) -> list[str]:
    """1-homogeneity: the scaled problem returns ``factor`` times the base."""
    want = factor * base
    if not abs(value - want) <= _tol(SCALED_TOL, want):
        return [f"scaled value {value!r} is not {factor:g} x {base!r}"]
    return []


def check_step(value, closed, lam, gap) -> list[str]:
    """Step-datum cell problem on an even, datum-aligned mesh: the value is
    the closed form and the returned minimizer attains the datum."""
    problems = []
    if not abs(value - closed) <= STEP_TOL * (1.0 + float(np.linalg.norm(lam))):
        problems.append(f"value {value!r} differs from the closed form {closed!r}")
    if not gap <= TRACE_GAP_TOL:
        problems.append(f"trace gap {gap!r} exceeds {TRACE_GAP_TOL}")
    return problems


# ---------------------------------------------------------------------------
# evaluate workload
# ---------------------------------------------------------------------------

def check_exact_below_over(exact, over, label) -> list[str]:
    if not exact <= over + _tol(REL_TOL, over):
        return [f"{label}: exact energy {exact!r} exceeds the overestimate {over!r}"]
    return []


def check_gauss_green(residual, scale) -> list[str]:
    worst = float(np.max(np.abs(residual)))
    if not worst <= GAUSS_GREEN_TOL * (1.0 + scale):
        return [f"Gauss-Green residual {worst!r} exceeds {GAUSS_GREEN_TOL} x (1 + {scale!r})"]
    return []


def same_bits(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b)


def check_paths(left, right) -> list[str]:
    if not same_bits(left, right):
        return [f"eval_left {left!r} and eval_right {right!r} differ"]
    return []


def check_round_trip(gradients, offsets, back_gradients, back_offsets) -> list[str]:
    if gradients.shape != back_gradients.shape or offsets.shape != back_offsets.shape:
        return ["JSON round trip changed the field's shape"]
    if gradients.tobytes() != back_gradients.tobytes() or offsets.tobytes() != back_offsets.tobytes():
        return ["JSON round trip is not bit-identical"]
    return []


def check_independent(value, reference, label) -> list[str]:
    if not abs(value - reference) <= _tol(INDEPENDENT_TOL, reference):
        return [f"{label}: energy {value!r} differs from the independent evaluator {reference!r}"]
    return []


def check_decay(tables) -> list[str]:
    """Every decay row within its bound; the FRAME_W1 energy decays at
    least like n^-0.8.  ``tables`` maps a sequence kind to its rows."""
    problems = []
    for kind, rows in tables.items():
        for row in rows:
            if not row.energy <= row.bound * (1.0 + REL_TOL) + REL_TOL:
                problems.append(f"{kind} n={row.n}: energy {row.energy!r} above bound {row.bound!r}")
    slope = tables["FRAME_W1"][-1].slope_so_far
    if not slope <= FRAME_SLOPE_MAX:
        problems.append(f"FRAME_W1 slope {slope!r} above {FRAME_SLOPE_MAX}")
    return problems


# ---------------------------------------------------------------------------
# independent 2D normal-form energy
# ---------------------------------------------------------------------------

def _abs_integral(f0, f1, length, overestimate):
    """Exact integral of |f| over a segment for affine f with end values
    f0, f1 (or the trapezoid rule when ``overestimate``)."""
    a0, a1 = np.abs(f0), np.abs(f1)
    trapezoid = 0.5 * length * (a0 + a1)
    if overestimate:
        return trapezoid
    crossing = f0 * f1 < 0
    safe = np.where(crossing, a0 + a1, 1.0)
    return np.where(crossing, 0.5 * length * (f0 * f0 + f1 * f1) / safe, trapezoid)


def normal_energy_2d(n, orientation, gradients, offsets, datum=None, overestimate=False) -> float:
    """Normal-form surface energy of a field on the uniform n x n mesh of the
    unit square centered at the origin, rotated so that mesh axis 0 is
    ``orientation`` and mesh axis 1 its counter-clockwise perpendicular.

    Cells are in C order (axis 1 fastest); cell (i, j) carries
    ``u(x) = G x + c``.  ``datum`` is ``("affine", A)`` (A 3x2) or
    ``("step", lam)`` (lam where ``x . orientation >= 0``, else 0; even n).
    Each edge pays the exact integral of ``|[u] . (nu1, nu2, 0)|``.
    """
    eta = np.asarray(orientation, dtype=float)
    perp = np.array([-eta[1], eta[0]])
    G = np.asarray(gradients, dtype=float).reshape(n, n, 3, 2)
    c = np.asarray(offsets, dtype=float).reshape(n, n, 3)
    b = np.linspace(-0.5, 0.5, n + 1)
    h = 1.0 / n

    def point(s0, s1):
        return s0[..., None] * eta + s1[..., None] * perp

    def u(Gc, cc, x):
        return np.einsum("...ij,...j->...i", Gc, x) + cc

    total = 0.0
    # interior edges across axis 0: cells (i, j) | (i + 1, j) at xi0 = b[i+1]
    s0 = np.broadcast_to(b[1:-1, None], (n - 1, n))
    ends = [point(s0, np.broadcast_to(b[None, k : n + k], (n - 1, n))) for k in (0, 1)]
    f = [(u(G[1:], c[1:], x) - u(G[:-1], c[:-1], x))[..., :2] @ eta for x in ends]
    total += _abs_integral(f[0], f[1], h, overestimate).sum()
    # interior edges across axis 1: cells (i, j) | (i, j + 1) at xi1 = b[j+1]
    s1 = np.broadcast_to(b[None, 1:-1], (n, n - 1))
    ends = [point(np.broadcast_to(b[k : n + k, None], (n, n - 1)), s1) for k in (0, 1)]
    f = [(u(G[:, 1:], c[:, 1:], x) - u(G[:, :-1], c[:, :-1], x))[..., :2] @ perp for x in ends]
    total += _abs_integral(f[0], f[1], h, overestimate).sum()
    if datum is None:
        return float(total)

    kind, data = datum
    data = np.asarray(data, dtype=float)
    if kind == "step" and n % 2:
        raise ValueError("the step datum needs an even n")
    lo_half = np.arange(n) < n // 2
    # (cells, fixed coordinate, moving coordinate ends, normal, step value)
    sides = []
    for side, i in ((-0.5, 0), (0.5, n - 1)):
        ends = [point(np.full(n, side), b[k : n + k]) for k in (0, 1)]
        step = np.full((n, 3), 0.0 if side < 0 else 1.0) * data if kind == "step" else None
        sides.append((G[i], c[i], ends, eta, step))
    for side, j in ((-0.5, 0), (0.5, n - 1)):
        ends = [point(b[k : n + k], np.full(n, side)) for k in (0, 1)]
        step = np.where(lo_half[:, None], 0.0, data) if kind == "step" else None
        sides.append((G[:, j], c[:, j], ends, perp, step))
    for Gs, cs, ends, normal, step in sides:
        f = []
        for x in ends:
            target = x @ data.T if kind == "affine" else step
            f.append((u(Gs, cs, x) - target)[..., :2] @ normal)
        total += _abs_integral(f[0], f[1], h, overestimate).sum()
    return float(total)

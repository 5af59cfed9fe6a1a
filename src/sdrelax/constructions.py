"""Explicit competitor sequences and their energy-decay tables.

Three generators, each realizing an infimizing construction exactly as a
discrete SBV field on a mesh fitted to its geometry:

* ``GAMMA1_SPLIT``  -- the step datum everywhere, shifted by -(1/n) e3 on the
  inner shrunken square where ``x . eta <= 0`` and by +(1/n) e3 where
  ``x . eta >= 0``.  Under the out-of-plane-relaxed integrand only the
  midline segment inside the boundary frame is charged, so the energy decays
  like ``|lam| / n``.

* ``FRAME_W1`` -- the shrunken square is partitioned into ``n`` thin vertical
  rectangles of width ``(n-1)/n^2`` carrying ``M (x - c_k) + ((-1)^k/n^2) e3``;
  the boundary frame carries an anchored staircase ``M (x - p)`` whose
  anchors sit on a spacing-``1/n`` lattice along the outer boundary.  The
  alternating out-of-plane shifts make the rectangle-to-rectangle and
  rectangle-to-frame jumps free for the relaxed integrand, leaving only the
  staircase jump mass, which is O(1/n).

* ``STAIRCASE_TRACE`` -- gradient pinned to ``B`` with offsets ``(A - B)``
  times the cell center: a staircase whose trace tends to ``A x`` and whose
  jump energy tends to ``|A11 - B11| + |A22 - B22|`` as ``n`` grows.

Builders set offsets with array masks over the cell midpoints, doing each
cell's arithmetic as a cell-by-cell loop would (bit-identical fields).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .energy import surface_energy
from .errors import ProblemError
from .fields import AffineDatum, SbvField, StepDatum, embed_planar, zero_datum
from .meshes import UNIT_TOL, Mesh, frame_from_orientation, positive_int


class SequenceKind(str, Enum):
    FRAME_W1 = "FRAME_W1"
    GAMMA1_SPLIT = "GAMMA1_SPLIT"
    STAIRCASE_TRACE = "STAIRCASE_TRACE"


@dataclass
class SequenceParams:
    """Parameters of one competitor; data slots depend on the kind."""

    kind: SequenceKind
    n: int
    M: np.ndarray | None = None
    lam: np.ndarray | None = None
    eta: np.ndarray | None = None
    A: np.ndarray | None = None
    B: np.ndarray | None = None

    def __post_init__(self):
        self.kind = SequenceKind(self.kind)
        self.n = positive_int(self.n, ProblemError, "scale index")
        for name in ("M", "lam", "eta", "A", "B"):
            v = getattr(self, name)
            if v is not None:
                v = np.asarray(v, dtype=float)
                if not np.all(np.isfinite(v)):
                    raise ProblemError(f"parameter '{name}' must be finite")
                setattr(self, name, v)
        if self.kind is SequenceKind.FRAME_W1:
            if self.M is None or self.M.shape != (3, 2):
                raise ProblemError("FRAME_W1 needs a 3x2 gradient matrix M")
            if self.n < 2:
                raise ProblemError("FRAME_W1 needs n >= 2 (the frame is empty otherwise)")
        elif self.kind is SequenceKind.GAMMA1_SPLIT:
            if self.lam is None or self.lam.shape != (3,):
                raise ProblemError("GAMMA1_SPLIT needs a jump vector lam in R^3")
            eta = self.eta
            if eta is None or eta.shape != (2,) or not abs(np.linalg.norm(eta) - 1.0) <= UNIT_TOL:
                raise ProblemError("GAMMA1_SPLIT needs a unit 2-vector eta")
        else:
            if self.A is None or self.B is None:
                raise ProblemError("STAIRCASE_TRACE needs matrices A and B")
            self.A = embed_planar(self.A, "trace")
            self.B = embed_planar(self.B, "trace")

    def with_n(self, n: int) -> "SequenceParams":
        return replace(self, n=n)


def _dedupe(values) -> np.ndarray:
    """Sorted breakpoints without their rounding-level duplicates (gaps <= 1e-12)."""
    values = np.sort(np.asarray(values, dtype=float))
    return values[np.concatenate([[True], np.diff(values) > 1e-12])]


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build(params: SequenceParams) -> SbvField:
    if params.kind is SequenceKind.GAMMA1_SPLIT:
        return _build_gamma1_split(params)
    if params.kind is SequenceKind.FRAME_W1:
        return _build_frame_w1(params)
    return _build_staircase_trace(params)


def _build_gamma1_split(params: SequenceParams) -> SbvField:
    n = params.n
    lam, eta = params.lam, params.eta
    frame = frame_from_orientation(eta)
    a = (n - 1) / (2 * n)
    b0 = _dedupe([-0.5, -a, 0.0, a, 0.5])
    b1 = _dedupe([-0.5, -a, a, 0.5])
    mesh = Mesh([b0, b1], frame=frame, n=n)

    xi1, xi2 = mesh.cell_centers().T
    right = xi1 >= 0
    inner = (np.abs(xi1) < a) & (np.abs(xi2) < a)
    offsets = np.where(right[:, None], lam, 0.0)
    offsets[inner, 2] += np.where(right[inner], 1.0 / n, -1.0 / n)
    return SbvField(mesh, np.zeros((mesh.ncells, 3, 2)), offsets)


def _frame_lattice(t, n: int):
    """Centers of the spacing-1/n lattice cells containing coordinates t."""
    j = np.clip(np.floor((t + 0.5) * n), 0, n - 1)
    return (j + 0.5) / n - 0.5


def _build_frame_w1(params: SequenceParams) -> SbvField:
    n = params.n
    M = params.M
    a = (n - 1) / (2 * n)
    w = (n - 1) / (n * n)
    rect_breaks = [-a + k * w for k in range(n + 1)]
    lattice = [-0.5 + j / n for j in range(1, n)]
    b0 = _dedupe([-0.5, 0.5, a, -a] + rect_breaks + lattice)
    b1 = _dedupe([-0.5, 0.5, a, -a] + lattice)
    mesh = Mesh([b0, b1], n=n)

    cx, cy = mesh.cell_centers().T
    inner = (np.abs(cx) < a) & (np.abs(cy) < a)
    # anchors p: rectangle centers (c_k, 0) inside, lattice points on the frame sides
    k = np.clip(np.floor((cx + a) / w), 0, n - 1).astype(np.intp)
    side = (cx < -a) | (cx > a)
    px = np.where(side, np.sign(cx) / 2, _frame_lattice(cx, n))
    py = np.where(side, _frame_lattice(cy, n), np.where(cy < -a, -0.5, 0.5))
    ck = np.stack([-a + (k + 0.5) * w, np.zeros_like(cx)], axis=1)
    p = np.where(inner[:, None], ck, np.stack([px, py], axis=1))
    # -M @ p as one small matmul per cell (a flat GEMM rounds differently)
    offsets = (np.broadcast_to(-M, (mesh.ncells, 3, 2)) @ p[:, :, None])[..., 0]
    offsets[inner, 2] += (1 - 2 * (k[inner] % 2)) / (n * n)
    return SbvField(mesh, np.broadcast_to(M.copy(), (mesh.ncells, 3, 2)), offsets)


def _build_staircase_trace(params: SequenceParams) -> SbvField:
    n = params.n
    A, B = params.A, params.B
    mesh = Mesh(2, n=n)  # the uniform grid, kept under build_mesh's key
    centers = mesh.cell_centers() @ mesh.frame.T
    offsets = centers @ (A - B).T
    return SbvField(mesh, np.broadcast_to(B.copy(), (mesh.ncells, 3, 2)), offsets)


def datum_for(params: SequenceParams):
    """Boundary datum each construction competes against."""
    if params.kind is SequenceKind.GAMMA1_SPLIT:
        return StepDatum(params.lam, params.eta)
    if params.kind is SequenceKind.FRAME_W1:
        return zero_datum(2)
    return AffineDatum(params.A)


# ---------------------------------------------------------------------------
# decay tables
# ---------------------------------------------------------------------------

@dataclass
class DecayRow:
    n: int
    energy: float
    bound: float
    slope_so_far: float  # NaN until two positive-energy rows exist
    note: str = ""

    @property
    def within_bound(self) -> bool:
        """``energy <= bound`` up to rounding, ``1e-12`` relative to the bound
        (so the check does not depend on the data scale)."""
        return self.energy <= self.bound + 1e-12 * self.bound


def frame_threshold(M: np.ndarray) -> int:
    """Scale beyond which the alternating shifts certify that every
    rectangle-to-rectangle jump carries a nonzero third component.

    Across rectangles the third jump component is ``-w (M^T e3)_1 +- 2/n^2``
    with ``w = (n-1)/n^2``, so once ``(n-1) |M_31| > 2`` the two terms cannot
    cancel; with ``M_31 == 0`` the shift alone keeps it nonzero.
    """
    m1 = abs(float(M[2, 0]))
    if m1 == 0.0:
        return 2
    return int(math.ceil(2.0 / m1)) + 2


def _bound_for(params: SequenceParams) -> float:
    n = params.n
    if params.kind is SequenceKind.GAMMA1_SPLIT:
        return float(np.linalg.norm(params.lam)) / n
    if params.kind is SequenceKind.FRAME_W1:
        return 4.0 * float(np.linalg.norm(params.M)) / n
    D = params.A - params.B
    return abs(D[0, 0]) + abs(D[1, 1]) + (np.abs(D[:2, :2]).sum()) / n


def decay_table(params: SequenceParams, density, n_list) -> list[DecayRow]:
    """Exact energies of the family over ``n_list``, with per-row bounds and
    the running log-log least-squares slope."""
    n_list = [positive_int(n, ProblemError, "scale index") for n in n_list]
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ProblemError("n_list must be strictly increasing")
    rows: list[DecayRow] = []
    log_n, log_e = [], []
    for n in n_list:
        p = params.with_n(n)
        field = build(p)
        val = surface_energy(field, density, datum=datum_for(p))
        note = ""
        if p.kind is SequenceKind.FRAME_W1 and n < frame_threshold(p.M):
            note = "below-threshold"
        slope = float("nan")
        if val > 0:
            log_n.append(math.log(n))
            log_e.append(math.log(val))
            if len(log_n) >= 2:
                slope = float(np.polyfit(log_n, log_e, 1)[0])
        rows.append(DecayRow(n=n, energy=float(val), bound=_bound_for(p), slope_so_far=slope, note=note))
    return rows


__all__ = [
    "SequenceKind",
    "SequenceParams",
    "build",
    "datum_for",
    "decay_table",
    "DecayRow",
    "frame_threshold",
]

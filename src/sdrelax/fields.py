"""Discrete SBV fields: affine per cell with free offsets.

A field stores one read-only gradient matrix (3 x mesh-dim) and offset
vector per cell (a chain solve's minimizer keeps its offsets as runs along
the mesh's chains until they are read, :class:`ChainRuns`); on cell ``T``
it equals ``G_T x + b_T`` in world coordinates.  Jumps live on mesh edges
and are affine along each edge, so every integral used here has an
edge-wise closed form; each field keeps one :class:`JumpTable` of them,
built on first use by per-axis differences of the cell data on the mesh's
``shape`` grid.  Absolute values of affine integrands are integrated
exactly: on segments by splitting at the sign change, on rectangular faces
(every face a mesh has is an axis-aligned rectangle in its own plane) by a
closed form in the face's corner values and area.  Euclidean norms of
affine integrands have a closed form on segments.

Boundary terms are charged against a datum piece by piece.
:func:`boundary_pieces` builds one array table of those pieces from the
mesh's boundary edges (a step datum splits the edges it jumps across), and
the solver's term assembly, :func:`sdrelax.energy.surface_energy` and
:func:`boundary_trace_gap` all read it.  This module also owns the single
16-point Gauss rule used where no closed form applies, and the one writer
of field and triple files (byte-identical to ``json.dumps(indent=2)``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DatumError, FieldError, InputError, ProblemError
from .meshes import UNIT_TOL, Mesh, build_mesh, frame_from_orientation, json_positive_int

# 16-point Gauss-Legendre rule on [0, 1]: nodes and weights (summing to 1).
GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)
GAUSS_NODES, GAUSS_WEIGHTS = 0.5 * (GAUSS_NODES + 1.0), 0.5 * GAUSS_WEIGHTS
JSON_BLOCK_CELLS = 4096  # cells the file writer formats at a time


# ---------------------------------------------------------------------------
# exact integrals of affine integrands over segments and rectangles
# ---------------------------------------------------------------------------

def abs_affine_segment_exact(f0, f1, length):
    """Exact ``\\int |f|`` over a segment for the affine ``f`` with endpoint
    values ``f0``, ``f1``.  Splits at the sign change, no quadrature error.
    Vectorized over numpy arrays."""
    f0 = np.asarray(f0, dtype=float)
    f1 = np.asarray(f1, dtype=float)
    length = np.asarray(length, dtype=float)
    same = f0 * f1 >= 0
    trapezoid = 0.5 * (np.abs(f0) + np.abs(f1)) * length
    denom = np.where(same, 1.0, f0 - f1)
    t = f0 / denom
    split = 0.5 * length * (np.abs(f0) * t + np.abs(f1) * (1.0 - t))
    return np.where(same, trapezoid, split)


def abs_affine_rectangle_exact(f, area):
    """Exact ``\\int |f|`` over rectangles for the affine ``f`` with corner
    values ``f`` (P, 4), in the cyclic order ``(lo, lo), (hi, lo), (hi, hi),
    (lo, hi)`` of the rectangle's own two axes, and ``area`` (P,).

    On a rectangle ``f = m + p u + q v`` with ``u, v`` uniform on [-1, 1]:
    ``m`` is the centre value and ``p``, ``q`` the half-slopes, each read
    from all four corners.  By symmetry take ``m >= 0`` and slopes ``b >= c
    >= 0``; then ``mean |f| = m + 2 E[f^-]``.  As ``m + c v >= -b``, the
    mean of ``f^-`` over ``u`` is ``e(v)^2 / (4 b)`` with ``e(v) = b - m -
    c v`` where ``e > 0``, else 0: one quadratic in ``v`` on the fraction
    ``w = clip(e(-1) / (2 c), 0, 1)`` of [-1, 1], on which Simpson's rule is
    exact.  Every term is a nonnegative sum or product of ``m``, ``b``,
    ``c``, with no division by a slope that can vanish against the others,
    so the result is 1-homogeneous bit for bit under power-of-two scaling.
    """
    f = np.asarray(f, dtype=float)
    f00, f10, f11, f01 = f[:, 0], f[:, 1], f[:, 2], f[:, 3]
    m = np.abs(((f00 + f11) + (f10 + f01)) * 0.25)
    p = np.abs(((f10 - f00) + (f11 - f01)) * 0.25)
    q = np.abs(((f01 - f00) + (f11 - f10)) * 0.25)
    b, c = np.maximum(p, q), np.minimum(p, q)
    d = (b - m) + c  # e(-1), the largest value of f^-
    neg = d > 0.0  # implies b > 0
    w = np.divide(d, 2.0 * c, out=neg.astype(float), where=neg & (d < 2.0 * c))
    cw = c * w
    simpson = d * d + 4.0 * (d - cw) ** 2 + (d - 2.0 * cw) ** 2
    twice_neg = np.divide(w * simpson, 12.0 * b, out=np.zeros_like(d), where=neg)
    return (m + twice_neg) * np.asarray(area, dtype=float)


def abs_affine_integral(f, measure):
    """Exact ``\\int |f|`` over pieces of ``measure`` ``(P,)`` for the affine
    ``f`` with values ``f`` ``(P, corners)`` at their corners: one for a
    constant, a segment's two ends (:func:`abs_affine_segment_exact`) or a
    rectangle's four in cyclic order (:func:`abs_affine_rectangle_exact`).
    """
    f = np.asarray(f, dtype=float)
    if f.shape[1] == 1:  # in place: at large n these rows are most of the mesh
        out = np.abs(f[:, 0])
        out *= measure
        return out
    if f.shape[1] == 2:
        return abs_affine_segment_exact(f[:, 0], f[:, 1], measure)
    return abs_affine_rectangle_exact(f, measure)


def norm_affine_segment_exact(v0, v1, length):
    """Exact ``\\int ||v||`` over a segment for the affine vector ``v``.

    Antiderivative of ``sqrt(a t^2 + b t + c)``; degenerate cases (nearly
    constant vector, vanishing discriminant) handled explicitly.  With
    ``rho = |v1 - v0| / |v0|``, the antiderivative difference cancels to a
    relative error of about ``1e-16 / rho``, while the midpoint value errs
    by at most ``rho^2 / 24``; so segments with ``rho^2 <= 1e-10`` take the
    midpoint, which keeps both errors near 1e-11.  The test is on a ratio,
    so the rule chosen does not depend on the data scale.  Vectorized over
    the leading axes of ``v0``, ``v1`` (vectors on the last axis) and
    ``length``.
    """
    v0 = np.asarray(v0, dtype=float)
    w = np.asarray(v1, dtype=float) - v0
    alpha, start = np.vecdot(w, w), np.vecdot(v0, v0)
    const = alpha <= 1e-10 * start
    alpha = np.where(const, 1.0, alpha)
    h = np.vecdot(v0, w) / alpha
    disc = np.maximum(start / alpha - h * h, 0.0)
    flat = disc < 1e-30
    root = np.sqrt(np.where(flat, 1.0, disc))

    def antiderivative(s):
        r = np.sqrt(s * s + disc)
        return np.where(flat, 0.5 * s * np.abs(s), 0.5 * (s * r + disc * np.arcsinh(s / root)))

    moving = np.sqrt(alpha) * (antiderivative(1.0 + h) - antiderivative(h)) * length
    mid = v0 + 0.5 * w
    return np.where(const, np.sqrt(np.vecdot(mid, mid)) * length, moving)


def flat_matmul(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``a @ m`` for rows ``a`` ``(..., k)`` and one shared ``m`` ``(k, l)`` as
    one 2-D product; numpy's stacked product pays about 100 ns per row."""
    return (a.reshape(-1, a.shape[-1]) @ m).reshape(a.shape[:-1] + m.shape[1:])


def gauss_face_mean(c00, c10, c11, values) -> float:
    """Gauss mean of ``values`` over the parallelogram ``c00 + s (c10 - c00)
    + t (c11 - c00)``, ``s, t`` in [0, 1]; ``values`` maps the (16, 16, k)
    grid of points to a (16, 16) array of integrand values."""
    s = GAUSS_NODES
    grid = c00 + s[:, None, None] * (c10 - c00) + s[None, :, None] * (c11 - c00)
    return float(GAUSS_WEIGHTS @ values(grid) @ GAUSS_WEIGHTS)


# ---------------------------------------------------------------------------
# boundary data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineDatum:
    """Datum ``x -> A x`` in world coordinates; ``A`` is 3 x mesh-dim."""

    matrix: np.ndarray

    def values(self, points_world: np.ndarray) -> np.ndarray:
        return flat_matmul(points_world, np.asarray(self.matrix, dtype=float).T)


@dataclass(frozen=True)
class StepDatum:
    """Step datum: ``lam`` where ``x . orientation >= 0``, else ``0``."""

    lam: np.ndarray
    orientation: np.ndarray

    def values(self, points_world: np.ndarray) -> np.ndarray:
        lam = np.asarray(self.lam, dtype=float)
        s = points_world @ np.asarray(self.orientation, dtype=float)
        return np.where(s[..., None] >= 0, lam, np.zeros(3))

    def check_mesh(self, mesh: Mesh) -> None:
        if np.max(np.abs(mesh.orientation - np.asarray(self.orientation, dtype=float))) > UNIT_TOL:
            raise DatumError("step datum orientation does not match the mesh orientation")


def zero_datum(dim: int) -> AffineDatum:
    return AffineDatum(np.zeros((3, dim)))


def embed_planar(M, what: str) -> np.ndarray:
    """A 3x2 matrix, or a 2x2 one with a zero third row appended; ``what``
    names the data in the error message."""
    M = np.asarray(M, dtype=float)
    if M.shape == (2, 2):
        return np.vstack([M, np.zeros((1, 2))])
    if M.shape == (3, 2):
        return M
    raise ProblemError(f"{what} data must be 2x2 or 3x2, got {M.shape}")


@dataclass(frozen=True)
class BoundaryPieces:
    """The mesh boundary cut into pieces on which the datum is continuous.

    One row per piece, in boundary-edge order.  A step datum splits every
    edge straddling its discontinuity ``xi[0] == 0`` into a lower and an
    upper piece, lower first; other edges are one piece each.  Arrays:
    ``edge``, ``cell``, ``axis`` and ``measure`` are ``(P,)``, ``normal``
    (outward, world) is ``(P, dim)``, ``corners`` (mesh frame) and
    ``points`` (world) are ``(P, corners, dim)``, and ``datum`` holds the
    datum values at the corners, ``(P, corners, 3)``.
    """

    edge: np.ndarray
    cell: np.ndarray
    axis: np.ndarray
    normal: np.ndarray
    measure: np.ndarray
    corners: np.ndarray
    points: np.ndarray
    datum: np.ndarray

    def field_values(self, field: SbvField) -> np.ndarray:
        """Values of ``field`` at the piece corners, ``(P, corners, 3)``;
        where the pieces' gradients are all zero, the offsets themselves."""
        grads, offsets = field.gradients, field.cell_offsets(self.cell)[:, None, :]
        grads = grads[:1] if grads.strides[0] == 0 else grads[self.cell]
        if not grads.any():
            return np.broadcast_to(offsets, self.points.shape[:2] + (3,))
        if len(grads) == 1:  # one broadcast gradient (solve minimizers): one flat product
            return flat_matmul(self.points, grads[0].T) + offsets
        return self.points @ grads.transpose(0, 2, 1) + offsets


def boundary_pieces(mesh: Mesh, datum) -> BoundaryPieces:
    """Boundary piece table of ``mesh`` against ``datum``; every array of it
    is read-only.

    Where no edge is split (every affine datum, and a step datum on a mesh
    whose breakpoints include its discontinuity), the pieces are the mesh's
    boundary edges: ``cell``, ``axis``, ``measure`` and ``corners`` are the
    mesh's own ``bnd_*`` arrays, and only the world points, normals and
    datum values are computed.  Edges are split only if a cell interval of
    ``axis_breaks[0]`` holds 0 strictly inside; every cell interval carries
    boundary edges across axis 0.  The halves of a split edge take its corners
    clipped at ``xi[0] == 0`` and, as measure, the product of their extents
    along the free axes (an unsplit edge's ``bnd_measure`` is that product
    too, bit for bit).

    Step data are constant on each piece, but their pointwise rule
    misassigns the measure-zero corners lying on the discontinuity, so they
    are evaluated at the piece centroid.
    """
    rows = slice(None)  # the piece's boundary edge, as an index of the bnd_* arrays
    corners, measure = mesh.bnd_corners, mesh.bnd_measure
    step = isinstance(datum, StepDatum)
    if step:
        datum.check_mesh(mesh)
        breaks = mesh.axis_breaks[0]
        if np.any((breaks[:-1] < 0.0) & (0.0 < breaks[1:])):  # some cell straddles xi[0] == 0
            xi0 = corners[:, :, 0]
            split = (mesh.bnd_axis != 0) & (xi0.min(axis=1) < 0.0) & (0.0 < xi0.max(axis=1))
            rows = np.repeat(np.arange(len(split)), np.where(split, 2, 1))
            corners, measure = corners[rows], measure[rows]
            upper = np.zeros(len(rows), dtype=bool)
            upper[1:] = rows[1:] == rows[:-1]
            lower = split[rows] & ~upper
            # the halves clip xi[0] of the edge's corners to either side of 0
            corners[lower, :, 0] = np.minimum(corners[lower, :, 0], 0.0)
            corners[upper, :, 0] = np.maximum(corners[upper, :, 0], 0.0)
            halves = lower | upper
            spread = corners[halves].max(axis=1) - corners[halves].min(axis=1)
            spread[np.arange(len(spread)), mesh.bnd_axis[rows][halves]] = 1.0
            measure[halves] = np.prod(spread, axis=1)
    axis = mesh.bnd_axis[rows]
    points = flat_matmul(corners, mesh.frame.T)
    if step:
        values = datum.values(points.mean(axis=1))[:, None, :]
        values = np.broadcast_to(values, points.shape[:2] + (3,))
    else:
        values = datum.values(points)
    pieces = BoundaryPieces(
        edge=np.arange(len(mesh.bnd_axis))[rows],
        cell=mesh.bnd_cell[rows],
        axis=axis,
        normal=mesh.bnd_normals()[rows],
        measure=measure,
        corners=corners,
        points=points,
        datum=values,
    )
    for value in vars(pieces).values():
        value.flags.writeable = False
    return pieces


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JumpTable:
    """Jumps ``u+ - u-`` of a field across its interior edges, computed by
    differences: ``(G+ - G-) x + (c+ - c-)``.

    ``offset`` ``(E, 3)`` holds ``c+ - c-`` for every edge, in edge order;
    where the two gradients agree it is the whole jump, exactly constant
    along the edge.  ``affine`` ``(A,)`` lists the edges whose gradients
    differ and ``values`` ``(A, corners, 3)`` their jumps at their corners,
    in :meth:`Mesh.int_corners` order; no geometry is kept.  The rows of
    ``affine`` come axis by axis, and within an axis in three blocks, each
    in increasing edge order: rows whose jump is zero at every corner, rows
    whose jump is equal at every corner (constant along the edge), and the
    rest.  ``bounds`` ``(3 dim + 1,)`` holds the blocks' row bounds: axis
    ``a``'s blocks are the rows ``bounds[3a : 3a + 4]`` delimit.
    """

    offset: np.ndarray
    affine: np.ndarray
    values: np.ndarray
    bounds: np.ndarray


def _edge_differences(mesh: Mesh, cells: np.ndarray) -> np.ndarray:
    """``cells[plus] - cells[minus]`` of per-cell data on every interior edge:
    per axis, one subtraction of neighbouring slices of the ``shape`` grid."""
    tail, dim, start = cells.shape[1:], mesh.dim, 0
    out, block = np.empty((sum(mesh.int_counts),) + tail), cells.reshape(mesh.shape + tail)
    for a, count in enumerate(mesh.int_counts):
        layout = mesh.shape[:a] + mesh.shape[a + 1 :] + (mesh.shape[a] - 1,) + tail
        order = (*range(a), dim - 1, *range(a, dim - 1), *range(dim, dim + len(tail)))
        edges = out[start : start + count].reshape(layout).transpose(order)  # grid axis order
        every = (slice(None),) * a
        np.subtract(block[every + (slice(1, None),)], block[every + (slice(-1),)], out=edges)
        start += count
    return out


@dataclass(frozen=True)
class ChainRuns:
    """Offsets of a mesh of ``n`` cells per axis as runs along its chains
    (:meth:`Mesh.chains`): the chain solver's minimizer, a value per DP row.

    Block ``b`` gives each cell a value ``v_b`` along the chains of grid axis
    ``axis[b]``; a cell's offset is ``0.0 + v_0 direction[0] + v_1
    direction[1] + ...`` (``direction`` ``(B, 3)``).  The chains of all
    blocks are the rows of one ``(B ncells / n, n)`` layout, covered by the
    runs in flat order: run ``r`` holds ``values[r]`` from its first cell
    ``first[r]`` up to the next run's, and every chain starts one.
    """

    axis: tuple[int, ...]
    direction: np.ndarray
    first: np.ndarray
    values: np.ndarray

    def dense(self, shape) -> np.ndarray:
        """The ``(ncells, 3)`` offsets, summed component by component in a
        contiguous ``(3, ncells)`` buffer and interleaved once at the end.  A
        zero direction component adds a signed zero, which leaves a sum begun
        at +0.0 unchanged, so it is skipped."""
        ncells = math.prod(shape)
        out, term = np.zeros((3,) + shape), np.empty(shape)
        span = np.diff(self.first, append=len(self.axis) * ncells)
        bounds = self.first.searchsorted(np.arange(len(self.axis) + 1) * ncells)
        for b, (a, d) in enumerate(zip(self.axis, self.direction)):
            runs = slice(bounds[b], bounds[b + 1])  # one block's values at a time
            x = np.moveaxis(np.repeat(self.values[runs], span[runs]).reshape(shape), -1, a)
            if np.count_nonzero(d) > 1:  # one strided pass, not one per component
                x = np.ascontiguousarray(x)
            for c in np.flatnonzero(d):
                out[c] += np.multiply(x, d[c], out=term)
        del x, term
        return np.ascontiguousarray(out.reshape(3, ncells).T)

    def at(self, shape, cells) -> np.ndarray:
        """``dense(shape)[cells]``, bit for bit, from the runs of ``cells`` alone."""
        n, blocks = shape[0], np.arange(len(self.axis))[:, None]
        # each cell's chain and position along each block's axis, (B, cells)
        stride = n ** (len(shape) - 1 - np.array(self.axis)[:, None])
        chain = blocks * (math.prod(shape) // n) + cells // (stride * n) * stride + cells % stride
        run = self.first.searchsorted(chain * n + cells // stride % n, side="right") - 1
        out = np.zeros((len(cells), 3))
        for v, d in zip(self.values[run], self.direction):
            out += v[:, None] * d
        return out


def _finite(a: np.ndarray) -> np.ndarray:
    """``a``, checked to be finite; a broadcast view is checked on its
    distinct elements (each zero-stride axis indexed at 0)."""
    if not np.all(np.isfinite(a[tuple(0 if s == 0 else slice(None) for s in a.strides)])):
        raise FieldError("field data must be finite")
    return a


class SbvField:
    """Piecewise-affine field ``u(x) = G_T x + b_T`` with values in R^3.

    The field takes ownership of its ``gradients`` and ``offsets``: float
    arrays are kept without a copy and marked read-only, so its
    :attr:`jump_table` is built once and never goes stale.  A chain solve
    hands over its minimizer's offsets as :class:`ChainRuns`: the dense
    ``offsets`` are then built from them on first read, once, and until
    then :meth:`cell_offsets` gathers the offsets of the cells asked for
    (the boundary pieces' cells) by reading only those cells' runs.
    """

    def __init__(self, mesh: Mesh, gradients, offsets):
        gradients = np.asarray(gradients, dtype=float)
        if gradients.shape != (mesh.ncells, 3, mesh.dim):
            raise FieldError(
                f"gradients must have shape {(mesh.ncells, 3, mesh.dim)}, got {gradients.shape}"
            )
        runs = offsets if isinstance(offsets, ChainRuns) else None
        offsets = np.asarray(offsets, dtype=float) if runs is None else runs.values
        if runs is None and offsets.shape != (mesh.ncells, 3):
            raise FieldError(f"offsets must have shape {(mesh.ncells, 3)}, got {offsets.shape}")
        for a in (gradients, offsets):
            _finite(a).flags.writeable = False
        self.mesh, self._gradients, self._runs = mesh, gradients, runs
        self._offsets = offsets if runs is None else None

    gradients = property(lambda self: self._gradients, doc="``(ncells, 3, dim)``, read-only")

    @property
    def offsets(self) -> np.ndarray:
        """``(ncells, 3)``, read-only; from a solver's runs, built on first read."""
        if self._offsets is None:
            self._offsets = _finite(self._runs.dense(self.mesh.shape))
            self._offsets.flags.writeable = False
        return self._offsets

    def cell_offsets(self, cells) -> np.ndarray:
        """``offsets[cells]``: before the dense offsets are built, gathered
        from the runs with the same additions in the same order from 0.0."""
        if self._offsets is None:
            return _finite(self._runs.at(self.mesh.shape, cells))
        return self._offsets[cells]

    @classmethod
    def affine(cls, mesh: Mesh, matrix, offset=None) -> "SbvField":
        matrix = np.array(matrix, dtype=float)
        offset = np.zeros(3) if offset is None else np.array(offset, dtype=float)
        grads = np.broadcast_to(matrix, (mesh.ncells, 3, mesh.dim))
        return cls(mesh, grads, np.broadcast_to(offset, (mesh.ncells, 3)))

    def scale(self) -> float:
        """Magnitude proxy used in residual tolerances."""
        return float(np.max(np.abs(self.gradients), initial=0.0) + np.max(np.abs(self.offsets), initial=0.0))

    @cached_property
    def jump_table(self) -> JumpTable:
        """The jumps across interior edges, built on first use.  Corners are
        computed and mapped to world coordinates only on edges whose two
        gradients differ, and dropped once their jumps are formed; the rows
        are then sorted into their blocks, once per field."""
        mesh, grads = self.mesh, self.gradients
        offset = _edge_differences(mesh, self.offsets)
        if np.all(grads == grads[0]):  # one gradient: every jump is constant
            slope, affine = np.zeros((0, 3, mesh.dim)), np.zeros(0, dtype=np.intp)
            corners = np.zeros((0, 2 ** (mesh.dim - 1), mesh.dim))
        else:
            slope = _edge_differences(mesh, grads)
            affine = np.flatnonzero(np.any(slope != 0.0, axis=(1, 2)))
            slope, corners = slope[affine], mesh.int_corners(affine)
        values = flat_matmul(corners, mesh.frame.T) @ slope.transpose(0, 2, 1) + offset[affine][:, None, :]
        # block 3 a + k of a row: its axis a, and k = 0 for a zero jump, 1 for
        # a constant one, 2 otherwise (a zero jump is constant too)
        axis = np.searchsorted(np.cumsum(mesh.int_counts), affine, side="right")
        const = np.all(values == values[:, :1], axis=(1, 2))
        zero = ~np.any(values != 0.0, axis=(1, 2))
        block = (3 * axis + 2 - const - zero).astype(np.int8)
        if np.any(block[1:] < block[:-1]):  # a stable sort keeps edge order in a block
            order = np.argsort(block, kind="stable")
            affine, values = affine[order], values[order]
        bounds = np.zeros(3 * mesh.dim + 1, dtype=np.intp)
        np.cumsum(np.bincount(block, minlength=3 * mesh.dim), out=bounds[1:])
        for a in (offset, affine, values, bounds):
            a.flags.writeable = False
        return JumpTable(offset, affine, values, bounds)


def average_gradient(field: SbvField) -> np.ndarray:
    """Measure-weighted sum of the per-cell gradients."""
    return np.einsum("t,tij->ij", field.mesh.cell_measures, field.gradients)


def gauss_green_residual(field: SbvField) -> np.ndarray:
    """Componentwise divergence-theorem residual, one entry per target
    component: jump integral + gradient integral - boundary integral, each
    contracted against the constant world vector (1, .., 1).  Exact for the
    affine-per-cell class; zero for every valid field up to rounding."""
    mesh = field.mesh
    w = np.ones(mesh.dim)
    table = field.jump_table
    # one weight per chain (normal . w times face measure), repeated over its
    # edges; it weighs each edge's offset difference, or an affine row's corner mean
    nchains = [mesh.ncells // m for m in mesh.shape]
    weight = np.repeat(mesh.frame.T @ w, nchains) * mesh.bnd_measure[::2]
    weight = np.repeat(weight, np.repeat(np.subtract(mesh.shape, 1), nchains))
    affine_weight, weight[table.affine] = weight[table.affine], 0.0
    jump_term = weight @ table.offset + np.tensordot(affine_weight, table.values, 1).mean(axis=0)
    bulk_term = np.einsum("t,tij,j->i", mesh.cell_measures, field.gradients, w)
    pieces = boundary_pieces(mesh, zero_datum(mesh.dim))
    bnd_mean = pieces.field_values(field).mean(axis=1)
    bnd_term = ((pieces.normal @ w) * pieces.measure) @ bnd_mean
    return jump_term + bulk_term - bnd_term


def boundary_trace_gap(field: SbvField, datum) -> float:
    """Exact ``\\int ||u - datum||`` over the mesh boundary.

    Step data split each edge at the datum discontinuity, so the mismatch is
    affine on every piece.  Constant pieces (equal corner mismatches, a rule
    free of the data scale; every piece of a step minimizer) give
    ``|m| measure`` in 2D and 3D alike, affine segments the closed-form norm
    integral, and affine 3D faces the 16-point tensor Gauss rule, all at once.
    """
    pieces = boundary_pieces(field.mesh, datum)
    mism = pieces.field_values(field) - pieces.datum
    first = mism[:, 0]
    terms = np.sqrt(np.vecdot(first, first)) * pieces.measure
    affine = np.flatnonzero(np.any(mism != mism[:, :1], axis=(1, 2)))
    if len(affine) and field.mesh.dim == 2:
        terms[affine] = norm_affine_segment_exact(mism[affine, 0], mism[affine, 1], pieces.measure[affine])
    elif len(affine):
        terms[affine] = pieces.measure[affine] * _face_norm_means(mism[affine])
    return float(np.cumsum(terms)[-1])


def _face_norm_means(mism) -> np.ndarray:
    """Gauss means of ``||m||``, ``m = m0 + s (m1 - m0) + t (m3 - m0)``, from the
    corners (F, 4, 3), F > 0.  The points of one ``t`` node are formed
    component by component, ``(3, F, 16)``, into one reused buffer, and
    their norms summed in ``np.linalg.norm``'s order, ``(x0^2 + x1^2) + x2^2``,
    which gives its values bit for bit; no temporary is larger than the
    buffer."""
    m0 = mism[:, 0].T
    ds, dt = mism[:, 1].T - m0, mism[:, 3].T - m0
    line = m0[:, :, None] + GAUSS_NODES * ds[:, :, None]  # (3, F, 16)
    points, norms = np.empty_like(line), np.empty(line.shape[1:])
    sums = np.empty((len(mism), len(GAUSS_NODES)))
    for j, t in enumerate(GAUSS_NODES):
        np.add(line, t * dt[:, :, None], out=points)
        np.multiply(points, points, out=points)
        np.add(points[0], points[1], out=norms)
        norms += points[2]
        sums[:, j] = np.sqrt(norms, out=norms) @ GAUSS_WEIGHTS
    return sums @ GAUSS_WEIGHTS


# ---------------------------------------------------------------------------
# JSON round trip (uniform centered meshes only)
# ---------------------------------------------------------------------------

def _json_template(shape, level: int) -> str:
    """``json.dumps(indent=2)`` layout of a nested list of ``shape`` at
    nesting ``level``, with a ``%s`` slot per number in C order."""
    if not shape:
        return "%s"
    inner = "\n" + "  " * (level + 1)
    item = _json_template(shape[1:], level + 1)
    return "[" + inner + ("," + inner).join([item] * shape[0]) + "\n" + "  " * level + "]"


def _cells_to_json(mesh: Mesh, blocks: dict) -> str:
    """File text of a uniform mesh with per-cell arrays ``blocks`` (name ->
    ``(ncells, ...)``), the bytes of ``json.dumps(payload, indent=2)`` of nested
    lists: templates filled with json's text of each number, a block of cells at a time."""
    slots = {k: _json_template(np.shape(v)[1:], 3) for k, v in blocks.items()}
    cell = "    {\n" + ",\n".join(f'      "{k}": {slot}' for k, slot in slots.items()) + "\n    }"
    head = (
        f'{{\n  "dimension": {mesh.dim},\n  "n": {int(mesh.n)},\n'
        f'  "orientation": {_json_template(mesh.orientation.shape, 1)},\n  "cells": [\n'
    )
    cells = np.concatenate([np.reshape(v, (mesh.ncells, -1)) for v in blocks.values()], axis=1)
    parts = [head % tuple(json.dumps(mesh.orientation.tolist())[1:-1].split(", "))]
    for start in range(0, mesh.ncells, JSON_BLOCK_CELLS):
        block = cells[start : start + JSON_BLOCK_CELLS]
        numbers = json.dumps(block.ravel().tolist())[1:-1].split(", ")
        parts.append((",\n" if start else "") + ",\n".join([cell] * len(block)) % tuple(numbers))
    return "".join(parts + ["\n  ]\n}"])


def field_to_json(field: SbvField) -> str:
    return _cells_to_json(field.mesh, {"gradient": field.gradients, "offset": field.offsets})


def field_from_json(text: str) -> SbvField:
    return _field_from_payload(_load_json(text, "field"))


def _load_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON for {what} file: {exc}") from exc


def _field_from_payload(payload) -> SbvField:
    """Field of a parsed field (or triple) file."""
    try:
        dim = json_positive_int(payload["dimension"], "field file 'dimension'")
        n = json_positive_int(payload["n"], "field file 'n'")
        orientation = np.asarray(payload["orientation"], dtype=float)
        cells = payload["cells"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"field file is missing or has malformed keys: {exc}") from exc
    if not isinstance(cells, list):
        raise InputError(f"field file 'cells' must be a list, got {type(cells).__name__}")
    # count the cells before the grid is built: a short file may claim any n;
    # build_mesh raises its own errors for a bad dimension or orientation
    if dim in (2, 3) and orientation.shape == (dim,) and len(cells) != n**dim:
        frame_from_orientation(orientation)
        raise InputError(f"field file lists {len(cells)} cells but the mesh has {n**dim}")
    mesh = build_mesh(dim, n, orientation)
    grads = _cell_blocks(cells, "gradient", "field")
    offs = _cell_blocks(cells, "offset", "field")
    return SbvField(mesh, grads, offs)


def _cell_blocks(cells: list, key: str, what: str) -> np.ndarray:
    """The ``key`` entries of a file's cell objects, stacked as floats.

    A cell that is not an object, lacks ``key``, or whose entry is not a
    number array of the first cell's shape raises an ``InputError`` that
    names the first such cell.
    """
    try:
        return np.asarray([c[key] for c in cells], dtype=float)
    except (KeyError, TypeError, ValueError):
        pass
    shape = None
    for i, c in enumerate(cells):
        try:
            block = np.asarray(c[key], dtype=float)
        except (KeyError, TypeError, ValueError):
            block = None
        if block is None or (shape is not None and block.shape != shape):
            raise InputError(f"{what} file cell {i} has a missing or malformed '{key}'")
        shape = block.shape
    raise InputError(f"{what} file has malformed '{key}' entries")

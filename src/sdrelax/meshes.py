"""Rectilinear meshes of squares and cubes, optionally rigidly rotated.

A mesh is a tensor product of breakpoint arrays in its own frame; world
coordinates are obtained by applying the rotation ``frame``.  Column 0 of
``frame`` is the orientation vector, so the mesh coordinate ``xi[0]`` of a
point equals its world dot product with the orientation.  Uniform meshes of
the unit square / cube centered at the origin are produced by
:func:`build_mesh`; the competitor generators build non-uniform ones with
:class:`Mesh` directly.

Edges (2D) and faces (3D) are stored as flat numpy arrays (``int_*`` for
interior edges, ``bnd_*`` for boundary edges) so that field operations can
run vectorized over the whole mesh.  They are built by index arithmetic on
the cells' chains (:meth:`Mesh.chains`, the lines of cells along one axis):
axis by axis, chain by chain, a chain's interior edges in axis order and
then its low and its high boundary edge.  The same chains carry the
solver's 1-D programs.  These arrays are the only description of edge
geometry; :func:`sdrelax.fields.boundary_pieces` derives the boundary
pieces from them.

Every array of a mesh is read-only.  The breakpoints, cell and edge tables
live in the mesh frame, so they form a frame-free grid; a :class:`Mesh` is
such a grid plus its own ``frame`` and world-coordinate data.
:func:`build_mesh` keeps the last ``GRID_CACHE_SIZE`` uniform grids of at
most ``GRID_CACHE_MAX_CELLS`` cells, one per ``(dimension, n)``, and each
mesh it returns shares the kept grid's tables; larger grids are built per
call.  A kept grid holds at most about 3 MB in 2D and 7 MB in 3D;
``build_mesh.cache_clear()`` frees them.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .errors import MeshError

UNIT_TOL = 1e-12

# Uniform grids kept by build_mesh, keyed by (dimension, n): at most
# GRID_CACHE_SIZE of them (the CLI gauss-green suite cycles through 5 sizes),
# each of at most GRID_CACHE_MAX_CELLS cells (2D n <= 128, 3D n <= 25).
GRID_CACHE_SIZE = 5
GRID_CACHE_MAX_CELLS = 2**14


def frame_from_orientation(orientation: np.ndarray) -> np.ndarray:
    """Rotation whose first column is ``orientation``.

    The remaining columns are a deterministic orthonormal completion, so two
    sides of the meshed square/cube are perpendicular to the orientation.
    """
    v = np.asarray(orientation, dtype=float)
    if abs(np.linalg.norm(v) - 1.0) > UNIT_TOL:
        raise MeshError(f"orientation must be a unit vector, got |v|={np.linalg.norm(v)!r}")
    if v.shape == (2,):
        return np.column_stack([v, [-v[1], v[0]]])
    if v.shape == (3,):
        k = int(np.argmin(np.abs(v)))
        e = np.zeros(3)
        e[k] = 1.0
        c1 = e - (e @ v) * v
        c1 /= np.linalg.norm(c1)
        c2 = np.cross(v, c1)
        return np.column_stack([v, c1, c2])
    raise MeshError(f"orientation must have 2 or 3 components, got shape {v.shape}")


def _grid(axes) -> np.ndarray:
    """Points of the tensor grid of ``axes``, one row each, in C order."""
    return np.stack([g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")], axis=1)


# Bound (0: lo, 1: hi) taken on each free axis, corner by corner: segment
# endpoints in 2D, rectangle corners in cyclic order in 3D.
_CORNER_BOUNDS = {2: np.array([[0], [1]]), 3: np.array([[0, 0], [1, 0], [1, 1], [0, 1]])}


def _face_corners(axis, value, lo, hi) -> np.ndarray:
    """Mesh-frame corners ``(E, corners, dim)`` of the faces ``xi[axis] ==
    value`` whose free axes, in increasing order, span ``[lo, hi]``."""
    dim = lo.shape[1] + 1
    free = np.where(_CORNER_BOUNDS[dim] == 1, hi[:, None, :], lo[:, None, :])
    corners = np.empty(free.shape[:2] + (dim,))
    corners[..., axis] = value[:, None]
    corners[..., [a for a in range(dim) if a != axis]] = free
    return corners


def _checked_frame(frame, dim: int) -> np.ndarray:
    """A read-only copy of ``frame`` (the identity if ``None``), checked to
    be an orthogonal ``dim x dim`` matrix."""
    frame = np.eye(dim) if frame is None else np.array(frame, dtype=float)
    if frame.shape != (dim, dim) or np.max(np.abs(frame.T @ frame - np.eye(dim))) > 1e-10:
        raise MeshError("frame must be an orthogonal matrix of the mesh dimension")
    frame.flags.writeable = False
    return frame


def _chains(shape, axis: int) -> np.ndarray:
    ids = np.arange(int(np.prod(shape))).reshape(shape)
    return np.moveaxis(ids, axis, -1).reshape(-1, shape[axis])


class _Grid:
    """The frame-free part of a mesh: breakpoints, cell and edge tables, all
    read-only.  A :class:`Mesh` copies these attributes and adds its frame."""

    def __init__(self, axis_breaks, n=None):
        breaks = tuple(np.array(b, dtype=float) for b in axis_breaks)
        dim = len(breaks)
        if dim not in (2, 3):
            raise MeshError(f"dimension must be 2 or 3, got {dim}")
        for b in breaks:
            if b.ndim != 1 or b.size < 2 or np.any(np.diff(b) <= 0):
                raise MeshError("axis breakpoints must be strictly increasing with >= 2 entries")
        self.dim = dim
        self.axis_breaks = breaks
        self.shape = tuple(b.size - 1 for b in breaks)
        self.ncells = int(np.prod(self.shape))
        self.n = n if n is not None else max(self.shape)
        self._build_cells()
        self._build_edges()
        for value in (*breaks, *vars(self).values()):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def _build_cells(self):
        self.cell_lo = _grid([b[:-1] for b in self.axis_breaks])
        self.cell_hi = _grid([b[1:] for b in self.axis_breaks])
        self.cell_measures = np.prod(self.cell_hi - self.cell_lo, axis=1)

    def _build_edges(self):
        """Edge arrays axis by axis, chain by chain: a chain's interior edges
        in axis order, then its low and its high boundary edge."""
        ints, bnds = [], []
        for axis in range(self.dim):
            chains = _chains(self.shape, axis)
            nchains, m = chains.shape
            breaks = self.axis_breaks[axis]
            others = [self.axis_breaks[a] for a in range(self.dim) if a != axis]
            lo, hi = _grid([b[:-1] for b in others]), _grid([b[1:] for b in others])
            measure = np.prod(hi - lo, axis=1)

            def faces(k, values):
                # k faces per chain at the given axis values: axis, measure, corners
                return (
                    np.full(nchains * k, axis),
                    np.repeat(measure, k),
                    _face_corners(
                        axis, np.tile(values, nchains), np.repeat(lo, k, 0), np.repeat(hi, k, 0)
                    ),
                )

            ints.append(
                (chains[:, :-1].reshape(-1), chains[:, 1:].reshape(-1), *faces(m - 1, breaks[1:-1]))
            )
            bnds.append(
                (chains[:, [0, -1]].reshape(-1), np.tile([-1, 1], nchains), *faces(2, breaks[[0, -1]]))
            )
        self.int_minus, self.int_plus, self.int_axis, self.int_measure, self.int_corners = (
            np.concatenate(a) for a in zip(*ints)
        )
        self.bnd_cell, self.bnd_side, self.bnd_axis, self.bnd_measure, self.bnd_corners = (
            np.concatenate(a) for a in zip(*bnds)
        )


class Mesh:
    """Product mesh with cells ``[breaks[a][i], breaks[a][i+1])`` per axis.

    Cells are indexed in C order over the per-axis indices, i.e. the last
    axis varies fastest; this is also the order used in field files.
    Immutable after construction (every array is read-only) and safe to
    share across threads.  ``axis_breaks`` may also be a kept uniform grid
    (from :func:`build_mesh`), whose tables the mesh then shares.
    """

    def __init__(self, axis_breaks, frame=None, n=None):
        grid = axis_breaks if isinstance(axis_breaks, _Grid) else _Grid(axis_breaks, n)
        vars(self).update(vars(grid))
        self.frame = _checked_frame(frame, self.dim)

    def chains(self, axis: int) -> np.ndarray:
        """Cell ids of the chains along ``axis``: one row per chain, cells in
        axis order, rows in C order over the other axes."""
        return _chains(self.shape, axis)

    # -- geometry queries -----------------------------------------------

    @property
    def orientation(self) -> np.ndarray:
        return self.frame[:, 0].copy()

    @cached_property
    def vertices(self) -> np.ndarray:
        """World coordinates of all grid vertices, C order; read-only."""
        vertices = _grid(self.axis_breaks) @ self.frame.T
        vertices.flags.writeable = False
        return vertices

    def to_world(self, xi: np.ndarray) -> np.ndarray:
        return np.asarray(xi, dtype=float) @ self.frame.T

    def int_normals(self) -> np.ndarray:
        """World unit normals of interior edges, pointing minus -> plus."""
        return self.frame.T[self.int_axis]

    def bnd_normals(self) -> np.ndarray:
        """Outward world unit normals of boundary edges."""
        return self.frame.T[self.bnd_axis] * self.bnd_side[:, None]

    def cell_centers_world(self) -> np.ndarray:
        return self.to_world(0.5 * (self.cell_lo + self.cell_hi))

    @property
    def total_measure(self) -> float:
        return float(self.cell_measures.sum())

    def cell_vertex_indices(self, cell: int) -> list[int]:
        """Indices into :attr:`vertices` of the cell's corners (C order)."""
        idx = np.unravel_index(cell, self.shape)
        vshape = tuple(b.size for b in self.axis_breaks)
        corners = []
        for offset in np.ndindex(*(2,) * self.dim):
            corner = tuple(i + o for i, o in zip(idx, offset))
            corners.append(int(np.ravel_multi_index(corner, vshape)))
        return corners


@lru_cache(maxsize=GRID_CACHE_SIZE)
def _uniform_grid(dimension: int, n: int) -> _Grid:
    """The uniform grid of the unit square/cube centered at the origin."""
    return _Grid([np.linspace(-0.5, 0.5, n + 1)] * dimension, n=n)


def build_mesh(dimension: int, n: int, orientation) -> Mesh:
    """Uniform ``n x n`` (or ``n^3``) mesh of the unit square/cube centered at
    the origin, rotated so two sides are perpendicular to ``orientation``.

    Each call returns a new mesh; its cell and edge arrays are shared with
    every other mesh of the same ``(dimension, n)`` while the grid is kept
    (see the module docstring)."""
    if dimension not in (2, 3):
        raise MeshError(f"dimension must be 2 or 3, got {dimension}")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise MeshError(f"refinement must be a positive integer, got {n!r}")
    orientation = np.asarray(orientation, dtype=float)
    if orientation.shape != (dimension,):
        raise MeshError(
            f"orientation shape {orientation.shape} does not match dimension {dimension}"
        )
    frame = frame_from_orientation(orientation)
    n = int(n)
    kept = n**dimension <= GRID_CACHE_MAX_CELLS
    return Mesh((_uniform_grid if kept else _uniform_grid.__wrapped__)(dimension, n), frame)


build_mesh.cache_clear = _uniform_grid.cache_clear

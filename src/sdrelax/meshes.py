"""Rectilinear meshes of squares and cubes, optionally rigidly rotated.

A mesh is a tensor product of breakpoint arrays in its own frame; world
coordinates are obtained by applying the rotation ``frame``.  Column 0 of
``frame`` is the orientation vector, so the mesh coordinate ``xi[0]`` of a
point equals its world dot product with the orientation.  Uniform meshes of
the unit square / cube centered at the origin are produced by
:func:`build_mesh`; the competitor generators build non-uniform ones with
:class:`Mesh` directly.  Cell measures and centers are derived from the
breakpoints on each read.

Edges (2D) and faces (3D) follow the cells' chains (:meth:`Mesh.chains`,
the lines of cells along one axis that also carry the solver's programs):
axis by axis, chain by chain, in axis order.  Boundary edges, a chain's low
and then its high one, are flat ``bnd_*`` arrays, which
:func:`sdrelax.fields.boundary_pieces` cuts into pieces.
Interior edges are implicit in the breakpoints and ``shape``: ``int_counts``
holds their number per axis, :meth:`Mesh.int_edges` the axis and two cells
of any rows, and ``int_axis`` and :meth:`Mesh.int_corners` (of the rows
asked for) are computed on each call; a chain's edges share its face
measure, ``bnd_measure[::2]``.

Every stored array of a mesh is read-only.  The breakpoints and boundary
tables live in the mesh frame, so they form a frame-free grid; a
:class:`Mesh` is such a grid plus its own ``frame``.  The last
``GRID_CACHE_SIZE`` grids are kept, found by :class:`Mesh` by content (the
checked breakpoints' bytes and ``n``) and by :func:`build_mesh` by
``(dimension, n)``, and every mesh shares its grid's tables: 64 bytes per
boundary edge in 2D and 128 per face in 3D (0.28 MB at 2D n = 1024, 3.2 MB
at 3D n = 64), at most ``GRID_CACHE_SIZE`` times the largest grid in use
(64 MB of 3D n = 64 grids); ``build_mesh.cache_clear()`` frees them all.
"""

from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np

from .errors import InputError, MeshError

UNIT_TOL = 1e-12

# Grids kept for Mesh and build_mesh: a benchmark evaluate round cycles through 16
# grids, which a smaller least-recently-used cache evicts before reuse; 4 are spare.
GRID_CACHE_SIZE = 20


def positive_int(n, error, what: str) -> int:
    """``n`` as an ``int`` if it is a Python or numpy integer of at least 1;
    otherwise (a ``bool``, a float, ``n < 1``) raise ``error`` naming ``what``."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise error(f"{what} must be a positive integer, got {n!r}")
    return int(n)


def json_positive_int(value, what: str) -> int:
    """``positive_int``, raising ``InputError``, of a JSON number: 4.0 is 4."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return positive_int(value, InputError, what)


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
        # v x c1, each component formed as np.cross forms it
        (a0, a1, a2), (b0, b1, b2) = v.tolist(), c1.tolist()
        c2 = [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]
        return np.column_stack([v, c1, c2])
    raise MeshError(f"orientation must have 2 or 3 components, got shape {v.shape}")


def _outer_measures(sides) -> np.ndarray:
    """Measures of the tensor grid's boxes of side lengths ``sides``, C order."""
    return reduce(np.multiply.outer, sides).reshape(-1)


# Bound (0: lo, 1: hi) taken on each free axis, corner by corner: segment
# endpoints in 2D, rectangle corners in cyclic order in 3D.
_CORNER_BOUNDS = {2: np.array([[0], [1]]), 3: np.array([[0, 0], [1, 0], [1, 1], [0, 1]])}


def _face_corners(breaks, cells, axis, upper) -> np.ndarray:
    """Mesh-frame corners ``(R, corners, dim)`` of the faces of ``cells``
    normal to ``axis``, on their upper side where ``upper`` is 1 and on
    their lower one where it is 0, the free axes in increasing order."""
    dim, bounds = len(breaks), _CORNER_BOUNDS[len(breaks)]
    step = np.zeros((dim, 2, len(bounds), dim), dtype=np.intp)  # [axis, upper]: corners' break steps
    for a in range(dim):
        step[a][..., [b for b in range(dim) if b != a]] = bounds
        step[a, 1, :, a] = 1
    index = np.unravel_index(cells, tuple(b.size - 1 for b in breaks))
    out = np.empty((len(cells), len(bounds), dim))
    for b, values in enumerate(breaks):  # one axis' coordinates at a time
        out[..., b] = values[step[axis, upper, :, b] + index[b][:, None]]
    return out


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


def _chain_ends(shape, axis: int) -> np.ndarray:
    """``_chains(shape, axis)[:, [0, -1]]``, flat, from the strides alone: a
    chain's first cell is its offset over the other axes, its last one lies
    ``shape[axis] - 1`` strides of ``axis`` further."""
    strides = np.cumprod((1,) + shape[:0:-1])[::-1]
    others = [np.arange(m) * s for b, (m, s) in enumerate(zip(shape, strides)) if b != axis]
    first = reduce(np.add.outer, others).reshape(-1)
    return np.stack([first, first + (shape[axis] - 1) * strides[axis]], axis=1).reshape(-1)


class _Grid:
    """The frame-free part of a mesh: breakpoints and boundary tables, all
    read-only; a :class:`Mesh` copies them and adds its frame."""

    def __init__(self, breaks, n):
        self.axis_breaks = breaks = tuple(breaks)
        self.dim = dim = len(breaks)
        self.shape = tuple(b.size - 1 for b in breaks)
        self.ncells = int(np.prod(self.shape))
        self.n = n
        self.int_counts = tuple(self.ncells // m * (m - 1) for m in self.shape)
        # boundary edges: a chain's low and then its high edge, each with the
        # chain's face measure, the product of the other axes' break differences
        axes = range(dim)
        self.bnd_cell = np.concatenate([_chain_ends(self.shape, a) for a in axes])
        self.bnd_side = np.tile([-1, 1], len(self.bnd_cell) // 2)
        self.bnd_axis = np.repeat(axes, [2 * self.ncells // m for m in self.shape])
        sides = [np.diff(b) for b in breaks]
        faces = (_outer_measures(sides[:a] + sides[a + 1 :]) for a in axes)
        self.bnd_measure = np.concatenate([np.repeat(f, 2) for f in faces])
        self.bnd_corners = _face_corners(breaks, self.bnd_cell, self.bnd_axis, self.bnd_side.clip(0))
        for value in (*breaks, *vars(self).values()):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


class Mesh:
    """Product mesh with cells ``[breaks[a][i], breaks[a][i+1])`` per axis.

    Cells are indexed in C order over the per-axis indices, i.e. the last
    axis varies fastest; this is also the order used in field files.
    Immutable after construction (every stored array is read-only) and safe
    to share across threads; it shares its kept grid's tables.  ``axis_breaks``
    may be the dimension alone: :func:`build_mesh`'s grid, ``n`` cells per axis.
    """

    def __init__(self, axis_breaks, frame=None, n=None):
        uniform = isinstance(axis_breaks, int)  # keyed by (n, dimension): nothing to hash
        breaks = () if uniform else tuple(np.array(b, dtype=float) for b in axis_breaks)
        dim = axis_breaks if uniform else len(breaks)
        if dim not in (2, 3):
            raise MeshError(f"dimension must be 2 or 3, got {dim}")
        for b in breaks:  # NaN would pass the order test alone: its comparisons are false
            if b.ndim != 1 or b.size < 2 or not np.all(np.isfinite(b)) or np.any(np.diff(b) <= 0):
                raise MeshError("axis breakpoints must be finite, strictly increasing, >= 2 entries")
        if uniform:
            key = (positive_int(n, MeshError, "refinement"), dim)
        else:  # checked, then keyed: an argument per axis' bytes, so sizes are in the key
            key = (max(b.size for b in breaks) - 1 if n is None else n, *(b.tobytes() for b in breaks))
        vars(self).update(vars(_kept_grid(*key)))
        self.frame = _checked_frame(frame, dim)

    def chains(self, axis: int) -> np.ndarray:
        """Cell ids of the chains along ``axis``: one row per chain, cells in
        axis order, rows in C order over the other axes."""
        return _chains(self.shape, axis)

    @property
    def int_axis(self) -> np.ndarray:
        """Axis of every interior edge, ``(E,)``."""
        return np.repeat(np.arange(self.dim), self.int_counts)

    def int_edges(self, rows):
        """Axis, minus cell and plus cell of the interior edges ``rows``: the
        one derivation of interior edges.  Edge ``pos`` of the ``chain``-th
        row of ``chains(axis)`` joins its cells ``pos`` and ``pos + 1``."""
        rows = np.asarray(rows, dtype=np.intp)
        starts = np.cumsum((0,) + self.int_counts)
        axis = np.searchsorted(starts, rows, side="right") - 1
        m = np.asarray(self.shape)[axis]
        stride = np.cumprod((1,) + self.shape[:0:-1])[::-1][axis]  # cell id step along axis
        chain, pos = np.divmod(rows - starts[axis], m - 1)
        minus = chain // stride * stride * m + pos * stride + chain % stride
        return axis, minus, minus + stride

    def int_corners(self, rows) -> np.ndarray:
        """Mesh-frame corners ``(R, corners, dim)`` of the interior edges
        ``rows``: the upper faces of their minus cells."""
        axis, minus, _ = self.int_edges(rows)
        return _face_corners(self.axis_breaks, minus, axis, 1)

    # -- geometry queries -----------------------------------------------

    @property
    def orientation(self) -> np.ndarray:
        return self.frame[:, 0].copy()

    def bnd_normals(self) -> np.ndarray:
        """Outward world unit normals of boundary edges."""
        return self.frame.T[self.bnd_axis] * self.bnd_side[:, None]

    @property
    def cell_measures(self) -> np.ndarray:
        """Measure of every cell, the product of its break differences."""
        return _outer_measures([np.diff(b) for b in self.axis_breaks])

    def cell_centers(self) -> np.ndarray:
        """Mesh-frame center of every cell, ``(ncells, dim)``."""
        out = np.empty(self.shape + (self.dim,))
        for a, b in enumerate(self.axis_breaks):  # axis a's midpoints, broadcast over the rest
            out[..., a] = (0.5 * (b[:-1] + b[1:])).reshape((-1,) + (1,) * (self.dim - 1 - a))
        return out.reshape(-1, self.dim)

    @property
    def total_measure(self) -> float:
        return float(self.cell_measures.sum())


@lru_cache(maxsize=GRID_CACHE_SIZE)
def _kept_grid(n, *axes) -> _Grid:
    """The grid of ``n`` and ``axes``: each axis' breakpoint bytes, or the dimension
    alone for the uniform grid of the unit square/cube centered at the origin."""
    if len(axes) == 1:
        return _Grid([np.linspace(-0.5, 0.5, n + 1)] * axes[0], n)
    return _Grid([np.frombuffer(b) for b in axes], n)


def build_mesh(dimension: int, n: int, orientation) -> Mesh:
    """Uniform ``n x n`` (or ``n^3``) mesh of the unit square/cube centered at
    the origin, rotated so two sides are perpendicular to ``orientation``.

    Each call returns a new mesh; its breakpoints and boundary arrays are
    shared with every other mesh of the same ``(dimension, n)`` while the
    grid is kept (see the module docstring)."""
    dimension = positive_int(dimension, MeshError, "dimension")
    if dimension not in (2, 3):
        raise MeshError(f"dimension must be 2 or 3, got {dimension}")
    n = positive_int(n, MeshError, "refinement")
    orientation = np.asarray(orientation, dtype=float)
    if orientation.shape != (dimension,):
        raise MeshError(
            f"orientation shape {orientation.shape} does not match dimension {dimension}"
        )
    return Mesh(dimension, frame_from_orientation(orientation), n)


build_mesh.cache_clear = _kept_grid.cache_clear

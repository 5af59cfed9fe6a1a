"""Hypothesis strategies and helpers shared by the mesh, field, construction
and functional tests."""

import numpy as np
from hypothesis import strategies as st

from sdrelax.fields import SbvField
from sdrelax.meshes import Mesh, frame_from_orientation


def _breaks(max_cells):
    return st.lists(
        st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=max_cells + 1,
        unique=True,
    ).map(sorted)


def unit_vectors(dim):
    return (
        st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=dim, max_size=dim)
        .map(np.asarray)
        .filter(lambda v: np.linalg.norm(v) > 0.1)
        .map(lambda v: v / np.linalg.norm(v))
    )


@st.composite
def rectilinear_meshes(draw, max_cells=(5, 3)):
    """Rotated rectilinear meshes of dimension 2 or 3 with random breaks;
    ``max_cells`` bounds the cells per axis in 2D and in 3D."""
    dim = draw(st.sampled_from((2, 3)))
    breaks = [np.asarray(draw(_breaks(max_cells[dim - 2]))) for _ in range(dim)]
    return Mesh(breaks, frame=frame_from_orientation(draw(unit_vectors(dim))))


# floats that stress rounding and number formatting: signed zeros, integral
# values, the switch to exponent notation, the smallest subnormal
SPECIAL_FLOATS = (-0.0, 0.0, 1.0, -3.0, 1e16, -1e16, 5e-324, -5e-324, 1e-9, 1e12)


@st.composite
def scaled_values(draw, shape, specials=SPECIAL_FLOATS):
    """Uniform data at a drawn scale in 1e-9..1e12, up to 8 entries replaced
    by ``specials``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(-5.0, 5.0, shape) * 10.0 ** draw(st.integers(-9, 12))
    flat = values.reshape(-1)
    picks = draw(st.lists(st.sampled_from(specials), max_size=min(8, flat.size)))
    flat[rng.choice(flat.size, size=len(picks), replace=False)] = picks
    return values


def jump_corner_values(field):
    """The field's jump table expanded to the jumps at the corners of every
    interior edge, ``(E, corners, 3)``."""
    table = field.jump_table
    values = np.repeat(table.offset[:, None, :], table.values.shape[1], axis=1)
    values[table.affine] = table.values
    return values


def nonzero_jumps(field):
    """``(edge, corner values)`` of each interior edge whose jump is not
    identically zero, in edge order, read from the field's jump table."""
    values = jump_corner_values(field)
    return [(e, values[e]) for e in np.flatnonzero(np.any(values != 0.0, axis=(1, 2)))]


def blocked_field(mesh, rng, scale=1.0):
    """A field whose jump table has rows in each of its three blocks.

    ``u = scale (|x0| + x1 / 2)`` in every component is continuous across
    ``x0 = 0``, so on an axis-aligned mesh with a break there its edges
    carry exactly zero jumps although the gradients differ.  About 40 % of
    the cells take a gradient 1e-22 times smaller than their offset, which
    rounds away at the corners: between two such cells the jump is
    constant.  Every other edge with differing gradients is affine.  Half
    the cells have a zero third component, so some jumps are planar."""
    ncells, dim = mesh.ncells, mesh.dim
    grads = np.zeros((ncells, 3, dim))
    grads[:, :, 0] = scale * np.sign(mesh.cell_centers()[:, :1])
    grads[:, :, 1] = 0.5 * scale
    offsets = np.zeros((ncells, 3))
    tiny = rng.random(ncells) < 0.4
    grads[tiny] = rng.uniform(-5, 5, (int(tiny.sum()), 3, dim)) * (1e-22 * scale)
    offsets[tiny] = rng.uniform(-5, 5, (int(tiny.sum()), 3)) * scale
    flat = rng.random(ncells) < 0.5
    grads[flat, 2] = offsets[flat, 2] = 0.0
    return SbvField(mesh, grads, offsets)


def interior_tables(mesh, rows=None):
    """The derived interior edge views of ``mesh`` on ``rows`` (every edge
    if ``None``), by name: ``int_axis``, ``int_minus``, ``int_plus``,
    ``int_measure`` and ``int_corners``.  ``int_measure`` is each edge's
    face measure read from the breakpoints: the product, in axis order, of
    the minus cell's break differences on the other axes."""
    rows = np.arange(len(mesh.int_axis)) if rows is None else np.asarray(rows, dtype=np.intp)
    axis, minus, plus = mesh.int_edges(rows)
    index = np.unravel_index(minus, mesh.shape)
    sides = np.stack([np.diff(b)[i] for b, i in zip(mesh.axis_breaks, index)], axis=-1)
    sides[np.arange(len(rows)), axis] = 1.0  # the edge's own axis
    return {
        "int_axis": axis,
        "int_minus": minus,
        "int_plus": plus,
        "int_measure": np.prod(sides, axis=-1),
        "int_corners": mesh.int_corners(rows),
    }

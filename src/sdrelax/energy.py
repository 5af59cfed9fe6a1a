"""Exact surface-energy evaluation of discrete SBV fields.

The energy of a field is the sum over interior edges of the surface density
integrated against the jump, plus (when a boundary datum is supplied) the
mismatch against the datum integrated over the boundary, which is the jump of
the field extended by the datum.  Jumps are affine along edges, so built-in
densities integrate in closed form:

* normal form ``|jump . nu~|``: exact, split at the sign change on
  segments and by a closed form on rectangular faces;
* out-of-plane-relaxed form: jumps whose third component vanishes
  identically along the edge pay ``|planar jump . nu~|``; all others are free
  because the integrand vanishes off a measure-zero set.

General callable densities are exact on constant jumps (the common case for
pinned-gradient fields) and fall back to the 16-point Gauss rule on affine
ones.

Interior jumps come from the field's jump table (built once per field by
per-axis differences and shared with the divergence-theorem residual):
edges with equal gradients on both sides carry exactly constant jumps, the
others their jumps at the edge corners, already split by the table into
zero, constant and affine ones.  The interior pass runs axis by axis: an
axis' edges, and its constant and its affine rows of the table, are one
slice each and share the axis' normal, a broadcast view rather than one
copy per edge; an edge's measure is read from its chain's face measure, so
no per-edge measure array is formed.  Only boundary mismatches are
classified on each call.  Boundary mismatches come from the
boundary piece table (:func:`sdrelax.fields.boundary_pieces`), which
:func:`surface_energy` builds from the datum.  The closed forms run over
all pieces of a pass at once through the one exact ``|affine|`` integral,
:func:`sdrelax.fields.abs_affine_integral`, which needs only each piece's
corner values and measure; only custom densities are evaluated piece by
piece.  Pieces are summed in sequence, in mesh order.
"""

from __future__ import annotations

import numpy as np

from .densities import (
    SURFACE_NORMAL,
    SURFACE_PSI1,
    DensityPair,
)
from .fields import (
    GAUSS_NODES,
    GAUSS_WEIGHTS,
    SbvField,
    abs_affine_integral,
    boundary_pieces,
    gauss_face_mean,
    rows_reduce,
)


def padded_normal(normal: np.ndarray) -> np.ndarray:
    """Embed a 2D normal as (n1, n2, 0); 3D normals pass through."""
    if normal.shape[-1] == 3:
        return normal
    out = np.zeros(normal.shape[:-1] + (3,))
    out[..., :2] = normal
    return out


def _surface_form(density) -> str:
    if isinstance(density, DensityPair):
        return density.surface_form
    return getattr(density, "surface_form", "custom")


def _surface_callable(density):
    return density.surface if isinstance(density, DensityPair) else density


def _integrals(values, normal3, h, form, func, overestimate) -> np.ndarray:
    """Integrals of the surface density over pieces (interior edges or
    boundary pieces), one per row, from the jump (or mismatch) vectors at
    the pieces' corners ``values`` ``(R, corners, 3)`` (a single corner for
    constant rows), their padded unit normals ``normal3`` ``(R, 3)`` (a
    broadcast view where the rows share one) and their measures ``h``.
    The normal form is :func:`sdrelax.fields.abs_affine_integral`, or with
    ``overestimate`` the corner mean ``h * mean |f|`` of rows with more than
    one corner (on segments, the trapezoid rule).
    """
    if len(values) == 0:  # most passes of a field lack one of the row kinds
        return np.zeros(0)
    if form == SURFACE_PSI1:
        # pieces whose third component vanishes identically pay the normal
        # form; all others are free (the integrand vanishes a.e.)
        out = np.zeros(len(values))
        paid = rows_reduce(np.logical_and, values[:, :, 2] == 0.0)
        out[paid] = _integrals(values[paid], normal3[paid], h[paid], SURFACE_NORMAL, None, overestimate)
        return out
    if form == SURFACE_NORMAL:
        f = (values @ normal3[:, :, None])[..., 0]
        if overestimate and f.shape[1] > 1:
            return h * np.mean(np.abs(f), axis=1)
        return abs_affine_integral(f, h)
    # custom density: exact on constant jumps, Gauss rule otherwise
    nus = (nu / np.linalg.norm(nu) for nu in normal3)
    return np.array([_piece_integral(v, nu, m, func) for v, nu, m in zip(values, nus, h)])


def _jump_rows(rows, values):
    """Rows with a jump, split into constant ones (collapsed to a single
    corner) and the rest."""
    jump = rows_reduce(np.logical_or, values != 0.0)
    rows, values = rows[jump], values[jump]
    const = rows_reduce(np.logical_and, values == values[:, :1])
    return (rows[const], values[const, :1]), (rows[~const], values[~const])


def _piece_integral(values, nu, measure, func):
    if len(values) == 1:
        return func(values[0], nu) * measure
    if len(values) == 2:
        line = values[0] + GAUSS_NODES[:, None] * (values[1] - values[0])
        return float(measure * np.dot(GAUSS_WEIGHTS, [func(v, nu) for v in line]))

    def integrand(grid):
        return np.asarray([[func(v, nu) for v in row] for row in grid])

    return float(measure * gauss_face_mean(values[0], values[1], values[3], integrand))


def surface_energy(field: SbvField, density, datum=None, overestimate: bool = False) -> float:
    """Surface energy of a field; with ``datum`` the boundary mismatch is
    charged as a jump against the datum.  ``overestimate=True`` switches the
    affine pieces of the normal form to the trapezoid / corner-average rule
    (the rule of the solver's certified objective values).

    Pieces are summed in sequence (interior edges, then boundary pieces, in
    mesh order), skipping those without jump."""
    pieces = None if datum is None else boundary_pieces(field.mesh, datum)
    mesh, table = field.mesh, field.jump_table
    form, func = _surface_form(density), _surface_callable(density)
    dirs3 = padded_normal(mesh.frame.T)  # row a: padded world normal of axis a
    interior = np.zeros(len(table.offset))
    # one pass per axis: edges and the table's blocks come axis by axis, so an
    # axis' rows of each kind are one slice and share one normal, a broadcast view
    constant = rows_reduce(np.logical_or, table.offset != 0.0)
    constant[table.affine] = False
    starts = np.cumsum((0,) + mesh.int_counts)  # first edge of each axis
    # an edge's measure is its chain's face measure, which the chain's
    # boundary edges carry: one per chain, axis by axis
    faces = mesh.bnd_measure[::2]
    first_chain = np.cumsum([0] + [mesh.ncells // m for m in mesh.shape])
    for a in range(mesh.dim):
        on = np.flatnonzero(constant[starts[a] : starts[a + 1]]) + starts[a]
        c, v, e = table.bounds[3 * a + 1 : 3 * a + 4]  # constant rows, then the rest
        groups = [
            (on, table.offset[on][:, None, :]),
            (table.affine[c:v], table.values[c:v, :1]),
            (table.affine[v:e], table.values[v:e]),
        ]
        for edges, values in groups:
            if len(edges):
                normal3 = np.broadcast_to(dirs3[a], (len(edges), 3))
                h = faces[first_chain[a] + (edges - starts[a]) // (mesh.shape[a] - 1)]
                interior[edges] = _integrals(values, normal3, h, form, func, overestimate)
    terms = [np.zeros(1), interior]
    if pieces is not None:
        terms.append(np.zeros(len(pieces.edge)))
        normal3 = padded_normal(pieces.normal)
        mismatch = pieces.field_values(field) - pieces.datum
        for rows, values in _jump_rows(np.arange(len(pieces.edge)), mismatch):
            terms[-1][rows] = _integrals(
                values, normal3[rows], pieces.measure[rows], form, func, overestimate,
            )
    return float(np.cumsum(np.concatenate(terms))[-1])

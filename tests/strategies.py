"""Hypothesis strategies shared by the mesh and field tests."""

import numpy as np
from hypothesis import strategies as st

from sdrelax.meshes import Mesh, frame_from_orientation


def _breaks(max_cells):
    return st.lists(
        st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=max_cells + 1,
        unique=True,
    ).map(sorted)


def _unit(dim):
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
    return Mesh(breaks, frame=frame_from_orientation(draw(_unit(dim))))

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdrelax.errors import FieldError, InputError
from sdrelax.fields import SbvField
from sdrelax.functionals import (
    StructuredTriple,
    eval_F3dSD,
    eval_left,
    eval_right,
    path_equality_report,
    random_triple,
    triple_from_json,
    triple_to_json,
)
from sdrelax.meshes import build_mesh
from strategies import SPECIAL_FLOATS, scaled_values, unit_vectors

E1 = np.array([1.0, 0.0])


def affine_triple(n=2, A=None, G=None):
    mesh = build_mesh(2, n, E1)
    A = np.zeros((3, 2)) if A is None else np.asarray(A, float)
    G = A if G is None else np.asarray(G, float)
    g = SbvField.affine(mesh, A)
    return StructuredTriple(
        g=g, G=np.tile(G, (mesh.ncells, 1, 1)), d=np.zeros((mesh.ncells, 3))
    )


def test_affine_matching_triple_vanishes():
    A = np.arange(6.0).reshape(3, 2)
    t = affine_triple(A=A)
    assert eval_left(t) == 0.0
    assert eval_right(t) == 0.0


def test_constant_trace_gap():
    # deformation x1 e1 with vanishing disarrangement-free gradient
    A = np.zeros((3, 2))
    A[0, 0] = 1.0
    t = affine_triple(A=A, G=np.zeros((3, 2)))
    assert eval_left(t) == pytest.approx(1.0, abs=1e-12)


def test_step_pattern_surface_term():
    lam = np.array([1.0, 0.0, 0.0])
    mesh = build_mesh(2, 4, E1)
    mids = mesh.cell_centers()[:, 0]
    offsets = np.where(mids[:, None] >= 0, lam[None, :], 0.0)
    g = SbvField(mesh, np.zeros((mesh.ncells, 3, 2)), offsets)
    t = StructuredTriple(g=g, G=np.zeros((mesh.ncells, 3, 2)), d=np.zeros((mesh.ncells, 3)))
    assert eval_left(t) == pytest.approx(1.0, abs=1e-12)
    assert eval_right(t) == eval_left(t)


def test_left_right_identical_on_random_triples():
    rng = np.random.default_rng(0)
    triples = [random_triple(rng, n=3) for _ in range(100)]
    report = path_equality_report(triples)
    assert report.max_difference == 0.0
    assert report.all_equal


def test_director_and_out_of_plane_invariance():
    rng = np.random.default_rng(1)
    base = random_triple(rng, n=3)
    left = eval_left(base)
    for _ in range(20):
        # director changes never matter
        t2 = StructuredTriple(g=base.g, G=base.G, d=rng.uniform(-9, 9, base.d.shape))
        assert eval_left(t2) == left and eval_right(t2) == left
    # neither do the out-of-(1,1),(2,2) entries of G ...
    G2 = base.G.copy()
    G2[:, 2, :] = rng.uniform(-9, 9, (base.G.shape[0], 2))
    G2[:, 0, 1] = rng.uniform(-9, 9, base.G.shape[0])
    G2[:, 1, 0] = rng.uniform(-9, 9, base.G.shape[0])
    assert eval_left(StructuredTriple(g=base.g, G=G2, d=base.d)) == left
    # ... nor the third-component offsets of the deformation (jump [g3])
    offsets = base.g.offsets.copy()
    offsets[:, 2] = rng.uniform(-9, 9, base.mesh.ncells)
    g2 = SbvField(base.mesh, base.g.gradients, offsets)
    assert eval_left(StructuredTriple(g=g2, G=base.G, d=base.d)) == left


def test_nonnegative_and_zero_characterization():
    rng = np.random.default_rng(2)
    for _ in range(50):
        t = random_triple(rng, n=2)
        assert eval_left(t) >= 0.0
    # zero iff the planar trace matches and planar jumps are tangential
    t0 = affine_triple(A=np.arange(6.0).reshape(3, 2))
    assert eval_left(t0) == 0.0


def test_eval_F3dSD_cases():
    mesh3 = build_mesh(3, 1, np.array([1.0, 0.0, 0.0]))
    A = np.arange(9.0).reshape(3, 3)
    g = SbvField.affine(mesh3, A)
    assert eval_F3dSD(g, np.tile(A[:, :2], (1, 1, 1))) == 0.0

    # g = x1 e1 + x2 e2 with zero G3: constant integrand 2 on the unit cube
    B = np.zeros((3, 3))
    B[0, 0] = B[1, 1] = 1.0
    g2 = SbvField.affine(mesh3, B)
    assert eval_F3dSD(g2, np.zeros((1, 3, 2))) == pytest.approx(2.0, abs=1e-12)

    # single jump plane {x2 = 0} with jump (0,1,0): area 1 times |lam . e2|
    mesh32 = build_mesh(3, 2, np.array([0.0, 1.0, 0.0]))
    lam = np.array([0.0, 1.0, 0.0])
    mids = mesh32.cell_centers() @ mesh32.frame.T @ np.array([0.0, 1.0, 0.0])
    offsets = np.where(mids[:, None] >= 0, lam[None, :], 0.0)
    g3 = SbvField(mesh32, np.zeros((mesh32.ncells, 3, 3)), offsets)
    assert eval_F3dSD(g3, np.zeros((mesh32.ncells, 3, 2))) == pytest.approx(1.0, abs=1e-12)

    with pytest.raises(FieldError):
        eval_F3dSD(SbvField.affine(build_mesh(2, 1, E1), np.zeros((3, 2))), np.zeros((1, 3, 2)))


def test_triple_json_round_trip_and_errors():
    rng = np.random.default_rng(3)
    t = random_triple(rng, n=2)
    text = triple_to_json(t)
    back = triple_from_json(text)
    assert eval_left(back) == pytest.approx(eval_left(t), rel=1e-14)

    with pytest.raises(InputError):
        triple_from_json("{]")
    # mismatched cell payload: G missing from one cell
    payload = json.loads(text)
    del payload["cells"][1]["G"]
    with pytest.raises(InputError) as err:
        triple_from_json(json.dumps(payload))
    assert "cell 1" in str(err.value)


def _dumps_triple_reference(triple):
    """The nested-list ``json.dumps`` writer the template writer replaced."""
    mesh = triple.mesh
    payload = {
        "dimension": mesh.dim,
        "n": int(mesh.n),
        "orientation": mesh.orientation.tolist(),
        "cells": [
            {
                "gradient": triple.g.gradients[t].tolist(),
                "offset": triple.g.offsets[t].tolist(),
                "G": triple.G[t].tolist(),
                "d": triple.d[t].tolist(),
            }
            for t in range(mesh.ncells)
        ],
    }
    return json.dumps(payload, indent=2)


# G and d are not checked for finiteness, so their files may hold NaN/Infinity
_TRIPLE_SPECIALS = SPECIAL_FLOATS + (float("nan"), float("inf"), float("-inf"))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 8), data=st.data())
def test_triple_json_is_byte_identical_to_json_dumps(n, data):
    mesh = build_mesh(2, n, data.draw(unit_vectors(2)))
    g = SbvField(
        mesh,
        data.draw(scaled_values((mesh.ncells, 3, 2))),
        data.draw(scaled_values((mesh.ncells, 3))),
    )
    triple = StructuredTriple(
        g=g,
        G=data.draw(scaled_values((mesh.ncells, 3, 2), _TRIPLE_SPECIALS)),
        d=data.draw(scaled_values((mesh.ncells, 3), _TRIPLE_SPECIALS)),
    )
    assert triple_to_json(triple) == _dumps_triple_reference(triple)


def test_triple_shape_validation():
    mesh = build_mesh(2, 2, E1)
    g = SbvField.affine(mesh, np.zeros((3, 2)))
    with pytest.raises(FieldError):
        StructuredTriple(g=g, G=np.zeros((3, 3, 2)), d=np.zeros((4, 3)))
    with pytest.raises(FieldError):
        StructuredTriple(g=g, G=np.zeros((4, 3, 2)), d=np.zeros((3, 3)))
    with pytest.raises(InputError):
        path_equality_report([])

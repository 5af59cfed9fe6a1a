import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdrelax.constructions import (
    DecayRow,
    SequenceKind,
    SequenceParams,
    build,
    datum_for,
    decay_table,
    frame_threshold,
)
from sdrelax.densities import interfacial_normal_pair, psi1_pair
from sdrelax.energy import surface_energy
from sdrelax.errors import ProblemError
from sdrelax.fields import average_gradient, boundary_trace_gap, field_to_json, zero_datum
from sdrelax.meshes import build_mesh
from sdrelax.solver import CellProblem, Kind, solve
from strategies import nonzero_jumps, scaled_values

PSI1 = psi1_pair()
NORMAL = interfacial_normal_pair()


def gamma_params(lam, eta, n):
    return SequenceParams(kind="GAMMA1_SPLIT", n=n, lam=np.asarray(lam, float),
                          eta=np.asarray(eta, float))


# ---------------------------------------------------------------------------
# gamma split
# ---------------------------------------------------------------------------

def test_gamma_split_n2_jump_locations():
    params = gamma_params([1, 0, 0], [0, 1], 2)
    fld = build(params)
    mesh = fld.mesh
    inner = (2 - 1) / (2 * 2)  # half-width of the shrunken square
    for e, _ in nonzero_jumps(fld):
        corners = mesh.int_corners([e])[0]
        on_midline = np.max(np.abs(corners[:, 0])) <= inner + 1e-12 and np.all(
            np.abs(corners[:, 0]) <= 1e-12
        ) or np.all(corners[:, 0] == 0.0)
        on_inner_boundary = np.max(np.abs(corners)) <= inner + 1e-12 and (
            np.all(np.abs(corners[:, 0]) == inner) or np.all(np.abs(corners[:, 1]) == inner)
        )
        assert on_midline or on_inner_boundary, corners


def test_gamma_split_out_of_plane_shift_n2():
    fld = build(gamma_params([1, 0, 0], [0, 1], 2))
    thirds = {round(v, 12) for v in fld.offsets[:, 2]}
    assert thirds == {-0.5, 0.0, 0.5}


def test_gamma_split_paid_set_matches_midline_segment():
    # jump third components vanish exactly on the midline outside the
    # shrunken square, nowhere else, when the jump vector is planar
    lam = np.array([2.0, -1.0, 0.0])
    for n in (2, 3, 4, 8):
        fld = build(gamma_params(lam, [1, 0], n))
        mesh = fld.mesh
        a = (n - 1) / (2 * n)
        for e, values in nonzero_jumps(fld):
            corners = mesh.int_corners([e])[0]
            third_zero = np.max(np.abs(values[:, 2])) == 0.0
            mid = corners.mean(axis=0)
            on_outer_midline = np.all(corners[:, 0] == 0.0) and abs(mid[1]) >= a - 1e-12
            assert third_zero == on_outer_midline


def test_gamma_split_energy_decay_exact():
    lam = np.array([2.0, 1.0, 0.0])
    eta = np.array([1.0, 0.0])
    for n in (2, 4, 8, 16, 32, 64):
        p = gamma_params(lam, eta, n)
        e = surface_energy(build(p), PSI1, datum=datum_for(p))
        assert e == pytest.approx(abs(lam[:2] @ eta) / n, abs=1e-13)
        assert e <= np.linalg.norm(lam) / n + 1e-13


def test_gamma_split_free_when_jump_has_out_of_plane_component():
    p = gamma_params([1.0, 0.5, 0.25], [1, 0], 4)
    assert surface_energy(build(p), PSI1, datum=datum_for(p)) == 0.0


def test_gamma_split_trace_matches_datum():
    p = gamma_params([1.0, -2.0, 3.0], [0, 1], 4)
    assert boundary_trace_gap(build(p), datum_for(p)) <= 1e-12


def test_affine_field_energy_zero():
    from sdrelax.fields import SbvField

    mesh = build_mesh(2, 3, np.array([1.0, 0.0]))
    fld = SbvField.affine(mesh, np.arange(6.0).reshape(3, 2))
    assert surface_energy(fld, NORMAL) == 0.0
    assert surface_energy(fld, PSI1) == 0.0


# ---------------------------------------------------------------------------
# frame construction
# ---------------------------------------------------------------------------

def test_frame_m_zero_offsets_alternate():
    params = SequenceParams(kind="FRAME_W1", n=4, M=np.zeros((3, 2)))
    fld = build(params)
    assert np.max(np.abs(fld.gradients)) == 0.0
    inner = np.unique(np.round(fld.offsets[:, 2], 14))
    assert set(inner) == {-1.0 / 16, 0.0, 1.0 / 16}
    assert surface_energy(fld, PSI1, datum=zero_datum(2)) == 0.0
    assert boundary_trace_gap(fld, zero_datum(2)) == 0.0


def test_frame_inter_rectangle_jumps_planar_m():
    # with a planar gradient matrix the out-of-plane jump across adjacent
    # rectangles comes from the alternating shifts alone: +-2/n^2
    n = 8
    M = np.array([[1.0, 2.0], [-0.5, 0.25], [0.0, 0.0]])
    params = SequenceParams(kind="FRAME_W1", n=n, M=M)
    fld = build(params)
    mesh = fld.mesh
    a = (n - 1) / (2 * n)
    w = (n - 1) / n**2
    found = 0
    for e, values in nonzero_jumps(fld):
        corners = mesh.int_corners([e])[0]
        if np.max(np.abs(corners)) >= a - 1e-12:
            continue  # not strictly inside the shrunken square
        if int(mesh.int_edges([e])[0][0]) != 0:
            continue
        mid = corners.mean(axis=0)
        k = (mid[0] + a) / w
        if abs(k - round(k)) > 1e-9:
            continue  # interior grid line of a single rectangle
        found += 1
        assert np.all(np.abs(np.abs(values[:, 2]) - 2.0 / n**2) <= 1e-15)
    assert found > 0


def test_frame_average_gradient_and_trace_gap():
    rng = np.random.default_rng(12)
    M = rng.uniform(-2, 2, (3, 2))
    for n in (2, 4, 8):
        fld = build(SequenceParams(kind="FRAME_W1", n=n, M=M))
        assert np.allclose(average_gradient(fld), M, atol=1e-12)
        gap = boundary_trace_gap(fld, zero_datum(2))
        assert gap <= 1.5 * np.linalg.norm(M) / n


def test_frame_energy_bound_and_slope():
    rng = np.random.default_rng(4)
    M = np.vstack([rng.uniform(-3, 3, (2, 2)), np.zeros((1, 2))])
    rows = decay_table(SequenceParams(kind="FRAME_W1", n=4, M=M), PSI1, [4, 8, 16, 32])
    for row in rows:
        assert row.within_bound
    assert rows[-1].slope_so_far <= -0.8


def test_frame_generic_m_is_free():
    M = np.array([[1.0, 0.0], [0.0, 1.0], [0.7, -0.3]])
    rows = decay_table(SequenceParams(kind="FRAME_W1", n=4, M=M), PSI1, [4, 8, 16])
    assert all(r.energy == 0.0 for r in rows)
    assert frame_threshold(M) == int(np.ceil(2.0 / 0.7)) + 2
    notes = [r.note for r in rows]
    assert notes[0] == "below-threshold" and notes[-1] == ""


def test_frame_dominates_solver_value():
    # the solver's pinned-gradient minimum can only improve on the explicit
    # competitor's overestimated energy
    M = np.array([[1.5, -0.5], [0.25, 2.0], [0.0, 0.0]])
    for n in (4, 8):
        p = SequenceParams(kind="FRAME_W1", n=n, M=M)
        comp = surface_energy(build(p), PSI1, datum=datum_for(p))
        r = solve(CellProblem(kind=Kind.W1, n=n, A=M))
        assert r.value <= comp + 1e-9


# ---------------------------------------------------------------------------
# staircase trace competitor
# ---------------------------------------------------------------------------

def test_staircase_energy_approaches_componentwise_trace():
    A = np.vstack([np.eye(2), np.zeros((1, 2))])
    B = np.zeros((3, 2))
    prev = None
    for n in (4, 8, 16, 32):
        p = SequenceParams(kind="STAIRCASE_TRACE", n=n, A=A, B=B)
        e = surface_energy(build(p), NORMAL, datum=datum_for(p))
        assert e <= 2.0 + 2.0 / n + 1e-12
        if prev is not None:
            assert abs(e - 2.0) <= abs(prev - 2.0) + 1e-12
        prev = e


def test_decay_row_bound_check_is_relative_to_the_bound():
    # a 1e-4 relative excess fails at every scale, a 1e-14 one (rounding)
    # passes at every scale
    for scale in (1e-9, 1.0, 1e12):
        assert not DecayRow(n=2, energy=scale * (1 + 1e-4), bound=scale, slope_so_far=np.nan).within_bound
        assert DecayRow(n=2, energy=scale * (1 + 1e-14), bound=scale, slope_so_far=np.nan).within_bound
        assert DecayRow(n=2, energy=scale, bound=scale, slope_so_far=np.nan).within_bound
    assert DecayRow(n=2, energy=0.0, bound=0.0, slope_so_far=np.nan).within_bound


def test_staircase_decay_rows_within_bound():
    rng = np.random.default_rng(6)
    A = rng.uniform(-3, 3, (3, 2))
    B = rng.uniform(-3, 3, (3, 2))
    rows = decay_table(
        SequenceParams(kind="STAIRCASE_TRACE", n=2, A=A, B=B), NORMAL, [2, 4, 8, 16]
    )
    assert all(r.within_bound for r in rows)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_sequence_params_validation():
    with pytest.raises(ProblemError):
        SequenceParams(kind="FRAME_W1", n=1, M=np.zeros((3, 2)))
    with pytest.raises(ProblemError):
        SequenceParams(kind="FRAME_W1", n=4, M=np.zeros((2, 3)))
    with pytest.raises(ProblemError):
        SequenceParams(kind="GAMMA1_SPLIT", n=2, lam=np.zeros(2), eta=np.array([1.0, 0]))
    with pytest.raises(ProblemError):
        SequenceParams(kind="STAIRCASE_TRACE", n=2, A=np.zeros((3, 2)), B=None)
    with pytest.raises(ProblemError):
        decay_table(gamma_params([1, 0, 0], [1, 0], 2), PSI1, [4, 2])
    assert SequenceKind("GAMMA1_SPLIT") is SequenceKind.GAMMA1_SPLIT


@pytest.mark.parametrize("n", [True, np.True_, 2.0, 2.7, float("nan"), "4", 0])
def test_sequence_params_reject_a_scale_index_that_is_not_a_positive_integer(n):
    # True == 1, but a bool is not a scale index
    with pytest.raises(ProblemError) as exc:
        gamma_params([1, 0, 0], [1, 0], n)
    assert str(exc.value) == f"scale index must be a positive integer, got {n!r}"


@pytest.mark.parametrize(
    "n_list, bad", [([2.7, 4], 2.7), ([float("nan")], float("nan")), (["4", "8"], "4"), ([True, 2], True)]
)
def test_decay_table_rejects_entries_that_are_not_positive_integers(n_list, bad):
    # every entry is checked, none truncated: 2.7 is not 2
    with pytest.raises(ProblemError) as exc:
        decay_table(gamma_params([1, 0, 0], [1, 0], 2), PSI1, n_list)
    assert str(exc.value) == f"scale index must be a positive integer, got {bad!r}"


def test_decay_table_accepts_numpy_integers():
    params = gamma_params([1, 2, 0], [0.6, 0.8], 2)
    rows = decay_table(params, NORMAL, np.array([2, 4]))
    assert [r.n for r in rows] == [2, 4] and all(type(r.n) is int for r in rows)
    assert repr(rows) == repr(decay_table(params, NORMAL, [2, 4]))  # slope_so_far may be nan


def test_frame_params_reject_non_finite_data():
    M = np.zeros((3, 2))
    M[1, 0] = np.nan
    with pytest.raises(ProblemError, match="'M'"):
        SequenceParams(kind="FRAME_W1", n=4, M=M)


def test_gamma_params_reject_non_finite_data():
    with pytest.raises(ProblemError, match="'lam'"):
        gamma_params([np.nan, 0, 0], [1, 0], 2)
    with pytest.raises(ProblemError, match="'eta'"):
        gamma_params([1, 0, 0], [np.inf, 0], 2)


def test_staircase_params_reject_non_finite_data():
    with pytest.raises(ProblemError, match="'A'"):
        SequenceParams(kind="STAIRCASE_TRACE", n=2, A=np.full((3, 2), np.nan), B=np.zeros((3, 2)))
    with pytest.raises(ProblemError, match="'B'"):
        SequenceParams(kind="STAIRCASE_TRACE", n=2, A=np.zeros((2, 2)), B=[[0, -np.inf], [0, 0]])


# ---------------------------------------------------------------------------
# vectorized builders against the per-cell loop builders they replaced
# ---------------------------------------------------------------------------

def _loop_center(mesh, t):
    """Mesh-frame center of cell ``t``, from its bounds on each axis."""
    return [0.5 * (b[i] + b[i + 1]) for b, i in zip(mesh.axis_breaks, np.unravel_index(t, mesh.shape))]


def _loop_gamma1_offsets(mesh, lam, n):
    a = (n - 1) / (2 * n)
    offsets = np.zeros((mesh.ncells, 3))
    for t in range(mesh.ncells):
        xi1, xi2 = _loop_center(mesh, t)
        if xi1 >= 0:
            offsets[t] = lam
        if abs(xi1) < a and abs(xi2) < a:
            offsets[t, 2] += (1.0 / n) if xi1 >= 0 else (-1.0 / n)
    return offsets


def _loop_frame_lattice(t, n):
    j = min(max(int(math.floor((t + 0.5) * n)), 0), n - 1)
    return (j + 0.5) / n - 0.5


def _loop_frame_w1_offsets(mesh, M, n):
    a = (n - 1) / (2 * n)
    w = (n - 1) / (n * n)
    offsets = np.zeros((mesh.ncells, 3))
    e3 = np.array([0.0, 0.0, 1.0])
    for t in range(mesh.ncells):
        cx, cy = _loop_center(mesh, t)
        if abs(cx) < a and abs(cy) < a:
            k = min(max(int(math.floor((cx + a) / w)), 0), n - 1)
            ck = np.array([-a + (k + 0.5) * w, 0.0])
            offsets[t] = -M @ ck + ((-1.0) ** k / (n * n)) * e3
        else:
            if cx < -a:
                p = np.array([-0.5, _loop_frame_lattice(cy, n)])
            elif cx > a:
                p = np.array([0.5, _loop_frame_lattice(cy, n)])
            elif cy < -a:
                p = np.array([_loop_frame_lattice(cx, n), -0.5])
            else:
                p = np.array([_loop_frame_lattice(cx, n), 0.5])
            offsets[t] = -M @ p
    return offsets


@st.composite
def frame_matrices(draw):
    M = draw(scaled_values((3, 2)))
    if draw(st.booleans()):
        M[2, 0] = 0.0
    # zero entries of either sign, where a product of the anchors may be a signed zero
    for entry in draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1)), max_size=4)):
        M[entry] = draw(st.sampled_from((0.0, -0.0)))
    return M


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(M=frame_matrices(), n=st.integers(2, 64))
@example(M=np.array([[1.0, -2.0], [0.5, 3.0], [0.0, 0.25]]), n=64)
@example(M=np.array([[1.0, -2.0], [0.5, 3.0], [-0.0, 0.25]]), n=2)
@example(M=np.array([[0.0, 2.0], [-0.0, -3.0], [0.0, -0.0]]), n=3)
@example(M=np.array([[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]]), n=4)
def test_frame_builder_matches_loop_reference_bit_for_bit(M, n):
    field = build(SequenceParams(kind="FRAME_W1", n=n, M=M))
    ref = _loop_frame_w1_offsets(field.mesh, M, n)
    assert field.offsets.tobytes() == ref.tobytes()
    assert field.gradients.tobytes() == np.broadcast_to(M, field.gradients.shape).tobytes()
    # the file writes every signed zero as the reference cells hold it
    cells = [{"gradient": M.tolist(), "offset": ref[t].tolist()} for t in range(len(ref))]
    payload = {"dimension": 2, "n": n, "orientation": [1.0, 0.0], "cells": cells}
    assert field_to_json(field) == json.dumps(payload, indent=2)


@st.composite
def gamma_data(draw):
    angle = draw(st.floats(0.0, 2 * math.pi))
    return draw(scaled_values(3)), np.array([math.cos(angle), math.sin(angle)])


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(data=gamma_data(), n=st.integers(2, 64))
@example(data=(np.array([1.5, -2.0, 0.0]), np.array([0.6, 0.8])), n=64)
def test_gamma_builder_matches_loop_reference_bit_for_bit(data, n):
    lam, eta = data
    field = build(gamma_params(lam, eta, n))
    ref = _loop_gamma1_offsets(field.mesh, lam, n)
    assert field.offsets.tobytes() == ref.tobytes()


def test_evaluate_rounds_after_the_first_build_no_grid(monkeypatch):
    # the benchmark's evaluate round: two dense fields and 15 competitors,
    # whose grids depend on n alone (the staircase's at n = 32 is the 2D
    # field's); all 16 are kept from one round to the next
    import sdrelax.meshes as meshes

    original, builds = meshes._Grid.__init__, []

    def counted(self, *args):
        builds.append(args[1])
        original(self, *args)

    monkeypatch.setattr(meshes._Grid, "__init__", counted)
    rng = np.random.default_rng(5)
    eta = rng.normal(size=2)
    params = {
        "FRAME_W1": SequenceParams(kind="FRAME_W1", n=2, M=rng.uniform(-5, 5, (3, 2))),
        "GAMMA1_SPLIT": gamma_params(rng.uniform(-5, 5, 3), eta / np.linalg.norm(eta), 2),
        "STAIRCASE_TRACE": SequenceParams(
            kind="STAIRCASE_TRACE", n=2, A=rng.uniform(-5, 5, (3, 2)), B=rng.uniform(-5, 5, (3, 2))
        ),
    }
    build_mesh.cache_clear()
    per_round = []
    for _ in range(3):
        builds.clear()
        build_mesh(2, 32, eta / np.linalg.norm(eta))
        build_mesh(3, 8, np.array([0.0, 0.6, 0.8]))
        for kind, p in params.items():
            decay_table(p, NORMAL if kind == "STAIRCASE_TRACE" else PSI1, (4, 8, 16, 32, 64))
        per_round.append(len(builds))
    assert per_round == [16, 0, 0]
    build_mesh.cache_clear()

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdrelax import fields
from sdrelax.constructions import SequenceParams, build
from sdrelax.densities import interfacial_normal_pair, psi1_pair
from sdrelax.energy import surface_energy
from sdrelax.errors import DatumError, FieldError, InputError, MeshError
from sdrelax.fields import (
    GAUSS_NODES,
    GAUSS_WEIGHTS,
    AffineDatum,
    SbvField,
    StepDatum,
    abs_affine_rectangle_exact,
    abs_affine_segment_exact,
    average_gradient,
    boundary_pieces,
    boundary_trace_gap,
    field_from_json,
    field_to_json,
    gauss_green_residual,
    norm_affine_segment_exact,
    piece_segments,
)
from sdrelax.functionals import StructuredTriple, eval_left, eval_right, triple_from_json
from sdrelax.meshes import Mesh, build_mesh
from strategies import (
    blocked_field,
    interior_tables,
    jump_corner_values,
    nonzero_jumps,
    rectilinear_meshes,
    scaled_values,
    unit_vectors,
)

E1 = np.array([1.0, 0.0])
RNG = np.random.default_rng(20240817)


def random_field(mesh, rng, scale=10.0):
    return SbvField(
        mesh,
        rng.uniform(-scale, scale, (mesh.ncells, 3, mesh.dim)),
        rng.uniform(-scale, scale, (mesh.ncells, 3)),
    )


# ---------------------------------------------------------------------------
# exact integral primitives
# ---------------------------------------------------------------------------

def test_abs_affine_exact_against_quadrature():
    rng = np.random.default_rng(0)
    # dense-midpoint oracle, frozen accuracy ~1e-7 for these magnitudes
    t = (np.arange(200000) + 0.5) / 200000
    for _ in range(50):
        f0, f1, length = rng.uniform(-5, 5, 3)
        length = abs(length) + 0.1
        exact = abs_affine_segment_exact(f0, f1, length)
        brute = np.mean(np.abs(f0 + (f1 - f0) * t)) * length
        assert exact == pytest.approx(brute, abs=1e-6)


def test_norm_affine_exact_against_quadrature():
    rng = np.random.default_rng(1)
    t = (np.arange(200000) + 0.5) / 200000
    for _ in range(30):
        v0 = rng.uniform(-3, 3, 3)
        v1 = rng.uniform(-3, 3, 3)
        length = 0.7
        exact = norm_affine_segment_exact(v0, v1, length)
        vals = np.linalg.norm(v0[None, :] + t[:, None] * (v1 - v0)[None, :], axis=1)
        assert exact == pytest.approx(np.mean(vals) * length, abs=1e-6)
    # degenerate: constant vector
    assert norm_affine_segment_exact(np.ones(3), np.ones(3), 2.0) == pytest.approx(
        2.0 * np.sqrt(3.0), abs=1e-12
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    v0=st.lists(st.floats(-1, 1), min_size=3, max_size=3).filter(lambda v: np.linalg.norm(v) > 0.1),
    direction=unit_vectors(3),
    rho=st.floats(-16, -3),
    scale=st.integers(-9, 12),
)
def test_norm_affine_exact_on_nearly_constant_segments(v0, direction, rho, scale):
    # |v1 - v0| / |v0| = 10^rho; the segment stays far from 0, so the
    # 16-point Gauss rule is exact to rounding there.  Bound 1e-10 relative,
    # at every scale
    v0 = np.asarray(v0) * 10.0**scale
    v1 = v0 + direction * 10.0**rho * np.linalg.norm(v0)
    gauss = GAUSS_WEIGHTS @ np.linalg.norm(v0 + GAUSS_NODES[:, None] * (v1 - v0), axis=1)
    got = norm_affine_segment_exact(v0, v1, 0.5)
    assert abs(got - 0.5 * gauss) <= 1e-10 * 0.5 * gauss


def _exact_abs_rectangle(lo, width, grad, const):
    """``\\int |f|`` for ``f = grad . x + const`` over the rectangle ``[lo,
    lo + width]``, in exact rational arithmetic: ``\\int f`` plus twice the
    integral of ``-f`` over the rectangle clipped to ``f <= 0``, fan
    triangulated."""
    (x0, y0), (w, h) = lo, width
    corners = [(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h)]

    def f(p):
        return grad[0] * p[0] + grad[1] * p[1] + const

    clipped = []
    for p, q in zip(corners, corners[1:] + corners[:1]):
        if f(p) <= 0:
            clipped.append(p)
        if (f(p) < 0 < f(q)) or (f(q) < 0 < f(p)):
            t = f(p) / (f(p) - f(q))
            clipped.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    negative = Fraction(0)
    for a, b, c in zip(clipped[:1] * len(clipped), clipped[1:], clipped[2:]):
        area = abs((b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])) / 2
        negative -= area * (f(a) + f(b) + f(c)) / 3
    mean = f((x0 + w / 2, y0 + h / 2))
    return mean * w * h + 2 * negative


@st.composite
def dyadic_affine_rectangles(draw):
    """A rectangle in [-0.5, 0.5]^2 on a 1/16 grid and an affine ``f`` whose
    corner values are exact floats, scaled by a power of two near 1e-9 ...
    1e12, as Fractions (lo, width, grad, const).  Cases: generic,
    one slope zero, the sign line through a corner, ``f == 0``, slopes 2^-40
    of the centre value, and one slope 2^-40 of the other."""
    q = Fraction(1, 16)
    lo = [draw(st.integers(-8, 7)) * q for _ in range(2)]
    width = [draw(st.integers(1, 8 - int(x / q))) * q for x in lo]
    case = draw(st.sampled_from(("generic", "one-flat", "corner", "zero", "tiny", "skewed")))
    big = st.integers(-(2**20), 2**20)
    grad = [Fraction(draw(big)), Fraction(draw(big))]
    const = draw(big) * q
    if case == "one-flat":
        grad[draw(st.integers(0, 1))] = Fraction(0)
    elif case == "corner":
        x, y = [(lo[0], lo[1]), (lo[0] + width[0], lo[1]), (lo[0] + width[0], lo[1] + width[1]),
                (lo[0], lo[1] + width[1])][draw(st.integers(0, 3))]
        const = -(grad[0] * x + grad[1] * y)
    elif case == "zero":
        grad, const = [Fraction(0), Fraction(0)], Fraction(0)
    elif case == "tiny":
        small = st.integers(-64, 64)
        grad = [Fraction(draw(small), 2**40), Fraction(draw(small), 2**40)]
        const = Fraction(draw(st.integers(1, 256)) * draw(st.sampled_from((-1, 1))))
    elif case == "skewed":
        grad = [Fraction(draw(st.integers(-64, 64))), Fraction(draw(st.integers(-16, 16)), 2**40)]
        const = Fraction(draw(st.integers(-64, 64)), 16)
    scale = Fraction(2) ** draw(st.integers(-30, 40))
    return lo, width, [g * scale for g in grad], const * scale


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(rect=dyadic_affine_rectangles())
def test_abs_affine_rectangle_matches_the_exact_rational_integral(rect):
    # bound: 4e-16 relative, about 3.6 units in the last place; the corner
    # values and the area are exact floats, so only the kernel rounds
    lo, width, grad, const = rect
    (x0, y0), (x1, y1) = lo, (lo[0] + width[0], lo[1] + width[1])
    exact = [grad[0] * x + grad[1] * y + const for x, y in ((x0, y0), (x1, y0), (x1, y1), (x0, y1))]
    assert all(Fraction(float(v)) == v for v in exact)
    area = width[0] * width[1]
    got = abs_affine_rectangle_exact(np.array([[float(v) for v in exact]]), np.array([float(area)]))
    want = _exact_abs_rectangle(lo, width, grad, const)
    assert abs(Fraction(got[0]) - want) <= Fraction(4e-16) * want


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    values=scaled_values((50, 4), specials=(-0.0, 0.0, 1.0, -3.0, 1e16, -1e16, 1e-9, 1e12)),
    shift=st.integers(-60, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_abs_affine_rectangle_is_1_homogeneous_bit_for_bit(values, shift, seed):
    # power-of-two scales and sign flips are exact, so they must commute
    # with the kernel exactly (no subnormal specials: scaling those rounds);
    # the values need not be affine for that
    area = np.random.default_rng(seed).uniform(0.0, 1.0, len(values))
    base = abs_affine_rectangle_exact(values, area)
    assert np.all(base >= 0.0)
    s = 2.0**shift
    assert abs_affine_rectangle_exact(values * s, area).tolist() == (base * s).tolist()
    assert abs_affine_rectangle_exact(-values, area).tolist() == base.tolist()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(corners=st.sampled_from((1, 2, 4)), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_abs_affine_integral_is_the_kernel_of_its_corner_count_bit_for_bit(corners, data, seed):
    f = data.draw(scaled_values((40, corners)), label="f")
    measure = np.random.default_rng(seed).uniform(0.0, 1.0, 40)
    got = fields.abs_affine_integral(f, measure)
    if corners == 1:  # a constant
        want = np.abs(f[:, 0]) * measure
    elif corners == 2:
        want = abs_affine_segment_exact(f[:, 0], f[:, 1], measure)
    else:
        want = abs_affine_rectangle_exact(f, measure)
    assert got.shape == (40,) and got.tobytes() == want.tobytes()
    assert fields.abs_affine_integral(np.zeros((0, corners)), np.zeros(0)).shape == (0,)


# ---------------------------------------------------------------------------
# jumps
# ---------------------------------------------------------------------------

def test_affine_field_has_no_jumps():
    mesh = build_mesh(2, 4, E1)
    fld = SbvField.affine(mesh, RNG.uniform(-2, 2, (3, 2)), RNG.uniform(-2, 2, 3))
    assert nonzero_jumps(fld) == []


def test_two_cell_constant_jump():
    mesh = build_mesh(2, 1, E1)
    # split manually: use a 2x1 mesh via rectilinear breaks
    mesh = Mesh([np.array([-0.5, 0.0, 0.5]), np.array([-0.5, 0.5])])
    lam = np.array([0.5, -1.0, 2.0])
    G = np.tile(np.arange(6.0).reshape(3, 2), (2, 1, 1))
    b = np.stack([np.zeros(3), lam])
    fld = SbvField(mesh, G, b)
    recs = nonzero_jumps(fld)
    assert len(recs) == 1
    e, values = recs[0]
    assert np.allclose(values, lam[None, :], atol=0)
    assert interior_tables(mesh, [e])["int_measure"][0] == pytest.approx(1.0, abs=1e-12)


def test_gamma_split_jumps_verified_pointwise():
    # oracle: evaluate both adjacent affine pieces at the edge corners
    params = SequenceParams(kind="GAMMA1_SPLIT", n=2, lam=np.array([1.0, 0, 0]), eta=np.array([0.0, 1.0]))
    fld = build(params)
    mesh = fld.mesh
    tab = interior_tables(mesh)
    for e, values in nonzero_jumps(fld):
        pts = tab["int_corners"][e] @ mesh.frame.T
        minus_cell, plus_cell = tab["int_minus"][e], tab["int_plus"][e]
        u_minus = pts @ fld.gradients[minus_cell].T + fld.offsets[minus_cell]
        u_plus = pts @ fld.gradients[plus_cell].T + fld.offsets[plus_cell]
        assert np.max(np.abs(values - (u_plus - u_minus))) <= 1e-12
        # third components off the midline are +-1/2 at n=2
        if abs(values[0][2]) > 0:
            assert abs(abs(values[0][2]) - 0.5) <= 1e-12 or abs(
                abs(values[0][2]) - 1.0
            ) <= 1e-12  # midline inside: shifts add up to 2/n


def _sum_of_traces(field):
    """Reference jumps ``(G+ x + c+) - (G- x + c-)`` at every interior edge
    corner, each trace evaluated on its own (the form the table replaced),
    and a bound on the magnitude of the traces' terms per edge."""
    tab = interior_tables(field.mesh)
    pts = tab["int_corners"] @ field.mesh.frame.T
    traces, magnitude = [], 0.0
    for cells in (tab["int_minus"], tab["int_plus"]):
        G, c = field.gradients[cells], field.offsets[cells][:, None, :]
        traces.append(np.einsum("eij,ekj->eki", G, pts) + c)
        terms = np.einsum("eij,ekj->eki", np.abs(G), np.abs(pts)) + np.abs(c)
        magnitude = np.maximum(magnitude, terms.max(axis=(1, 2)))
    return traces[1] - traces[0], magnitude


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(mesh=rectilinear_meshes(max_cells=(6, 3)), data=st.data())
def test_jump_table_matches_sum_of_traces(mesh, data):
    field = SbvField(
        mesh,
        data.draw(scaled_values((mesh.ncells, 3, mesh.dim))),
        data.draw(scaled_values((mesh.ncells, 3))),
    )
    ref, magnitude = _sum_of_traces(field)
    got = jump_corner_values(field)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref).max(axis=(1, 2), initial=0.0) <= 1e-15 * magnitude)


def assert_blocks(field):
    """The table's blocks partition its rows: block ``3 a + k`` holds, in
    increasing edge order, axis ``a``'s rows of kind ``k``, where the kinds
    are those of a per-call split: no jump, a jump equal at every corner,
    the rest.  Returns the number of rows of each kind."""
    table, mesh = field.jump_table, field.mesh
    bounds = table.bounds
    assert bounds.shape == (3 * mesh.dim + 1,) and bounds[0] == 0
    assert bounds[-1] == len(table.affine) and np.all(np.diff(bounds) >= 0)
    jump = np.any(table.values != 0.0, axis=(1, 2))
    const = np.all(table.values == table.values[:, :1], axis=(1, 2))
    kind = np.where(~jump, 0, np.where(const, 1, 2))
    axis = mesh.int_axis[table.affine]
    for b in range(3 * mesh.dim):
        rows = slice(bounds[b], bounds[b + 1])
        assert np.all(axis[rows] == b // 3) and np.all(kind[rows] == b % 3), b
        assert np.all(np.diff(table.affine[rows]) > 0), b
    return np.bincount(kind, minlength=3)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(mesh=rectilinear_meshes(max_cells=(6, 4)), data=st.data())
def test_jump_table_by_differences_equals_the_gathered_form(mesh, data):
    # per-axis differences give the bytes of the per-edge gathers
    # offsets[plus] - offsets[minus] and grads[plus] - grads[minus]
    grads = data.draw(scaled_values((mesh.ncells, 3, mesh.dim)))
    odd = data.draw(st.sampled_from(["all", "some", "none"]))
    if odd != "all":
        keep = np.ones(mesh.ncells, dtype=bool)
        if odd == "some":
            keep[data.draw(st.lists(st.integers(0, mesh.ncells - 1), max_size=3))] = False
        grads[keep] = grads[0]
    field = SbvField(mesh, grads, data.draw(scaled_values((mesh.ncells, 3))))
    tab = interior_tables(mesh)
    minus, plus = tab["int_minus"], tab["int_plus"]
    table = field.jump_table
    offset = field.offsets[plus] - field.offsets[minus]
    assert table.offset.tobytes() == offset.tobytes()
    slope = field.gradients[plus] - field.gradients[minus]
    affine = np.flatnonzero(np.any(field.gradients[plus] != field.gradients[minus], axis=(1, 2)))
    # the table's rows come in blocks; matched by edge they are the gathered rows
    by_edge = np.argsort(table.affine)
    assert np.array_equal(table.affine[by_edge], affine)
    names = [f.name for f in dataclasses.fields(table)]
    assert names == ["offset", "affine", "values", "bounds"]  # no geometry
    points = tab["int_corners"][affine] @ mesh.frame.T
    values = points @ slope[affine].transpose(0, 2, 1) + offset[affine][:, None, :]
    got = table.values[by_edge]
    assert got.shape == values.shape and got.tobytes() == values.tobytes()
    assert_blocks(field)


def test_jump_table_blocks_hold_zero_constant_and_affine_jumps():
    kinds = np.zeros(3, dtype=int)
    for dim, n in ((2, 1), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4)):
        mesh = build_mesh(dim, n, np.eye(dim)[0])
        for seed, scale in enumerate((1e-9, 1.0, 1e12)):
            kinds += assert_blocks(blocked_field(mesh, np.random.default_rng(seed), scale))
        assert_blocks(random_field(build_mesh(dim, n, np.array([0.6, 0.8, 0.0][:dim])), RNG))
    assert np.all(kinds > 0)
    # one gradient: no affine rows, empty blocks
    table = SbvField.affine(build_mesh(3, 3, np.array([0.0, 0.6, 0.8])), np.ones((3, 3))).jump_table
    assert table.bounds.tobytes() == np.zeros(10, dtype=np.intp).tobytes()


def test_jump_table_rows_with_equal_gradients_are_exactly_constant():
    # one shared gradient: every row is the offset difference, no corner values
    mesh = build_mesh(3, 4, np.array([0.0, 0.6, 0.8]))
    rng = np.random.default_rng(9)
    grads = np.broadcast_to(rng.uniform(-5, 5, (3, 3)), (mesh.ncells, 3, 3))
    field = SbvField(mesh, grads, rng.uniform(-5, 5, (mesh.ncells, 3)))
    table = field.jump_table
    assert len(table.affine) == 0 and table.values.shape == (0, 4, 3)
    tab = interior_tables(mesh)
    assert np.array_equal(table.offset, field.offsets[tab["int_plus"]] - field.offsets[tab["int_minus"]])
    # the sum of traces rounds many of these constant jumps into affine ones
    ref, _ = _sum_of_traces(field)
    assert np.any(ref != ref[:, :1])
    # one cell with its own gradient makes exactly its interior edges affine
    grads = grads.copy()
    grads[5] += 1.0
    table = SbvField(mesh, grads, field.offsets).jump_table
    touching = np.flatnonzero((tab["int_minus"] == 5) | (tab["int_plus"] == 5))
    assert np.array_equal(table.affine, touching)


def test_field_arrays_are_read_only():
    mesh = build_mesh(2, 3, E1)
    grads, offs = RNG.uniform(-2, 2, (mesh.ncells, 3, 2)), RNG.uniform(-2, 2, (mesh.ncells, 3))
    field = SbvField(mesh, grads, offs)
    with pytest.raises(ValueError):
        field.gradients[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        field.offsets[:, 2] = 0.0
    with pytest.raises(AttributeError):
        field.offsets = offs
    # the field adopts the float arrays handed over and freezes them
    assert field.gradients is grads and field.offsets is offs
    with pytest.raises(ValueError):
        offs[0, 0] = 1.0
    table = field.jump_table
    for a in (table.offset, table.affine, table.values, table.bounds):
        with pytest.raises(ValueError):
            a[...] = 0


def test_jump_table_is_built_once_per_field(monkeypatch):
    built = []

    class CountingTable(fields.JumpTable):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(fields, "JumpTable", CountingTable)
    rng = np.random.default_rng(12)
    mesh = build_mesh(2, 4, np.array([0.6, 0.8]))
    field = random_field(mesh, rng)
    for density in (interfacial_normal_pair(), psi1_pair()):
        for datum in (None, AffineDatum(rng.uniform(-2, 2, (3, 2)))):
            for over in (False, True):
                surface_energy(field, density, datum=datum, overestimate=over)
    gauss_green_residual(field)
    triple = StructuredTriple(g=field, G=rng.uniform(-2, 2, (16, 3, 2)), d=np.zeros((16, 3)))
    assert eval_left(triple) == eval_right(triple)
    assert len(built) == 1 and field.jump_table is built[0]


# ---------------------------------------------------------------------------
# average gradient
# ---------------------------------------------------------------------------

def test_average_gradient_trivial_cases():
    mesh = build_mesh(2, 3, E1)
    A = RNG.uniform(-4, 4, (3, 2))
    assert np.allclose(average_gradient(SbvField.affine(mesh, A)), A, atol=1e-14)
    B = RNG.uniform(-4, 4, (3, 2))
    fld = SbvField(mesh, np.tile(B, (mesh.ncells, 1, 1)), np.zeros((mesh.ncells, 3)))
    assert np.allclose(average_gradient(fld), B, atol=1e-14)


def test_average_gradient_is_weighted_mean():
    mesh = build_mesh(2, 2, E1)
    grads = RNG.uniform(-3, 3, (4, 3, 2))
    fld = SbvField(mesh, grads, np.zeros((4, 3)))
    assert np.allclose(average_gradient(fld), grads.mean(axis=0), atol=1e-13)


def test_average_gradient_linear_superposition():
    mesh = build_mesh(2, 4, np.array([0.0, 1.0]))
    rng = np.random.default_rng(5)
    for _ in range(10):
        g1 = rng.uniform(-3, 3, (mesh.ncells, 3, 2))
        g2 = rng.uniform(-3, 3, (mesh.ncells, 3, 2))
        a, b = rng.uniform(-2, 2, 2)
        lhs = average_gradient(SbvField(mesh, a * g1 + b * g2, np.zeros((mesh.ncells, 3))))
        rhs = a * average_gradient(
            SbvField(mesh, g1, np.zeros((mesh.ncells, 3)))
        ) + b * average_gradient(SbvField(mesh, g2, np.zeros((mesh.ncells, 3))))
        assert np.allclose(lhs, rhs, atol=1e-11)


# ---------------------------------------------------------------------------
# boundary trace gap
# ---------------------------------------------------------------------------

def test_trace_gap_zero_for_matching_affine():
    mesh = build_mesh(2, 3, E1)
    A = RNG.uniform(-2, 2, (3, 2))
    fld = SbvField.affine(mesh, A)
    assert boundary_trace_gap(fld, AffineDatum(A)) <= 1e-14


def test_trace_gap_of_zero_field_against_step_datum():
    # oracle: the datum equals lam on the boundary part with x.eta >= 0,
    # whose measure is 2 (one full side plus two half sides), so the gap is
    # 2 |lam|; cross-check the measure from the boundary piece table
    lam = np.array([3.0, -1.0, 2.0])
    for eta in (E1, np.array([0.0, 1.0]), np.array([1.0, 1.0]) / np.sqrt(2)):
        mesh = build_mesh(2, 4, eta)
        datum = StepDatum(lam, eta)
        pieces = boundary_pieces(mesh, datum)
        measure = pieces.measure[pieces.points.mean(axis=1) @ eta >= 0].sum()
        assert measure == pytest.approx(2.0, abs=1e-12)
        fld = SbvField.affine(mesh, np.zeros((3, 2)))
        assert boundary_trace_gap(fld, datum) == pytest.approx(
            measure * np.linalg.norm(lam), abs=1e-10
        )


def test_trace_gap_zero_for_cellwise_step_field():
    lam = np.array([1.0, 2.0, 3.0])
    eta = np.array([0.0, 1.0])
    mesh = build_mesh(2, 4, eta)
    mids = mesh.cell_centers()[:, 0]
    offsets = np.where(mids[:, None] >= 0, lam[None, :], 0.0)
    fld = SbvField(mesh, np.zeros((mesh.ncells, 3, 2)), offsets)
    assert boundary_trace_gap(fld, StepDatum(lam, eta)) <= 1e-12


def test_2d_trace_gap_is_1_homogeneous_down_to_tiny_mismatches():
    # the 2D twin of the 3D test below: at scale 2^-30 each segment's
    # mismatch varies by about 1e-22, which must still count as affine
    rng = np.random.default_rng(1)
    A = rng.uniform(-1, 1, (3, 2))
    mesh = build_mesh(2, 2, E1)
    grads = A * (1 + 1e-6 * rng.uniform(-1, 1, (mesh.ncells, 3, 2)))
    gaps = []
    for s in (1.0, 2.0**-30, 2.0**40):
        fld = SbvField(mesh, s * grads, np.zeros((mesh.ncells, 3)))
        gaps.append(boundary_trace_gap(fld, AffineDatum(s * A)) / s)
    assert gaps[0] > 0
    assert gaps[1] == gaps[0] and gaps[2] == gaps[0]


def test_3d_trace_gap_is_1_homogeneous_down_to_tiny_mismatches():
    # gradients within 1e-6 of the datum's: at scale 2^-30 each face's
    # mismatch varies by about 1e-16, which must still count as affine.
    # Power-of-two scales make every step exact, so gap / s is bit-identical
    rng = np.random.default_rng(1)
    A = rng.uniform(-1, 1, (3, 3))
    mesh = build_mesh(3, 2, np.array([1.0, 0.0, 0.0]))
    grads = A * (1 + 1e-6 * rng.uniform(-1, 1, (mesh.ncells, 3, 3)))
    gaps = []
    for s in (1.0, 2.0**-30, 2.0**40):
        fld = SbvField(mesh, s * grads, np.zeros((mesh.ncells, 3)))
        gaps.append(boundary_trace_gap(fld, AffineDatum(s * A)) / s)
    assert gaps[0] > 0
    assert gaps[1] == gaps[0] and gaps[2] == gaps[0]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    dim=st.sampled_from((2, 3)),
    n=st.integers(1, 9),
    orientation=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
        lambda v: np.linalg.norm(v[:2]) > 0.1
    ),
)
def test_boundary_pieces_partition_the_boundary(dim, n, orientation):
    eta = np.asarray(orientation[:dim]) / np.linalg.norm(orientation[:dim])
    mesh = build_mesh(dim, n, eta)
    lam = np.array([1.0, -2.0, 0.5])
    pieces = boundary_pieces(mesh, StepDatum(lam, eta))
    # the pieces tile the boundary, in edge order, each edge at most halved
    assert pieces.measure.sum() == pytest.approx(2.0 * dim, abs=1e-12)
    assert np.all(np.diff(pieces.edge) >= 0)
    assert np.all(np.bincount(pieces.edge) <= 2)
    per_edge = np.bincount(pieces.edge, weights=pieces.measure)
    assert np.allclose(per_edge, mesh.bnd_measure, rtol=0, atol=1e-15)
    # no piece straddles the datum discontinuity; a halved edge lists its lower half first
    xi0 = pieces.corners[:, :, 0]
    assert np.all((xi0.max(axis=1) <= 0.0) | (xi0.min(axis=1) >= 0.0))
    halved = np.flatnonzero(np.diff(pieces.edge) == 0)
    assert np.all(xi0[halved].max(axis=1) <= 0.0) and np.all(xi0[halved + 1].min(axis=1) >= 0.0)
    # the datum is constant per piece: lam on the x.eta >= 0 side, else 0
    upper = pieces.points.mean(axis=1) @ eta >= 0
    assert np.all(pieces.datum == np.where(upper[:, None, None], lam, 0.0))
    if dim == 2:
        assert pieces.measure[upper].sum() == pytest.approx(2.0, abs=1e-12)
    # rows agree with the mesh's boundary edges
    assert np.array_equal(pieces.cell, mesh.bnd_cell[pieces.edge])
    assert np.array_equal(pieces.axis, mesh.bnd_axis[pieces.edge])
    assert np.array_equal(pieces.normal, mesh.bnd_normals()[pieces.edge])
    assert np.allclose(pieces.points, pieces.corners @ mesh.frame.T, rtol=0, atol=1e-15)


def test_boundary_pieces_of_affine_datum_are_the_boundary_edges():
    mesh = build_mesh(3, 3, np.array([0.0, 0.6, 0.8]))
    A = RNG.uniform(-2, 2, (3, 3))
    pieces = boundary_pieces(mesh, AffineDatum(A))
    assert np.array_equal(pieces.edge, np.arange(len(mesh.bnd_axis)))
    assert np.array_equal(pieces.corners, mesh.bnd_corners)
    assert np.array_equal(pieces.measure, mesh.bnd_measure)
    assert np.allclose(pieces.datum, pieces.points @ A.T, rtol=0, atol=1e-14)


@pytest.mark.parametrize("dim, n", [(2, 4), (2, 5), (3, 2), (3, 3)])
def test_piece_arrays_are_read_only_and_unsplit_pieces_are_the_mesh_arrays(dim, n):
    nu = np.array([0.6, 0.8, 0.0][:dim]) / np.linalg.norm([0.6, 0.8, 0.0][:dim])
    mesh = build_mesh(dim, n, nu)
    step = StepDatum(np.array([1.0, -2.0, 0.5]), nu)
    for datum, split in ((AffineDatum(RNG.uniform(-2, 2, (3, dim))), False), (step, n % 2 == 1)):
        pieces = boundary_pieces(mesh, datum)
        for name, value in vars(pieces).items():
            assert not value.flags.writeable, name
            with pytest.raises(ValueError):
                value[...] = 0
        own = {"cell": mesh.bnd_cell, "axis": mesh.bnd_axis, "measure": mesh.bnd_measure,
               "corners": mesh.bnd_corners}
        for name, array in own.items():
            assert np.shares_memory(getattr(pieces, name), array) is not split, name
        assert (len(pieces.edge) > len(mesh.bnd_axis)) is split


def test_split_measure_rule_gives_unsplit_edges_their_mesh_measure():
    # a split half's measure is the product of its extents along the free
    # axes; on every unsplit edge that rule is the mesh's bnd_measure bit for bit
    def rule(mesh):
        corners = mesh.bnd_corners
        spread = corners.max(axis=1) - corners.min(axis=1)
        spread[np.arange(len(spread)), mesh.bnd_axis] = 1.0
        return np.prod(spread, axis=1)

    meshes = [build_mesh(2, n, E1) for n in range(1, 70)]
    meshes += [build_mesh(3, n, np.array([1.0, 0.0, 0.0])) for n in range(1, 30)]
    rng = np.random.default_rng(17)
    for _ in range(100):
        dim = int(rng.integers(2, 4))
        meshes.append(Mesh([np.sort(rng.uniform(-2, 2, rng.integers(2, 8))) for _ in range(dim)]))
    for mesh in meshes:
        assert rule(mesh).tobytes() == mesh.bnd_measure.tobytes()


def test_zero_gradient_3d_trace_gap_runs_no_quadrature(monkeypatch):
    # a step minimizer has zero gradient, so each face's mismatch is constant
    def never(*args):
        raise AssertionError("the face rule ran")

    monkeypatch.setattr(fields, "norm_affine_segment_exact", never)
    rng = np.random.default_rng(23)
    for n in (2, 3, 6):
        nu = rng.normal(size=3)
        nu /= np.linalg.norm(nu)
        lam = rng.uniform(-5, 5, 3)
        mesh = build_mesh(3, n, nu)
        fld = SbvField(mesh, np.zeros((mesh.ncells, 3, 3)), rng.uniform(-5, 5, (mesh.ncells, 3)))
        datum = StepDatum(lam, nu)
        pieces = boundary_pieces(mesh, datum)
        first = (pieces.field_values(fld) - pieces.datum)[:, 0]
        constant_faces = np.sqrt(np.vecdot(first, first)) * pieces.measure
        assert boundary_trace_gap(fld, datum) == float(np.cumsum(constant_faces)[-1])


def test_step_datum_orientation_mismatch_raises():
    mesh = build_mesh(2, 2, E1)
    fld = SbvField.affine(mesh, np.zeros((3, 2)))
    with pytest.raises(DatumError):
        boundary_trace_gap(fld, StepDatum(np.ones(3), np.array([0.0, 1.0])))


# ---------------------------------------------------------------------------
# Gauss-Green identity
# ---------------------------------------------------------------------------

def test_gauss_green_single_cell_affine():
    for dim in (2, 3):
        orientation = np.zeros(dim)
        orientation[0] = 1.0
        mesh = build_mesh(dim, 1, orientation)
        fld = SbvField.affine(mesh, RNG.uniform(-3, 3, (3, dim)), RNG.uniform(-3, 3, 3))
        assert np.max(np.abs(gauss_green_residual(fld))) <= 1e-12


def test_gauss_green_random_fields():
    rng = np.random.default_rng(7)
    sizes = [1, 2, 4, 8, 16, 32]
    for i in range(100):
        n = sizes[i % len(sizes)]
        theta = rng.uniform(0, 2 * np.pi)
        eta = np.array([np.cos(theta), np.sin(theta)])
        mesh = build_mesh(2, n, eta)
        fld = random_field(mesh, rng)
        res = np.max(np.abs(gauss_green_residual(fld)))
        assert res <= 1e-10 * (1.0 + fld.scale())


def test_gauss_green_3d_random_fields():
    rng = np.random.default_rng(8)
    for n in (1, 2, 3):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        mesh = build_mesh(3, n, v)
        fld = random_field(mesh, rng)
        assert np.max(np.abs(gauss_green_residual(fld))) <= 1e-10 * (1.0 + fld.scale())


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(mesh=rectilinear_meshes(), seed=st.integers(0, 2**32 - 1))
def test_gauss_green_on_random_rectilinear_meshes(mesh, seed):
    fld = random_field(mesh, np.random.default_rng(seed))
    res = np.max(np.abs(gauss_green_residual(fld)))
    assert res <= 1e-10 * (1.0 + fld.scale())


def test_gauss_green_step_field_on_rotated_square():
    lam = np.array([2.0, -1.0, 0.5])
    eta = np.array([1.0, 1.0]) / np.sqrt(2)
    mesh = build_mesh(2, 4, eta)
    mids = mesh.cell_centers()[:, 0]
    offsets = np.where(mids[:, None] >= 0, lam[None, :], 0.0)
    fld = SbvField(mesh, np.zeros((mesh.ncells, 3, 2)), offsets)
    assert np.max(np.abs(gauss_green_residual(fld))) <= 1e-12


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def test_field_json_round_trip():
    mesh = build_mesh(2, 3, np.array([0.0, 1.0]))
    fld = random_field(mesh, np.random.default_rng(3))
    text = field_to_json(fld)
    back = field_from_json(text)
    assert np.max(np.abs(back.gradients - fld.gradients)) <= 1e-15 * (
        1 + np.max(np.abs(fld.gradients))
    )
    assert np.max(np.abs(back.offsets - fld.offsets)) <= 1e-15 * (1 + np.max(np.abs(fld.offsets)))


def test_field_json_rejects_bad_payloads():
    with pytest.raises(InputError):
        field_from_json("not json")
    with pytest.raises(InputError):
        field_from_json('{"dimension": 2, "n": 2}')
    with pytest.raises(InputError):
        field_from_json(
            '{"dimension": 2, "n": 2, "orientation": [1.0, 0.0], "cells": []}'
        )


def test_field_json_reads_integral_float_header_numbers():
    # the problem file's rule: JSON 3.0 is the integer 3
    fld = random_field(build_mesh(2, 3, np.array([0.0, 1.0])), np.random.default_rng(4))
    payload = json.loads(field_to_json(fld))
    payload.update(dimension=2.0, n=3.0)
    back = field_from_json(json.dumps(payload))
    assert (back.mesh.dim, back.mesh.n, type(back.mesh.n)) == (2, 3, int)
    assert back.offsets.tobytes() == field_from_json(field_to_json(fld)).offsets.tobytes()


@pytest.mark.parametrize(
    "read, extra",
    [(field_from_json, {}), (triple_from_json, {"G": [[0.0] * 2] * 3, "d": [0.0] * 3})],
)
def test_a_short_file_is_rejected_before_its_grid_is_built(read, extra):
    # a file of 4 cells may claim n = 3000: its cells are counted first, so
    # no 9e6-cell grid is built or kept
    from sdrelax import meshes

    cell = {"gradient": [[0.0] * 2] * 3, "offset": [0.0] * 3, **extra}
    payload = {"dimension": 2, "n": 3000, "orientation": [1.0, 0.0], "cells": [cell] * 4}
    build_mesh.cache_clear()
    with pytest.raises(InputError, match="^field file lists 4 cells but the mesh has 9000000$"):
        read(json.dumps(payload))
    # a bad dimension or orientation keeps the error build_mesh gives it
    for bad, message in (
        ({"dimension": 4, "orientation": [1.0, 0.0, 0.0, 0.0]}, "dimension must be 2 or 3"),
        ({"orientation": [1.0, 0.0, 0.0]}, "does not match dimension 2"),
        ({"orientation": [1.0, 1.0]}, "orientation must be a unit vector"),
        ({"orientation": [float("nan"), 0.0]}, "orientation must be a unit vector"),
    ):
        with pytest.raises(MeshError, match=message):
            read(json.dumps({**payload, **bad}))
    assert meshes._kept_grid.cache_info().currsize == 0


def test_a_field_file_with_a_nan_orientation_raises():
    mesh = build_mesh(2, 2, np.array([1.0, 0.0]))
    payload = json.loads(field_to_json(SbvField.affine(mesh, np.zeros((3, 2)))))
    payload["orientation"] = [float("nan"), 0.0]
    with pytest.raises(MeshError, match="orientation must be a unit vector"):
        field_from_json(json.dumps(payload))


def _dumps_field_reference(field):
    """The nested-list ``json.dumps`` writer the template writer replaced."""
    mesh = field.mesh
    payload = {
        "dimension": mesh.dim,
        "n": int(mesh.n),
        "orientation": mesh.orientation.tolist(),
        "cells": [
            {"gradient": field.gradients[t].tolist(), "offset": field.offsets[t].tolist()}
            for t in range(mesh.ncells)
        ],
    }
    return json.dumps(payload, indent=2)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(dim=st.sampled_from((2, 3)), n=st.integers(1, 8), data=st.data())
def test_field_json_is_byte_identical_to_json_dumps(dim, n, data):
    mesh = build_mesh(dim, n, data.draw(unit_vectors(dim)))
    field = SbvField(
        mesh,
        data.draw(scaled_values((mesh.ncells, 3, dim))),
        data.draw(scaled_values((mesh.ncells, 3))),
    )
    text = field_to_json(field)
    assert text == _dumps_field_reference(field)
    back = field_from_json(text)
    assert back.gradients.tobytes() == field.gradients.tobytes()
    assert back.offsets.tobytes() == field.offsets.tobytes()


@pytest.mark.parametrize("dim, n", [(2, 63), (2, 64), (2, 65), (2, 91), (3, 16), (3, 17)])
def test_field_json_blocks_join_byte_identically(dim, n):
    # the writer formats JSON_BLOCK_CELLS cells at a time: fewer, exactly as
    # many, one more and two blocks and a part of cells are joined seamlessly
    from sdrelax.fields import JSON_BLOCK_CELLS

    assert (63**2, 16**3, 65**2) == (3969, JSON_BLOCK_CELLS, 4225) and 91**2 > 2 * JSON_BLOCK_CELLS
    rng = np.random.default_rng(n)
    orientation = rng.normal(size=dim)
    mesh = build_mesh(dim, n, orientation / np.linalg.norm(orientation))
    offsets = rng.uniform(-5, 5, (mesh.ncells, 3)) * 10.0 ** rng.integers(-9, 13, (mesh.ncells, 1))
    offsets[::7, 1] = -0.0
    field = SbvField(mesh, rng.uniform(-5, 5, (mesh.ncells, 3, dim)), offsets)
    assert field_to_json(field) == _dumps_field_reference(field)


def test_field_shape_validation():
    mesh = build_mesh(2, 2, E1)
    with pytest.raises(FieldError):
        SbvField(mesh, np.zeros((3, 3, 2)), np.zeros((4, 3)))
    with pytest.raises(FieldError):
        SbvField(mesh, np.full((4, 3, 2), np.nan), np.zeros((4, 3)))


# ---------------------------------------------------------------------------
# the one face rule of 3D trace gaps against independent references
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 4),
    orientation=unit_vectors(3),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.integers(-9, 12),
    one_sign=st.booleans(),
)
def test_rank_one_face_gaps_match_the_exact_rectangle_integral(n, orientation, seed, exponent, one_sign):
    # a mismatch v f(x), f = w . x + beta, has norm |v| |f| on every face, whose
    # integral abs_affine_rectangle_exact gives exactly.  Where f keeps one sign
    # on the cube the rule errs by rounding alone (at most 1.1e-12 seen); where
    # it changes sign on a face, the Gauss rule in t meets a kink: 4.5e-3 was
    # the worst of 3746 such faces (median 5e-6), so each face is held to 1e-2
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    mesh = build_mesh(3, n, orientation)
    v, w, A = rng.uniform(-scale, scale, 3), rng.uniform(-1, 1, 3), rng.uniform(-scale, scale, (3, 3))
    beta = (2.0 if one_sign else rng.uniform(-0.4, 0.4)) * np.linalg.norm(w)  # |w . x| <= 0.87 |w|
    field, datum = SbvField.affine(mesh, A + np.outer(v, w), v * beta), AffineDatum(A)
    pieces = boundary_pieces(mesh, datum)
    exact = np.linalg.norm(v) * abs_affine_rectangle_exact(pieces.points @ w + beta, pieces.measure)
    weights, starts, ends = piece_segments(pieces.field_values(field) - pieces.datum)
    faces = weights @ norm_affine_segment_exact(starts, ends, pieces.measure)
    tol = 1e-11 if one_sign else 1e-2
    assert np.all(np.abs(faces - exact) <= tol * exact)
    gap = float(np.cumsum(exact)[-1])
    assert abs(boundary_trace_gap(field, datum) - gap) <= tol * gap


def _subdivided_face_mean(c, parts=8):
    """Mean of ``||m||`` over a face, ``m`` bilinear in its corner values ``c``
    (4, 3) in cyclic order: the 16-point Gauss rule on each of ``parts`` x
    ``parts`` subsquares."""
    s = ((np.arange(parts)[:, None] + GAUSS_NODES) / parts).ravel()
    w = np.tile(GAUSS_WEIGHTS, parts) / parts
    s, t = s[:, None, None], s[None, :, None]
    m = (1 - s) * (1 - t) * c[0] + s * (1 - t) * c[1] + s * t * c[2] + (1 - s) * t * c[3]
    return w @ np.linalg.norm(m, axis=2) @ w


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 3),
    orientation=unit_vectors(3),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.integers(-9, 12),
)
def test_face_gaps_match_a_subdivided_gauss_reference(n, orientation, seed, exponent):
    # generic faces against 128 x 128 Gauss points each (within 1e-10 of
    # 256 x 256): the mismatch of a random field may nearly vanish at a point
    # of a face, where its norm is a cone; the gap's worst relative error over
    # 240 such random gaps was 1.2e-5 (the 16 x 16 tensor rule before it:
    # 1.0e-5), held to 1e-4
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    mesh = build_mesh(3, n, orientation)
    field = random_field(mesh, rng, scale)
    for datum in (
        AffineDatum(rng.uniform(-scale, scale, (3, 3))),
        StepDatum(rng.uniform(-scale, scale, 3), mesh.orientation),
    ):
        pieces = boundary_pieces(mesh, datum)
        mism = pieces.field_values(field) - pieces.datum
        terms = np.array([_subdivided_face_mean(c) for c in mism]) * pieces.measure
        ref = float(np.cumsum(terms)[-1])
        assert abs(boundary_trace_gap(field, datum) - ref) <= 1e-4 * ref


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(dim=st.sampled_from((2, 3)), n=st.integers(1, 9), data=st.data())
def test_shared_operand_products_equal_the_stacked_products_bit_for_bit(dim, n, data):
    # one flat GEMM in place of numpy's per-row product keeps every bit: the
    # world corners, an affine datum's values and one broadcast gradient's
    # piece values, each against the stacked form it replaced
    mesh = build_mesh(dim, n, data.draw(unit_vectors(dim)))
    G, A = data.draw(scaled_values((3, dim))), data.draw(scaled_values((3, dim)))
    pieces = boundary_pieces(mesh, AffineDatum(A))
    assert pieces.points.tobytes() == (mesh.bnd_corners @ mesh.frame.T).tobytes()
    assert pieces.datum.tobytes() == (pieces.points @ A.T).tobytes()
    field = SbvField.affine(mesh, G, data.draw(scaled_values(3)))
    stacked = pieces.points @ np.broadcast_to(G.T, (len(pieces.cell), dim, 3)) + field.offsets[pieces.cell][:, None]
    assert pieces.field_values(field).tobytes() == stacked.tobytes()

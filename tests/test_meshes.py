import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdrelax.errors import MeshError
from sdrelax.meshes import Mesh, build_mesh, frame_from_orientation
from strategies import interior_tables, rectilinear_meshes, unit_vectors

E1 = np.array([1.0, 0.0])
DIAG = np.array([1.0, 1.0]) / np.sqrt(2)


def test_single_cell_square():
    mesh = build_mesh(2, 1, E1)
    assert mesh.ncells == 1
    assert len(mesh.int_axis) == 0
    assert len(mesh.bnd_axis) == 4
    assert mesh.total_measure == pytest.approx(1.0, abs=1e-12)


def test_two_by_two_counts():
    mesh = build_mesh(2, 2, E1)
    assert mesh.ncells == 4
    assert len(mesh.int_axis) == 4
    assert len(mesh.bnd_axis) == 8
    assert mesh.total_measure == pytest.approx(1.0, abs=1e-12)


def test_rotated_mesh_normals_match_rotated_axis_normals():
    # oracle: rotate the axis-aligned mesh normals by the orientation frame
    mesh = build_mesh(2, 4, DIAG)
    assert mesh.ncells == 16
    frame = frame_from_orientation(DIAG)
    expected = {tuple(np.round(s * frame[:, a], 12)) for a in range(2) for s in (+1, -1)}
    seen = {tuple(np.round(v, 12)) for v in mesh.frame.T[mesh.int_axis]}
    seen |= {tuple(np.round(v, 12)) for v in mesh.bnd_normals()}
    assert seen <= expected
    d = round(1 / np.sqrt(2), 12)
    up_to_sign = {tuple(np.round(np.abs(v), 12)) for v in map(np.array, seen)}
    assert up_to_sign == {(d, d)}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(v=unit_vectors(3))
def test_3d_frame_completion_is_np_cross_bit_for_bit(v):
    frame = frame_from_orientation(v)
    assert frame[:, 0].tobytes() == np.asarray(v, dtype=float).tobytes()
    assert frame[:, 2].tobytes() == np.cross(frame[:, 0], frame[:, 1]).tobytes()


def test_interior_edges_reference_two_distinct_cells():
    mesh = build_mesh(2, 3, DIAG)
    _, minus, plus = mesh.int_edges(np.arange(len(mesh.int_axis)))
    assert np.all(minus != plus)
    assert np.all(minus >= 0) and np.all(plus < mesh.ncells)


def test_normals_unit_and_measures_sum():
    for dim, n in ((2, 5), (3, 2)):
        orientation = np.ones(dim) / np.sqrt(dim)
        mesh = build_mesh(dim, n, orientation)
        for nv in (mesh.frame.T[mesh.int_axis], mesh.bnd_normals()):
            if len(nv):
                assert np.max(np.abs(np.linalg.norm(nv, axis=1) - 1.0)) <= 1e-12
        assert abs(mesh.total_measure - 1.0) <= 1e-12


def test_cube_counts():
    mesh = build_mesh(3, 2, np.array([1.0, 0.0, 0.0]))
    assert mesh.ncells == 8
    assert len(mesh.int_axis) == 12
    assert len(mesh.bnd_axis) == 24


def test_refinement_partitions_parent_measures():
    for dim in (2, 3):
        orientation = np.zeros(dim)
        orientation[0] = 1.0
        coarse = build_mesh(dim, 2, orientation)
        fine = build_mesh(dim, 4, orientation)
        children_per_parent = 2**dim
        for parent in range(coarse.ncells):
            pidx = np.unravel_index(parent, coarse.shape)
            child_measure = 0.0
            for offset in np.ndindex(*(2,) * dim):
                cidx = tuple(2 * i + o for i, o in zip(pidx, offset))
                child_measure += fine.cell_measures[np.ravel_multi_index(cidx, fine.shape)]
            assert child_measure == pytest.approx(coarse.cell_measures[parent], abs=1e-12)
        assert fine.ncells == children_per_parent * coarse.ncells


def test_cell_corners_from_cell_bounds():
    mesh = build_mesh(2, 2, E1)
    assert mesh.cell_centers().shape == (4, 2)
    lo, hi = (np.array([b[i] for b in mesh.axis_breaks]) for i in (0, 1))  # cell 0's bounds
    corners = [np.where(o, hi, lo) for o in np.ndindex(2, 2)]
    assert len({tuple(c) for c in corners}) == 4
    pts = np.array(corners)
    assert pts.min() == -0.5 and pts.max() == 0.0
    assert np.array_equal(mesh.cell_centers()[0], pts.mean(axis=0))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((2, 3)), st.integers(-9, 12), st.integers(0, 2**32 - 1))
def test_cell_views_equal_each_cells_bounds_bit_for_bit(dim, exponent, seed):
    # non-uniform breaks at scales 1e-9..1e12; lo and hi written out cell by
    # cell from the breakpoints, as the stored cell tables once held them
    rng = np.random.default_rng(seed)
    breaks = [np.unique(rng.uniform(-1.0, 1.0, rng.integers(2, 7))) * 10.0**exponent for _ in range(dim)]
    mesh = Mesh(breaks, frame_from_orientation(np.eye(dim)[0]))
    index = np.stack(np.unravel_index(np.arange(mesh.ncells), mesh.shape), axis=1)
    lo = np.stack([b[index[:, a]] for a, b in enumerate(mesh.axis_breaks)], axis=1)
    hi = np.stack([b[index[:, a] + 1] for a, b in enumerate(mesh.axis_breaks)], axis=1)
    for got, want in ((mesh.cell_measures, np.prod(hi - lo, axis=1)), (mesh.cell_centers(), 0.5 * (lo + hi))):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert mesh.total_measure == float(np.prod(hi - lo, axis=1).sum())


def test_rejects_bad_input():
    with pytest.raises(MeshError):
        build_mesh(2, 0, E1)
    with pytest.raises(MeshError):
        build_mesh(2, 2, np.array([1.0, 1.0]))  # not unit
    with pytest.raises(MeshError):
        build_mesh(4, 2, np.ones(4) / 2)
    with pytest.raises(MeshError):
        Mesh([np.array([0.0, 1.0]), np.array([1.0, 0.5])])


@pytest.mark.parametrize("n", [True, np.True_, 2.0, 2.5, float("nan"), "2", None])
def test_build_mesh_rejects_a_refinement_that_is_not_an_integer(n):
    # True == 1, but a bool is not a refinement
    with pytest.raises(MeshError) as exc:
        build_mesh(2, n, E1)
    assert str(exc.value) == f"refinement must be a positive integer, got {n!r}"


@pytest.mark.parametrize("dimension", [2.0, 3.0, True, "2", None])
def test_build_mesh_rejects_a_dimension_that_is_not_an_integer(dimension):
    orientation = np.eye(3 if dimension == 3.0 else 2)[0]
    with pytest.raises(MeshError) as exc:
        build_mesh(dimension, 2, orientation)
    assert str(exc.value) == f"dimension must be a positive integer, got {dimension!r}"


def test_build_mesh_keeps_numpy_integer_refinements():
    mesh = build_mesh(2, np.int64(3), E1)
    assert mesh.ncells == 9 and type(mesh.n) is int


def test_custom_breaks_total_measure():
    mesh = Mesh([np.array([-0.5, -0.1, 0.5]), np.array([-0.5, 0.25, 0.5])])
    assert mesh.total_measure == pytest.approx(1.0, abs=1e-12)
    assert mesh.ncells == 4


# ---------------------------------------------------------------------------
# edge arrays against a per-edge reference builder
# ---------------------------------------------------------------------------

def _reference_face_corners(dim, axis, value, lo, hi):
    corners = np.empty((2, 2) if dim == 2 else (4, 3))
    others = [a for a in range(dim) if a != axis]
    corners[:, axis] = value
    if dim == 2:
        corners[:, others[0]] = (lo[0], hi[0])
    else:
        corners[:, others[0]] = (lo[0], hi[0], hi[0], lo[0])
        corners[:, others[1]] = (lo[1], lo[1], hi[1], hi[1])
    return corners


def reference_edges(mesh):
    """Edge arrays built edge by edge with nested loops: for each axis, each
    chain of cells along it (C order over the other axes), its interior
    edges in axis order, then its low and its high boundary edge."""
    dim, shape, breaks = mesh.dim, mesh.shape, mesh.axis_breaks
    out = {k: [] for k in ("int_axis", "int_minus", "int_plus", "int_measure", "int_corners",
                           "bnd_axis", "bnd_side", "bnd_cell", "bnd_measure", "bnd_corners")}
    for axis in range(dim):
        others = [a for a in range(dim) if a != axis]
        for oi in np.ndindex(*[shape[a] for a in others]):
            lo = [breaks[a][oi[j]] for j, a in enumerate(others)]
            hi = [breaks[a][oi[j] + 1] for j, a in enumerate(others)]
            measure = float(np.prod(np.asarray(hi) - np.asarray(lo)))

            def cell_at(i):
                idx = [0] * dim
                idx[axis] = i
                for j, a in enumerate(others):
                    idx[a] = oi[j]
                return int(np.ravel_multi_index(tuple(idx), shape))

            for i in range(shape[axis] - 1):
                out["int_axis"].append(axis)
                out["int_minus"].append(cell_at(i))
                out["int_plus"].append(cell_at(i + 1))
                out["int_measure"].append(measure)
                out["int_corners"].append(
                    _reference_face_corners(dim, axis, breaks[axis][i + 1], lo, hi)
                )
            for side, i, b in ((-1, 0, 0), (1, shape[axis] - 1, shape[axis])):
                out["bnd_axis"].append(axis)
                out["bnd_side"].append(side)
                out["bnd_cell"].append(cell_at(i))
                out["bnd_measure"].append(measure)
                out["bnd_corners"].append(_reference_face_corners(dim, axis, breaks[axis][b], lo, hi))
    ncorn = 2 ** (dim - 1)
    for key, values in out.items():
        dtype = float if key.endswith(("measure", "corners")) else int
        arr = np.asarray(values, dtype=dtype)
        out[key] = arr.reshape(-1, ncorn, dim) if key.endswith("corners") else arr
    return out


def assert_edges_match_reference(mesh, rows=None):
    """The boundary tables and the derived interior views on ``rows``
    (every interior edge if ``None``) equal the loop reference."""
    ref = reference_edges(mesh)
    got = interior_tables(mesh, rows)
    assert np.array_equal(mesh.int_axis, ref["int_axis"])
    # each chain's face measure, which energy and residuals read, along its edges
    edges = np.repeat(np.subtract(mesh.shape, 1), [mesh.ncells // m for m in mesh.shape])
    assert np.repeat(mesh.bnd_measure[::2], edges).tobytes() == ref["int_measure"].tobytes()
    assert mesh.int_counts == tuple(np.bincount(ref["int_axis"], minlength=mesh.dim))
    for key, want in ref.items():
        if key.startswith("int_"):
            want = want[np.arange(len(want)) if rows is None else rows]
        value = got[key] if key in got else getattr(mesh, key)
        assert value.dtype == want.dtype and value.shape == want.shape, key
        assert value.tobytes() == want.tobytes(), key


@pytest.mark.parametrize("dim", [2, 3])
def test_edge_arrays_match_reference_on_uniform_meshes(dim):
    rng = np.random.default_rng(40 + dim)
    for n in range(1, 9):
        orientation = rng.normal(size=dim)
        assert_edges_match_reference(build_mesh(dim, n, orientation / np.linalg.norm(orientation)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(rectilinear_meshes())
def test_edge_arrays_match_reference_on_rectilinear_meshes(mesh):
    assert_edges_match_reference(mesh)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(rectilinear_meshes(max_cells=(7, 4)), st.data())
def test_derived_interior_views_of_drawn_rows_match_reference(mesh, data):
    # rows drawn in any order, with repeats, as the jump table's affine rows
    # and the energy's constant rows ask for them
    count = len(mesh.int_axis)
    rows = data.draw(st.lists(st.integers(0, max(count - 1, 0)), max_size=12 if count else 0))
    assert_edges_match_reference(mesh, np.asarray(rows, dtype=np.intp))


@pytest.mark.parametrize("params, shape", [
    (dict(kind="FRAME_W1", n=64, M=np.arange(6.0).reshape(3, 2)), (128, 66)),
    (dict(kind="FRAME_W1", n=5, M=np.ones((3, 2))), (11, 7)),
    (dict(kind="GAMMA1_SPLIT", n=8, lam=np.array([1.0, 2.0, 0.5]), eta=np.array([0.6, 0.8])), (4, 3)),
    (dict(kind="GAMMA1_SPLIT", n=3, lam=np.array([1.0, 0.0, 0.0]), eta=np.array([0.0, 1.0])), (4, 3)),
], ids=["frame-64", "frame-5", "gamma-8", "gamma-3"])
def test_derived_interior_views_on_competitor_meshes(params, shape):
    # non-square, non-uniform breakpoints; the split meshes are rotated
    from sdrelax.constructions import SequenceParams, build

    mesh = build(SequenceParams(**params)).mesh
    assert mesh.shape == shape
    assert_edges_match_reference(mesh)


def test_chains_follow_the_axis():
    mesh = Mesh([np.linspace(0, 1, 4), np.linspace(0, 1, 3), np.linspace(0, 1, 5)])
    for axis in range(3):
        chains = mesh.chains(axis)
        assert chains.shape == (mesh.ncells // mesh.shape[axis], mesh.shape[axis])
        idx = np.stack(np.unravel_index(chains, mesh.shape), axis=-1)
        step = np.diff(idx, axis=1)
        assert np.all(step[..., axis] == 1)
        assert np.all(np.delete(step, axis, axis=-1) == 0)
        assert sorted(chains.reshape(-1)) == list(range(mesh.ncells))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", range(1, 9))
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_interior_edges_are_the_chains_consecutive_pairs(dim, n, data):
    # the solver reads the interior edge measures as one (dim * nchains, n - 1)
    # table of the chains' edge weights, axis by axis
    mesh = build_mesh(dim, n, data.draw(unit_vectors(dim)))
    nchains = mesh.ncells // n
    tab = interior_tables(mesh)
    assert np.array_equal(mesh.int_axis, np.repeat(np.arange(dim), nchains * (n - 1)))
    assert np.array_equal(tab["int_axis"], mesh.int_axis)
    minus = tab["int_minus"].reshape(dim * nchains, n - 1)
    plus = tab["int_plus"].reshape(dim * nchains, n - 1)
    for a in range(dim):
        chains = mesh.chains(a)
        rows = slice(a * nchains, (a + 1) * nchains)
        assert np.array_equal(minus[rows], chains[:, :-1])
        assert np.array_equal(plus[rows], chains[:, 1:])
    # each edge's measure is that of the face its two cells share, which is
    # its chain's boundary face measure: one measure along each chain
    for a in range(dim):
        per_chain = tab["int_measure"][mesh.int_axis == a].reshape(nchains, n - 1)
        assert np.all(per_chain == mesh.bnd_measure[mesh.bnd_axis == a][::2, None])


# ---------------------------------------------------------------------------
# uniform grids shared across orientations
# ---------------------------------------------------------------------------

def mesh_arrays(mesh):
    """Every array a mesh holds, by name."""
    arrays = {k: v for k, v in vars(mesh).items() if isinstance(v, np.ndarray)}
    arrays.update((f"axis_breaks[{a}]", b) for a, b in enumerate(mesh.axis_breaks))
    return arrays


def cell_views(mesh):
    """The cell views a mesh derives from its breakpoints, by name."""
    return {"cell_measures": mesh.cell_measures, "cell_centers": mesh.cell_centers()}


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", range(1, 9))
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_build_mesh_equals_a_fresh_mesh(dim, n, data):
    orientation = data.draw(unit_vectors(dim))
    mesh = build_mesh(dim, n, orientation)
    fresh = Mesh([np.linspace(-0.5, 0.5, n + 1)] * dim, frame_from_orientation(orientation), n=n)
    got = {**mesh_arrays(mesh), **interior_tables(mesh), **cell_views(mesh)}
    want = {**mesh_arrays(fresh), **interior_tables(fresh), **cell_views(fresh)}
    assert got.keys() == want.keys() and len(got) == 13 + dim
    assert mesh.int_counts == fresh.int_counts
    for key, value in want.items():
        assert got[key].dtype == value.dtype and got[key].shape == value.shape, key
        assert got[key].tobytes() == value.tobytes(), key
    assert (mesh.dim, mesh.shape, mesh.ncells, mesh.n) == (fresh.dim, fresh.shape, fresh.ncells, n)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.tuples(st.just(2), st.integers(1, 6)), st.tuples(st.just(3), st.integers(1, 3)))
       .flatmap(lambda dn: st.tuples(st.just(dn[0]), st.just(dn[1]), unit_vectors(dn[0]))))
def test_mesh_arrays_are_read_only(case):
    dim, n, orientation = case
    breaks = [np.linspace(0.0, 1.0, n + 2)] * dim
    for mesh in (build_mesh(dim, n, orientation), Mesh(breaks, frame_from_orientation(orientation))):
        for key, value in mesh_arrays(mesh).items():
            assert not value.flags.writeable, key
            with pytest.raises(ValueError):
                value[...] = 0.0
    assert breaks[0].flags.writeable  # the caller's breakpoints are copied, not frozen


@pytest.mark.parametrize("dim, n", [(2, 1), (2, 5), (3, 3)])
def test_orientations_share_the_grid_but_not_the_frame(dim, n):
    rng = np.random.default_rng(dim + n)
    a, b = (v / np.linalg.norm(v) for v in rng.normal(size=(2, dim)))
    ma, mb = build_mesh(dim, n, a), build_mesh(dim, n, b)
    assert ma is not mb
    for key in ("bnd_cell", "bnd_side", "bnd_axis", "bnd_measure", "bnd_corners"):
        assert getattr(ma, key) is getattr(mb, key), key
    assert all(x is y for x, y in zip(ma.axis_breaks, mb.axis_breaks))
    assert np.shares_memory(ma.bnd_corners, mb.bnd_corners)
    assert not np.shares_memory(ma.frame, mb.frame)
    # the interior and cell views follow from the shared grid, whatever the frame
    for key, value in {**interior_tables(ma), **cell_views(ma)}.items():
        assert value.tobytes() == {**interior_tables(mb), **cell_views(mb)}[key].tobytes(), key
    assert np.array_equal(ma.orientation, a) and np.array_equal(mb.orientation, b)
    build_mesh.cache_clear()
    mc = build_mesh(dim, n, a)
    assert not np.shares_memory(mc.bnd_corners, ma.bnd_corners)
    assert mc.bnd_corners.tobytes() == ma.bnd_corners.tobytes()


def test_grids_of_every_size_are_kept():
    # above the former cell bound (2^14 cells) a grid is kept like any other,
    # and the cache still holds at most GRID_CACHE_SIZE grids
    import sdrelax.meshes as meshes

    for dim, n in ((2, 129), (3, 26)):
        build_mesh.cache_clear()
        orientation = np.eye(dim)[0]
        large = [build_mesh(dim, n, orientation) for _ in range(2)]
        assert all(x is y for x, y in zip(large[0].axis_breaks, large[1].axis_breaks))
        assert np.shares_memory(large[0].bnd_corners, large[1].bnd_corners)
        fresh = Mesh([np.linspace(-0.5, 0.5, n + 1)] * dim, frame_from_orientation(orientation), n=n)
        got = {**mesh_arrays(large[0]), **cell_views(large[0])}
        for key, value in {**mesh_arrays(fresh), **cell_views(fresh)}.items():
            assert got[key].dtype == value.dtype and got[key].shape == value.shape, key
            assert got[key].tobytes() == value.tobytes(), key
        for key, value in mesh_arrays(large[0]).items():
            assert not value.flags.writeable, key
        # fresh's grid is kept too, under its breakpoints' key
        for m in range(1, meshes.GRID_CACHE_SIZE + 3):
            build_mesh(dim, m, orientation)
            assert meshes._kept_grid.cache_info().currsize == min(m + 2, meshes.GRID_CACHE_SIZE)
    build_mesh.cache_clear()


@pytest.mark.parametrize(
    "breaks",
    [
        [np.linspace(-0.5, 0.5, 2)] * 2,
        [np.linspace(-0.5, 0.5, 8)] * 2,
        [np.linspace(-0.5, 0.5, 6)] * 3,
        [np.linspace(0.0, 1.0, 2), np.linspace(0.0, 1.0, 7)],
        [np.cumsum([0.0, 0.1, 0.7, 0.2]), np.cumsum([0.0, 0.3, 0.3]), np.linspace(0.0, 1.0, 5)],
        [np.linspace(0.0, 1.0, 2), np.linspace(0.0, 1.0, 4), np.linspace(0.0, 1.0, 2)],
        [np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 2), np.linspace(0.0, 1.0, 3)],
    ],
)
def test_boundary_cells_are_the_chain_ends(breaks):
    # bnd_cell comes from the strides; it is each chain's first and last cell
    mesh = Mesh(breaks)
    want = np.concatenate([mesh.chains(a)[:, [0, -1]].reshape(-1) for a in range(mesh.dim)])
    assert mesh.bnd_cell.dtype == want.dtype and mesh.bnd_cell.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "args, message",
    [
        (([np.array([0.0, np.nan, 1.0])] * 2,), "finite"),
        (([np.array([-np.inf, 0.0, np.inf])] * 2,), "finite"),
        (([np.array([0.0, 1.0, np.inf]), np.array([0.0, 1.0])],), "finite"),
        (([np.array([np.nan, np.nan])] * 3,), "finite"),
        (([np.zeros((2, 2)) + [0.0, 1.0]] * 2,), "strictly increasing"),
        (([np.array([0.0, 1.0])] * 4,), "dimension must be 2 or 3"),
        ((4, None, 2), "dimension must be 2 or 3"),
        ((2, None, 0), "refinement must be a positive integer"),
        ((3,), "refinement must be a positive integer"),
    ],
)
def test_mesh_rejects_bad_breakpoints_before_keeping_a_grid(args, message):
    import sdrelax.meshes as meshes

    build_mesh.cache_clear()
    with pytest.raises(MeshError, match=message):
        Mesh(*args)
    assert meshes._kept_grid.cache_info().currsize == 0


def test_meshes_on_equal_breakpoints_share_one_kept_grid():
    import sdrelax.meshes as meshes

    build_mesh.cache_clear()
    b0, b1 = np.array([-0.5, -0.2, 0.1, 0.5]), np.array([0.0, 0.25, 1.0])
    first = Mesh([b0, b1], n=3)
    again = Mesh([b0.copy(), list(b1)], frame_from_orientation(DIAG), n=3)
    for key in ("bnd_cell", "bnd_side", "bnd_axis", "bnd_measure", "bnd_corners"):
        assert getattr(first, key) is getattr(again, key), key
    assert all(x is y for x, y in zip(first.axis_breaks, again.axis_breaks))
    assert not np.shares_memory(first.frame, again.frame)
    # n is part of the key, and so is each axis' size: [b1, b0] is another grid
    for other in (Mesh([b0, b1], n=4), Mesh([b1, b0], n=3), Mesh([b0, b1, b1])):
        assert not np.shares_memory(other.bnd_corners, first.bnd_corners)
    assert meshes._kept_grid.cache_info().currsize == 4
    # the caller's arrays are copied before they are keyed: writing to them
    # reaches neither the kept grid nor the next mesh on their old values
    b0[1] = -0.3
    assert first.axis_breaks[0][1] == -0.2
    assert Mesh([np.array([-0.5, -0.2, 0.1, 0.5]), b1], n=3).bnd_corners is first.bnd_corners
    assert not np.shares_memory(Mesh([b0, b1], n=3).bnd_corners, first.bnd_corners)
    build_mesh.cache_clear()


def test_the_cache_holds_grids_of_both_keys_up_to_its_bound():
    import sdrelax.meshes as meshes

    build_mesh.cache_clear()
    size = meshes.GRID_CACHE_SIZE
    for m in range(1, size + 4):
        build_mesh(2, m, E1)
        Mesh([np.linspace(0.0, 1.0, m + 1)] * 2)
        assert meshes._kept_grid.cache_info().currsize == min(2 * m, size)
    kept = Mesh([np.linspace(0.0, 1.0, size + 4)] * 2)
    build_mesh.cache_clear()
    assert meshes._kept_grid.cache_info().currsize == 0
    fresh = Mesh([np.linspace(0.0, 1.0, size + 4)] * 2)
    assert not np.shares_memory(fresh.bnd_corners, kept.bnd_corners)
    assert fresh.bnd_corners.tobytes() == kept.bnd_corners.tobytes()
    build_mesh.cache_clear()


def test_every_built_mesh_is_initialised(monkeypatch):
    # a kept grid still passes through Mesh.__init__, so the frame is checked
    # and per-mesh work counters see every mesh
    original, built = Mesh.__init__, []

    def counted(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Mesh, "__init__", counted)
    meshes = [build_mesh(2, 4, E1) for _ in range(3)]
    assert built == meshes

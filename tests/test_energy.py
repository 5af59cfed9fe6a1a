import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdrelax import energy
from sdrelax.densities import DensityPair, interfacial_normal_pair, psi1_pair
from sdrelax.energy import padded_normal, surface_energy
from sdrelax.fields import AffineDatum, SbvField, StepDatum, boundary_pieces, gauss_green_residual
from sdrelax.meshes import Mesh, build_mesh
from strategies import blocked_field, interior_tables, scaled_values, unit_vectors

E1 = np.array([1.0, 0.0])


def test_overestimate_dominates_exact():
    rng = np.random.default_rng(0)
    pair = interfacial_normal_pair()
    for n in (1, 2, 3):
        mesh = build_mesh(2, n, E1)
        fld = SbvField(
            mesh,
            rng.uniform(-3, 3, (mesh.ncells, 3, 2)),
            rng.uniform(-3, 3, (mesh.ncells, 3)),
        )
        datum = AffineDatum(rng.uniform(-3, 3, (3, 2)))
        exact = surface_energy(fld, pair, datum=datum)
        over = surface_energy(fld, pair, datum=datum, overestimate=True)
        assert over >= exact - 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6), A=scaled_values((3, 2)), D=scaled_values((3, 2)), eta=unit_vectors(2))
def test_overestimate_on_segments_is_the_trapezoid_rule_bit_for_bit(n, A, D, eta):
    # one gradient and one offset leave no interior jump; every boundary
    # segment then pays the corner mean, 0.5 (|f0| + |f1|) h, in edge order
    mesh = build_mesh(2, n, eta)
    field, datum = SbvField.affine(mesh, A), AffineDatum(D)
    pieces = boundary_pieces(mesh, datum)
    mismatch = pieces.field_values(field) - pieces.datum
    f = (mismatch @ padded_normal(pieces.normal)[:, :, None])[..., 0]
    trapezoid = 0.5 * (np.abs(f[:, 0]) + np.abs(f[:, 1])) * pieces.measure
    want = np.cumsum(np.concatenate(([0.0], trapezoid)))[-1]
    assert surface_energy(field, interfacial_normal_pair(), datum, overestimate=True) == want


def test_exact_matches_dense_quadrature_normal_form():
    rng = np.random.default_rng(1)
    pair = interfacial_normal_pair()
    mesh = build_mesh(2, 2, E1)
    fld = SbvField(
        mesh, rng.uniform(-2, 2, (mesh.ncells, 3, 2)), rng.uniform(-2, 2, (mesh.ncells, 3))
    )
    exact = surface_energy(fld, pair)
    # brute-force oracle: dense midpoint rule along every interior edge
    t = (np.arange(100000) + 0.5) / 100000
    total = 0.0
    tab = interior_tables(mesh)
    for e in range(len(mesh.int_axis)):
        pts = tab["int_corners"][e] @ mesh.frame.T
        line = pts[0][None, :] + t[:, None] * (pts[1] - pts[0])[None, :]
        cm, cp = tab["int_minus"][e], tab["int_plus"][e]
        delta = (line @ fld.gradients[cp].T + fld.offsets[cp]) - (
            line @ fld.gradients[cm].T + fld.offsets[cm]
        )
        nu = mesh.frame.T[tab["int_axis"][e]]
        total += np.mean(np.abs(delta[:, 0] * nu[0] + delta[:, 1] * nu[1])) * tab["int_measure"][e]
    assert exact == pytest.approx(total, abs=1e-6)


def test_psi1_rule_charges_only_planar_jumps():
    pair = psi1_pair()
    mesh = build_mesh(2, 1, E1)
    mesh = Mesh([np.array([-0.5, 0.0, 0.5]), np.array([-0.5, 0.5])])
    grads = np.zeros((2, 3, 2))
    # planar jump: paid
    offsets = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    paid = surface_energy(SbvField(mesh, grads, offsets), pair)
    assert paid == pytest.approx(2.0, abs=1e-13)
    # same planar jump plus out-of-plane component: free
    offsets2 = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 1e-9]])
    assert surface_energy(SbvField(mesh, grads, offsets2), pair) == 0.0
    # affine out-of-plane jump vanishing at one point only: still free
    grads3 = grads.copy()
    grads3[1, 2, 1] = 1.0  # du3/dy jump varies along the edge, zero at y=0
    assert surface_energy(SbvField(mesh, grads3, offsets), pair) == 0.0


def test_custom_density_constant_jumps_exact():
    def surf(lam, nu):
        return float(np.linalg.norm(lam) + abs(lam @ nu))

    pair = DensityPair(bulk=lambda M: 0.0, surface=surf, p=2.0)
    mesh = Mesh([np.array([-0.5, 0.0, 0.5]), np.array([-0.5, 0.5])])
    lam = np.array([1.0, 2.0, -1.0])
    fld = SbvField(mesh, np.zeros((2, 3, 2)), np.stack([np.zeros(3), lam]))
    nu3 = np.array([1.0, 0.0, 0.0])
    assert surface_energy(fld, pair) == pytest.approx(surf(lam, nu3) * 1.0, abs=1e-13)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 3),
    orientation=unit_vectors(3),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.integers(-9, 12),
)
def test_custom_density_on_faces_matches_the_exact_normal_form(n, orientation, seed, exponent):
    # a plain callable takes the face rule of energy._piece_integral; offsets
    # rising by 100 scale across every face outweigh the jumps of the
    # gradients (at most 6 scale |x|), so jump . nu keeps one sign on each
    # face, where |jump . nu| is affine and the rule is exact up to rounding
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    mesh = build_mesh(3, n, orientation)
    offsets = (100.0 * scale * n) * (mesh.cell_centers() @ mesh.frame.T)
    field = SbvField(mesh, rng.uniform(-scale, scale, (mesh.ncells, 3, 3)), offsets)
    exact = surface_energy(field, interfacial_normal_pair())
    assert len(field.jump_table.affine) == len(field.jump_table.offset) and exact > 0.0
    assert abs(surface_energy(field, lambda v, nu: abs(v @ nu)) - exact) <= 1e-13 * exact


def test_energy_module_is_not_shadowed_by_a_package_attribute():
    import sdrelax.energy as module

    assert module.surface_energy is surface_energy


def _exact_edge_terms(field):
    """Normal-form integral over every interior edge in exact rational
    arithmetic, from the two traces ``G x + c`` at the edge corners, each
    rounded once to the nearest float."""
    from fractions import Fraction

    mesh = field.mesh
    tab = interior_tables(mesh)
    pts = tab["int_corners"] @ mesh.frame.T
    normals, measures = mesh.frame.T[tab["int_axis"]], tab["int_measure"]
    G, c = field.gradients, field.offsets
    terms = []
    for e, (lo, hi) in enumerate(zip(tab["int_minus"], tab["int_plus"])):
        f = []
        for x in pts[e]:
            x = [Fraction(v) for v in x]
            jump = [
                sum(Fraction(G[hi, i, j]) * x[j] - Fraction(G[lo, i, j]) * x[j] for j in range(2))
                + Fraction(c[hi, i]) - Fraction(c[lo, i])
                for i in range(2)
            ]
            f.append(sum(jump[i] * Fraction(normals[e, i]) for i in range(2)))
        if f[0] * f[1] >= 0:
            integral = (abs(f[0]) + abs(f[1])) / 2
        else:  # split at the sign change
            integral = (f[0] ** 2 + f[1] ** 2) / (2 * (abs(f[0]) + abs(f[1])))
        terms.append(float(integral * Fraction(measures[e])))
    return np.array(terms)


@pytest.mark.parametrize("n, seed", [(16, 3), (32, 2), (64, 4)])
def test_staircase_energy_is_in_order_sum_of_exactly_rounded_edge_terms(n, seed):
    # the staircase has one gradient, so every jump is exactly c+ - c-; on the
    # axis-aligned dyadic mesh the energy then rounds each edge term once,
    # while two traces of size O(1) would carry errors far above the O(1/n)
    # jumps
    from sdrelax.constructions import SequenceParams, build

    rng = np.random.default_rng(seed)
    A, B = rng.uniform(-3, 3, (3, 2)), rng.uniform(-3, 3, (3, 2))
    field = build(SequenceParams(kind="STAIRCASE_TRACE", n=n, A=A, B=B))
    terms = _exact_edge_terms(field)
    assert surface_energy(field, interfacial_normal_pair()) == np.cumsum(terms)[-1]


@pytest.mark.parametrize("dim, n", [(2, 5), (3, 3)])
def test_surface_energy_reads_the_datum_piece_table(dim, n, monkeypatch):
    # one piece table per call with a datum, built from that datum; none without
    import sdrelax.energy
    from sdrelax.fields import StepDatum, boundary_pieces

    built = []

    def counted(mesh, datum):
        built.append((mesh, datum))
        return boundary_pieces(mesh, datum)

    rng = np.random.default_rng(60 + dim)
    eta = rng.normal(size=dim)
    mesh = build_mesh(dim, n, eta / np.linalg.norm(eta))
    grads = rng.uniform(-3, 3, (mesh.ncells, 3, dim))
    grads[::2] = grads[0]  # constant and affine jumps on every axis
    fld = SbvField(mesh, grads, rng.uniform(-3, 3, (mesh.ncells, 3)))
    custom = DensityPair(bulk=lambda M: 0.0, surface=lambda v, nu: float(np.abs(v @ nu)))
    for pair in (interfacial_normal_pair(), psi1_pair(), custom):
        for over in (False, True):
            for datum in (AffineDatum(rng.uniform(-3, 3, (3, dim))),
                          StepDatum(rng.uniform(-3, 3, 3), mesh.orientation)):
                want = surface_energy(fld, pair, datum=datum, overestimate=over)
                with monkeypatch.context() as m:
                    m.setattr(sdrelax.energy, "boundary_pieces", counted)
                    built.clear()
                    assert surface_energy(fld, pair, datum, over) == want
                    assert built == [(mesh, datum)]
                    built.clear()
                    surface_energy(fld, pair, overestimate=over)
                    assert built == []


def _classified(rows, values):
    """``(rows, values)`` of the rows with a jump, split into constant ones
    (one corner) and the rest."""
    jump = np.any(values != 0.0, axis=(1, 2))
    const = np.all(values == values[:, :1], axis=(1, 2))
    kept, rest = jump & const, jump & ~const
    return [(rows[kept], values[kept, :1]), (rows[rest], values[rest])]


def _surface_energy_reference(field, density, datum, overestimate):
    """``surface_energy`` with the interior jumps classified on each call:
    the table's rows in edge order, split axis by axis into zero, constant
    and affine jumps; each edge's measure read from the breakpoints."""
    mesh, table = field.mesh, field.jump_table
    form, func = energy._surface_form(density), energy._surface_callable(density)
    by_edge = np.argsort(table.affine)
    affine, values = table.affine[by_edge], table.values[by_edge]
    measure, axis = interior_tables(mesh)["int_measure"], mesh.int_axis
    constant = np.any(table.offset != 0.0, axis=1)
    constant[affine] = False
    interior = np.zeros(len(table.offset))
    for a in range(mesh.dim):
        on = np.flatnonzero(constant & (axis == a))
        mine = axis[affine] == a
        groups = [(on, table.offset[on][:, None, :])] + _classified(affine[mine], values[mine])
        for edges, rows in groups:
            normal3 = np.broadcast_to(padded_normal(mesh.frame.T)[a], (len(edges), 3))
            h = measure[edges]
            interior[edges] = energy._integrals(rows, normal3, h, form, func, overestimate)
    terms = [np.zeros(1), interior]
    if datum is not None:
        pieces = boundary_pieces(mesh, datum)
        normal3 = padded_normal(pieces.normal)
        terms.append(np.zeros(len(pieces.edge)))
        mismatch = pieces.field_values(field) - pieces.datum
        for rows, values in _classified(np.arange(len(pieces.edge)), mismatch):
            terms[-1][rows] = energy._integrals(
                values, normal3[rows], pieces.measure[rows], form, func, overestimate
            )
    return float(np.cumsum(np.concatenate(terms))[-1])


def _residual_reference(field):
    """``gauss_green_residual`` summed in one pass over every edge, in edge
    order: each edge's mean jump is its offset difference or, on an affine
    row, its corner mean."""
    mesh, table = field.mesh, field.jump_table
    w = np.ones(mesh.dim)
    delta_mean = table.offset.copy()
    by_edge = np.argsort(table.affine)
    delta_mean[table.affine[by_edge]] = table.values[by_edge].mean(axis=1)
    nchains = [mesh.ncells // m for m in mesh.shape]
    weight = np.repeat(mesh.frame.T @ w, nchains) * mesh.bnd_measure[::2]
    jump_term = np.repeat(weight, np.repeat(np.subtract(mesh.shape, 1), nchains)) @ delta_mean
    bulk_term = np.einsum("t,tij,j->i", mesh.cell_measures, field.gradients, w)
    pieces = boundary_pieces(mesh, AffineDatum(np.zeros((3, mesh.dim))))
    bnd_term = ((pieces.normal @ w) * pieces.measure) @ pieces.field_values(field).mean(axis=1)
    return jump_term + bulk_term - bnd_term


def _custom_density(jump, nu):
    return float(np.hypot(jump @ nu, 0.5 * jump[2]))


@pytest.mark.parametrize("dim, n", [(2, 4), (2, 5), (2, 6), (3, 2), (3, 4)])
def test_energy_and_residual_equal_the_per_call_classification(dim, n):
    rng = np.random.default_rng(10 * dim + n)
    # a custom density runs its Gauss rule in Python, a row at a time: only
    # on the smaller meshes, and without overestimate, which it ignores
    forms = [(d, over) for d in (interfacial_normal_pair(), psi1_pair()) for over in (False, True)]
    if dim == 2 or n <= 2:
        forms.append((_custom_density, False))
    counts = np.zeros(3, dtype=int)  # zero, constant and affine rows
    for scale in (1e-9, 1.0, 1e12):
        aligned = build_mesh(dim, n, np.eye(dim)[0])
        rotated = build_mesh(dim, n, np.array([0.6, 0.8, 0.0][:dim]))
        fields = [blocked_field(aligned, rng, scale), blocked_field(rotated, rng, scale)]
        counts += np.diff(fields[0].jump_table.bounds).reshape(dim, 3).sum(axis=0)
        for field in fields:
            data = (
                None,
                AffineDatum(rng.uniform(-5, 5, (3, dim)) * scale),
                StepDatum(rng.uniform(-5, 5, 3) * scale, field.mesh.orientation),
            )
            for (density, over), datum in itertools.product(forms, data):
                got = surface_energy(field, density, datum=datum, overestimate=over)
                want = _surface_energy_reference(field, density, datum, over)
                assert got.hex() == want.hex(), (scale, density, datum, over)
            # the residual weighs offset differences and affine corner means in
            # separate sums, so it matches the edge-order sum to rounding only
            residual = gauss_green_residual(field) - _residual_reference(field)
            assert np.max(np.abs(residual)) <= 1e-13 * field.scale()
    # odd n puts no break at x0 = 0, so no zero rows
    assert np.all(counts[n % 2 :] > 0), counts

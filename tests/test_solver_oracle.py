"""Independent cross-checks of the cell solver.

The monolithic oracle stacks every direction's absolute-value terms into one
scipy linear program over all offset components at once, with no
per-direction decomposition and no chain splitting, and must reproduce the
solver's value.  The chain solver is also checked on its own against scipy,
on random chains with arbitrary weights.  The certificate check evaluates
the objective at arbitrary (non-optimal) feasible fields and verifies it
never falls below the closed form, which is the content of the lower-bound
flag.  The series contraction of the chains is checked against the same
DP run on the uncontracted chains.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

import sdrelax.solver
from sdrelax.densities import h_3d2d, interfacial_normal_pair, w_3d2dsd
from sdrelax.energy import surface_energy
from sdrelax.fields import SbvField, StepDatum, AffineDatum, boundary_pieces
from sdrelax.meshes import Mesh, build_mesh
from sdrelax.solver import (
    AxisTerms,
    CellProblem,
    Kind,
    _assemble_axis_terms,
    _datum_for,
    _mesh_for,
    _pinned_gradient,
    _solve_axis,
    closed_form,
    solve,
)


def abs_sum_lp_value(nvars, pairs, unary):
    """Minimum over ``x`` in R^nvars of ``sum w |x[i] - x[j]|`` over
    ``pairs`` rows (i, j, w) plus ``sum w |x[i] + c|`` over ``unary`` rows
    (i, w, c), by scipy's HiGHS on the epigraph linear program."""
    pairs = np.asarray(pairs, dtype=float).reshape(-1, 3)
    unary = np.asarray(unary, dtype=float).reshape(-1, 3)
    npairs, nterms = len(pairs), len(pairs) + len(unary)
    coef = np.zeros((nterms, nvars))
    rows = np.arange(npairs)
    coef[rows, pairs[:, 0].astype(int)] += 1.0
    coef[rows, pairs[:, 1].astype(int)] -= 1.0
    coef[npairs + np.arange(len(unary)), unary[:, 0].astype(int)] = 1.0
    const = np.concatenate([np.zeros(npairs), unary[:, 2]])
    weight = np.concatenate([pairs[:, 2], unary[:, 1]])
    # s_k >= +-(coef_k . x + const_k)
    A_ub = np.block([[coef, -np.eye(nterms)], [-coef, -np.eye(nterms)]])
    b_ub = np.concatenate([-const, const])
    res = linprog(
        np.concatenate([np.zeros(nvars), weight]),
        A_ub=A_ub,
        b_ub=b_ub,
        bounds=[(None, None)] * nvars + [(0, None)] * nterms,
        method="highs",
    )
    assert res.status == 0
    return float(res.fun)


def monolithic_lp_value(problem):
    mesh = _mesh_for(problem)
    pin = _pinned_gradient(problem)
    pieces = boundary_pieces(mesh, _datum_for(problem, mesh))
    pairs, unary = [], []
    for a, terms in enumerate(_assemble_axis_terms(mesh, pin, pieces, side_terms=False)):
        offset = a * mesh.ncells
        pairs += zip(offset + terms.plus, offset + terms.minus, terms.h)
        unary += zip(offset + terms.cell, terms.weight, terms.const)
    return abs_sum_lp_value(mesh.dim * mesh.ncells, pairs, unary)


@pytest.mark.parametrize("n", [2, 3])
def test_jump_solves_match_monolithic_lp(n):
    rng = np.random.default_rng(50 + n)
    for i in range(6):
        theta = rng.uniform(0, 2 * np.pi)
        eta = np.array([np.cos(theta), np.sin(theta)])
        lam = rng.uniform(-4, 4, 3)
        p = CellProblem(kind=Kind.H_3D2D, n=n, lam=lam, orientation=eta)
        assert solve(p).value == pytest.approx(monolithic_lp_value(p), abs=1e-8)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bulk_solves_match_monolithic_lp(n):
    rng = np.random.default_rng(60 + n)
    for _ in range(4):
        A = rng.uniform(-3, 3, (3, 2))
        B = rng.uniform(-3, 3, (3, 2))
        p = CellProblem(kind=Kind.W_3D2DSD, n=n, A=A, B=B)
        assert solve(p).value == pytest.approx(monolithic_lp_value(p), abs=1e-8)


def test_3d_solve_matches_monolithic_lp():
    rng = np.random.default_rng(70)
    A = rng.uniform(-2, 2, (3, 3))
    B = rng.uniform(-2, 2, (3, 2))
    p = CellProblem(kind=Kind.W_3DSD, n=2, A=A, B=B)
    assert solve(p).value == pytest.approx(monolithic_lp_value(p), abs=1e-8)
    lam = rng.uniform(-2, 2, 3)
    nu = rng.normal(size=3)
    nu /= np.linalg.norm(nu)
    p2 = CellProblem(kind=Kind.H_3DSD, n=2, lam=lam, orientation=nu)
    assert solve(p2).value == pytest.approx(monolithic_lp_value(p2), abs=1e-8)


def random_problem(kind, n, rng, scale):
    """A random instance of ``kind`` with its data multiplied by ``scale``."""
    if kind in (Kind.H_3D2D, Kind.H_3D2DSD, Kind.H_3DSD2D, Kind.H_3DSD):
        dim = 3 if kind is Kind.H_3DSD else 2
        eta = rng.normal(size=dim)
        eta /= np.linalg.norm(eta)
        return CellProblem(kind=kind, n=n, lam=scale * rng.uniform(-4, 4, 3), orientation=eta)
    shapes = {
        Kind.W_3D2D: {"A": (3, 2), "d": (3,)},
        Kind.W_3D2DSD: {"A": (3, 2), "B": (3, 2)},
        Kind.W_3DSD: {"A": (3, 3), "B": (3, 2)},
        Kind.W_3DSD2D: {"A": (3, 2), "B": (3, 2), "d": (3,)},
        Kind.TWO_D_TRACE: {"A": (2, 2), "B": (2, 2)},
    }[kind]
    data = {name: scale * rng.uniform(-4, 4, shape) for name, shape in shapes.items()}
    return CellProblem(kind=kind, n=n, **data)


LP_KINDS = [
    Kind.H_3D2D,
    Kind.H_3D2DSD,
    Kind.H_3DSD2D,
    Kind.H_3DSD,
    Kind.W_3D2D,
    Kind.W_3D2DSD,
    Kind.W_3DSD,
    Kind.W_3DSD2D,
    Kind.TWO_D_TRACE,
]


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e6])
@pytest.mark.parametrize("kind", LP_KINDS, ids=lambda k: k.value)
def test_every_lp_kind_matches_monolithic_lp_across_scales(kind, scale):
    rng = np.random.default_rng(90 + LP_KINDS.index(kind))
    for n in (1, 2, 3, 4):
        for _ in range(2):
            p = random_problem(kind, n, rng, scale)
            r = solve(p)
            ref = monolithic_lp_value(p) + r.bulk_value
            assert r.value == pytest.approx(ref, rel=0, abs=1e-8 * (1 + abs(ref)))


# ---------------------------------------------------------------------------
# the chain solver on its own
# ---------------------------------------------------------------------------

def chain_mesh(n, nchains=1):
    """Mesh whose axis-0 chains are ``nchains`` rows of ``n`` cells; cell
    ``i * nchains + c`` sits at position ``i`` of chain ``c``."""
    return Mesh([np.linspace(0.0, 1.0, n + 1), np.linspace(0.0, 1.0, nchains + 1)])


def chain_terms(mesh, h, cell, weight, const, side=None):
    on = mesh.int_axis == 0
    return AxisTerms(
        plus=mesh.int_plus[on],
        minus=mesh.int_minus[on],
        h=np.asarray(h, dtype=float),
        cell=np.asarray(cell, dtype=int),
        weight=np.asarray(weight, dtype=float),
        const=np.asarray(const, dtype=float),
        side=np.zeros(len(cell), dtype=bool) if side is None else np.asarray(side),
    )


def chain_objective(terms, x):
    return float(
        np.sum(terms.h * np.abs(x[terms.plus] - x[terms.minus]))
        + np.sum(terms.weight * np.abs(x[terms.cell] + terms.const))
    )


def test_chain_solver_matches_scipy_on_random_chains():
    rng = np.random.default_rng(0)
    for _ in range(150):
        n, nchains = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        mesh = chain_mesh(n, nchains)
        nunary = int(rng.integers(1, 10))
        # every chain needs a unary term; the rest land anywhere
        cell = np.concatenate([rng.integers(0, n, nchains) * nchains + np.arange(nchains),
                               rng.integers(0, mesh.ncells, nunary)])
        terms = chain_terms(
            mesh,
            h=rng.uniform(0.05, 3, (mesh.int_axis == 0).sum()),
            cell=cell,
            weight=rng.uniform(0.05, 3, len(cell)),
            const=rng.uniform(-3, 3, len(cell)),
        )
        value, x = _solve_axis(mesh, 0, terms, tie_break=False)
        ref = abs_sum_lp_value(
            mesh.ncells,
            list(zip(terms.plus, terms.minus, terms.h)),
            list(zip(terms.cell, terms.weight, terms.const)),
        )
        assert value == pytest.approx(ref, rel=0, abs=1e-8 * (1 + abs(ref)))
        # the returned point attains the reported value
        assert chain_objective(terms, x) == pytest.approx(value, rel=0, abs=1e-12 * (1 + value))


def test_chain_tie_break_picks_the_boundary_matching_minimizer():
    # |x0| + |x1 - x0| + |x2 - x1| + |x2 - 1| is minimal (= 1) for every
    # monotone x from 0 to 1; the tie-break re-weighs the boundary terms and
    # returns a minimizer that matches both ends
    mesh = chain_mesh(3)
    terms = chain_terms(mesh, h=[1.0, 1.0], cell=[0, 2], weight=[1.0, 1.0], const=[0.0, -1.0])
    value, x = _solve_axis(mesh, 0, terms, tie_break=True)
    assert value == 1.0
    assert x[0] == 0.0 and x[2] == 1.0


def test_chain_tie_break_side_terms_carry_no_energy():
    # 2|x0 - 2| + |x1 - x0| + |x1 - 1| is minimal (= 1) at x0 = 2 for every
    # x1 in [1, 2]; the boundary term alone would tie-break to x1 = 1, the
    # heavier energy-free side term 3|x1 - 2| moves it to x1 = 2 without
    # changing the value
    mesh = chain_mesh(2)
    terms = chain_terms(
        mesh, h=[1.0], cell=[0, 1, 1], weight=[2.0, 1.0, 3.0], const=[-2.0, -1.0, -2.0],
        side=[False, False, True],
    )
    value, x = _solve_axis(mesh, 0, terms, tie_break=True)
    assert value == 1.0
    assert x[0] == 2.0 and x[1] == 2.0
    no_side = chain_terms(mesh, h=[1.0], cell=[0, 1], weight=[2.0, 1.0], const=[-2.0, -1.0])
    value, x = _solve_axis(mesh, 0, no_side, tie_break=True)
    assert value == 1.0
    assert x[0] == 2.0 and x[1] == 1.0


def test_chain_of_one_cell_without_interior_terms():
    mesh = chain_mesh(1)
    terms = chain_terms(mesh, h=[], cell=[0], weight=[2.0], const=[5.0])
    value, x = _solve_axis(mesh, 0, terms, tie_break=False)
    assert value == 0.0
    assert x[0] == -5.0


def uncontracted_solve_axis(mesh, axis, terms, tie_break):
    """``_solve_axis`` with every cell kept: the DP walks every cell."""
    contract = sdrelax.solver._contract
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sdrelax.solver, "_contract", lambda h, kept: contract(h, np.ones_like(kept)))
        return _solve_axis(mesh, axis, terms, tie_break)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 9),
    nchains=st.integers(1, 4),
    density=st.floats(0.0, 1.0),
    tie_break=st.booleans(),
    exponent=st.integers(-9, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_contracted_chains_match_the_uncontracted_dp(n, nchains, density, tie_break, exponent, seed):
    rng = np.random.default_rng(seed)
    mesh = chain_mesh(n, nchains)
    # every chain carries a unary term; each cell carries one with the drawn density
    cell = np.concatenate([
        rng.integers(0, n, nchains) * nchains + np.arange(nchains),
        np.flatnonzero(rng.random(mesh.ncells) < density),
    ])
    side = rng.random(len(cell)) < 0.3
    side[:nchains] = False
    terms = chain_terms(
        mesh,
        h=rng.uniform(0.05, 3, (mesh.int_axis == 0).sum()),
        cell=cell,
        weight=rng.uniform(0.05, 3, len(cell)),
        const=rng.uniform(-3, 3, len(cell)) * 10.0**exponent,
        side=side,
    )
    value, x = _solve_axis(mesh, 0, terms, tie_break)
    ref, _ = uncontracted_solve_axis(mesh, 0, terms, tie_break)
    assert abs(value - ref) <= 1e-12 * (1 + abs(ref))
    # the expanded minimizer attains the contracted minimum
    energy = ~terms.side
    attained = float(
        np.sum(terms.h * np.abs(x[terms.plus] - x[terms.minus]))
        + np.sum(terms.weight[energy] * np.abs(x[terms.cell[energy]] + terms.const[energy]))
    )
    assert abs(attained - value) <= 1e-12 * (1 + abs(ref))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(h=st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=1, max_size=10))
def test_a_unary_free_run_jumps_at_its_last_cheapest_edge(h):
    # heavy end terms pin x = 0 at the first cell and x = 1 at the last; the
    # cells between carry no unary term, so the path jumps exactly once
    n = len(h) + 1
    mesh = chain_mesh(n)
    terms = chain_terms(mesh, h=h, cell=[0, n - 1], weight=[10.0, 10.0], const=[0.0, -1.0])
    value, x = _solve_axis(mesh, 0, terms, tie_break=False)
    last = len(h) - 1 - int(np.argmin(h[::-1]))
    assert value == min(h)
    assert np.array_equal(x, (np.arange(n) > last).astype(float))


@pytest.mark.parametrize("kind, n, A", [("W_3D2DSD", 32, (3, 2)), ("W_3DSD", 8, (3, 3))])
def test_affine_solves_run_the_dp_on_chains_of_two_cells(monkeypatch, kind, n, A):
    chain_dp = sdrelax.solver._chain_dp
    lengths = []

    def counted(cand, h, unary, *args):
        lengths.append(unary.shape[1])
        return chain_dp(cand, h, unary, *args)

    monkeypatch.setattr(sdrelax.solver, "_chain_dp", counted)
    rng = np.random.default_rng(5)
    solve(CellProblem(kind=kind, n=n, A=rng.uniform(-5, 5, A), B=rng.uniform(-5, 5, (3, 2))))
    assert lengths and max(lengths) <= 2


def test_objective_of_arbitrary_feasible_fields_certifies_floor():
    # the lower-bound certificate says the (overestimated) objective of ANY
    # pinned-gradient field dominates the continuum closed form
    rng = np.random.default_rng(80)
    pair = interfacial_normal_pair()
    for _ in range(40):
        theta = rng.uniform(0, 2 * np.pi)
        eta = np.array([np.cos(theta), np.sin(theta)])
        lam = rng.uniform(-4, 4, 3)
        n = int(rng.integers(1, 5))
        mesh = build_mesh(2, n, eta)
        fld = SbvField(
            mesh, np.zeros((mesh.ncells, 3, 2)), rng.uniform(-6, 6, (mesh.ncells, 3))
        )
        objective = surface_energy(fld, pair, datum=StepDatum(lam, eta), overestimate=True)
        assert objective >= h_3d2d(lam, eta) - 1e-10

    for _ in range(40):
        A = rng.uniform(-3, 3, (3, 2))
        B = rng.uniform(-3, 3, (3, 2))
        n = int(rng.integers(1, 5))
        mesh = build_mesh(2, n, np.array([1.0, 0.0]))
        fld = SbvField(
            mesh,
            np.broadcast_to(B, (mesh.ncells, 3, 2)).copy(),
            rng.uniform(-6, 6, (mesh.ncells, 3)),
        )
        objective = surface_energy(fld, pair, datum=AffineDatum(A), overestimate=True)
        assert objective >= w_3d2dsd(A, B) - 1e-10
        # the exact-split energy is certified as well
        exact = surface_energy(fld, pair, datum=AffineDatum(A))
        assert exact >= w_3d2dsd(A, B) - 1e-10

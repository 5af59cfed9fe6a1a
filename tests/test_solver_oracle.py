"""Independent cross-checks of the cell solver.

The monolithic oracle stacks every direction's absolute-value terms into one
scipy linear program over all offset components at once, with no
per-direction decomposition and no chain splitting, and must reproduce the
solver's value.  The chain solver is also checked on its own against scipy,
on random chains with arbitrary weights.  The certificate check evaluates
the objective at arbitrary (non-optimal) feasible fields and verifies it
never falls below the closed form, which is the content of the lower-bound
flag.  The DP over the kept cells of the chains is checked against the
same DP run on every cell, and the longest-first ragged DP against the
padded DP it replaced (``padded_chain_dp``), kept here as a reference; the
chain table of all axes is checked bit for bit against the axis-by-axis
assembly it replaced (``per_axis_chain_table``).
"""

import itertools
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

import sdrelax.solver
from sdrelax.densities import h_3d2d, interfacial_normal_pair, w_3d2dsd
from sdrelax.energy import padded_normal, surface_energy
from sdrelax.fields import SbvField, StepDatum, AffineDatum, boundary_pieces
from sdrelax.meshes import build_mesh
from sdrelax.solver import (
    TIE_RTOL,
    ChainTable,
    CellProblem,
    Kind,
    _chain_dp,
    _chain_objective,
    _chain_table,
    _datum_for,
    _mesh_for,
    _pinned_gradient,
    _run_tables,
    _solve_chains,
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
    table = _chain_table(mesh, pin, pieces, side_terms=False)
    return abs_sum_lp_value(mesh.dim * mesh.ncells, *chain_lp_terms(table))


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
# the chain table of all axes against its axis-by-axis assembly
# ---------------------------------------------------------------------------

def per_axis_chain_table(mesh, pin, pieces, side_terms):
    """The chain table assembled in one pass per axis, each deriving its own
    terms: the assembly ``_chain_table`` replaced, kept as a reference."""
    dim, n = mesh.dim, mesh.shape[0]
    nchains = mesh.ncells // n
    dirs3 = padded_normal(mesh.frame.T)
    gall = pieces.points @ pin.T - pieces.datum
    k = 1 if side_terms else pieces.corners.shape[1]  # a step's constant mismatch, or trapezoid shares
    columns, affine, before = [], [], 0
    for b in range(dim):
        on = slice(None) if side_terms else pieces.axis == b
        vals = (gall[on] @ dirs3[b])[:, :k]
        own = pieces.axis[on] == b
        cell = np.repeat(pieces.cell[on], k)
        stride = n ** (dim - 1 - b)
        chain, pos = b * nchains + cell // (stride * n) * stride + cell % stride, cell // stride % n
        columns.append((chain, pos, np.repeat(pieces.measure[on] / k, k), vals.reshape(-1), np.repeat(~own, k)))
        if not side_terms:
            affine.append((np.arange(len(pieces.cell))[on], before + k * np.arange(len(vals))))
        before += len(cell)
    rows, first = (np.concatenate(c) for c in zip(*affine)) if affine else (np.zeros(0, int),) * 2
    return ChainTable(
        mesh.bnd_measure[::2], n, *(np.concatenate(c) for c in zip(*columns)),
        affine=first[:, None] + np.arange(k),
        measure=pieces.measure[rows],
    )


def with_b_equal_to_a(problem):
    """``problem`` with its ``B`` replaced by (the first columns of) ``A``,
    so that every boundary mismatch is constant; unchanged without ``B``."""
    if problem.B is None:
        return problem
    return replace(problem, B=problem.A[:, : problem.B.shape[1]].copy())


@pytest.mark.parametrize("kind", LP_KINDS, ids=lambda k: k.value)
def test_chain_table_equals_the_per_axis_assembly_bit_for_bit(kind):
    rng = np.random.default_rng(300 + LP_KINDS.index(kind))
    side_terms = sdrelax.solver.KINDS[kind].pin is None
    for n in range(1, 6 if kind is Kind.W_3DSD or kind is Kind.H_3DSD else 10):
        for scale in (1e-9, 1.0, 1e12):
            for p in (random_problem(kind, n, rng, scale), with_b_equal_to_a(random_problem(kind, n, rng, scale))):
                mesh, pin = _mesh_for(p), _pinned_gradient(p)
                pieces = boundary_pieces(mesh, _datum_for(p, mesh))
                got = _chain_table(mesh, pin, pieces, side_terms)
                ref = per_axis_chain_table(mesh, pin, pieces, side_terms)
                for name, value in vars(ref).items():
                    other = getattr(got, name)
                    assert np.shape(other) == np.shape(value), name
                    assert np.asarray(other).dtype == np.asarray(value).dtype, name
                    assert np.asarray(other).tobytes() == np.asarray(value).tobytes(), name


# ---------------------------------------------------------------------------
# the chain solver on its own
# ---------------------------------------------------------------------------

def chain_table(h, n, chain, pos, weight, const, side=None):
    """Chain table of ``len(h)`` chains of ``n`` cells, without affine
    boundary pieces; ``h`` is ``(nchains,)``."""
    chain = np.asarray(chain, dtype=int)
    return ChainTable(
        h=np.asarray(h, dtype=float),
        n=n,
        chain=chain,
        pos=np.asarray(pos, dtype=int),
        weight=np.asarray(weight, dtype=float),
        const=np.asarray(const, dtype=float),
        side=np.zeros(len(chain), dtype=bool) if side is None else np.asarray(side),
        affine=np.zeros((0, 2), dtype=int),
        measure=np.zeros(0),
    )


def chain_lp_terms(table):
    """``abs_sum_lp_value`` pairs and unary rows of a chain table's energy;
    cell ``i`` of chain ``c`` is variable ``c * n + i``."""
    var = np.arange(len(table.h) * table.n).reshape(len(table.h), table.n)
    energy = ~table.side
    h = np.repeat(table.h, table.n - 1)
    pairs = list(zip(var[:, 1:].reshape(-1), var[:, :-1].reshape(-1), h))
    cell = var[table.chain, table.pos]
    unary = list(zip(cell[energy], table.weight[energy], table.const[energy]))
    return pairs, unary


def chain_objective(table, x):
    energy = ~table.side
    return float(
        np.sum(table.h[:, None] * np.abs(x[:, 1:] - x[:, :-1]))
        + np.sum(
            table.weight[energy]
            * np.abs(x[table.chain[energy], table.pos[energy]] + table.const[energy])
        )
    )


def dense_chains(table, tie_break):
    """``_solve_chains``'s minimizer of a chain table expanded from its runs
    to the values ``x`` ``(nchains, n)``, and the objective of each chain,
    which ``_chain_objective`` reads from the runs.  A table with no grid
    labels its terms' runs by their breakpoints."""
    table.layout = SimpleNamespace(**_run_tables(table, tie_break, 0.0 - table.const))
    values = _solve_chains(table)
    x = np.repeat(values, np.diff(table.layout.first, append=len(table.h) * table.n))
    chain_value, _ = _chain_objective(values, table)
    return x.reshape(len(table.h), table.n), chain_value


def objective_at(x, table):
    """``_chain_objective`` at the values ``x`` ``(nchains, n)``: every cell
    is its own run, kept by an energy-free term of weight 0 and labelled by
    its cell."""
    every, zero = np.arange(x.size), np.zeros(x.size)
    table = replace(
        table, chain=np.concatenate((table.chain, every // table.n)),
        pos=np.concatenate((table.pos, every % table.n)), weight=np.concatenate((table.weight, zero)),
        const=np.concatenate((table.const, zero)), side=np.concatenate((table.side, zero == 0.0)),
    )
    table.layout = SimpleNamespace(**_run_tables(table, True, table.chain * table.n + table.pos))
    return _chain_objective(x.reshape(-1), table)


def solve_chain_table(table, tie_break):
    """Total objective and minimizer ``(nchains, n)`` of a chain table."""
    x, chain_value = dense_chains(table, tie_break)
    return float(np.cumsum(chain_value)[-1]), x


def test_chain_solver_matches_scipy_on_random_chains():
    rng = np.random.default_rng(0)
    for _ in range(150):
        n, nchains = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        nunary = int(rng.integers(1, 10))
        # cell i * nchains + c is cell i of chain c; every chain needs a
        # unary term, the rest land anywhere
        cell = np.concatenate([rng.integers(0, n, nchains) * nchains + np.arange(nchains),
                               rng.integers(0, n * nchains, nunary)])
        table = chain_table(
            h=rng.uniform(0.05, 3, nchains),
            n=n,
            chain=cell % nchains,
            pos=cell // nchains,
            weight=rng.uniform(0.05, 3, len(cell)),
            const=rng.uniform(-3, 3, len(cell)),
        )
        value, x = solve_chain_table(table, tie_break=False)
        ref = abs_sum_lp_value(n * nchains, *chain_lp_terms(table))
        assert value == pytest.approx(ref, rel=0, abs=1e-8 * (1 + abs(ref)))
        # the returned point attains the reported value
        assert chain_objective(table, x) == pytest.approx(value, rel=0, abs=1e-12 * (1 + value))


def test_chain_tie_break_picks_the_boundary_matching_minimizer():
    # |x0| + |x1 - x0| + |x2 - x1| + |x2 - 1| is minimal (= 1) for every
    # monotone x from 0 to 1; the tie-break re-weighs the boundary terms and
    # returns a minimizer that matches both ends
    table = chain_table(
        h=[1.0], n=3, chain=[0, 0], pos=[0, 2], weight=[1.0, 1.0], const=[0.0, -1.0]
    )
    value, x = solve_chain_table(table, tie_break=True)
    assert value == 1.0
    assert x[0, 0] == 0.0 and x[0, 2] == 1.0


def test_chain_tie_break_side_terms_carry_no_energy():
    # 2|x0 - 2| + |x1 - x0| + |x1 - 1| is minimal (= 1) at x0 = 2 for every
    # x1 in [1, 2]; the boundary term alone would tie-break to x1 = 1, the
    # heavier energy-free side term 3|x1 - 2| moves it to x1 = 2 without
    # changing the value
    table = chain_table(
        h=[1.0], n=2, chain=[0, 0, 0], pos=[0, 1, 1], weight=[2.0, 1.0, 3.0], const=[-2.0, -1.0, -2.0],
        side=[False, False, True],
    )
    value, x = solve_chain_table(table, tie_break=True)
    assert value == 1.0
    assert x[0, 0] == 2.0 and x[0, 1] == 2.0
    no_side = chain_table(
        h=[1.0], n=2, chain=[0, 0], pos=[0, 1], weight=[2.0, 1.0], const=[-2.0, -1.0]
    )
    value, x = solve_chain_table(no_side, tie_break=True)
    assert value == 1.0
    assert x[0, 0] == 2.0 and x[0, 1] == 1.0


def test_chain_of_one_cell_without_interior_terms():
    table = chain_table(h=[1.0], n=1, chain=[0], pos=[0], weight=[2.0], const=[5.0])
    value, x = solve_chain_table(table, tie_break=False)
    assert value == 0.0
    assert x[0, 0] == -5.0


def every_cell_solve_chains(table, tie_break):
    """``solve_chain_table`` by the padded DP over every cell of every chain
    (``padded_chain_dp``), with the solver's candidates, term costs and
    tie tolerances, each cell's terms summed in table order."""
    nchains, n = len(table.h), table.n
    use = ~table.side | tie_break
    chain, pos = table.chain[use], table.pos[use]
    weight, const, energy = table.weight[use], table.const[use], ~table.side[use]
    breaks = [np.unique(0.0 - const[chain == c]) for c in range(nchains)]
    k = max(len(b) for b in breaks)
    cand = np.array([np.concatenate((b, np.full(k - len(b), b[-1]))) for b in breaks])
    cost = weight[:, None] * np.abs(cand[chain] + const[:, None])
    unary = np.zeros((nchains, n, k))
    np.add.at(unary, (chain[energy], pos[energy]), cost[energy])
    secondary = tol = None
    if tie_break:
        secondary = np.zeros_like(unary)
        np.add.at(secondary, (chain, pos), cost)
        total_weight = table.h * (n - 1) + np.bincount(chain[energy], weight[energy], nchains)
        tol = TIE_RTOL * total_weight * np.abs(cand).max(axis=1)
    h = np.repeat(table.h[:, None], n - 1, axis=1)
    x = np.take_along_axis(cand, padded_chain_dp(cand, h, unary, secondary, tol), axis=1)
    chain_value, _ = objective_at(x, table)
    return float(np.cumsum(chain_value)[-1]), x


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 9),
    nchains=st.integers(1, 4),
    density=st.floats(0.0, 1.0),
    tie_break=st.booleans(),
    exponent=st.integers(-9, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_kept_cell_dp_matches_the_dp_over_every_cell(n, nchains, density, tie_break, exponent, seed):
    rng = np.random.default_rng(seed)
    # every chain carries a unary term; each cell carries one with the drawn density
    cell = np.concatenate([
        rng.integers(0, n, nchains) * nchains + np.arange(nchains),
        np.flatnonzero(rng.random(n * nchains) < density),
    ])
    side = rng.random(len(cell)) < 0.3
    side[:nchains] = False
    table = chain_table(
        h=rng.uniform(0.05, 3, nchains) * 10.0**exponent,
        n=n,
        chain=cell % nchains,
        pos=cell // nchains,
        weight=rng.uniform(0.05, 3, len(cell)),
        const=rng.uniform(-3, 3, len(cell)) * 10.0**exponent,
        side=side,
    )
    value, x = solve_chain_table(table, tie_break)
    ref, _ = every_cell_solve_chains(table, tie_break)
    assert abs(value - ref) <= 1e-12 * (1 + abs(ref))
    # the expanded minimizer attains the kept-cell minimum
    attained = chain_objective(table, x)
    assert abs(attained - value) <= 1e-12 * (1 + abs(ref))


def side_objective(table, x):
    """The tie-break's secondary cost at ``x``: every unary term, side
    terms included, and no interior term."""
    return float(np.sum(table.weight * np.abs(x[table.chain, table.pos] + table.const)))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 12),
    nchains=st.integers(1, 4),
    tie_break=st.booleans(),
    exponent=st.integers(-9, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_runs_sharing_a_breakpoint_match_the_dp_over_every_cell(n, nchains, tie_break, exponent, seed):
    # each chain is cut into runs, and every term of a run's cells, energy or
    # side, with non-dyadic weights, sits at the run's breakpoint; runs draw
    # it from three values, so neighbouring runs often share it and the
    # solver merges them; a few cells add a term at another value, which
    # cuts the run there
    rng = np.random.default_rng(seed)
    values = rng.uniform(-3, 3, 3) * 10.0**exponent
    terms = []  # (chain, pos, const)
    for c in range(nchains):
        run = np.cumsum(rng.random(n) < 0.3)
        at = values[rng.integers(0, 3, run[-1] + 1)][run]
        first = int(rng.integers(0, n))
        terms.append((c, first, at[first]))  # every chain needs an energy term
        for i in range(n):
            terms += [(c, i, at[i])] * int(rng.integers(0, 3))
            if rng.random() < 0.1:
                terms.append((c, i, values[rng.integers(0, 3)]))
    chain, pos, breaks = (np.array(t) for t in zip(*terms))
    side = rng.random(len(chain)) < 0.4
    side[np.unique(chain, return_index=True)[1]] = False
    table = chain_table(
        h=rng.uniform(0.05, 3, nchains) * 10.0**exponent,
        n=n,
        chain=chain,
        pos=pos,
        weight=rng.uniform(0.05, 3, len(chain)),
        const=0.0 - breaks,
        side=side,
    )
    value, x = solve_chain_table(table, tie_break)
    ref, y = every_cell_solve_chains(table, tie_break)
    assert abs(value - ref) <= 1e-12 * (1 + abs(ref))
    assert abs(chain_objective(table, x) - value) <= 1e-12 * (1 + abs(ref))
    if tie_break:  # as close to the datum as the DP over every cell
        assert side_objective(table, x) <= side_objective(table, y) * (1 + 1e-12)


def table_chain_objective(table, x):
    """Each chain's objective summed along one full row per chain: every
    interior term, zeros included, then the energy terms in table order."""
    energy = ~table.side
    chain = table.chain[energy]
    order = np.argsort(chain, kind="stable")
    chain, pos = chain[order], table.pos[energy][order]
    weight, const = table.weight[energy][order], table.const[energy][order]
    rank = np.arange(len(chain)) - np.searchsorted(chain, chain)
    m = table.n - 1
    terms = np.zeros((len(x), m + rank.max() + 1))
    terms[:, :m] = table.h[:, None] * np.abs(x[:, 1:] - x[:, :-1])
    terms[chain, m + rank] = weight * np.abs(x[chain, pos] + const)
    return np.cumsum(terms, axis=1)[:, -1]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 9),
    nchains=st.integers(1, 4),
    exponent=st.integers(-9, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_chain_objective_forms_every_run_pair(n, nchains, exponent, seed):
    # the objective pass forms an interior term for every two consecutive runs
    # of a chain, a zero where they agree; adding a zero to a sum of
    # nonnegative terms is exact, so it matches the full row sum bit for bit,
    # and without affine pieces the exact energy is it
    rng = np.random.default_rng(seed)
    cell = np.concatenate([
        rng.integers(0, n, nchains) * nchains + np.arange(nchains),
        rng.integers(0, n * nchains, int(rng.integers(0, 8))),
    ])
    side = rng.random(len(cell)) < 0.3
    side[:nchains] = False
    table = chain_table(
        h=rng.uniform(0.05, 3, nchains) * 10.0**exponent,
        n=n,
        chain=cell % nchains,
        pos=cell // nchains,
        weight=rng.uniform(0.05, 3, len(cell)),
        const=rng.uniform(-3, 3, len(cell)) * 10.0**exponent,
        side=side,
    )
    # few distinct values, so that many interior terms are zero
    x = rng.choice(rng.uniform(-3, 3, 3) * 10.0**exponent, (nchains, n))
    value, exact = objective_at(x, table)
    assert value.tobytes() == table_chain_objective(table, x).tobytes()
    assert exact.tobytes() == value.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 12),
    nchains=st.integers(1, 4),
    exponent=st.integers(-9, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_unary_free_run_jumps_once_at_its_last_edge(n, nchains, exponent, seed):
    # end terms heavier than the chain's weight pin chain c to u[c] at its
    # first cell and v[c] at its last; the cells between carry no unary
    # term, so each chain jumps exactly once, from u to v at its last edge
    rng = np.random.default_rng(seed)
    h = rng.uniform(0.05, 3, nchains) * 10.0**exponent
    u, v = rng.uniform(-3, 3, (2, nchains))
    table = chain_table(
        h=h, n=n,
        chain=np.repeat(np.arange(nchains), 2),
        pos=np.tile([0, n - 1], nchains),
        weight=np.repeat(2 * h, 2),
        const=-np.column_stack((u, v)).reshape(-1),
    )
    value, x = solve_chain_table(table, tie_break=False)
    assert value == np.cumsum(h * np.abs(v - u))[-1]
    assert np.array_equal(x, np.where(np.arange(n) < n - 1, u[:, None], v[:, None]))


def count_chain_dp(monkeypatch):
    """Record ``(rows, steps)`` of every ``_chain_dp`` call."""
    chain_dp = sdrelax.solver._chain_dp
    calls = []

    def counted(active, cand, h, unary, *args):
        calls.append((len(unary), len(active) - 1))
        return chain_dp(active, cand, h, unary, *args)

    monkeypatch.setattr(sdrelax.solver, "_chain_dp", counted)
    return calls


@pytest.mark.parametrize("kind, n, A", [("W_3D2DSD", 32, (3, 2)), ("W_3DSD", 8, (3, 3))])
def test_affine_solves_run_the_dp_on_chains_of_two_cells(monkeypatch, kind, n, A):
    calls = count_chain_dp(monkeypatch)
    rng = np.random.default_rng(5)
    solve(CellProblem(kind=kind, n=n, A=rng.uniform(-5, 5, A), B=rng.uniform(-5, 5, (3, 2))))
    assert calls and max(steps + 1 for _, steps in calls) <= 2
    # one DP step, over both ends of every chain of every axis
    dim = A[1]  # the columns of A: the mesh dimension
    assert calls == [(dim * n ** (dim - 1) * 2, 1)]


def test_step_solve_runs_the_dp_over_the_kept_cells_only(monkeypatch):
    # at even n no cell straddles the datum's discontinuity, so along every
    # chain the terms on either side of it share one breakpoint: the kept
    # cells of each side are one run, and the DP takes one step, with at
    # most two rows per chain
    calls = count_chain_dp(monkeypatch)
    rng = np.random.default_rng(6)
    step_kinds = [Kind.H_3D2D, Kind.H_3D2DSD, Kind.H_3DSD2D, Kind.H_3DSD]
    for kind in step_kinds:
        dim = 3 if kind is Kind.H_3DSD else 2
        for n in (6, 16) if dim == 3 else (6, 16, 64, 100):
            eta = rng.normal(size=dim)
            eta /= np.linalg.norm(eta)
            calls.clear()
            solve(CellProblem(kind=kind, n=n, lam=rng.uniform(-5, 5, 3), orientation=eta))
            assert len(calls) == 1
            rows, steps = calls[0]
            assert steps == 1, (kind, n)
            assert rows <= 2 * dim * n ** (dim - 1)


# ---------------------------------------------------------------------------
# the longest-first ragged DP against the padded DP it replaced
# ---------------------------------------------------------------------------

def lex_argmin(primary, secondary, tol, axis):
    """Argmin of ``primary`` along ``axis``; with ``secondary``, the argmin
    of ``secondary`` among entries whose primary is within ``tol`` of the
    minimum (lexicographic order with tied primaries)."""
    if secondary is None:
        return primary.argmin(axis=axis)
    tied = primary <= primary.min(axis=axis, keepdims=True) + tol
    return np.where(tied, secondary, np.inf).argmin(axis=axis)


def padded_chain_dp(cand, h, unary, secondary=None, tol=None) -> np.ndarray:
    """Candidate indices ``(nchains, n)`` minimizing, per chain,
    ``sum_i unary[i, x_i] + sum_i h[i] |cand[x_{i+1}] - cand[x_i]|``, on
    chains padded to one length ``n`` (``h = 0`` and zero unary costs past a
    chain's end): the chain DP before the ragged layout, kept as a reference.
    """
    nchains, n, k = unary.shape
    jump = np.abs(cand[:, None, :] - cand[:, :, None])  # [c, u, v] = |cand v - cand u|
    tol_step = None if tol is None else tol[:, None, None]
    f = unary[:, 0]
    g = None if secondary is None else secondary[:, 0]
    back = np.empty((nchains, n - 1, k), dtype=np.min_scalar_type(k))
    chain = np.arange(nchains)
    rows, cols = chain[:, None], np.arange(k)  # [rows, arg, cols] picks trans[c, arg[c, v], v]
    for i in range(1, n):
        trans = f[:, :, None] + h[:, i - 1, None, None] * jump
        arg = lex_argmin(trans, None if g is None else g[:, :, None], tol_step, axis=1)
        back[:, i - 1] = arg
        f = trans[rows, arg, cols] + unary[:, i]
        if g is not None:
            g = g[rows, arg] + secondary[:, i]
    idx = np.empty((nchains, n), dtype=np.intp)
    idx[:, -1] = lex_argmin(f, g, None if tol is None else tol[:, None], axis=1)
    for i in range(n - 1, 0, -1):
        idx[:, i - 1] = back[chain, i - 1, idx[:, i]]
    return idx


def path_cost(cand, h, unary, idx):
    """Objective of one chain at candidate indices ``idx``, in sequence."""
    total = unary[0, idx[0]]
    for j in range(1, len(idx)):
        total += h[j - 1] * abs(cand[idx[j]] - cand[idx[j - 1]]) + unary[j, idx[j]]
    return total


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    lengths=st.lists(st.integers(1, 8), min_size=1, max_size=6),
    tie_break=st.booleans(),
    exponent=st.integers(-9, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_ragged_dp_matches_the_padded_dp(lengths, tie_break, exponent, seed):
    rng = np.random.default_rng(seed)
    length = np.array(lengths)
    nchains, longest = len(length), int(length.max())
    # one or two unary terms per cell, on a coarse grid of breakpoints and
    # weights so that costs tie, exactly or (decimal breakpoints) to rounding;
    # side terms enter only the secondary cost
    cell = [
        (c, j) for c in range(nchains) for j in range(length[c]) for _ in range(rng.integers(1, 3))
    ]
    chain, pos = np.array(cell).T
    weight = rng.choice([0.5, 1.0, 2.0], len(chain))
    const = rng.integers(-30, 31, len(chain)) / 10 * 10.0**exponent
    side = rng.random(len(chain)) < 0.3
    # one weight per chain; the padded reference takes it on the chain's
    # edges and 0 past its end
    hc = rng.choice([0.5, 1.0, 2.0], nchains)
    h = np.where(np.arange(longest - 1) < length[:, None] - 1, hc[:, None], 0.0)
    breaks = [np.unique(0.0 - const[chain == c]) for c in range(nchains)]
    k = max(len(b) for b in breaks)
    cand = np.array([np.concatenate((b, np.full(k - len(b), b[-1]))) for b in breaks])
    cost = weight[:, None] * np.abs(cand[chain] + const[:, None])
    unary = np.zeros((nchains, longest, k))
    secondary = np.zeros_like(unary)
    np.add.at(unary, (chain[~side], pos[~side]), cost[~side])
    np.add.at(secondary, (chain, pos), cost)
    total_weight = hc * (length - 1) + np.bincount(chain[~side], weight[~side], nchains)
    tol = TIE_RTOL * total_weight * np.abs(cand).max(axis=1)
    if not tie_break:
        secondary = tol = None
    ref = padded_chain_dp(cand, h, unary, secondary, tol)

    # longest first: row start[j] + slot[c] is position j of chain c
    order = np.argsort(-length, kind="stable")
    slot = np.argsort(order)
    active = np.array([np.sum(length > j) for j in range(longest)])
    start = np.concatenate(([0], np.cumsum(active)))
    c, j = np.nonzero(np.arange(longest) < length[:, None])
    row = start[j] + slot[c]
    flat = np.empty((len(row), k))
    flat[row] = unary[c, j]
    # without the tie-break the ragged DP takes no secondary, as in the solver
    sflat, rtol = None, np.zeros(nchains)
    if tie_break:
        sflat, rtol = np.empty_like(flat), tol[order]
        sflat[row] = secondary[c, j]
    idx = _chain_dp(active, cand[order], hc[order], flat, sflat, rtol, start, np.arange(nchains)[:, None])

    assert np.array_equal(idx[row], ref[c, j])
    for ch in range(nchains):
        L = length[ch]
        mine = idx[row[c == ch]]
        assert path_cost(cand[ch], h[ch], unary[ch, :L], mine) == path_cost(
            cand[ch], h[ch], unary[ch, :L], ref[ch, :L]
        )


# ---------------------------------------------------------------------------
# an exact rational oracle of the chain program
# ---------------------------------------------------------------------------

def exact_chain_costs(table, c, tie_break):
    """Chain ``c``'s exact costs: ``cells[i][v]`` is the (primary,
    secondary) cost of cell ``i`` at candidate ``v`` and ``jump[u][v]`` the
    primary cost of an interior edge from ``u`` to ``v``, as ``Fraction``
    pairs, over the chain's candidate breakpoints ``cand``; the secondary
    cost sums every unary term the solver's tie-break reads."""
    on = (table.chain == c) & (~table.side | tie_break)
    cand = sorted({Fraction(0.0 - const) for const in table.const[on]})
    zero = (Fraction(0), Fraction(0))
    cells = [[zero] * len(cand) for _ in range(table.n)]
    for pos, w, const, side in zip(table.pos[on], table.weight[on], table.const[on], table.side[on]):
        for v, value in enumerate(cand):
            term = Fraction(w) * abs(value + Fraction(const))
            primary, secondary = cells[pos][v]
            cells[pos][v] = (primary + (0 if side else term), secondary + term)
    h = Fraction(table.h[c])
    jump = [[(h * abs(v - u), Fraction(0)) for v in cand] for u in cand]
    return cand, cells, jump


def exact_path_cost(cells, jump, path):
    """Exact (primary, secondary) cost of one chain at candidate indices ``path``."""
    steps = [cells[i][v] for i, v in enumerate(path)] + [jump[u][v] for u, v in zip(path, path[1:])]
    return tuple(sum(parts, Fraction(0)) for parts in zip(*steps))


@pytest.mark.parametrize("tie_break", [False, True])
def test_chain_solver_is_exactly_lexicographic_against_rational_brute_force(tie_break):
    # dyadic data keep every float sum of the solver exact, so its value and
    # its tie-break's choice can be checked exactly: against the minimum over
    # every assignment of candidate breakpoints to cells, which by the
    # threshold property is the minimum over all real values.  Chains are cut
    # into runs whose terms share a breakpoint drawn from a few values, and
    # chain weights up to 4 make flat stretches of tied primaries common
    rng = np.random.default_rng(1709 + tie_break)
    ties = merged = 0
    for _ in range(150):
        nchains, n = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        terms = []  # (chain, pos, breakpoint)
        for c in range(nchains):
            values = rng.integers(-8, 9, 3) / 4
            run = np.cumsum(rng.random(n) < 0.4)
            at = values[rng.integers(0, 3, run[-1] + 1)][run]
            first = int(rng.integers(0, n))
            terms.append((c, first, at[first]))
            for i in range(n):
                terms += [(c, i, at[i])] * int(rng.integers(0, 3))
                if rng.random() < 0.15:
                    terms.append((c, i, values[rng.integers(0, 3)]))
            merged += int(np.any((at[1:] == at[:-1]) & (run[1:] != run[:-1])))
        chain, pos, breaks = (np.array(t) for t in zip(*terms))
        side = rng.random(len(chain)) < 0.4
        side[np.unique(chain, return_index=True)[1]] = False
        table = chain_table(
            h=rng.choice([0.5, 1.0, 2.0], nchains),
            n=n,
            chain=chain,
            pos=pos,
            weight=rng.choice([0.5, 1.0], len(chain)),
            const=0.0 - breaks,
            side=side,
        )
        x, chain_value = dense_chains(table, tie_break)
        for c in range(nchains):
            cand, cells, jump = exact_chain_costs(table, c, tie_break)
            costs = [
                exact_path_cost(cells, jump, path)
                for path in itertools.product(range(len(cand)), repeat=n)
            ]
            best = min(costs)
            ties += sum(cost[0] == best[0] for cost in costs) > 1
            got = exact_path_cost(cells, jump, [cand.index(Fraction(v)) for v in x[c]])
            assert chain_value[c] == best[0]
            assert got == best if tie_break else got[0] == best[0]
    # the draws exercised what they are for
    assert ties >= 30 and merged >= 50


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

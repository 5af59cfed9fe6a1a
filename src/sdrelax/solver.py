"""Numerical minimization of the relaxation cell formulas.

Every cell problem is posed over the discrete SBV class on a unit square or
cube mesh: affine per cell, with the per-cell gradient pinned to the value
forced by the problem's constraint set (the average-gradient datum, the
boundary-datum gradient, or zero for pure jump problems) and the offsets
free.  Boundary conditions are charged energetically as jumps against the
datum.  For the normal-form surface density the objective is then a sum of
absolute values of affine expressions in the offsets:

* interior jumps are constant along each edge (equal pinned gradients), so
  their terms are exact;
* affine boundary mismatches are overestimated by the trapezoid rule (corner
  average on faces), which keeps the program linear and preserves the
  certificate ``value >= continuum infimum`` coming from the Gauss-Green
  identity.

The objective splits by normal direction into independent scalar programs
(the normal form only sees the offset component along each edge normal),
and each of those into independent 1-D chains of cells along the axis: a
chain's interior jumps cost ``h |p_{i+1} - p_i|`` and its boundary
mismatches ``w |p_i + c|``.  This is L1 total variation on a path, which has
the threshold property: some minimizer takes all its values among the unary
breakpoints ``-c``.  A min-plus dynamic program down each chain over those
candidates is therefore exact; it runs on all chains of an axis at once.
Before it runs, each chain is contracted in series to its kept cells (the
cells with a unary term, and both ends): a run of unary-free cells between
two kept cells is a bare total-variation path, whose cheapest way from
value ``u`` to value ``v`` is one jump ``min h |v - u|`` on its cheapest
edge.  So the DP sees one edge per run, and the returned minimizer jumps at
most once per run, at the run's last cheapest edge.  Affine problems charge
only boundary faces, so their chains shrink to their two ends.
Pure jump problems carry a second, energy-free objective through the same
program (datum mismatches on every boundary face, whose breakpoints join
the candidates) and compare (primary, secondary) pairs lexicographically,
so that among minimizers one matching the boundary datum is returned.

Problems whose surface integrand relaxes the out-of-plane normal component
(the zero-boundary pinned-gradient problem and the step-datum problem with
that integrand) admit exact zero-cost discrete minimizers obtained by
staggering the out-of-plane offsets, and are solved in closed form.

Each problem kind is one ``KindSpec`` row of ``KINDS``: its data slots and
their checked shapes, dimension, pinned gradient, datum, closed form and
bulk rules.  Validation, geometry, bulk handling and ``solve`` read the row;
no function tests kind membership.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field, replace
from enum import Enum
from typing import Callable

import numpy as np

from . import densities as dens
from .energy import padded_normal, surface_energy
from .errors import InputError, ProblemError, UnsupportedProblemError
from .fields import (
    AffineDatum,
    BoundaryPieces,
    SbvField,
    StepDatum,
    boundary_pieces,
    boundary_trace_gap,
    embed_planar,
    zero_datum,
)
from .meshes import UNIT_TOL, Mesh, build_mesh

# Tie-break tolerance of the chain solver, relative to a chain's data scale
# (its total primary weight times its largest breakpoint): primaries closer
# than this count as tied.  Sums along a chain of n cells err by about
# n * 2.2e-16 of that scale, far below it.
TIE_RTOL = 1e-10


class Kind(str, Enum):
    H_3D2D = "H_3D2D"
    W_3D2D = "W_3D2D"
    W_3D2DSD = "W_3D2DSD"
    H_3D2DSD = "H_3D2DSD"
    W_3DSD = "W_3DSD"
    H_3DSD = "H_3DSD"
    W_3DSD2D = "W_3DSD2D"
    H_3DSD2D = "H_3DSD2D"
    W1 = "W1"
    GAMMA1 = "GAMMA1"
    TWO_D_TRACE = "TWO_D_TRACE"


@dataclass(frozen=True)
class KindSpec:
    """How one problem kind is validated, posed and solved.

    ``slots`` are the required data slots in checking order; ``shapes`` holds
    ``(slot, shape, message)`` checks of set slots (``{kind}`` in a message
    is the kind's name); ``planar`` embeds 2x2 ``A`` and ``B`` as 3x2.
    ``pin`` and ``datum`` give a problem's pinned gradient and datum;
    ``pin=None`` marks a step problem: zero gradient, step datum, a mesh
    aligned with ``orientation``, and the tie-break.  ``closed`` is the
    continuum value for the normal-form surface density with zero bulk
    (``None``: none); ``zero_bulk`` the bulk term under zero bulk (``None``:
    0); ``custom_bulk(problem, mesh)`` the uncertified ``(value, z)`` under a
    custom bulk (``None``: the kind has no bulk term).  ``psi1`` kinds use the
    out-of-plane-relaxed integrand and are solved in closed form.
    """

    slots: tuple[str, ...]
    dim: int = 2
    shapes: tuple[tuple[str, tuple[int, ...], str], ...] = ()
    planar: bool = False
    pin: Callable | None = None
    datum: Callable = lambda p: AffineDatum(p.A)
    closed: Callable | None = None
    zero_bulk: Callable | None = None
    custom_bulk: Callable | None = None
    psi1: bool = False


def _w_3d2dsd(p) -> float:
    return dens.w_3d2dsd(p.A, p.B)


def _once_relaxed_bulk(p, mesh):
    raise UnsupportedProblemError(
        f"kind {p.kind.value} integrates a once-relaxed bulk density, which has "
        "no closed form for custom initial densities"
    )


_STEP_2D = KindSpec(("lam", "orientation"), closed=lambda p: dens.h_3d2d(p.lam, p.orientation))
_MATRICES_3X2 = (
    ("A", (3, 2), "kind {kind} needs a 3x2 matrix A"),
    ("B", (3, 2), "kind {kind} needs a 3x2 matrix B"),
)
_WITH_D = _MATRICES_3X2 + (("d", (3,), "kind {kind} needs a 3-vector d"),)

KINDS: dict[Kind, KindSpec] = {
    Kind.H_3D2D: _STEP_2D,
    Kind.W_3D2D: KindSpec(
        ("A", "d"), shapes=_WITH_D, pin=lambda p: p.A, closed=lambda p: 0.0,
        custom_bulk=lambda p, mesh: _minimize_mean_constrained_bulk(
            p.density.bulk, p.A, p.d, mesh.ncells
        ),
    ),
    Kind.W_3D2DSD: KindSpec(
        ("A", "B"), shapes=_MATRICES_3X2, pin=lambda p: p.B, closed=_w_3d2dsd,
        custom_bulk=_once_relaxed_bulk,
    ),
    Kind.H_3D2DSD: _STEP_2D,
    Kind.W_3DSD: KindSpec(
        ("A", "B"), dim=3,
        shapes=(
            ("A", (3, 3), "W_3DSD needs a 3x3 boundary matrix A"),
            ("B", (3, 2), "W_3DSD needs a 3x2 average constraint B"),
        ),
        pin=lambda p: np.column_stack([p.B, p.A[:, 2]]),
        closed=lambda p: dens.w_3dsd(p.A, p.B),
        custom_bulk=lambda p, mesh: (
            float(p.density.bulk(_pinned_gradient(p))) * mesh.total_measure, None
        ),
    ),
    Kind.H_3DSD: KindSpec(
        ("lam", "orientation"), dim=3, closed=lambda p: dens.h_pure(p.lam, p.orientation)
    ),
    Kind.W_3DSD2D: KindSpec(
        ("A", "B", "d"), shapes=_WITH_D, pin=lambda p: p.A, closed=_w_3d2dsd,
        # inner bulk density at the pinned gradient; the per-cell mean field
        # cancels inside the trace, hence no z dependence at all
        zero_bulk=lambda p: float(dens.w_3d2dsd(p.A, p.B)),
        custom_bulk=_once_relaxed_bulk,
    ),
    Kind.H_3DSD2D: _STEP_2D,
    Kind.W1: KindSpec(
        ("A",), shapes=_MATRICES_3X2, pin=lambda p: p.A, datum=lambda p: zero_datum(p.dim),
        psi1=True,
    ),
    Kind.GAMMA1: KindSpec(("lam", "orientation"), psi1=True),
    Kind.TWO_D_TRACE: KindSpec(("A", "B"), planar=True, pin=lambda p: p.B, closed=_w_3d2dsd),
}


@dataclass
class CellProblem:
    """One cell formula instance.

    Data slots by kind (unused slots stay ``None``):

    ==============  =======================================================
    H_3D2D          lam (R3), orientation (S1)
    H_3D2DSD        lam, orientation (S1)
    H_3DSD          lam, orientation (S2)
    H_3DSD2D        lam, orientation (S1)
    GAMMA1          lam, orientation (S1); surface integrand is psi1
    W_3D2D          A (3x2), d (R3)
    W_3D2DSD        A (3x2), B (3x2)
    W_3DSD          A (3x3), B (3x2)
    W_3DSD2D        A (3x2), B (3x2), d (R3)
    W1              A (3x2, the pinned gradient); surface integrand is psi1
    TWO_D_TRACE     A (2x2 or 3x2), B (2x2 or 3x2); planar trace problem
    ==============  =======================================================
    """

    kind: Kind
    n: int
    A: np.ndarray | None = None
    B: np.ndarray | None = None
    d: np.ndarray | None = None
    lam: np.ndarray | None = None
    orientation: np.ndarray | None = None
    density: dens.DensityPair = dc_field(default_factory=dens.interfacial_normal_pair)

    def __post_init__(self):
        self.kind = Kind(self.kind)
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ProblemError(f"refinement must be a positive integer, got {self.n!r}")
        for name in ("A", "B", "d", "lam", "orientation"):
            v = getattr(self, name)
            if v is not None:
                setattr(self, name, np.asarray(v, dtype=float))
        if KINDS[self.kind].psi1 and self.density.surface_form == dens.SURFACE_NORMAL:
            self.density = dens.psi1_pair()
        self._validate()

    def _validate(self):
        k, spec = self.kind, KINDS[self.kind]
        for name in ("A", "B", "d", "lam", "orientation"):
            v = getattr(self, name)
            if v is not None and not np.all(np.isfinite(v)):
                raise ProblemError(f"data slot '{name}' must be finite")
        for name in spec.slots:
            if getattr(self, name) is None:
                raise ProblemError(f"kind {k.value} requires data slot '{name}'")
        if self.orientation is not None:
            if self.orientation.shape != (spec.dim,):
                raise ProblemError(
                    f"kind {k.value} needs a {spec.dim}-vector orientation, "
                    f"got {self.orientation.shape}"
                )
            if abs(np.linalg.norm(self.orientation) - 1.0) > UNIT_TOL:
                raise ProblemError("orientation must be a unit vector")
        if self.lam is not None and self.lam.shape != (3,):
            raise ProblemError("lam must be a 3-vector")
        if spec.planar:
            self.A = embed_planar(self.A, "planar trace")
            self.B = embed_planar(self.B, "planar trace")
        for name, shape, message in spec.shapes:
            v = getattr(self, name)
            if v is not None and v.shape != shape:
                raise ProblemError(message.format(kind=k.value))

    @property
    def dim(self) -> int:
        return KINDS[self.kind].dim


@dataclass
class SolveResult:
    """Outcome of one cell-problem minimization.

    ``value`` is the minimized objective (exact interior jump cost plus
    trapezoid-overestimated boundary mismatch), which upper-bounds the exact
    energy of the minimizer and, for certified problems, lower-bounds the
    continuum infimum.  ``value_exact`` re-evaluates the minimizer with exact
    sign-splitting everywhere (``value_exact <= value``).
    """

    kind: Kind
    value: float
    value_exact: float
    minimizer: SbvField
    n: int
    lower_bound_certified: bool
    z: np.ndarray | None = None
    bulk_value: float = 0.0

    def reevaluate(self, problem: "CellProblem") -> float:
        """Recompute the objective from the stored minimizer."""
        datum = _datum_for(problem, self.minimizer.mesh)
        surf = surface_energy(self.minimizer, problem.density, datum=datum, overestimate=True)
        return surf + self.bulk_value


def closed_form(problem: CellProblem) -> float | None:
    """Continuum value of the cell formula for the built-in density pair,
    where one exists; ``None`` for custom densities."""
    spec, density = KINDS[problem.kind], problem.density
    if density.surface_form == dens.SURFACE_PSI1 and spec.psi1:
        return 0.0
    if density.surface_form != dens.SURFACE_NORMAL or density.bulk_form != dens.BULK_ZERO:
        return None
    return None if spec.closed is None else spec.closed(problem)


# ---------------------------------------------------------------------------
# problem geometry: mesh, pinned gradient, datum
# ---------------------------------------------------------------------------

def _mesh_for(problem: CellProblem) -> Mesh:
    if KINDS[problem.kind].pin is None:
        return build_mesh(problem.dim, problem.n, problem.orientation)
    axis1 = np.zeros(problem.dim)
    axis1[0] = 1.0
    return build_mesh(problem.dim, problem.n, axis1)


def _pinned_gradient(problem: CellProblem) -> np.ndarray:
    pin = KINDS[problem.kind].pin
    return np.zeros((3, problem.dim)) if pin is None else pin(problem)


def _datum_for(problem: CellProblem, mesh: Mesh):
    spec = KINDS[problem.kind]
    if spec.pin is None:
        return StepDatum(problem.lam, mesh.orientation)
    return spec.datum(problem)


# ---------------------------------------------------------------------------
# term assembly for the normal-form surface density
# ---------------------------------------------------------------------------

@dataclass
class AxisTerms:
    """Scalar program of one mesh axis in the offset component ``p`` along
    the axis' (padded) world normal::

        sum_e h[e] |p[plus[e]] - p[minus[e]]|  +  sum_t weight[t] |p[cell[t]] + const[t]|

    Interior terms are the axis' mesh edges.  Unary terms with ``side`` set
    carry no energy: they enter only the tie-break of pure jump problems.
    """

    plus: np.ndarray
    minus: np.ndarray
    h: np.ndarray
    cell: np.ndarray
    weight: np.ndarray
    const: np.ndarray
    side: np.ndarray


def _assemble_axis_terms(
    mesh: Mesh, pin: np.ndarray, pieces: BoundaryPieces, side_terms: bool
) -> list[AxisTerms]:
    """Per mesh axis: the absolute-value terms of its scalar program.

    Each boundary piece of axis ``a`` emits one unary term for axis ``a``:
    its measure times the constant mismatch, or, for affine mismatches, one
    trapezoid share per corner.  With ``side_terms`` (pure jump problems), a
    piece whose mismatch is constant along another axis direction ``b`` also
    emits an energy-free term for axis ``b``; these enter only the
    tie-break, steering the returned minimizer to attain the boundary datum
    wherever the optimal face allows it.  Terms keep boundary-piece order.
    """
    dim = mesh.dim
    dirs3 = padded_normal(mesh.frame.T)  # row a = padded world direction of axis a
    gall = pieces.points @ pin.T - pieces.datum
    unary = [[] for _ in range(dim)]  # per axis: (cell, weight, const, side) arrays
    for a in range(dim):
        on = pieces.axis == a
        cell, measure, g = pieces.cell[on], pieces.measure[on], gall[on]
        for b in range(dim):
            if b != a and not side_terms:
                continue
            vals = g @ dirs3[b]
            const = np.max(np.abs(vals - vals[:, :1]), axis=1) == 0.0
            emit = np.zeros(vals.shape, dtype=bool)
            if b == a:
                # constant mismatch: one term; affine: a trapezoid share per corner
                emit[:, 0] = True
                emit[~const] = True
                weight = np.where(const, measure, measure / vals.shape[1])
            else:
                emit[:, 0] = const
                weight = measure
            unary[b].append(
                (
                    np.broadcast_to(cell[:, None], vals.shape)[emit],
                    np.broadcast_to(weight[:, None], vals.shape)[emit],
                    vals[emit],
                    np.full(int(emit.sum()), b != a),
                )
            )

    out = []
    for b in range(dim):
        cell, weight, const, side = (np.concatenate(t) for t in zip(*unary[b]))
        on = mesh.int_axis == b
        out.append(
            AxisTerms(
                plus=mesh.int_plus[on],
                minus=mesh.int_minus[on],
                h=mesh.int_measure[on],
                cell=cell,
                weight=weight,
                const=const,
                side=side,
            )
        )
    return out


# ---------------------------------------------------------------------------
# exact chain solver
# ---------------------------------------------------------------------------

def _rank_in_group(group: np.ndarray, ngroups: int) -> np.ndarray:
    """Position of each entry within its group, for sorted group labels."""
    return np.arange(len(group)) - np.searchsorted(group, np.arange(ngroups))[group]


def _candidates(chain: np.ndarray, breaks: np.ndarray, nchains: int) -> np.ndarray:
    """Sorted unique breakpoints of each chain, ``(nchains, k)``; a chain
    with fewer than ``k`` repeats its largest one."""
    order = np.lexsort((breaks, chain))
    chain, breaks = chain[order], breaks[order]
    new = np.ones(len(breaks), dtype=bool)
    new[1:] = (chain[1:] != chain[:-1]) | (breaks[1:] != breaks[:-1])
    chain, breaks = chain[new], breaks[new]
    rank = _rank_in_group(chain, nchains)
    cand = np.full((nchains, rank.max() + 1), np.nan)
    cand[chain, rank] = breaks
    return np.fmax.accumulate(cand, axis=1)


def _lex_argmin(primary, secondary, tol, axis):
    """Argmin of ``primary`` along ``axis``; with ``secondary``, the argmin
    of ``secondary`` among entries whose primary is within ``tol`` of the
    minimum (lexicographic order with tied primaries)."""
    if secondary is None:
        return primary.argmin(axis=axis)
    tied = primary <= primary.min(axis=axis, keepdims=True) + tol
    return np.where(tied, secondary, np.inf).argmin(axis=axis)


def _chain_dp(cand, h, unary, secondary=None, tol=None) -> np.ndarray:
    """Candidate indices ``(nchains, n)`` minimizing, per chain,
    ``sum_i unary[i, x_i] + sum_i h[i] |cand[x_{i+1}] - cand[x_i]|``.

    Min-plus recursion down the chain with backtracking:
    ``f_i(v) = unary_i(v) + min_u f_{i-1}(u) + h_{i-1} |v - u|``.  With
    ``secondary`` (unary only), it carries (primary, secondary) pairs and
    compares them lexicographically, primaries within ``tol`` (one value per
    chain) counting as tied.
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
        arg = _lex_argmin(trans, None if g is None else g[:, :, None], tol_step, axis=1)
        back[:, i - 1] = arg
        f = trans[rows, arg, cols] + unary[:, i]
        if g is not None:
            g = g[rows, arg] + secondary[:, i]
    idx = np.empty((nchains, n), dtype=np.intp)
    idx[:, -1] = _lex_argmin(f, g, None if tol is None else tol[:, None], axis=1)
    for i in range(n - 1, 0, -1):
        idx[:, i - 1] = back[chain, i - 1, idx[:, i]]
    return idx


def _contract(h: np.ndarray, kept: np.ndarray):
    """Series contraction of chains to their kept cells.

    ``h`` ``(nchains, n - 1)`` holds each chain's edge weights, and ``kept``
    ``(nchains, n)`` marks the kept cells, every chain's first and last cell
    among them.  Between two kept cells of a chain lies a run of cells
    without unary terms: a bare total-variation path, along which going from
    value ``u`` to value ``v`` costs at least ``min h |v - u|``, attained by
    one jump at a cheapest edge.

    Returns ``hc`` ``(nchains, L - 1)``, one edge of the run's least ``h``
    between consecutive kept cells (chains with fewer than ``L`` kept cells
    are padded with ``h = 0``); ``keep``, the kept cells' flat (row-major)
    indices; ``rank``, each kept cell's position in its contracted chain;
    and ``span``, how many consecutive cells (in flat order) take each kept
    cell's value: a run's cells up to its last cheapest edge take the value
    of the kept cell before it, the rest that of the kept cell after it.
    """
    nchains, m = h.shape
    keep = np.flatnonzero(kept)
    chain, pos = np.divmod(keep, m + 1)
    # kept cell j (not its chain's last) starts the run of edges up to kept
    # cell j + 1; in h's flat order the runs tile every chain
    inner = (pos != m)[:-1]
    edge = keep - chain  # flat index in h of the edge after each kept cell
    start, stop = edge[:-1][inner], edge[1:][inner]
    hflat = h.reshape(-1)
    hmin = np.minimum.reduceat(hflat, start)
    cheapest = np.flatnonzero(hflat == np.repeat(hmin, stop - start))
    jump = cheapest[cheapest.searchsorted(stop) - 1]  # last cheapest edge of each run
    # first cell, in flat order, that takes each kept cell's value; then the end
    begin = np.concatenate((keep, [kept.size]))
    begin[1:-1][inner] = jump + chain[:-1][inner] + 1
    rank = np.arange(len(keep)) - keep.searchsorted(chain * (m + 1))
    hc = np.zeros((nchains, rank.max()))
    hc[chain[:-1][inner], rank[:-1][inner]] = hmin
    return hc, keep, rank, begin[1:] - begin[:-1]


def _solve_axis(mesh: Mesh, axis: int, terms: AxisTerms, tie_break: bool):
    """Exact minimum and minimizer (per cell) of one axis program.

    The program splits into independent chains of cells along the axis.  By
    the threshold property of L1 total variation, some minimizer takes all
    its values in the chain's unary breakpoints ``-const``, so the DP over
    those candidates is exact; with ``tie_break`` the candidates include the
    side-term breakpoints, which keeps the lexicographic program exact too.
    The DP runs on the chains contracted to their cells with unary terms
    (``_contract``); the objective is summed over the expanded chains.
    """
    chains = mesh.chains(axis)
    nchains, n = chains.shape
    chain_of = np.empty(mesh.ncells, dtype=np.intp)
    pos_of = np.empty(mesh.ncells, dtype=np.intp)
    chain_of[chains] = np.arange(nchains)[:, None]
    pos_of[chains] = np.arange(n)[None, :]

    h = np.zeros((nchains, n - 1))
    h[chain_of[terms.minus], pos_of[terms.minus]] = terms.h

    use = ~terms.side | tie_break
    tc, tp = chain_of[terms.cell[use]], pos_of[terms.cell[use]]
    weight, const, primary = terms.weight[use], terms.const[use], ~terms.side[use]
    kept = np.zeros((nchains, n), dtype=bool)
    kept[:, 0] = kept[:, -1] = True
    kept[tc, tp] = True
    hc, keep, rank, span = _contract(h, kept)
    tk = rank[keep.searchsorted(tc * n + tp)]
    # 0.0 - const rather than -const, so that a zero breakpoint is +0.0
    cand = _candidates(tc, 0.0 - const, nchains)
    cost = weight[:, None] * np.abs(cand[tc] + const[:, None])
    unary = np.zeros((nchains, hc.shape[1] + 1, cand.shape[1]))
    np.add.at(unary, (tc[primary], tk[primary]), cost[primary])
    secondary = tol = None
    if tie_break:
        secondary = np.zeros_like(unary)
        np.add.at(secondary, (tc, tk), cost)
        total_weight = h.sum(axis=1) + np.bincount(
            tc[primary], weights=weight[primary], minlength=nchains
        )
        tol = TIE_RTOL * total_weight * np.abs(cand).max(axis=1)
    idx = _chain_dp(cand, hc, unary, secondary, tol)
    kc = keep // n
    x = np.repeat(cand[kc, idx[kc, rank]], span).reshape(nchains, n)

    values = np.empty(mesh.ncells)
    values[chains] = x
    value = _axis_objective(x, h, tc[primary], tp[primary], weight[primary], const[primary])
    return value, values


def _axis_objective(x, h, chain, pos, weight, const) -> float:
    """Objective of an axis program at the chain values ``x``.

    Summed in sequence, chain by chain: interior terms in chain order, then
    unary terms in assembly order, so the value does not depend on the
    order of the solver's internal arithmetic.
    """
    order = np.argsort(chain, kind="stable")
    chain, pos, weight, const = chain[order], pos[order], weight[order], const[order]
    rank = _rank_in_group(chain, len(x))
    m = h.shape[1]
    terms = np.zeros((len(x), m + rank.max() + 1))
    terms[:, :m] = h * np.abs(x[:, 1:] - x[:, :-1])
    terms[chain, m + rank] = weight * np.abs(x[chain, pos] + const)
    return float(np.cumsum(np.cumsum(terms, axis=1)[:, -1])[-1])


# ---------------------------------------------------------------------------
# bulk handling
# ---------------------------------------------------------------------------

def _bulk_value(problem: CellProblem, mesh: Mesh):
    """(bulk contribution to the objective, z field or None, certified)."""
    spec = KINDS[problem.kind]
    z = np.tile(problem.d, (mesh.ncells, 1)) if "d" in spec.slots else None
    if spec.custom_bulk is None or problem.density.bulk_form == dens.BULK_ZERO:
        return (0.0 if spec.zero_bulk is None else spec.zero_bulk(problem)), z, True
    # custom bulk densities: exploratory, never certified
    value, z = spec.custom_bulk(problem, mesh)
    return value, z, False


def _minimize_mean_constrained_bulk(bulk, A, d, ncells):
    """Minimize the cell average of ``bulk((A|z_T))`` subject to the mean of
    the per-cell values ``z_T`` being ``d``.

    Searches the constant field plus two-value laminates with cell-count
    weights (the natural discrete family; a laminate realizes the convex
    envelope direction by direction).  Exploratory feature: the result is an
    upper bound for the discrete class and is flagged uncertified.
    """
    from scipy.optimize import minimize

    d = np.asarray(d, dtype=float)

    def at(z):
        return float(bulk(np.column_stack([A, z])))

    best_val = at(d)
    best_z = np.tile(d, (ncells, 1))
    if ncells == 1:
        return best_val, best_z

    counts = sorted({max(1, round(f * ncells)) for f in (0.1, 0.25, 0.5)} | {1})
    for m in counts:
        if not 1 <= m < ncells:
            continue
        theta = m / ncells

        def objective(z1, theta=theta):
            z1 = np.asarray(z1)
            z2 = (d - theta * z1) / (1.0 - theta)
            return theta * at(z1) + (1.0 - theta) * at(z2)

        res = minimize(lambda z: objective(z), x0=d, method="Powell")
        if res.fun < best_val - 1e-12:
            best_val = float(res.fun)
            z1 = np.asarray(res.x)
            z2 = (d - theta * z1) / (1.0 - theta)
            best_z = np.vstack([np.tile(z1, (m, 1)), np.tile(z2, (ncells - m, 1))])
    return best_val, best_z


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def solve(problem: CellProblem) -> SolveResult:
    """Minimize the cell formula over the discrete class; see module docs."""
    spec = KINDS[problem.kind]
    surface_form = problem.density.surface_form
    if spec.psi1 and surface_form != dens.SURFACE_PSI1:
        raise UnsupportedProblemError(
            f"kind {problem.kind.value} is defined with the out-of-plane-relaxed "
            "surface integrand"
        )
    if not spec.psi1 and surface_form != dens.SURFACE_NORMAL:
        raise UnsupportedProblemError(
            "only the normal-form surface density is linear-programmable; "
            f"got surface_form={surface_form!r}"
        )

    mesh = _mesh_for(problem)
    pin = _pinned_gradient(problem)
    datum = _datum_for(problem, mesh)

    bulk_value, z, certified = _bulk_value(problem, mesh)
    # one piece table for term assembly and the exact re-evaluation
    pieces = boundary_pieces(mesh, datum)

    if spec.psi1:
        surf_value, offsets = None, _staggered_offsets(problem, mesh)
    else:
        surf_value, offsets = _chain_offsets(problem, mesh, pin, pieces)

    grads = np.broadcast_to(np.array(pin), (mesh.ncells, 3, mesh.dim))
    minimizer = SbvField(mesh, grads, offsets)
    value_exact = surface_energy(minimizer, problem.density, datum, pieces=pieces) + bulk_value
    value = value_exact if surf_value is None else surf_value + bulk_value
    return SolveResult(
        kind=problem.kind,
        value=float(value),
        value_exact=float(value_exact),
        minimizer=minimizer,
        n=problem.n,
        lower_bound_certified=certified,
        z=z,
        bulk_value=float(bulk_value),
    )


def _chain_offsets(problem: CellProblem, mesh: Mesh, pin, pieces: BoundaryPieces):
    """(surface objective, offsets) of the chain programs, one per axis."""
    tie_break = KINDS[problem.kind].pin is None
    axis_terms = _assemble_axis_terms(mesh, pin, pieces, side_terms=tie_break)
    surf_value = 0.0
    offsets = np.zeros((mesh.ncells, 3))
    dirs3 = padded_normal(mesh.frame.T)
    for a in range(mesh.dim):
        val, p = _solve_axis(mesh, a, axis_terms[a], tie_break)
        surf_value += val
        offsets += p[:, None] * dirs3[a][None, :]

    if tie_break and mesh.dim == 2:
        # the out-of-plane offset component is costless under the normal
        # form; match the datum region so the returned trace is exact
        lam3 = float(problem.lam[2])
        mids = 0.5 * (mesh.cell_lo[:, 0] + mesh.cell_hi[:, 0])
        offsets[:, 2] += np.where(mids >= 0, lam3, 0.0)
    return surf_value, offsets


def _staggered_offsets(problem: CellProblem, mesh: Mesh) -> np.ndarray:
    """Closed-form minimizer offsets for the out-of-plane-relaxed integrand.

    Staggering the out-of-plane offsets makes every interior jump and every
    boundary mismatch carry a nonzero (or a.e. nonzero) third component,
    which the integrand does not charge; the discrete minimum is exactly 0.
    """
    offsets = np.zeros((mesh.ncells, 3))
    if KINDS[problem.kind].pin is None:
        lam = problem.lam
        mids = 0.5 * (mesh.cell_lo[:, 0] + mesh.cell_hi[:, 0])
        offsets[mids >= 0] = lam
        stagger = abs(lam[2]) + 1.0
    else:
        stagger = 2.0 * float(np.linalg.norm(problem.A)) + 1.0
    offsets[:, 2] += stagger * (1.0 + np.arange(mesh.ncells))
    return offsets


# ---------------------------------------------------------------------------
# studies and reports
# ---------------------------------------------------------------------------

@dataclass
class RefineRow:
    n: int
    value: float
    certified: bool


def refine_study(problem: CellProblem, n_list) -> list[RefineRow]:
    """Solve the same problem over a nested refinement ladder."""
    n_list = [int(n) for n in n_list]
    if not n_list:
        raise ProblemError("n_list must be nonempty")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ProblemError("n_list must be strictly increasing")
    if any(b % a != 0 for a, b in zip(n_list, n_list[1:])):
        raise ProblemError("each refinement must divide the next (nested meshes)")

    def run(n):
        r = solve(replace(problem, n=n))
        return RefineRow(n=n, value=r.value, certified=r.lower_bound_certified)

    return [run(n) for n in n_list]


@dataclass
class PathCompareReport:
    left_bulk: float
    left_surface: float
    right_bulk: float
    right_surface: float

    @property
    def bulk_difference(self) -> float:
        return abs(self.left_bulk - self.right_bulk)

    @property
    def surface_difference(self) -> float:
        return abs(self.left_surface - self.right_surface)


def path_compare_numeric(A, B, d, lam, eta, n, density=None) -> PathCompareReport:
    """Solve both relaxation orders (reduce-then-relax vs relax-then-reduce)
    on the same data and report the value differences."""
    density = density or dens.interfacial_normal_pair()
    if density.bulk_form != dens.BULK_ZERO:
        raise ProblemError("path comparison requires a purely interfacial density")
    lb = solve(CellProblem(kind=Kind.W_3D2DSD, n=n, A=A, B=B, density=density))
    ls = solve(CellProblem(kind=Kind.H_3D2DSD, n=n, lam=lam, orientation=eta, density=density))
    rb = solve(CellProblem(kind=Kind.W_3DSD2D, n=n, A=A, B=B, d=d, density=density))
    rs = solve(CellProblem(kind=Kind.H_3DSD2D, n=n, lam=lam, orientation=eta, density=density))
    return PathCompareReport(
        left_bulk=lb.value, left_surface=ls.value, right_bulk=rb.value, right_surface=rs.value
    )


# ---------------------------------------------------------------------------
# problem JSON
# ---------------------------------------------------------------------------

def problem_from_json(text: str) -> CellProblem:
    """Problem spec file: {"kind", "A", "B", "d", "lambda", "eta", "n",
    "density"}; matrices row-major nested lists, density a built-in name."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON for problem file: {exc}") from exc
    if not isinstance(payload, dict) or "kind" not in payload or "n" not in payload:
        raise InputError("problem file must be an object with 'kind' and 'n'")
    try:
        kind = Kind(payload["kind"])
    except ValueError:
        raise InputError(f"unknown problem kind {payload['kind']!r}") from None
    density = dens.density_by_name(payload.get("density", "interfacial-normal"))

    def grab(key):
        return np.asarray(payload[key], dtype=float) if key in payload else None

    try:
        return CellProblem(
            kind=kind,
            n=int(payload["n"]),
            A=grab("A"),
            B=grab("B"),
            d=grab("d"),
            lam=grab("lambda"),
            orientation=grab("eta") if "eta" in payload else grab("nu"),
            density=density,
        )
    except ProblemError as exc:
        raise InputError(str(exc)) from exc


def result_to_json(result: SolveResult, minimizer_file: str | None = None) -> str:
    payload = {
        "kind": result.kind.value,
        "value": result.value,
        "value_exact": result.value_exact,
        "n": result.n,
        "certified": result.lower_bound_certified,
    }
    if minimizer_file is not None:
        payload["minimizer_file"] = minimizer_file
    return json.dumps(payload, indent=2)


__all__ = [
    "Kind",
    "KindSpec",
    "KINDS",
    "CellProblem",
    "SolveResult",
    "solve",
    "closed_form",
    "refine_study",
    "RefineRow",
    "path_compare_numeric",
    "PathCompareReport",
    "problem_from_json",
    "result_to_json",
    "boundary_trace_gap",
]

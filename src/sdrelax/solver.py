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
breakpoints ``-c``.  A min-plus dynamic program over those candidates is
therefore exact; it runs once per solve, vectorized across the chains of
all axes, longest first, over the runs of each chain's kept cells (cells
with a unary term, and both ends; see ``_solve_chains``), one DP row per
run: step problems at even n take one DP step, and affine problems, which
charge only boundary faces, visit each chain's two ends.  Pure jump
problems carry a second, energy-free objective through the same program
(datum mismatches on every boundary face, whose breakpoints join the
candidates) and compare (primary, secondary) pairs lexicographically, so
that among minimizers one matching the boundary datum is returned.

The minimizer is its runs: a value per DP row, held from the row's first
cell up to the next row's, so a chain jumps at most once between two rows,
at the last edge before the second.  The solve's field keeps them
(:class:`sdrelax.fields.ChainRuns`) and builds dense offsets only when they
are read.  One pass over the chain program's terms at the runs, each
interior jump read between consecutive rows of a chain and each unary term
at its row's value, sums both the objective (``value``) and the exact
energy of the minimizer (``value_exact``): they share every interior and
constant boundary term, and an affine boundary piece's exact integral
(split at the sign change on a segment, the closed-form rectangle kernel on
a face) is spread over its trapezoid shares in proportion, clamped to them.
Both add their terms in the same order, so ``value_exact <= value`` holds
term by term and, rounding being monotone, for the sums.

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
    ChainRuns,
    SbvField,
    StepDatum,
    abs_affine_integral,
    boundary_pieces,
    boundary_trace_gap,
    embed_planar,
    flat_matmul,
    zero_datum,
)
from .meshes import UNIT_TOL, Mesh, build_mesh, json_positive_int, positive_int

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
    0); ``custom_bulk(problem, mesh)`` the uncertified bulk term under a
    custom bulk, or, as a string, why the kind cannot take one (``None``: the
    kind has no bulk term).  ``psi1`` kinds use the out-of-plane-relaxed
    integrand and are solved in closed form.
    """

    slots: tuple[str, ...]
    dim: int = 2
    shapes: tuple[tuple[str, tuple[int, ...], str], ...] = ()
    planar: bool = False
    pin: Callable | None = None
    datum: Callable = lambda p: AffineDatum(p.A)
    closed: Callable | None = None
    zero_bulk: Callable | None = None
    custom_bulk: Callable | str | None = None
    psi1: bool = False


def _w_3d2dsd(p) -> float:
    return dens.w_3d2dsd(p.A, p.B)


_ONCE_RELAXED = (
    "integrates a once-relaxed bulk density, which has no closed form for custom initial densities"
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
        custom_bulk=(
            "minimizes a custom bulk density over fields z of mean d, for which the solver has "
            "no certified method"
        ),
    ),
    Kind.W_3D2DSD: KindSpec(
        ("A", "B"), shapes=_MATRICES_3X2, pin=lambda p: p.B, closed=_w_3d2dsd,
        custom_bulk=_ONCE_RELAXED,
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
        custom_bulk=lambda p, mesh: float(p.density.bulk(_pinned_gradient(p))) * mesh.total_measure,
    ),
    Kind.H_3DSD: KindSpec(
        ("lam", "orientation"), dim=3, closed=lambda p: dens.h_pure(p.lam, p.orientation)
    ),
    Kind.W_3DSD2D: KindSpec(
        ("A", "B", "d"), shapes=_WITH_D, pin=lambda p: p.A, closed=_w_3d2dsd,
        # inner bulk density at the pinned gradient; the per-cell mean field
        # cancels inside the trace, hence no z dependence at all
        zero_bulk=lambda p: float(dens.w_3d2dsd(p.A, p.B)),
        custom_bulk=_ONCE_RELAXED,
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
        self.n = positive_int(self.n, ProblemError, "refinement")
        for name in ("A", "B", "d", "lam", "orientation"):
            v = getattr(self, name)
            if v is not None:
                setattr(self, name, _real_array(name, v))
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


def _real_array(slot: str, value) -> np.ndarray:
    """``value`` as a float array; strings, complex and ragged data raise."""
    try:
        if np.asarray(value).dtype.kind in "biufO":
            return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        pass
    raise ProblemError(f"data slot '{slot}' must be an array of real numbers")


@dataclass
class SolveResult:
    """Outcome of one cell-problem minimization.

    ``value`` is the minimized objective (exact interior jump cost plus
    trapezoid-overestimated boundary mismatch), which upper-bounds the exact
    energy of the minimizer and, for certified problems, lower-bounds the
    continuum infimum.  ``value_exact`` is the exact energy of the minimizer
    (exact integrals on affine boundary pieces), summed in the same
    pass, term layout and order as ``value``, so ``value_exact <= value``
    holds with no tolerance.  The psi1 kinds, solved in closed form, take
    both from the generic :func:`sdrelax.energy.surface_energy`.
    ``reevaluate`` recomputes ``value`` by that generic path.
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
    pinned = KINDS[problem.kind].pin is not None  # posed on the axis-aligned mesh
    orientation = np.eye(problem.dim)[0] if pinned else problem.orientation
    return build_mesh(problem.dim, problem.n, orientation)


def _pinned_gradient(problem: CellProblem) -> np.ndarray:
    pin = KINDS[problem.kind].pin
    return np.zeros((3, problem.dim)) if pin is None else pin(problem)


def _datum_for(problem: CellProblem, mesh: Mesh):
    spec = KINDS[problem.kind]
    if spec.pin is None:
        return StepDatum(problem.lam, mesh.orientation)
    return spec.datum(problem)


# ---------------------------------------------------------------------------
# the chain program for the normal-form surface density
# ---------------------------------------------------------------------------

@dataclass
class ChainTable:
    """Program over independent chains of ``n`` cells, in the values ``x``
    ``(nchains, n)``::

        sum_c sum_i h[c] |x[c, i + 1] - x[c, i]|
          + sum_t weight[t] |x[chain[t], pos[t]] + const[t]|

    ``h`` ``(nchains,)`` is the one weight of every interior edge of a
    chain; the unary terms are ``(T,)`` arrays, and every chain needs at
    least one.  Unary terms with ``side`` set carry no energy: they enter
    only the tie-break of pure jump problems.

    The affine boundary pieces, whose corner terms are trapezoid shares of
    one mismatch integral, are listed for the exact energy: ``affine``
    ``(Q, corners)`` holds each piece's term indices, one per corner in the
    pieces' corner order (segment ends in 2D, a face's corners in cyclic
    order in 3D), and ``measure`` ``(Q,)`` its measure.
    """

    h: np.ndarray
    n: int
    chain: np.ndarray
    pos: np.ndarray
    weight: np.ndarray
    const: np.ndarray
    side: np.ndarray
    affine: np.ndarray
    measure: np.ndarray


def _chain_table(mesh: Mesh, pin, pieces: BoundaryPieces, side_terms: bool) -> ChainTable:
    """The chain program of every axis of a uniform mesh.

    Axis ``b``'s program is in the offset component along the axis' (padded)
    world normal, over its chains ``mesh.chains(b)``, numbered ``b *
    nchains + row``, the order of the boundary edges, so ``h`` is the face
    measure that each chain's boundary edges carry.  Each boundary piece of
    axis ``a`` emits one unary term for axis ``a``: its measure times the
    constant mismatch, or, for affine mismatches, one trapezoid share per
    corner.  With ``side_terms`` (pure jump problems), a piece whose mismatch
    is constant along another axis direction ``b`` also emits an energy-free
    term for axis ``b``; these enter only the tie-break, steering the
    returned minimizer to attain the boundary datum wherever the optimal face
    allows it.  Terms come axis by axis, in boundary-piece order, corner by
    corner.

    Only the mismatch along each axis' direction is formed per axis (one
    matrix-vector product of the pieces that emit for it); the terms of all
    axes are then derived in one pass over the stacked ``(axis, piece)``
    rows.
    """
    dim, n = mesh.dim, mesh.shape[0]
    nchains = mesh.ncells // n
    dirs3 = padded_normal(mesh.frame.T)  # row b = padded world direction of axis b
    gall = flat_matmul(pieces.points, pin.T) - pieces.datum
    on = [slice(None) if side_terms else pieces.axis == b for b in range(dim)]  # emitting pieces
    vals = np.concatenate([gall[rows] @ dirs3[b] for b, rows in enumerate(on)])
    src = [np.arange(len(pieces.cell))[rows] for rows in on]  # each row's piece
    axis = np.repeat(np.arange(dim), [len(s) for s in src])  # and the axis it emits for
    src = np.concatenate(src)
    ncorners = vals.shape[1]
    const = np.max(np.abs(vals - vals[:, :1]), axis=1) == 0.0
    own = pieces.axis[src] == axis
    share = own & ~const  # affine: a trapezoid share per corner, else one term at corner 0
    emit = share[:, None] | (np.arange(ncorners) == 0) & (own | const)[:, None]
    weight = np.where(share, pieces.measure[src] / ncorners, pieces.measure[src])
    count = emit.sum(axis=1)  # terms of each row, in row-major order
    cell, b = np.repeat(pieces.cell[src], count), np.repeat(axis, count)
    # cell -> (row, position) in the chains along axis b (meshes._chains)
    stride = n ** (dim - 1 - b)
    chain, pos = b * nchains + cell // (stride * n) * stride + cell % stride, cell // stride % n
    first = np.cumsum(count) - count  # each row's first term
    return ChainTable(
        mesh.bnd_measure[::2], n, chain, pos, np.repeat(weight, count), vals[emit],
        np.repeat(~own, count),
        affine=first[share][:, None] + np.arange(ncorners),
        measure=pieces.measure[src[share]],
    )


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


def _lex_argmin(primary, secondary, tol):
    """Argmin of ``primary`` along axis 1; with ``secondary``, the argmin of
    ``secondary`` among entries whose primary is within ``tol`` of the
    minimum (lexicographic order with tied primaries)."""
    if secondary is None:
        return primary.argmin(axis=1)
    tied = primary <= primary.min(axis=1, keepdims=True) + tol
    return np.where(tied, secondary, np.inf).argmin(axis=1)


def _chain_dp(active, cand, h, unary, secondary, tol) -> np.ndarray:
    """Candidate index of every row minimizing, per chain ``c``, ``sum_j
    unary[r_j, x_j] + h[c] |cand[x_j] - cand[x_{j-1}]|`` over the chain's
    rows ``r_j`` (its runs, ``_solve_chains``); with ``secondary``,
    lexicographically in (``unary``, ``secondary``), primaries within
    ``tol`` (one per chain) counting as tied.

    Chains are laid out longest first and ragged: position ``j`` of the
    ``active[j]`` chains that reach it is rows ``start[j] ... start[j + 1]``
    (``start`` the running sum of ``active``), in the order of the rows of
    ``cand``, ``h`` and ``tol``.  Min-plus recursion ``f_j(v) = unary_j(v) +
    min_u f_{j-1}(u) + h |v - u|`` with backtracking, each step on a prefix
    of the chains: a chain that has ended keeps its last ``f``.

    Each step adds ``f`` to the step cost ``h |cand v - cand u|`` in one
    ``(nchains, k, k)`` buffer.  The step cost is built once, in that buffer
    before step 1; only the rows of the chains that take more than one step
    are kept aside for steps 2 onward, so a solve holds one full table.
    """
    nchains, k = cand.shape
    active = np.asarray(active).tolist()  # step bounds as Python ints
    start = np.cumsum([0] + active).tolist()
    f = unary[:nchains].copy()
    g = None if secondary is None else secondary[:nchains].copy()
    back = np.empty(unary.shape, dtype=np.min_scalar_type(k))  # rows of step 0 unused
    chains, cols = np.arange(nchains)[:, None], np.arange(k)
    # step j reads the first active[j] rows of each of these views
    f3, g3, tol3 = f[:, :, None], None if g is None else g[:, :, None], tol[:, None, None]
    buffer = np.subtract(cand[:, None, :], cand[:, :, None])  # [c, u, v]: cand v - cand u
    np.abs(buffer, out=buffer)
    buffer *= h[:, None, None]
    cost = buffer[: active[2] if len(active) > 2 else 0].copy()
    for j in range(1, len(active)):
        a, lo, hi = active[j], start[j], start[j + 1]
        # trans[c, u, v] = f[c, u] + h |cand v - cand u|
        trans = buffer[:a]
        if j > 1:
            trans[...] = cost[:a]
        trans += f3[:a]
        arg = _lex_argmin(trans, None if g is None else g3[:a], tol3[:a])
        back[lo:hi] = arg
        # [chain, arg, cols] picks trans[c, arg[c, v], v]
        f[:a] = trans[chains[:a], arg, cols] + unary[lo:hi]
        if g is not None:
            g[:a] = g[chains[:a], arg] + secondary[lo:hi]
    idx = np.empty(len(unary), dtype=np.intp)
    last = _lex_argmin(f, g, tol[:, None])
    for j in range(len(active) - 1, 0, -1):
        a, lo, hi = active[j], start[j], start[j + 1]
        idx[lo:hi] = last[:a]
        last[:a] = back[lo:hi][chains[:a, 0], last[:a]]
    idx[:nchains] = last
    return idx


def _runs(keep, term_cell, breaks, n):
    """The runs of kept cells: ``keep`` (flat cell ids, sorted) reduced to
    each run's first cell, and the run of each kept cell, given each term's
    kept cell ``term_cell``.  A kept cell all of whose terms have one
    breakpoint joins the run of the kept cell before it in its chain if all
    of that one's terms have the same breakpoint."""
    lo, hi = np.full(len(keep), np.inf), np.full(len(keep), -np.inf)
    np.minimum.at(lo, term_cell, breaks)
    np.maximum.at(hi, term_cell, breaks)
    single = np.where(lo == hi, lo, np.nan)  # nan: several breakpoints, or none
    head = np.ones(len(keep), dtype=bool)
    head[1:] = (keep[1:] // n != keep[:-1] // n) | (single[1:] != single[:-1])
    return keep[head], np.cumsum(head) - 1


def _solve_chains(table: ChainTable, tie_break: bool):
    """Exact minimizer of a chain program as its runs, ``(values, first,
    term_run)``: each run's value and first cell (flat, in the ``(nchains,
    n)`` layout of ``x``), and each term's run.  A run's value holds up to
    the next run's first cell, and every chain starts a run.

    By the threshold property of L1 total variation, some minimizer takes
    all its values in its chain's unary breakpoints ``-const``, so the DP
    over those candidates is exact; with ``tie_break`` the candidates
    include the side-term breakpoints, which keeps the lexicographic program
    exact too.  The DP runs once, over the runs of kept cells of all chains
    (cells with unary terms, and both ends), longest first (``_chain_dp``).
    Between two kept cells lies a bare total-variation path, which costs ``h
    |v - u|`` from value ``u`` to ``v``.  A run is one kept cell, or, where
    some chain keeps more than its two ends, consecutive kept cells every
    term of which has one breakpoint ``p``, with the cells between them.
    Setting all of a point's values on the run to the one closest to ``p``
    lowers each of the run's terms, energy or side, and by the triangle
    inequality not the total variation, so some lexicographic minimizer is
    constant on the run.  The DP's unary (and secondary) table sums each
    run's terms at every candidate with one ``np.bincount`` per candidate
    column, which adds in term order from 0.
    """
    h, n = table.h, table.n
    nchains = len(h)
    use = ~table.side | tie_break
    cell = table.chain * n + table.pos
    tc = table.chain[use]
    weight, const, primary = table.weight[use], table.const[use], ~table.side[use]
    # 0.0 - const rather than -const, so that a zero breakpoint is +0.0
    breaks = 0.0 - const
    kept = np.zeros(nchains * n, dtype=bool)
    kept[::n] = kept[n - 1 :: n] = True
    kept[cell[use]] = True
    keep = np.flatnonzero(kept)
    term_run = keep.searchsorted(cell, side="right") - 1  # each term's kept cell, then its run
    if len(keep) > 2 * nchains:
        keep, run = _runs(keep, term_run[use], breaks, n)
        term_run = run[term_run]
    kc = keep // n
    # longest-first ragged layout: chain c is candidate row slot[c], and its
    # j-th run is row start[j] + slot[c]
    length = np.bincount(kc, minlength=nchains)
    order = np.argsort(-length, kind="stable")
    slot = np.argsort(order, kind="stable")
    active = nchains - np.cumsum(np.bincount(length))[:-1]
    start = np.concatenate(([0], np.cumsum(active)))
    row = start[np.arange(len(keep)) - keep.searchsorted(kc * n)] + slot[kc]
    trow = row[term_run[use]]
    ts = slot[tc]
    cand = _candidates(ts, breaks, nchains)
    del breaks  # before the cost tables, where a large affine solve peaks
    cost = np.abs(cand[ts].T + const) * weight  # [candidate, term]

    def summed(rows, cost):
        """Per-row sums of ``cost``'s terms, added in term order from 0."""
        return np.column_stack([np.bincount(rows, c, len(keep)) for c in cost])

    unary = summed(trow[primary], cost[:, primary])
    secondary, tol = None, np.zeros(nchains)
    if tie_break:
        secondary = summed(trow, cost)
        total_weight = h * (n - 1) + np.bincount(tc[primary], weight[primary], nchains)
        tol = TIE_RTOL * total_weight[order] * np.abs(cand).max(axis=1)
    idx = _chain_dp(active, cand, h[order], unary, secondary, tol)
    return cand[slot[kc], idx[row]], keep, term_run


def _chain_objective(values, first, term_run, table: ChainTable):
    """Objective of each chain at the runs ``_solve_chains`` returns, and the
    exact energy of the same terms, ``(value, value_exact)``.

    Interior terms are read between consecutive runs of a chain, ``h
    |values[r + 1] - values[r]|``, and formed only where the two differ (a
    zero leaves a sum of nonnegative terms unchanged); unary terms read
    their run's value.  The two sums share every term but the corner terms
    of the affine boundary pieces: a piece's trapezoid shares ``s_i``,
    summing to ``T``, become ``s_i min(E / T, 1)``, where ``E <= T`` (by
    convexity) is the piece's exact integral of ``|x + const|``.  One
    :func:`sdrelax.fields.abs_affine_integral` call gives ``E`` for the
    affine pieces of all axes (segments in 2D, rectangles in 3D); a table
    without them (every step problem) has every term exact, and its one sum
    is both.  Both are summed in sequence, interior terms in chain order,
    then unary terms in table order, so that neither depends on the order of
    the solver's internal arithmetic and, rounding being monotone, each
    exact sum is at most its objective.
    """
    nchains = len(table.h)
    run_chain = first // table.n
    step = np.flatnonzero((run_chain[1:] == run_chain[:-1]) & (values[1:] != values[:-1]))
    row = run_chain[step]
    interior = table.h[row] * np.abs(values[step + 1] - values[step])
    at = values[term_run] + table.const
    terms = table.weight * np.abs(at)
    unary = np.flatnonzero(~table.side)
    chain = np.concatenate((row, table.chain[unary]))
    order = np.argsort(chain, kind="stable")  # per chain: interior terms, then unary
    chain = chain[order]
    rank = _rank_in_group(chain, nchains)

    def in_sequence(unary_terms):
        columns = np.zeros((rank.max() + 1, nchains))
        columns[rank, chain] = np.concatenate((interior, unary_terms[unary]))[order]
        total = np.zeros(nchains)
        for column in columns:
            total += column
        return total

    value = in_sequence(terms)
    if not len(table.affine):  # every term is exact
        return value, value
    exact = terms.copy()
    full = abs_affine_integral(at[table.affine], table.measure)
    share = terms[table.affine]
    total = share.sum(axis=1)
    ratio = np.divide(full, total, out=np.zeros_like(full), where=total > 0)
    exact[table.affine] = share * np.minimum(ratio, 1.0)[:, None]
    return value, in_sequence(exact)


# ---------------------------------------------------------------------------
# bulk handling
# ---------------------------------------------------------------------------

def _bulk_value(problem: CellProblem, mesh: Mesh):
    """(bulk contribution to the objective, z field or None, certified)."""
    spec = KINDS[problem.kind]
    z = np.tile(problem.d, (mesh.ncells, 1)) if "d" in spec.slots else None
    if spec.custom_bulk is None or problem.density.bulk_form == dens.BULK_ZERO:
        return (0.0 if spec.zero_bulk is None else spec.zero_bulk(problem)), z, True
    if isinstance(spec.custom_bulk, str):
        raise UnsupportedProblemError(f"kind {problem.kind.value} {spec.custom_bulk}")
    return spec.custom_bulk(problem, mesh), z, False  # custom bulk densities: never certified


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
    grads = np.broadcast_to(np.array(pin), (mesh.ncells, 3, mesh.dim))
    if spec.psi1:  # solved in closed form, scored by the generic energy
        minimizer = SbvField(mesh, grads, _staggered_offsets(problem, mesh))
        surf_value = surf_exact = surface_energy(minimizer, problem.density, datum)
    else:
        surf_value, surf_exact, runs = _chain_minimizer(
            problem, mesh, pin, boundary_pieces(mesh, datum)
        )
        minimizer = SbvField(mesh, grads, runs)
    return SolveResult(
        kind=problem.kind,
        value=float(surf_value + bulk_value),
        value_exact=float(surf_exact + bulk_value),
        minimizer=minimizer,
        n=problem.n,
        lower_bound_certified=certified,
        z=z,
        bulk_value=float(bulk_value),
    )


def _chain_minimizer(problem: CellProblem, mesh: Mesh, pin, pieces: BoundaryPieces):
    """(surface objective, its exact energy, offset runs) of the chain
    program of all axes.  The piece and chain tables are released once the
    program is solved and scored; the minimizer stays its runs, axis ``a``'s
    values taken along its padded world direction (:class:`ChainRuns`)."""
    tie_break = KINDS[problem.kind].pin is None
    dim, n = mesh.dim, mesh.shape[0]
    table = _chain_table(mesh, pin, pieces, tie_break)
    del pieces
    values, first, term_run = _solve_chains(table, tie_break)
    # summed axis by axis, chain by chain
    surf_value, surf_exact = (
        np.cumsum(np.cumsum(v.reshape(dim, -1), axis=1)[:, -1])[-1]
        for v in _chain_objective(values, first, term_run, table)
    )
    del table
    axis, direction = tuple(range(dim)), padded_normal(mesh.frame.T)
    if tie_break and dim == 2:
        # the out-of-plane offset component is costless under the normal
        # form; match the datum region so the returned trace is exact: one
        # more block, a run per chain along axis 1 (one per axis 0 index)
        first = np.concatenate((first, (2 * n + np.arange(n)) * n))
        values = np.concatenate((values, np.where(_right_rows(mesh), float(problem.lam[2]), 0.0)))
        axis, direction = axis + (1,), np.vstack((direction, [0.0, 0.0, 1.0]))
    return surf_value, surf_exact, ChainRuns(axis, direction, first, values)


def _right_rows(mesh: Mesh) -> np.ndarray:
    """Whether the cells of each axis 0 index (slowest in C order) have
    centers with ``x·η >= 0``."""
    b = mesh.axis_breaks[0]
    return 0.5 * (b[:-1] + b[1:]) >= 0


def _staggered_offsets(problem: CellProblem, mesh: Mesh) -> np.ndarray:
    """Closed-form minimizer offsets for the out-of-plane-relaxed integrand.

    Staggering the out-of-plane offsets makes every interior jump and every
    boundary mismatch carry a nonzero (or a.e. nonzero) third component,
    which the integrand does not charge; the discrete minimum is exactly 0.
    """
    offsets = np.zeros((mesh.ncells, 3))
    if KINDS[problem.kind].pin is None:
        offsets[np.repeat(_right_rows(mesh), mesh.ncells // mesh.shape[0])] = problem.lam
        stagger = abs(problem.lam[2]) + 1.0
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
    n_list = [positive_int(n, ProblemError, "refinement") for n in n_list]
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
    n = json_positive_int(payload["n"], "problem file 'n'")
    try:  # CellProblem converts and checks each data slot
        return CellProblem(
            kind=kind,
            n=n,
            A=payload.get("A"),
            B=payload.get("B"),
            d=payload.get("d"),
            lam=payload.get("lambda"),
            orientation=payload.get("eta" if "eta" in payload else "nu"),
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

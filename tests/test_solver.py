import gc
import json
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdrelax.constructions import SequenceParams, build, datum_for
from sdrelax.densities import (
    DensityPair,
    h_pure,
    interfacial_normal_pair,
    psi1_pair,
    w_3d2dsd,
)
from sdrelax.energy import surface_energy
from sdrelax.errors import FieldError, ProblemError, UnsupportedProblemError
from sdrelax.fields import ChainRuns, SbvField, StepDatum, average_gradient, boundary_trace_gap
from sdrelax.meshes import build_mesh
from sdrelax.solver import (
    KINDS,
    CellProblem,
    Kind,
    _datum_for,
    closed_form,
    path_compare_numeric,
    problem_from_json,
    refine_study,
    result_to_json,
    solve,
)
from strategies import interior_tables

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
DIAG = np.array([1.0, 1.0]) / np.sqrt(2)


def embed(two_by_two):
    return np.vstack([np.asarray(two_by_two, dtype=float), np.zeros((1, 2))])


def staircase_bound(A, B, n):
    """Trapezoid energy of the explicit staircase competitor (upper bound
    for the solver value at the same refinement)."""
    params = SequenceParams(kind="STAIRCASE_TRACE", n=n, A=A, B=B)
    field = build(params)
    return surface_energy(field, interfacial_normal_pair(), datum=datum_for(params), overestimate=True)


# ---------------------------------------------------------------------------
# jump kinds
# ---------------------------------------------------------------------------

def test_h_3d2d_axis_competitor_exactly_feasible():
    lam = np.array([1.0, 0.0, 0.0])
    p = CellProblem(kind=Kind.H_3D2D, n=4, lam=lam, orientation=E1)
    r = solve(p)
    assert r.value == pytest.approx(1.0, rel=1e-12, abs=0)
    assert r.lower_bound_certified
    assert boundary_trace_gap(r.minimizer, StepDatum(lam, E1)) <= 1e-9
    assert r.reevaluate(p) == pytest.approx(r.value, rel=1e-12, abs=0.0)
    assert r.value_exact <= r.value + 1e-9


@pytest.mark.parametrize("eta", [E1, E2, DIAG, np.array([1.0, -1.0]) / np.sqrt(2)])
def test_h_3d2d_matches_closed_form_even_n(eta):
    rng = np.random.default_rng(42)
    for _ in range(3):
        lam = rng.uniform(-4, 4, 3)
        p = CellProblem(kind=Kind.H_3D2D, n=8, lam=lam, orientation=eta)
        r = solve(p)
        assert r.value == pytest.approx(closed_form(p), rel=1e-12, abs=0)
        assert boundary_trace_gap(r.minimizer, StepDatum(lam, eta)) <= 1e-9


def test_h_3d2d_odd_n_stays_above_floor():
    lam = np.array([1.0, 2.0, 0.5])
    p = CellProblem(kind=Kind.H_3D2D, n=5, lam=lam, orientation=DIAG)
    r = solve(p)
    assert r.value >= closed_form(p) - 1e-9


def test_h_variants_share_values():
    lam = np.array([0.7, -1.3, 0.4])
    a = solve(CellProblem(kind=Kind.H_3D2DSD, n=6, lam=lam, orientation=E2))
    b = solve(CellProblem(kind=Kind.H_3DSD2D, n=6, lam=lam, orientation=E2))
    assert a.value == b.value


def test_h_3dsd_cube_values():
    for lam in np.eye(3):
        for nu in np.eye(3):
            p = CellProblem(kind=Kind.H_3DSD, n=2, lam=lam, orientation=nu)
            r = solve(p)
            assert r.value == pytest.approx(h_pure(lam, nu), rel=1e-12, abs=0)
            assert boundary_trace_gap(r.minimizer, StepDatum(lam, nu)) <= 1e-9


# ---------------------------------------------------------------------------
# bulk kinds
# ---------------------------------------------------------------------------

def test_w_3d2d_zero_with_affine_minimizer():
    rng = np.random.default_rng(0)
    A = rng.uniform(-3, 3, (3, 2))
    d = rng.uniform(-3, 3, 3)
    p = CellProblem(kind=Kind.W_3D2D, n=1, A=A, d=d)
    r = solve(p)
    assert r.value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(r.minimizer.gradients[0], A)
    assert np.allclose(r.minimizer.offsets, 0.0, atol=1e-12)
    assert np.allclose(r.z, d[None, :])


def test_w_3d2dsd_identity_case_sandwich():
    A = embed(np.eye(2))
    B = np.zeros((3, 2))
    p = CellProblem(kind=Kind.W_3D2DSD, n=8, A=A, B=B)
    r = solve(p)
    upper = staircase_bound(A, B, 8)
    assert 2.0 - 1e-9 <= r.value <= upper + 1e-9
    assert average_gradient(r.minimizer) == pytest.approx(B, abs=1e-12)


def test_w_3d2dsd_random_sandwich_and_floor():
    rng = np.random.default_rng(9)
    for _ in range(6):
        A = rng.uniform(-4, 4, (3, 2))
        B = rng.uniform(-4, 4, (3, 2))
        p = CellProblem(kind=Kind.W_3D2DSD, n=8, A=A, B=B)
        r = solve(p)
        assert r.value >= closed_form(p) - 1e-9
        assert r.value <= staircase_bound(A, B, 8) + 1e-9
        assert r.value_exact <= r.value + 1e-9
        assert r.reevaluate(p) == pytest.approx(r.value, rel=1e-12, abs=0.0)


def test_w_3dsd_cube():
    p = CellProblem(kind=Kind.W_3DSD, n=2, A=np.eye(3), B=np.zeros((3, 2)))
    r = solve(p)
    assert r.value >= 2.0 - 1e-9
    pinned = np.column_stack([np.zeros((3, 2)), np.eye(3)[:, 2]])
    assert average_gradient(r.minimizer) == pytest.approx(pinned, abs=1e-12)


def test_w_3dsd_random_instances_respect_floor():
    rng = np.random.default_rng(77)
    for _ in range(4):
        A = rng.uniform(-3, 3, (3, 3))
        B = rng.uniform(-3, 3, (3, 2))
        p = CellProblem(kind=Kind.W_3DSD, n=2, A=A, B=B)
        r = solve(p)
        assert r.value >= closed_form(p) - 1e-9
        assert r.value_exact <= r.value + 1e-9
        assert r.reevaluate(p) == pytest.approx(r.value, rel=1e-12, abs=0.0)


def test_w_3dsd2d_value_and_z_independence():
    rng = np.random.default_rng(17)
    A = rng.uniform(-4, 4, (3, 2))
    B = rng.uniform(-4, 4, (3, 2))
    values = set()
    for _ in range(5):
        d = rng.uniform(-9, 9, 3)
        r = solve(CellProblem(kind=Kind.W_3DSD2D, n=4, A=A, B=B, d=d))
        values.add(r.value)
    assert values == {w_3d2dsd(A, B)} or max(values) - min(values) == 0.0


def test_w_3d2d_z_independence_zero_bulk():
    rng = np.random.default_rng(18)
    A = rng.uniform(-4, 4, (3, 2))
    values = {solve(CellProblem(kind=Kind.W_3D2D, n=2, A=A, d=rng.uniform(-9, 9, 3))).value
              for _ in range(5)}
    assert len(values) == 1


def test_two_d_trace_kind():
    p = CellProblem(kind=Kind.TWO_D_TRACE, n=8, A=np.eye(2), B=np.zeros((2, 2)))
    r = solve(p)
    assert 2.0 - 1e-9 <= r.value <= staircase_bound(embed(np.eye(2)), np.zeros((3, 2)), 8) + 1e-9


# ---------------------------------------------------------------------------
# scale robustness and the exact re-evaluation
# ---------------------------------------------------------------------------

def test_affine_solve_is_one_homogeneous_at_1e7():
    rng = np.random.default_rng(2017)
    A = rng.uniform(-5, 5, (3, 2))
    B = rng.uniform(-5, 5, (3, 2))
    base = solve(CellProblem(kind=Kind.W_3D2DSD, n=32, A=A, B=B)).value
    scaled = solve(CellProblem(kind=Kind.W_3D2DSD, n=32, A=1e7 * A, B=1e7 * B)).value
    want = 1e7 * base
    assert abs(scaled - want) <= 1e-9 * (1 + abs(want))


def test_step_solve_is_one_homogeneous_at_1e6():
    rng = np.random.default_rng(3)
    for _ in range(20):
        eta = rng.normal(size=2)
        eta /= np.linalg.norm(eta)
        lam = rng.uniform(-5, 5, 3)
        base = solve(CellProblem(kind=Kind.H_3D2D, n=8, lam=lam, orientation=eta)).value
        scaled = solve(CellProblem(kind=Kind.H_3D2D, n=8, lam=1e6 * lam, orientation=eta)).value
        want = 1e6 * base
        assert abs(scaled - want) <= 1e-9 * (1 + abs(want))


@pytest.mark.parametrize("n", [16, 32])
def test_value_exact_below_value_to_rounding(n):
    rng = np.random.default_rng(11)
    for _ in range(8):
        A = rng.uniform(-5, 5, (3, 2))
        B = rng.uniform(-5, 5, (3, 2))
        r = solve(CellProblem(kind=Kind.W_3D2DSD, n=n, A=A, B=B))
        assert r.value_exact <= r.value + 1e-12 * (1 + abs(r.value))


# ---------------------------------------------------------------------------
# psi1 kinds
# ---------------------------------------------------------------------------

def test_gamma1_zero_at_every_refinement():
    lam = np.array([1.0, 0.0, 0.0])
    for n in (2, 4, 8):
        r = solve(CellProblem(kind=Kind.GAMMA1, n=n, lam=lam, orientation=E2))
        assert r.value == 0.0
        assert r.lower_bound_certified
        assert r.value <= np.linalg.norm(lam) / n


def test_w1_zero_for_any_gradient():
    rng = np.random.default_rng(23)
    for _ in range(3):
        M = rng.uniform(-5, 5, (3, 2))
        r = solve(CellProblem(kind=Kind.W1, n=4, A=M))
        assert r.value == 0.0
        assert np.allclose(average_gradient(r.minimizer), M, atol=1e-12)


def test_psi1_kind_requires_psi1_density():
    with pytest.raises(UnsupportedProblemError):
        solve(
            CellProblem(
                kind=Kind.H_3D2D,
                n=2,
                lam=np.ones(3),
                orientation=E1,
                density=psi1_pair(),
            )
        )


# ---------------------------------------------------------------------------
# refinement studies
# ---------------------------------------------------------------------------

def test_refine_study_monotone_above_floor():
    lam = np.array([1.0, 1.0, 0.0])
    p = CellProblem(kind=Kind.H_3D2D, n=2, lam=lam, orientation=E1)
    rows = refine_study(p, [2, 4, 8])
    values = [r.value for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
    assert all(v >= 1.0 - 1e-9 for v in values)


def test_refine_study_affine_case_all_zero():
    A = np.arange(6.0).reshape(3, 2)
    rows = refine_study(CellProblem(kind=Kind.W_3D2DSD, n=1, A=A, B=A), [1, 2, 4])
    assert [r.value for r in rows] == [0.0, 0.0, 0.0]


def test_refine_study_gamma1_rows_below_paper_bound():
    lam = np.array([1.0, 0.0, 0.0])
    rows = refine_study(CellProblem(kind=Kind.GAMMA1, n=2, lam=lam, orientation=E2), [2, 4, 8])
    for row in rows:
        assert row.value <= np.linalg.norm(lam) / row.n


def test_refine_study_validates_ladder():
    p = CellProblem(kind=Kind.H_3D2D, n=2, lam=np.ones(3), orientation=E1)
    with pytest.raises(ProblemError):
        refine_study(p, [])
    with pytest.raises(ProblemError):
        refine_study(p, [4, 2])
    with pytest.raises(ProblemError):
        refine_study(p, [2, 3])


# ---------------------------------------------------------------------------
# path comparison
# ---------------------------------------------------------------------------

def test_path_compare_identity_instance():
    A = embed(np.eye(2))
    B = np.zeros((3, 2))
    lam = np.array([1.0, 0.0, 0.0])
    rep = path_compare_numeric(A, B, np.ones(3), lam, E1, 8)
    delta = staircase_bound(A, B, 8) - 2.0
    assert rep.surface_difference == 0.0
    assert rep.bulk_difference <= 2 * max(delta, 0.0) + 1e-9


def test_path_compare_trivial_instance():
    A = np.zeros((3, 2))
    rep = path_compare_numeric(A, A, np.ones(3), np.zeros(3), E2, 2)
    assert (rep.left_bulk, rep.left_surface, rep.right_bulk, rep.right_surface) == (
        0.0,
        0.0,
        0.0,
        0.0,
    )


def test_path_compare_random_instances_within_competitor_gap():
    rng = np.random.default_rng(31)
    for _ in range(10):
        A = rng.uniform(-3, 3, (3, 2))
        B = rng.uniform(-3, 3, (3, 2))
        d = rng.uniform(-3, 3, 3)
        lam = rng.uniform(-3, 3, 3)
        rep = path_compare_numeric(A, B, d, lam, E1, 8)
        # right-path bulk value is the closed form; the left-path value can
        # exceed it by at most the discrete competitor gap at the same n
        gap_bound = staircase_bound(A, B, 8) - w_3d2dsd(A, B)
        assert rep.surface_difference == 0.0
        assert rep.bulk_difference <= gap_bound + 1e-9


# ---------------------------------------------------------------------------
# custom densities
# ---------------------------------------------------------------------------

def quadratic_bulk_pair():
    def bulk(M):
        z = M[:, 2]
        return float(z @ z)

    return DensityPair(bulk=bulk, surface=h_pure, p=2.0, bulk_form="custom",
                       surface_form="normal")


def test_w_3dsd_custom_bulk_constant_term():
    pair = quadratic_bulk_pair()
    A3 = np.eye(3)
    B3 = np.zeros((3, 2))
    r = solve(CellProblem(kind=Kind.W_3DSD, n=1, A=A3, B=B3, density=pair))
    pinned = np.column_stack([B3, A3[:, 2]])
    assert r.value >= pair.bulk(pinned) - 1e-12
    assert not r.lower_bound_certified


def test_once_relaxed_bulk_with_custom_density_unsupported():
    pair = quadratic_bulk_pair()
    with pytest.raises(UnsupportedProblemError):
        solve(CellProblem(kind=Kind.W_3D2DSD, n=2, A=np.zeros((3, 2)), B=np.zeros((3, 2)),
                          density=pair))
    with pytest.raises(UnsupportedProblemError):
        solve(CellProblem(kind=Kind.W_3DSD2D, n=2, A=np.zeros((3, 2)), B=np.zeros((3, 2)),
                          d=np.zeros(3), density=pair))


def test_custom_surface_density_unsupported():
    pair = DensityPair(bulk=lambda M: 0.0, surface=lambda lam, nu: float(np.linalg.norm(lam)),
                       p=2.0)
    with pytest.raises(UnsupportedProblemError):
        solve(CellProblem(kind=Kind.H_3D2D, n=2, lam=np.ones(3), orientation=E1, density=pair))


# ---------------------------------------------------------------------------
# validation and JSON
# ---------------------------------------------------------------------------

def test_problem_validation_errors():
    with pytest.raises(ProblemError):
        CellProblem(kind=Kind.H_3D2D, n=2, lam=np.ones(3))  # missing orientation
    with pytest.raises(ProblemError):
        CellProblem(kind=Kind.H_3D2D, n=2, lam=np.ones(3), orientation=np.array([1.0, 1.0]))
    with pytest.raises(ProblemError):
        CellProblem(kind=Kind.H_3DSD, n=2, lam=np.ones(3), orientation=E1)  # needs S2
    with pytest.raises(ProblemError):
        CellProblem(kind=Kind.W_3DSD, n=2, A=np.zeros((3, 2)), B=np.zeros((3, 2)))
    with pytest.raises(ProblemError):
        CellProblem(kind=Kind.H_3D2D, n=0, lam=np.ones(3), orientation=E1)


def test_problem_rejects_non_finite_data():
    nan = np.full((3, 2), np.nan)
    with pytest.raises(ProblemError, match="finite"):
        CellProblem(kind=Kind.W_3D2DSD, n=4, A=nan, B=np.zeros((3, 2)))
    with pytest.raises(ProblemError, match="finite"):
        CellProblem(kind=Kind.W_3D2D, n=2, A=np.zeros((3, 2)), d=np.array([0.0, np.inf, 0.0]))
    with pytest.raises(ProblemError, match="finite"):
        CellProblem(kind=Kind.H_3D2D, n=2, lam=np.array([1.0, np.nan, 0.0]), orientation=E1)
    with pytest.raises(ProblemError, match="finite"):
        CellProblem(kind=Kind.H_3D2D, n=2, lam=np.ones(3), orientation=np.array([np.nan, 1.0]))


# Valid data per kind: exactly the required slots, in the order they are checked.
VALID_DATA = {
    Kind.H_3D2D: {"lam": np.ones(3), "orientation": E1},
    Kind.H_3D2DSD: {"lam": np.ones(3), "orientation": E1},
    Kind.H_3DSD: {"lam": np.ones(3), "orientation": np.array([0.0, 0.0, 1.0])},
    Kind.H_3DSD2D: {"lam": np.ones(3), "orientation": E1},
    Kind.GAMMA1: {"lam": np.ones(3), "orientation": E1},
    Kind.W_3D2D: {"A": np.zeros((3, 2)), "d": np.zeros(3)},
    Kind.W_3D2DSD: {"A": np.zeros((3, 2)), "B": np.zeros((3, 2))},
    Kind.W_3DSD: {"A": np.zeros((3, 3)), "B": np.zeros((3, 2))},
    Kind.W_3DSD2D: {"A": np.zeros((3, 2)), "B": np.zeros((3, 2)), "d": np.zeros(3)},
    Kind.W1: {"A": np.zeros((3, 2))},
    Kind.TWO_D_TRACE: {"A": np.zeros((2, 2)), "B": np.zeros((3, 2))},
}
THREE_D = (Kind.H_3DSD, Kind.W_3DSD)
MATRIX_3X2 = (Kind.W_3D2D, Kind.W_3D2DSD, Kind.W_3DSD2D, Kind.W1)


def _validation_cases():
    for k, data in VALID_DATA.items():
        dim = 3 if k in THREE_D else 2
        for slot in data:
            drop = {s: v for s, v in data.items() if s != slot}
            yield f"{k.value}-drop-{slot}", k, drop, f"kind {k.value} requires data slot '{slot}'"
            nan = dict(data, **{slot: np.full(np.shape(data[slot]), np.nan)})
            yield f"{k.value}-nan-{slot}", k, nan, f"data slot '{slot}' must be finite"
        yield (
            f"{k.value}-orientation-shape", k, dict(data, orientation=np.full(4, 0.5)),
            f"kind {k.value} needs a {dim}-vector orientation, got (4,)",
        )
        yield (
            f"{k.value}-orientation-norm", k, dict(data, orientation=np.full(dim, 1.0)),
            "orientation must be a unit vector",
        )
        yield f"{k.value}-lam-shape", k, dict(data, lam=np.ones(2)), "lam must be a 3-vector"
        for slot in ("A", "B"):
            bad = dict(data, **{slot: np.zeros((2, 3))})
            if k is Kind.W_3DSD:
                message = {
                    "A": "W_3DSD needs a 3x3 boundary matrix A",
                    "B": "W_3DSD needs a 3x2 average constraint B",
                }[slot]
            elif k in MATRIX_3X2:
                message = f"kind {k.value} needs a 3x2 matrix {slot}"
            elif k is Kind.TWO_D_TRACE:
                message = "planar trace data must be 2x2 or 3x2, got (2, 3)"
            else:
                message = None  # unused matrix slots of jump problems are not checked
            yield f"{k.value}-shape-{slot}", k, bad, message
        for shape in ((2,), (4,), (3, 1)):
            # the d slot is checked only where the kind uses it
            message = f"kind {k.value} needs a 3-vector d" if "d" in data else None
            shape_id = "x".join(map(str, shape))
            yield f"{k.value}-shape-d-{shape_id}", k, dict(data, d=np.zeros(shape)), message


@pytest.mark.parametrize(
    "kind, data, message",
    [pytest.param(*case[1:], id=case[0]) for case in _validation_cases()],
)
def test_problem_validation_messages(kind, data, message):
    if message is None:
        CellProblem(kind=kind, n=2, **data)
        return
    with pytest.raises(ProblemError) as exc:
        CellProblem(kind=kind, n=2, **data)
    assert str(exc.value) == message


def test_problem_refinement_message():
    with pytest.raises(ProblemError) as exc:
        CellProblem(kind=Kind.H_3D2D, n=0, **VALID_DATA[Kind.H_3D2D])
    assert str(exc.value) == "refinement must be a positive integer, got 0"


def _unsupported_cases():
    custom_surface = DensityPair(bulk=lambda M: 0.0, surface=h_pure, bulk_form="zero")
    for k in Kind:
        if k in (Kind.W1, Kind.GAMMA1):
            message = f"kind {k.value} is defined with the out-of-plane-relaxed surface integrand"
            yield f"{k.value}-custom-surface", k, custom_surface, message
            continue
        for name, density in (("psi1", psi1_pair()), ("custom", custom_surface)):
            message = (
                "only the normal-form surface density is linear-programmable; "
                f"got surface_form='{name}'"
            )
            yield f"{k.value}-{name}-surface", k, density, message
        if k in (Kind.W_3D2DSD, Kind.W_3DSD2D):
            message = (
                f"kind {k.value} integrates a once-relaxed bulk density, which has "
                "no closed form for custom initial densities"
            )
            yield f"{k.value}-custom-bulk", k, quadratic_bulk_pair(), message
        if k is Kind.W_3D2D:
            message = (
                "kind W_3D2D minimizes a custom bulk density over fields z of mean d, "
                "for which the solver has no certified method"
            )
            yield f"{k.value}-custom-bulk", k, quadratic_bulk_pair(), message


@pytest.mark.parametrize(
    "kind, density, message",
    [pytest.param(*case[1:], id=case[0]) for case in _unsupported_cases()],
)
def test_solve_unsupported_messages(kind, density, message):
    problem = CellProblem(kind=kind, n=2, density=density, **VALID_DATA[kind])
    with pytest.raises(UnsupportedProblemError) as exc:
        solve(problem)
    assert str(exc.value) == message


def test_kinds_table_has_one_row_per_kind():
    assert list(KINDS) == list(Kind)


def test_cell_problem_docstring_lists_each_rows_slots():
    listed = {}
    for line in CellProblem.__doc__.splitlines():
        name, _, rest = line.strip().partition(" ")
        if name in Kind.__members__:
            slots = re.findall(r"\b(A|B|d|lam|orientation)\b", rest.split(";")[0])
            listed[Kind(name)] = tuple(slots)
    assert listed == {k: spec.slots for k, spec in KINDS.items()}


def test_step_2d_kinds_share_one_row():
    assert KINDS[Kind.H_3D2D] == KINDS[Kind.H_3D2DSD] == KINDS[Kind.H_3DSD2D]


def test_problem_json_round_trip():
    text = """
    {"kind": "H_3D2D", "lambda": [1, 0, 0], "eta": [1, 0], "n": 4,
     "density": "interfacial-normal"}
    """
    p = problem_from_json(text)
    r = solve(p)
    assert r.value == pytest.approx(1.0, rel=1e-12, abs=0)
    out = result_to_json(r, minimizer_file="min.json")
    assert '"kind": "H_3D2D"' in out and '"minimizer_file": "min.json"' in out


@pytest.mark.parametrize("density", ["interfacial-normal", "zero-bulk", None])
def test_problem_json_psi1_kinds_take_psi1_density(density):
    spec = '"kind": "W1", "n": 2, "A": [[1, 0], [0, 1], [0, 0]]'
    if density is not None:
        spec += f', "density": "{density}"'
    p = problem_from_json("{" + spec + "}")
    assert p.density.surface_form == psi1_pair().surface_form
    assert solve(p).value == 0.0


def test_problem_json_errors():
    from sdrelax.errors import InputError

    with pytest.raises(InputError):
        problem_from_json("{")
    with pytest.raises(InputError):
        problem_from_json('{"kind": "NOPE", "n": 2}')
    with pytest.raises(InputError):
        problem_from_json('{"kind": "H_3D2D", "n": 2}')


STEP_FILE = '{"kind": "H_3D2D", "n": %s, "lambda": %s, "eta": [1, 0]}'


@pytest.mark.parametrize("n", ['"abc"', "[4]", "null", "4.7", "true", "0", "-2"])
def test_problem_json_rejects_a_malformed_n(n):
    from sdrelax.errors import InputError

    with pytest.raises(InputError) as exc:
        problem_from_json(STEP_FILE % (n, "[1, 0, 0]"))
    assert str(exc.value) == f"problem file 'n' must be a positive integer, got {json.loads(n)!r}"


def test_problem_json_reads_an_integral_float_n():
    p = problem_from_json(STEP_FILE % ("4.0", "[1, 0, 0]"))
    assert p.n == 4 and type(p.n) is int


@pytest.mark.parametrize(
    "slot, key, value",
    [
        ("lam", "lambda", '"abc"'),
        ("lam", "lambda", '{"a": 1}'),
        ("lam", "lambda", "[1, [0], 0]"),
        ("lam", "lambda", '["1", "0", "0"]'),
        ("orientation", "eta", '"x"'),
        ("A", "A", "[[1, 0], [0]]"),
        ("d", "d", "[1, 0, true, {}]"),
    ],
)
def test_problem_json_rejects_data_that_are_not_real_arrays(slot, key, value):
    from sdrelax.errors import InputError

    payload = {"kind": "W_3D2D" if slot in ("A", "d") else "H_3D2D", "n": 2}
    payload.update(A=[[1, 0], [0, 1], [0, 0]], d=[0, 0, 1], **{"lambda": [1, 0, 0], "eta": [1, 0]})
    text = json.dumps(payload)[:-1] + f', "{key}": {value}' + "}"  # the last entry wins
    with pytest.raises(InputError) as exc:
        problem_from_json(text)
    assert str(exc.value) == f"data slot '{slot}' must be an array of real numbers"


def test_problem_json_rejects_an_unhashable_density():
    from sdrelax.errors import InputError

    with pytest.raises(InputError, match="unknown density"):
        problem_from_json(STEP_FILE[:-1] % (2, "[1, 0, 0]") + ', "density": ["x"]}')


@pytest.mark.parametrize("n", [True, np.True_, 2.0])
def test_problem_rejects_a_refinement_that_is_not_an_integer(n):
    with pytest.raises(ProblemError) as exc:
        CellProblem(kind=Kind.H_3D2D, n=n, **VALID_DATA[Kind.H_3D2D])
    assert str(exc.value) == f"refinement must be a positive integer, got {n!r}"


@pytest.mark.parametrize(
    "n_list, bad",
    [([4.9, 8], 4.9), ([2.0, 4], 2.0), ([float("nan")], float("nan")), (["4", "8"], "4"), ([True, 2], True)],
)
def test_refine_study_rejects_entries_that_are_not_positive_integers(n_list, bad):
    # every entry is checked, none truncated: 4.9 is not 4
    p = CellProblem(kind=Kind.H_3D2D, n=2, **VALID_DATA[Kind.H_3D2D])
    with pytest.raises(ProblemError) as exc:
        refine_study(p, n_list)
    assert str(exc.value) == f"refinement must be a positive integer, got {bad!r}"


def test_problem_keeps_a_numpy_integer_refinement_as_an_int():
    p = CellProblem(kind=Kind.H_3D2D, n=np.int64(4), **VALID_DATA[Kind.H_3D2D])
    assert p.n == 4 and type(p.n) is int
    assert [r.n for r in refine_study(p, np.array([1, 2]))] == [1, 2]


@pytest.mark.parametrize(
    "lam", ["abc", "1.5", [1j, 0, 0], np.array([1j, 0, 0]), [1, [0], 0], {"a": 1}],
    ids=["string", "numeric-string", "complex-list", "complex-array", "ragged", "dict"],
)
def test_problem_rejects_data_that_are_not_real_arrays(lam):
    with pytest.raises(ProblemError) as exc:
        CellProblem(kind=Kind.H_3D2D, n=2, lam=lam, orientation=E1)
    assert str(exc.value) == "data slot 'lam' must be an array of real numbers"


@pytest.mark.parametrize("kind", ["W_3D2D", "W_3DSD2D"])
def test_problem_json_rejects_a_d_of_the_wrong_shape(kind):
    from sdrelax.errors import InputError

    spec = f'"kind": "{kind}", "n": 2, "A": [[1, 0], [0, 1], [0, 0]], "B": [[0, 0], [0, 0], [1, 0]]'
    with pytest.raises(InputError) as exc:
        problem_from_json("{" + spec + ', "d": [1, 2]}')
    assert str(exc.value) == f"kind {kind} needs a 3-vector d"


def test_custom_bulk_problem_rejects_a_d_of_the_wrong_shape():
    # used to reach the bulk minimization and fail there with numpy's ValueError
    with pytest.raises(ProblemError) as exc:
        CellProblem(
            kind=Kind.W_3D2D, n=2, A=np.zeros((3, 2)), d=np.ones(2), density=quadratic_bulk_pair()
        )
    assert str(exc.value) == "kind W_3D2D needs a 3-vector d"


@pytest.mark.parametrize("kind, n, orientation", [
    ("H_3D2D", 256, [0.6, 0.8]),
    ("H_3DSD", 16, [0.0, 0.6, 0.8]),
])
def test_step_solve_computes_no_interior_corners(monkeypatch, kind, n, orientation):
    # interior corners are derived on demand, and a minimizer's jumps are
    # all constant, so a solve asks for the corners of no interior edge
    from sdrelax.meshes import Mesh

    original, asked = Mesh.int_corners, []

    def counted(self, rows):
        asked.append(len(rows))
        return original(self, rows)

    monkeypatch.setattr(Mesh, "int_corners", counted)
    result = solve(CellProblem(kind=kind, n=n, lam=[1.0, -2.0, 0.5], orientation=orientation))
    assert result.value_exact <= result.value + 1e-12 * (1.0 + abs(result.value))
    assert len(result.minimizer.jump_table.affine) == 0
    assert sum(asked) == 0


@pytest.mark.parametrize(
    "kind, n",
    [(k, 4) for k in Kind if k not in (Kind.W1, Kind.GAMMA1)] + [("W_3DSD", 16), ("W_3D2DSD", 64)],
)
def test_minimizer_jumps_are_all_constant(kind, n):
    # one pinned gradient in every cell: each interior jump is the offset
    # difference alone, so no row of the jump table has corner values
    rng = np.random.default_rng(31)
    dim = 3 if kind in ("W_3DSD", "H_3DSD") else 2
    eta = rng.normal(size=dim)
    problem = CellProblem(
        kind=kind,
        n=n,
        A=rng.uniform(-5, 5, (3, dim)),
        B=rng.uniform(-5, 5, (3, 2)),
        d=rng.uniform(-5, 5, 3),
        lam=rng.uniform(-5, 5, 3),
        orientation=eta / np.linalg.norm(eta),
    )
    field = solve(problem).minimizer
    table = field.jump_table
    assert len(table.affine) == 0
    tab = interior_tables(field.mesh)
    assert np.array_equal(table.offset, field.offsets[tab["int_plus"]] - field.offsets[tab["int_minus"]])


# ---------------------------------------------------------------------------
# shared uniform grids and the one piece table per solve
# ---------------------------------------------------------------------------

def _problems_of_every_kind(n, seed):
    rng = np.random.default_rng(seed)
    for kind in Kind:
        dim = 3 if kind in THREE_D else 2
        eta = rng.normal(size=dim)
        yield CellProblem(
            kind=kind,
            n=n,
            A=rng.uniform(-5, 5, (3, 3 if kind is Kind.W_3DSD else 2)),
            B=rng.uniform(-5, 5, (3, 2)),
            d=rng.uniform(-5, 5, 3),
            lam=rng.uniform(-5, 5, 3),
            orientation=eta / np.linalg.norm(eta),
        )


def _result_bytes(result):
    field = result.minimizer
    return (
        result.value.hex(),
        result.value_exact.hex(),
        field.offsets.tobytes(),
        field.gradients.tobytes(),
        field.mesh.frame.tobytes(),
    )


@pytest.mark.parametrize("n", [1, 3, 4])
def test_grid_cache_miss_and_hit_solve_alike(n):
    from sdrelax.meshes import build_mesh

    for problem in _problems_of_every_kind(n, seed=70 + n):
        build_mesh.cache_clear()
        miss = solve(problem)
        hit = solve(problem)
        assert np.shares_memory(miss.minimizer.mesh.bnd_cell, hit.minimizer.mesh.bnd_cell)
        assert _result_bytes(hit) == _result_bytes(miss), problem.kind


def _layout_cases(dim, n, rng):
    """Problems on one grid, degenerate ones first: affine data whose
    mismatch is constant along every boundary piece (``B - A`` diagonal),
    zero, or constant along axis 0's pieces only, then generic; step data
    whose breakpoints coincide everywhere (``lam = 0``) or along axis 0
    (``lam`` normal to the orientation), then generic.  Each datum kind reads
    one record: an affine piece always emits its trapezoid shares, and a
    step's runs come from the grid."""
    e1 = np.eye(dim)[0]
    A = rng.uniform(-5, 5, (3, 3 if dim == 3 else 2))
    B = A[:, :2]  # the mismatch is (B - A) x on the first two columns, zero on the third
    diagonal, axis0 = np.diag([1.5, -2.0, 0.0])[:, :2], np.array([[1.5, 0.0], [0.7, -2.0], [0.0, 0.0]])
    affine = [B + diagonal, B.copy(), B + axis0, rng.uniform(-5, 5, (3, 2))]
    eta = rng.normal(size=dim)
    steps = [dict(lam=np.zeros(3), orientation=e1),
             dict(lam=np.array([0.0, 1.5, -2.0]), orientation=e1),
             dict(lam=rng.uniform(-5, 5, 3), orientation=eta / np.linalg.norm(eta))]
    affine_kind, step_kind = (Kind.W_3D2DSD, Kind.H_3D2D) if dim == 2 else (Kind.W_3DSD, Kind.H_3DSD)
    return [CellProblem(kind=affine_kind, n=n, A=A, B=b) for b in affine] + [
        CellProblem(kind=step_kind, n=n, **data) for data in steps
    ]


def _solve_bytes(problem):
    result = solve(problem)
    gap = boundary_trace_gap(result.minimizer, _datum_for(problem, result.minimizer.mesh))
    return _result_bytes(result) + (float(gap).hex(),), result.minimizer.mesh


@pytest.mark.parametrize("dim, n", [(2, 3), (2, 4), (3, 3), (3, 4)])
def test_solves_reusing_a_grid_layout_equal_cold_solves(dim, n):
    # interleaved solves on one kept grid read its one layout record per
    # tie-break flag, built by the first; each must equal, bit for bit, the
    # same solve after the grid cache is cleared
    rng = np.random.default_rng(90 + 10 * dim + n)
    cases = _layout_cases(dim, n, rng)
    cold = {}
    for i, problem in enumerate(cases):
        build_mesh.cache_clear()
        cold[i] = _solve_bytes(problem)[0]
    build_mesh.cache_clear()
    # every ordered pair of cases in a row, each case after itself too
    k = len(cases)
    records, order = [], [x for i in range(k) for j in range(k) for x in (i, j)]
    for i in order:
        got, mesh = _solve_bytes(cases[i])
        assert got == cold[i], (cases[i].kind, i)
        records.append(mesh.layouts[KINDS[cases[i].kind].pin is None])
    step = [r for i, r in zip(order, records) if KINDS[cases[i].kind].pin is None]
    affine = [r for i, r in zip(order, records) if KINDS[cases[i].kind].pin is not None]
    assert all(r is step[0] for r in step)  # no lam rebuilds a step record
    assert all(r is affine[0] for r in affine)  # no affine data rebuild theirs
    assert step[0] is not affine[0]


def _frame_cases(dim, n, rng):
    """``(label, call)`` pairs on one grid in two rotated frames and the
    identity, each call building its own mesh: per frame, a dense field's
    boundary pieces, energies, residual and trace gaps against affine, step
    and zero data, and the step solves of that orientation, generic and with
    ``lam = 0``; on the identity frame, affine solves of generic and zero
    data, each solve with the trace gaps of both datum kinds.  Labels
    interleave the frames."""
    from sdrelax.fields import AffineDatum, boundary_pieces, gauss_green_residual

    pair = interfacial_normal_pair()
    step_kind, affine_kind = (Kind.H_3D2D, Kind.W_3D2DSD) if dim == 2 else (Kind.H_3DSD, Kind.W_3DSD)
    orientations = [v / np.linalg.norm(v) for v in rng.normal(size=(2, dim))] + [np.eye(dim)[0]]
    grads, offsets = rng.uniform(-3, 3, (3, n**dim, 3, dim)), rng.uniform(-3, 3, (3, n**dim, 3))
    A, lam = rng.uniform(-3, 3, (3, dim)), rng.uniform(-3, 3, 3)

    def fields_call(f):
        def call():
            mesh = build_mesh(dim, n, orientations[f])
            field = SbvField(mesh, grads[f], offsets[f])
            out = [gauss_green_residual(field).tobytes()]
            for datum in (AffineDatum(A), StepDatum(lam, mesh.orientation),
                          AffineDatum(np.zeros((3, dim))), StepDatum(np.zeros(3), mesh.orientation)):
                pieces = boundary_pieces(mesh, datum)
                out += [np.ascontiguousarray(v).tobytes() for v in vars(pieces).values()]
                out += [surface_energy(field, pair, datum, over).hex() for over in (False, True)]
                out.append(boundary_trace_gap(field, datum).hex())
            return tuple(out)
        return call

    def solve_call(**data):
        def call():  # the trace gap against the problem's datum and one of the other kind
            problem = CellProblem(n=n, **data)
            result = solve(problem)
            mesh, step = result.minimizer.mesh, KINDS[problem.kind].pin is None
            other = AffineDatum(A) if step else StepDatum(lam, mesh.orientation)
            # before the dense offsets are read, so that the gaps gather the runs
            both = (_datum_for(problem, mesh), other)
            gaps = tuple(boundary_trace_gap(result.minimizer, d).hex() for d in both)
            return _result_bytes(result) + gaps
        return call

    per_frame = [
        [(f"fields/{f}", fields_call(f)),
         (f"step/{f}", solve_call(kind=step_kind, lam=lam, orientation=orientations[f])),
         (f"step-zero/{f}", solve_call(kind=step_kind, lam=np.zeros(3), orientation=orientations[f]))]
        for f in range(3)
    ]
    a_shape = (3, 3 if dim == 3 else 2)
    per_frame[2] += [
        ("affine", solve_call(kind=affine_kind, A=rng.uniform(-3, 3, a_shape), B=rng.uniform(-3, 3, (3, 2)))),
        ("affine-zero", solve_call(kind=affine_kind, A=np.zeros(a_shape), B=np.zeros((3, 2)))),
    ]
    return [case for i in range(5) for cases in per_frame for case in cases[i : i + 1]]


@pytest.mark.parametrize("dim, n", [(2, 3), (2, 4), (3, 3), (3, 4)])
def test_calls_reusing_a_grid_geometry_equal_cold_calls(dim, n):
    # pieces, energies, residuals, trace gaps and solves on one kept grid,
    # frames alternating and each call repeated, equal bit for bit the same
    # calls after the grid cache is cleared
    from sdrelax.fields import AffineDatum, boundary_pieces

    cases = _frame_cases(dim, n, np.random.default_rng(120 + 10 * dim + n))
    cold = {}
    for label, call in cases:
        build_mesh.cache_clear()
        cold[label] = call()
    build_mesh.cache_clear()
    for label, call in [case for case in cases for _ in range(2)]:
        assert call() == cold[label], label
    # a mesh of another frame replaces the grid's record by a new one with the
    # same frame-free tables; a mesh of the same frame reuses it
    build_mesh.cache_clear()
    rng = np.random.default_rng(dim + n)
    a, b = (v / np.linalg.norm(v) for v in rng.normal(size=(2, dim)))
    for step, datum in ((False, AffineDatum(np.ones((3, dim)))), (True, StepDatum(np.ones(3), a))):
        first = boundary_pieces(build_mesh(dim, n, a), datum)
        record = build_mesh(dim, n, a).geometry[step]
        again = boundary_pieces(build_mesh(dim, n, a), datum)
        assert build_mesh(dim, n, a).geometry[step] is record and again.points is first.points
        other = build_mesh(dim, n, b)
        moved = boundary_pieces(other, StepDatum(np.ones(3), b) if step else datum)
        assert other.geometry[step] is not record
        assert build_mesh(dim, n, a).geometry[step] is other.geometry[step]  # one record per grid
        assert moved.cell is first.cell and moved.corners is first.corners
        assert not np.shares_memory(moved.points, first.points)
    # clearing the cache frees the records with their grid
    points = weakref.ref(other.geometry[True].points)
    del first, record, again, other, moved
    build_mesh.cache_clear()
    gc.collect()
    assert points() is None


def test_one_solve_builds_one_piece_table(monkeypatch):
    import sys

    import sdrelax.fields
    import sdrelax.solver

    original = sdrelax.fields.boundary_pieces
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # patch every namespace that holds the builder, wherever solve looks it up
    for module in list(sys.modules.values()):
        if module.__name__.startswith("sdrelax") and getattr(module, "boundary_pieces", None) is original:
            monkeypatch.setattr(module, "boundary_pieces", counted)
    # chain kinds score their minimizer in the chain program; only the psi1
    # kinds, solved in closed form, go through the generic surface_energy
    energies = []
    surface_energy = sdrelax.solver.surface_energy

    def evaluated(field, *args, **kwargs):
        energies.append(field)
        return surface_energy(field, *args, **kwargs)

    monkeypatch.setattr(sdrelax.solver, "surface_energy", evaluated)
    for problem in _problems_of_every_kind(3, seed=77):
        calls.clear()
        energies.clear()
        result = solve(problem)
        assert len(calls) == 1, problem.kind
        assert energies == ([result.minimizer] if KINDS[problem.kind].psi1 else []), problem.kind


def test_chain_solve_leaves_no_jump_table_on_its_minimizer():
    # the jump table is built on first use and then kept by the field; a
    # chain-kind solve never asks for it, so the result does not hold it
    for problem in _problems_of_every_kind(4, seed=78):
        if not KINDS[problem.kind].psi1:
            assert "jump_table" not in solve(problem).minimizer.__dict__, problem.kind


# ---------------------------------------------------------------------------
# value_exact: the exact energy of the minimizer, never above value
# ---------------------------------------------------------------------------

CHAIN_KINDS = [k for k in Kind if not KINDS[k].psi1]


def _random_problem(kind, n, rng, scale):
    dim = KINDS[kind].dim
    eta = rng.normal(size=dim)
    return CellProblem(
        kind=kind,
        n=n,
        A=scale * rng.uniform(-5, 5, (3, 3 if kind is Kind.W_3DSD else 2)),
        B=scale * rng.uniform(-5, 5, (3, 2)),
        d=scale * rng.uniform(-5, 5, 3),
        lam=scale * rng.uniform(-5, 5, 3),
        orientation=eta / np.linalg.norm(eta),
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(CHAIN_KINDS),
    data=st.data(),
    exponent=st.integers(-9, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_value_exact_is_the_exact_energy_and_never_exceeds_value(kind, data, exponent, seed):
    n = data.draw(st.integers(1, 8 if KINDS[kind].dim == 3 else 32), label="n")
    problem = _random_problem(kind, n, np.random.default_rng(seed), 10.0**exponent)
    r = solve(problem)
    assert r.value_exact <= r.value
    # the independent generic energy path scores the same minimizer alike
    datum = _datum_for(problem, r.minimizer.mesh)
    generic = surface_energy(r.minimizer, problem.density, datum) + r.bulk_value
    assert abs(r.value_exact - generic) <= 1e-12 * (1 + abs(r.value))


@pytest.mark.parametrize("n", [8, 16, 32])
def test_value_exact_never_exceeds_value_on_the_rounding_probe(n):
    # the instances on which the separately summed re-evaluation came out
    # above value at rounding level
    rng = np.random.default_rng(11)
    for _ in range(20):
        A = rng.uniform(-5, 5, (3, 2))
        B = rng.uniform(-5, 5, (3, 2))
        r = solve(CellProblem(kind=Kind.W_3D2DSD, n=n, A=A, B=B))
        assert r.value_exact <= r.value


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(CHAIN_KINDS), exponent=st.integers(-9, 12), seed=st.integers(0, 2**32 - 1))
def test_values_do_not_increase_along_nested_refinements(kind, exponent, seed):
    # a coarse minimizer is a competitor on each refinement of its mesh, where
    # the finer trapezoid rule charges its boundary mismatch no more
    ladder = [2**i for i in range(4 if KINDS[kind].dim == 3 else 6)]  # up to 8 in 3D, 32 in 2D
    problem = _random_problem(kind, 1, np.random.default_rng(seed), 10.0**exponent)
    rows = refine_study(problem, ladder)
    for coarse, fine in zip(rows, rows[1:]):
        assert fine.value <= coarse.value * (1 + 1e-12), (coarse.n, fine.n)


# ---------------------------------------------------------------------------
# a chain solve's minimizer is its runs: dense offsets on first read
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(CHAIN_KINDS),
    data=st.data(),
    exponent=st.integers(-9, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_runs_minimizer_gathers_what_its_dense_offsets_hold(kind, data, exponent, seed):
    # even and odd n, rotated step meshes, data scales 1e-9 .. 1e12
    n = data.draw(st.integers(1, 8 if KINDS[kind].dim == 3 else 24), label="n")
    problem = _random_problem(kind, n, np.random.default_rng(seed), 10.0**exponent)
    field = solve(problem).minimizer
    mesh = field.mesh
    datum = _datum_for(problem, mesh)
    gathered = field.cell_offsets(mesh.bnd_cell)
    gap = boundary_trace_gap(field, datum)
    assert field._offsets is None  # both read the runs, not the dense offsets
    offsets = field.offsets
    assert field.offsets is offsets and not offsets.flags.writeable
    with pytest.raises(ValueError):
        offsets[0, 0] = 1.0
    assert gathered.tobytes() == offsets[mesh.bnd_cell].tobytes()
    assert field.cell_offsets(mesh.bnd_cell).tobytes() == gathered.tobytes()
    assert boundary_trace_gap(field, datum).hex() == gap.hex()


def test_runs_minimizer_rejects_non_finite_values():
    mesh = build_mesh(2, 2, E1)
    grads = np.zeros((mesh.ncells, 3, 2))
    direction = np.array([[0.6, 0.8, 0.0], [-0.8, 0.6, 0.0]])
    first = np.arange(0, 8, 2)  # one run per chain, two chains per axis
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(FieldError):
            runs = ChainRuns((0, 1), direction, first, np.array([1.0, 2.0, bad, 4.0]))
            SbvField(mesh, grads, runs)
    # finite values whose weighted sums overflow fail on the first read
    field = SbvField(mesh, grads, ChainRuns((0, 1), direction, first, np.full(4, 1.7e308)))
    with np.errstate(over="ignore"), pytest.raises(FieldError):
        field.cell_offsets(mesh.bnd_cell)
    with np.errstate(over="ignore"), pytest.raises(FieldError):
        field.offsets


# ---------------------------------------------------------------------------
# 1-homogeneity over the whole data range
# ---------------------------------------------------------------------------

def _scaled_solve(kind, n, seed, scale):
    problem = _random_problem(kind, n, np.random.default_rng(seed), scale)
    result = solve(problem)
    gap = None
    if KINDS[kind].pin is None and not KINDS[kind].psi1:  # the trace gap of the step kinds
        gap = boundary_trace_gap(result.minimizer, _datum_for(problem, result.minimizer.mesh))
    return result, gap


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(list(Kind)), data=st.data(), k=st.integers(-40, 40), seed=st.integers(0, 2**32 - 1))
def test_solve_is_1_homogeneous_bit_for_bit_under_power_of_two_scaling(kind, data, k, seed):
    # scaling by 2^k is exact, so value, value_exact, the offsets and the
    # step kinds' trace gap must scale exactly; the psi1 kinds' staggered
    # offsets add 1.0 by design, so only their value scales (in both tests)
    n = data.draw(st.integers(1, 4 if KINDS[kind].dim == 3 else 16), label="n")
    s = 2.0**k
    (base, base_gap), (scaled, gap) = (_scaled_solve(kind, n, seed, x) for x in (1.0, s))
    assert scaled.value == s * base.value
    if KINDS[kind].psi1:
        return
    assert scaled.value_exact == s * base.value_exact
    assert scaled.minimizer.offsets.tolist() == (s * base.minimizer.offsets).tolist()
    if gap is not None:
        assert gap == s * base_gap


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(list(Kind)),
    data=st.data(),
    scale=st.sampled_from((1e-9, 1e12)),
    seed=st.integers(0, 2**32 - 1),
)
def test_solve_is_1_homogeneous_at_the_ends_of_the_data_range(kind, data, scale, seed):
    # values to 1e-12 relative.  The trace gap is checked on even meshes,
    # where it is zero up to rounding, to 1e-12 of the data scale; on odd
    # ones rounding may pick another of several exactly tied minimizers,
    # whose gaps differ
    n = data.draw(st.integers(1, 4 if KINDS[kind].dim == 3 else 16), label="n")
    (base, base_gap), (scaled, gap) = (_scaled_solve(kind, n, seed, s) for s in (1.0, scale))
    for got, want in ((scaled.value, base.value), (scaled.value_exact, base.value_exact)):
        assert abs(got - scale * want) <= 1e-12 * abs(scale * want)
    if gap is not None and n % 2 == 0:
        assert abs(gap - scale * base_gap) <= 1e-12 * scale * (1.0 + base_gap)


def test_solve_ladder_stages_name_solver_functions():
    # the ladder times a stage by wrapping sdrelax.solver functions by name;
    # a renamed function would otherwise turn its stage into null silently
    import importlib.util
    import pathlib

    import sdrelax.solver as solver

    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "solve_ladder.py"
    spec = importlib.util.spec_from_file_location("solve_ladder", path)
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    assert ladder.STAGES
    missing = [name for names in ladder.STAGES.values() for name in names if not hasattr(solver, name)]
    assert missing == []

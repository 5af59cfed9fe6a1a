import numpy as np
import pytest

from sdrelax.densities import (
    DensityPair,
    check_hypotheses,
    density_by_name,
    h_3d2d,
    h_pure,
    interfacial_normal_pair,
    psi1_bar,
    w_3d2dsd,
    w_3dsd,
    w_3dsd2d,
)
from sdrelax.errors import InputError

E3 = np.array([0.0, 0.0, 1.0])


def test_h_pure_values():
    assert h_pure((1, 2, 3), E3) == pytest.approx(3.0, abs=0)
    assert h_pure((1, 0, 0), (0, 1, 0)) == 0.0
    assert h_pure((2, 2, 0), np.array([1, 1, 0]) / np.sqrt(2)) == pytest.approx(
        2 * np.sqrt(2), abs=1e-14
    )
    with pytest.raises(InputError):
        h_pure((1, 0, 0), (1, 1, 0))


def test_h_3d2d_values():
    assert h_3d2d((1, 0, 0), (1, 0)) == 1.0
    assert h_3d2d((0, 0, 7), (1, 0)) == 0.0
    assert h_3d2d((3, 4, 0), (0, 1)) == 4.0
    with pytest.raises(InputError):
        h_3d2d((1, 0, 0), (2, 0))


def test_closed_forms_reject_a_nan_normal():
    with pytest.raises(InputError, match="nu must be a unit vector"):
        h_pure([1.0, 0.0, 0.0], [np.nan, 0.0, 0.0])
    for closed in (h_3d2d, psi1_bar):
        with pytest.raises(InputError, match="eta must be a unit vector"):
            closed([1.0, 0.0, 0.0], [np.nan, 0.0])


def test_w_3d2dsd_values():
    A = np.zeros((3, 2))
    A[0, 0] = A[1, 1] = 1.0
    assert w_3d2dsd(A, np.zeros((3, 2))) == 2.0
    B = np.random.default_rng(0).uniform(-9, 9, (3, 2))
    assert w_3d2dsd(B, B) == 0.0
    Ah = np.array([[1.0, 5.0], [7.0, 2.0], [0.0, 0.0]])
    Bh = np.array([[2.0, 9.0], [0.0, 1.0], [0.0, 0.0]])
    assert w_3d2dsd(Ah, Bh) == 0.0


def test_w_3dsd_values():
    eye = np.eye(3)
    assert w_3dsd(eye, eye[:, :2]) == 0.0
    assert w_3dsd(eye, np.zeros((3, 2))) == 2.0
    A = np.diag([4.0, 5.0, 6.0])
    B3 = np.zeros((3, 2))
    B3[0, 0] = B3[1, 1] = 1.0
    assert w_3dsd(A, B3) == 7.0


def test_w_3dsd2d_director_independent():
    rng = np.random.default_rng(1)
    A = rng.uniform(-9, 9, (3, 2))
    B = rng.uniform(-9, 9, (3, 2))
    base = w_3dsd2d(A, B, rng.uniform(-9, 9, 3))
    for _ in range(100):
        assert w_3dsd2d(A, B, rng.uniform(-9, 9, 3)) == base
    eye2 = np.vstack([np.eye(2), np.zeros((1, 2))])
    assert w_3dsd2d(eye2, np.zeros((3, 2)), np.array([9.0, 9, 9])) == 2.0


def test_psi1_bar_values():
    assert psi1_bar((1, 1, 0), (1, 0)) == 1.0
    assert psi1_bar((1, 1, 0.5), (1, 0)) == 0.0
    assert psi1_bar((0, 0, 0), (0, 1)) == 0.0


def test_psi1_bar_sampled_infimum_never_below_closed_form():
    rng = np.random.default_rng(2)
    tgrid = np.linspace(-100, 100, 4001)
    for _ in range(200):
        lam = rng.uniform(-10, 10, 3)
        eta = rng.normal(size=2)
        eta /= np.linalg.norm(eta)
        closed = psi1_bar(lam, eta)
        vectors = np.column_stack([np.broadcast_to(eta, (len(tgrid), 2)), tgrid])
        sampled = np.min(np.abs(vectors @ lam))
        assert sampled >= closed - 1e-9


def test_path_equality_of_closed_forms_is_exact():
    rng = np.random.default_rng(3)
    for _ in range(10_000):
        A = rng.uniform(-10, 10, (3, 2))
        B = rng.uniform(-10, 10, (3, 2))
        d = rng.uniform(-10, 10, 3)
        assert w_3d2dsd(A, B) == w_3dsd2d(A, B, d)


def test_surface_homogeneity_and_subadditivity():
    rng = np.random.default_rng(4)
    for _ in range(500):
        lam1 = rng.uniform(-10, 10, 3)
        lam2 = rng.uniform(-10, 10, 3)
        eta = rng.normal(size=2)
        eta /= np.linalg.norm(eta)
        t = rng.uniform(0.01, 100)
        h1 = h_3d2d(lam1, eta)
        assert h_3d2d(t * lam1, eta) == pytest.approx(t * h1, rel=1e-12, abs=1e-12)
        assert h_3d2d(lam1 + lam2, eta) <= h_3d2d(lam1, eta) + h_3d2d(lam2, eta) + 1e-12


def test_hypothesis_checker_flagship_density():
    report = check_hypotheses(interfacial_normal_pair(), samples=1000, seed=0)
    for name in ("H2", "H3", "H4"):
        entry = report.entry(name)
        assert entry.passed and entry.worst_margin <= 1e-9
    assert report.required_ok
    # the deliberately non-coercive choices are reported, not hidden
    assert not report.entry("H2-lower").passed
    assert not report.entry("H1a").passed


def broken_shifted_pair() -> DensityPair:
    return DensityPair(
        bulk=lambda A: 0.0,
        surface=lambda lam, nu: abs(np.dot(lam, nu)) + 1.0,
        p=2.0,
    )


def broken_quadratic_pair() -> DensityPair:
    return DensityPair(
        bulk=lambda A: 0.0,
        surface=lambda lam, nu: float(np.dot(lam, lam)),
        p=2.0,
        c_surf=1.0,
    )


def test_hypothesis_checker_broken_homogeneity():
    report = check_hypotheses(broken_shifted_pair(), samples=1000, seed=0)
    entry = report.entry("H3")
    assert not entry.passed
    lam, nu, t = entry.witness["lam"], entry.witness["nu"], float(entry.witness["t"])
    pair = broken_shifted_pair()
    assert abs(pair.surface(t * lam, nu) - t * pair.surface(lam, nu)) > 1e-9


def test_hypothesis_checker_broken_upper_bound():
    report = check_hypotheses(broken_quadratic_pair(), samples=1000, seed=0)
    entry = report.entry("H2")
    assert not entry.passed
    lam, nu = entry.witness["lam"], entry.witness["nu"]
    pair = broken_quadratic_pair()
    assert pair.surface(lam, nu) > pair.c_surf * np.linalg.norm(lam) + 1e-9


@pytest.mark.parametrize("scale", [1e-9, 1e-3, 1.0, 1e3, 1e6, 1e12])
def test_hypothesis_verdicts_do_not_depend_on_the_density_scale(scale):
    # H2 and H4, like H3, allow rounding relative to the side they bound: the
    # exactly subadditive s |lam . nu| (c_surf = s) passes at every scale, and
    # both broken pairs, scaled alike, still fail
    def scaled(surface):
        return DensityPair(bulk=lambda A: 0.0, surface=lambda lam, nu: scale * surface(lam, nu), c_surf=scale)

    good = check_hypotheses(scaled(lambda lam, nu: abs(np.dot(lam, nu))), samples=400, seed=0)
    assert good.required_ok, [(e.name, e.worst_margin) for e in good.entries]
    for broken in (broken_shifted_pair(), broken_quadratic_pair()):
        assert not check_hypotheses(scaled(broken.surface), samples=400, seed=0).required_ok


def test_checker_determinism():
    a = check_hypotheses(interfacial_normal_pair(), samples=200, seed=11)
    b = check_hypotheses(interfacial_normal_pair(), samples=200, seed=11)
    assert [e.worst_margin for e in a.entries] == [e.worst_margin for e in b.entries]


def test_density_registry():
    assert density_by_name("interfacial-normal").surface_form == "normal"
    assert density_by_name("zero-bulk").bulk_form == "zero"
    with pytest.raises(InputError):
        density_by_name("nope")
    with pytest.raises(InputError):
        DensityPair(bulk=lambda A: 0.0, surface=h_pure, p=1.0)


@pytest.mark.parametrize("name", ["p", "c_bulk", "c_surf"])
def test_density_pair_rejects_non_finite_constants(name):
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InputError, match=name):
            DensityPair(bulk=lambda A: 0.0, surface=h_pure, **{name: bad})

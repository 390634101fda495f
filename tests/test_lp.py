"""Simplex solver: known programs, certificates, and a scipy cross-check."""

import numpy as np
import pytest

from minkdev.lp import LPOutcome, solve_lp, solve_lps


def test_simple_optimal():
    out = solve_lp(np.array([1.0, 1.0]), A_ub=[[1, 2], [1, 0]], b_ub=[4, 3])
    assert out.status == "optimal"
    assert out.value == pytest.approx(3.5)
    assert out.point == pytest.approx([3.0, 0.5])


def test_equality_constraints():
    # max x0 s.t. x0 + x1 = 1
    out = solve_lp(np.array([1.0, 0.0]), A_eq=[[1, 1]], b_eq=[1.0])
    assert out.status == "optimal"
    assert out.value == pytest.approx(1.0)


def test_unbounded_with_certified_ray():
    out = solve_lp(np.array([1.0, 0.0]), A_ub=[[-1, 1]], b_ub=[1.0])
    assert out.status == "unbounded"
    ray = out.ray
    assert ray is not None
    A = np.array([[-1.0, 1.0]])
    assert np.all(A @ ray <= 1e-9)          # stays feasible along the ray
    assert np.all(ray >= -1e-9)             # respects x >= 0
    assert float(np.array([1.0, 0.0]) @ ray) > 1e-9  # improves the objective


def test_infeasible():
    # x <= -1 with x >= 0
    out = solve_lp(np.array([1.0]), A_ub=[[1.0]], b_ub=[-1.0])
    assert out.status == "infeasible"


def test_negative_rhs_requires_phase_one():
    # x0 + x1 >= 1 encoded as -(x0 + x1) <= -1; max -x0 - x1 -> value -1
    out = solve_lp(np.array([-1.0, -1.0]), A_ub=[[-1, -1]], b_ub=[-1.0])
    assert out.status == "optimal"
    assert out.value == pytest.approx(-1.0)


def test_degenerate_problem_terminates():
    # classic cycling-prone tableau; Bland's rule must terminate
    c = np.array([0.75, -150.0, 0.02, -6.0])
    A = [
        [0.25, -60.0, -0.04, 9.0],
        [0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
    b = [0.0, 0.0, 1.0]
    out = solve_lp(c, A_ub=A, b_ub=b)
    assert out.status == "optimal"
    assert out.value == pytest.approx(0.05, abs=1e-9)


def test_no_constraints():
    assert solve_lp(np.array([-1.0, -2.0])).value == 0.0
    assert solve_lp(np.array([1.0])).status == "unbounded"


def test_cross_check_against_scipy():
    from scipy.optimize import linprog

    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 7))
        c = rng.uniform(-2, 2, size=n)
        A = rng.uniform(-1, 1, size=(m, n))
        b = rng.uniform(0.5, 2.0, size=m)  # 0 feasible
        mine = solve_lp(c, A_ub=A, b_ub=b)
        ref = linprog(-c, A_ub=A, b_ub=b, bounds=[(0, None)] * n, method="highs")
        if mine.status == "optimal":
            assert ref.status == 0
            assert mine.value == pytest.approx(-ref.fun, abs=1e-8)
        else:
            assert mine.status == "unbounded"
            assert ref.status == 3


# --- lockstep phase two: solve_lps equals solve_lp row for row ---------------------

def _same_bytes(a, b):
    if a is None or b is None:
        return a is None and b is None
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _assert_lps_match(C, **system):
    C = np.asarray(C, dtype=float)
    outs = solve_lps(C, **system)
    assert len(outs) == len(C)
    for c, got in zip(C, outs):
        want = solve_lp(c.copy(), **system)
        assert (got.status, got.iterations) == (want.status, want.iterations)
        for field in ("value", "point", "ray"):
            assert _same_bytes(getattr(got, field), getattr(want, field)), field
    return outs


def test_lps_match_on_random_small_systems():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 7))
        A = rng.uniform(-1, 1, size=(m, n))
        b = rng.uniform(-0.5, 2.0, size=m)      # negative entries need phase one
        b[rng.random(m) < 0.3] = 0.0            # degenerate vertices
        C = rng.uniform(-2, 2, size=(int(rng.integers(1, 9)), n))
        _assert_lps_match(C, A_ub=A, b_ub=b)


def test_lps_mix_unbounded_and_optimal_rows():
    C = [[1.0, 0.0], [-1.0, -1.0], [0.0, 1.0], [-1.0, 0.5], [0.0, 0.0]]
    outs = _assert_lps_match(C, A_ub=[[-1.0, 1.0]], b_ub=[1.0])
    assert [o.status for o in outs] == ["unbounded", "optimal", "unbounded", "optimal", "optimal"]


def test_lps_share_an_infeasible_phase_one():
    outs = _assert_lps_match([[1.0], [-1.0], [0.0]], A_ub=[[1.0]], b_ub=[-1.0])
    assert {o.status for o in outs} == {"infeasible"}


def test_lps_match_on_the_cycling_prone_program():
    A = [
        [0.25, -60.0, -0.04, 9.0],
        [0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
    C = [[0.75, -150.0, 0.02, -6.0], [1.0, 1.0, 1.0, 1.0], [0.75, -150.0, 0.0, -6.0],
         [-1.0, 0.0, 0.0, 0.0]]
    outs = _assert_lps_match(C, A_ub=A, b_ub=[0.0, 0.0, 1.0])
    assert outs[0].value == pytest.approx(0.05, abs=1e-9)


def test_lps_match_with_equality_rows():
    rng = np.random.default_rng(12)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        A_eq = rng.uniform(-1, 1, size=(int(rng.integers(1, 3)), n))
        b_eq = rng.uniform(-1, 1, size=A_eq.shape[0])
        A_ub = rng.uniform(-1, 1, size=(int(rng.integers(0, 4)), n))
        b_ub = rng.uniform(0.0, 2.0, size=A_ub.shape[0])
        C = rng.uniform(-2, 2, size=(5, n))
        _assert_lps_match(C, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)


def test_lps_match_on_near_tied_ratios():
    # copies of one row whose rhs differ by a few ulps tie in the ratio test
    # only within its tolerance, so the batch scans them in order too
    eps = np.finfo(float).eps
    A = np.array([[1.0, 0.5], [1.0, 0.5], [1.0, 0.5], [0.5, 1.0]])
    b = np.array([1.0, 1.0 + 2 * eps, 1.0 - eps, 1.0])
    C = [[1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [2.0, -1.0]]
    _assert_lps_match(C, A_ub=A, b_ub=b)


@pytest.mark.parametrize("A, b, C", [
    # exact ratio ties after a pivot: the tie goes to the smaller basic column
    ([[-1, 1, 0], [2, 2, 1], [1, 2, 1], [0, 0, 2]], [1, 2, 2, 1],
     [[1, 2, 2], [1, 1, -1], [-2, 2, -2]]),
    # a flipped row leaves signed zeros that reach the bytes of a ray
    ([[-2, 1, -1], [-2, 2, 2], [2, 0, 2]], [1, -2, 2],
     [[-1, -2, 2], [-1, 2, -2], [2, -1, 1]]),
])
def test_lps_match_on_small_integer_programs(A, b, C):
    _assert_lps_match(C, A_ub=np.array(A, float), b_ub=np.array(b, float))


def test_lps_without_constraints_and_empty_batch():
    _assert_lps_match([[-1.0, -2.0], [1.0, 3.0], [0.0, 0.0]])
    assert solve_lps(np.zeros((0, 3)), A_ub=np.eye(3), b_ub=np.ones(3)) == []

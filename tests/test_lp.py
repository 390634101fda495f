"""Simplex solver: known programs, certificates, scipy cross-checks, and
the lockstep loop held to a scalar reference solver."""

import numpy as np
import pytest

from minkdev.lp import MAX_ITER, OPT_TOL, PIVOT_TOL, TIE_TOL, LPError, LPOutcome, solve_lp, solve_lps


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
    # every LP the library builds has constraint rows; one without is refused
    for c in ([-1.0, -2.0], [1.0]):
        with pytest.raises(ValueError, match="constraint row"):
            solve_lp(np.array(c))


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

    # systems feasible by construction at some x0 > 0, with a negative
    # inequality rhs on about half of them and an equality row on half, so
    # that phase one starts on artificials.  HiGHS's presolve calls some
    # feasible unbounded systems infeasible, so it is off; without it, HiGHS
    # leaves a few unbounded ones undecided (status 4), and there the ray
    # is the evidence
    rng = np.random.default_rng(35)
    negative = 0
    for t in range(300):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 7))
        x0 = rng.uniform(0.1, 1.0, size=n)
        A = rng.uniform(-1, 1, size=(m, n))
        system = {"A_ub": A, "b_ub": A @ x0 + rng.uniform(0.1, 1.0, size=m)}
        if t % 2:
            A_eq = rng.uniform(-1, 1, size=(1, n))
            system.update(A_eq=A_eq, b_eq=A_eq @ x0)
        negative += bool((system["b_ub"] < 0.0).any())
        C = rng.uniform(-2, 2, size=(4, n))
        for c, mine in zip(C, _assert_lps_match(C, **system)):
            ref = linprog(-c, **system, bounds=[(0, None)] * n, method="highs",
                          options={"presolve": False})
            _assert_feasible(mine.point, **system)
            if mine.status == "optimal":
                assert ref.status == 0
                assert mine.value == pytest.approx(-ref.fun, abs=1e-8)
            else:
                assert mine.status == "unbounded"
                assert ref.status in (3, 4)
                d = mine.ray
                assert d.min() >= 0.0 and c @ d > 1e-9
                assert (A @ d).max() <= 1e-9
                assert np.abs(system.get("A_eq", np.zeros((1, n))) @ d).max() <= 1e-9
    assert 100 < negative < 200


def _assert_feasible(x, A_ub, b_ub, A_eq=None, b_eq=None):
    assert x.min() >= 0.0
    assert (A_ub @ x - b_ub).max() <= 1e-9
    if A_eq is not None:
        assert np.abs(A_eq @ x - b_eq).max() <= 1e-9


# --- the scalar reference: solve_lps equals it LP for LP, phase one included ----

def _ref_leaving_row(column, rhs, basis):
    row = -1
    best = np.inf
    for r in np.flatnonzero(column > PIVOT_TOL).tolist():
        ratio = rhs[r] / column[r]
        if ratio < best - TIE_TOL:
            best = ratio
            row = r
        elif row >= 0 and abs(ratio - best) <= TIE_TOL and basis[row] > basis[r]:
            row = r
    return row


def _ref_pivot(T, basis, row, col):
    T[row] /= T[row, col]
    f = T[:, col].copy()
    f[row] = 0.0
    hit = np.abs(f) > 0.0
    T[hit] -= f[hit, None] * T[row]
    basis[row] = col


def _ref_simplex(T, basis, n_cols, it):
    """Bland's rule on one tableau; ``(status, iterations, entering column)``."""
    m = T.shape[0] - 1
    while True:
        if it >= MAX_ITER:
            raise LPError(f"simplex exceeded {MAX_ITER} iterations")
        improving = np.flatnonzero(T[m, :n_cols] > OPT_TOL)
        if not improving.size:
            return "optimal", it, -1
        col = int(improving[0])
        row = _ref_leaving_row(T[:m, col], T[:m, -1], basis)
        if row < 0:
            return "unbounded", it, col
        _ref_pivot(T, basis, row, col)
        it += 1


def reference_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None):
    """The two-phase simplex on one tableau, one pivot at a time: the
    scalar solver that ``solve_lps``'s lockstep loop must reproduce bit for
    bit.  Columns are structural | slacks | artificials | rhs; a row with a
    negative rhs is negated whole (its zeros become -0.0), and every row
    that is not an inequality with a nonnegative rhs starts on an
    artificial."""
    c = np.asarray(c, dtype=float)
    n = c.size
    A_ub = np.zeros((0, n)) if A_ub is None else np.asarray(A_ub, dtype=float).reshape(-1, n)
    A_eq = np.zeros((0, n)) if A_eq is None else np.asarray(A_eq, dtype=float).reshape(-1, n)
    b = np.concatenate([np.zeros(0) if b_ub is None else np.ravel(b_ub),
                        np.zeros(0) if b_eq is None else np.ravel(b_eq)]).astype(float)
    m_ub, m = len(A_ub), len(b)
    ns = n + m_ub
    artificial = [i for i in range(m) if i >= m_ub or b[i] < 0.0]
    T = np.zeros((m + 1, ns + len(artificial) + 1))
    basis = np.zeros(m, dtype=np.int64)
    for i, a in enumerate(np.vstack([A_ub, A_eq])):
        T[i, :n] = a
        if i < m_ub:
            T[i, n + i] = 1.0
            basis[i] = n + i
        T[i, -1] = b[i]
        if b[i] < 0.0:
            T[i] *= -1.0
    for j, i in enumerate(artificial):
        T[i, ns + j] = 1.0
        basis[i] = ns + j
    it = 0
    if artificial:
        T[m, ns:ns + len(artificial)] = -1.0
        for i in artificial:
            T[m] += T[i]
        _, it, _ = _ref_simplex(T, basis, ns + len(artificial), 0)
        if T[m, -1] > OPT_TOL:
            return LPOutcome(status="infeasible", iterations=it)
        for i in range(m):
            if basis[i] >= ns:
                pivots = np.flatnonzero(np.abs(T[i, :ns]) > PIVOT_TOL)
                if pivots.size:
                    _ref_pivot(T, basis, i, int(pivots[0]))
        T = np.delete(T, np.s_[ns:ns + len(artificial)], axis=1)
    T[m] = 0.0
    T[m, :n] = c
    for i in range(m):
        if basis[i] < ns and abs(T[m, basis[i]]) > 0.0:
            T[m] -= T[m, basis[i]] * T[i]
    status, it, col = _ref_simplex(T, basis, ns, it)
    x = np.zeros(ns)
    for i in range(m):
        if basis[i] < ns:
            x[basis[i]] = T[i, -1]
    if status == "optimal":
        return LPOutcome(status="optimal", value=float(c @ x[:n]), point=x[:n], iterations=it)
    ray = np.zeros(ns)
    ray[col] = 1.0
    for i in range(m):
        if basis[i] < ns:
            ray[basis[i]] = -T[i, col]
    return LPOutcome(status="unbounded", point=x[:n], ray=ray[:n], iterations=it)


def _same_bytes(a, b):
    if a is None or b is None:
        return a is None and b is None
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _assert_lps_match(C, **system):
    C = np.asarray(C, dtype=float)
    outs = solve_lps(C, **system)
    assert len(outs) == len(C)
    for c, got in zip(C, outs):
        want = reference_lp(c.copy(), **system)
        for one in (got, solve_lp(c.copy(), **system)):
            assert (one.status, one.iterations) == (want.status, want.iterations)
            for field in ("value", "point", "ray"):
                assert _same_bytes(getattr(one, field), getattr(want, field)), field
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
    with pytest.raises(ValueError, match="constraint row"):
        solve_lps([[-1.0, -2.0], [1.0, 3.0], [0.0, 0.0]])
    assert solve_lps(np.zeros((0, 3)), A_ub=np.eye(3), b_ub=np.ones(3)) == []

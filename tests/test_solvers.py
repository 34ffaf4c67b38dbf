import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import solve_triangular

from trustkit import sensing, solvers
from trustkit.errors import DimensionError, ParameterError, SingularMatrixError


def _identity_op(n):
    return sensing.sample_operator(sensing.IDENTITY, n, n, seed=0)


def _gaussian(m, n, seed):
    return sensing.sample_operator(sensing.GAUSSIAN_FAT, m, n, seed=seed)


# ---- OMP --------------------------------------------------------------------


def test_omp_identity_dictionary():
    op = _identity_op(10)
    y = np.zeros(10)
    y[[2, 5, 7]] = [1.0, -2.0, 0.5]
    res = solvers.omp(op, y, solvers.SolverConfig(sparsity_budget=3))
    assert res.iterations_used == 3
    assert np.array_equal(res.support, [2, 5, 7])
    assert np.allclose(res.x_hat, y, atol=1e-12)
    assert res.residual_norm_history[-1] < 1e-12
    assert res.converged


def test_omp_zero_measurement():
    op = _identity_op(6)
    res = solvers.omp(op, np.zeros(6))
    assert res.iterations_used == 0
    assert res.converged
    assert np.array_equal(res.x_hat, np.zeros(6))


def test_omp_zero_iterations_returns_zero_estimate():
    op = _gaussian(8, 16, seed=1)
    res = solvers.omp(op, np.ones(8), solvers.SolverConfig(max_iterations=0))
    assert res.iterations_used == 0 and not res.converged
    assert np.array_equal(res.x_hat, np.zeros(16)) and res.support.size == 0


def test_omp_residuals_strictly_decrease():
    op = _gaussian(20, 40, seed=4)
    rng = np.random.default_rng(0)
    x = np.zeros(40)
    x[rng.choice(40, 4, replace=False)] = rng.standard_normal(4)
    res = solvers.omp(op, op.matrix @ x, solvers.SolverConfig(sparsity_budget=4))
    hist = res.residual_norm_history
    assert all(hist[i + 1] < hist[i] for i in range(len(hist) - 1))


def test_omp_never_reselects_atom():
    op = _gaussian(16, 32, seed=9)
    rng = np.random.default_rng(3)
    y = rng.standard_normal(16)
    res = solvers.omp(op, y, solvers.SolverConfig(sparsity_budget=10))
    assert len(set(res.support.tolist())) == len(res.support)


def test_omp_recovery_rate_and_values():
    # oracle: direct least squares on the true support
    n, m, k, trials = 128, 64, 5, 200
    exact = 0
    for seed in range(trials):
        op = _gaussian(m, n, seed=seed)
        rng = np.random.default_rng(10_000 + seed)
        support = np.sort(rng.choice(n, k, replace=False))
        x = np.zeros(n)
        x[support] = rng.standard_normal(k) + np.sign(rng.standard_normal(k))
        y = op.matrix @ x
        res = solvers.omp(op, y, solvers.SolverConfig(sparsity_budget=k))
        if np.array_equal(res.support, support):
            exact += 1
            oracle, *_ = np.linalg.lstsq(op.matrix[:, support], y, rcond=None)
            assert np.max(np.abs(res.x_hat[support] - oracle)) < 1e-8
    assert exact >= 0.95 * trials


def _householder_fit(sub, y):
    # least squares by a fresh Householder QR of the support's columns
    q, r = np.linalg.qr(sub)
    return solve_triangular(r, q.T @ y, lower=False)


def _omp_qr_refit(a, y, budget):
    # reference: OMP that refits by a fresh QR of the whole support after every atom
    col_norms = np.linalg.norm(a, axis=0)
    support, history, residual = [], [], y.copy()
    for _ in range(budget):
        corr = np.abs(a.T @ residual) / col_norms
        corr[support] = -np.inf
        support.append(int(np.argmax(corr)))
        coef = _householder_fit(a[:, support], y)
        residual = y - a[:, support] @ coef
        history.append(float(np.linalg.norm(residual)))
    x_hat = np.zeros(a.shape[1])
    x_hat[support] = coef
    return np.sort(support), x_hat, np.array(history)


@pytest.mark.parametrize("m, n, k, seed", [(20, 40, 6, 1), (48, 96, 12, 2), (64, 64, 30, 3),
                                           (64, 128, 64, 4)])
def test_omp_matches_per_atom_qr_refit(m, n, k, seed):
    op = _gaussian(m, n, seed=seed) if m < n else \
        sensing.sample_operator(sensing.DENSE, m, n, seed=seed)
    y = np.random.default_rng(seed).standard_normal(m)
    res = solvers.omp(op, y, solvers.SolverConfig(sparsity_budget=k, residual_tolerance=0.0))
    support, x_hat, history = _omp_qr_refit(op.matrix, y, k)
    assert np.array_equal(res.support, support)
    # the fit comes from the loop's Gram-Schmidt factors, not a fresh QR:
    # equal up to rounding
    assert np.max(np.abs(res.x_hat - x_hat)) <= 1e-12 * np.max(np.abs(x_hat))
    # at k = m the last residual is rounding noise of |y|, with no relative accuracy
    assert np.allclose(res.residual_norm_history, history, rtol=1e-9,
                       atol=1e-12 * np.linalg.norm(y))
    assert res.rank_deficient is False  # a Python bool: json.dumps refuses a numpy one


def test_omp_rank_deficient_support_gives_minimum_norm_fit():
    op = _gaussian(4, 8, seed=6)
    y = np.random.default_rng(6).standard_normal(4)
    res = solvers.omp(op, y, solvers.SolverConfig(sparsity_budget=6, residual_tolerance=0.0))
    assert res.iterations_used == 6 and len(res.support) == 6
    assert res.rank_deficient
    oracle, *_ = np.linalg.lstsq(op.matrix[:, res.support], y, rcond=None)
    assert np.allclose(res.x_hat[res.support], oracle, rtol=0.0, atol=1e-12)
    assert np.count_nonzero(res.x_hat[np.setdiff1d(np.arange(8), res.support)]) == 0


def test_omp_tiny_column_on_support_reports_rank_deficient():
    # the loop extends its basis with a column of norm ~1e-10, but that R
    # diagonal is below _RANK_TOL; back substitution would give about 2e9 for it
    matrix = _gaussian(20, 40, seed=11).matrix.copy()
    tiny = 1e-10 * np.random.default_rng(11).standard_normal(20)
    matrix[:, 7] = tiny
    op = sensing.SensingOperator(sensing.GAUSSIAN_FAT, 20, 40, 11, matrix)
    y = tiny / np.linalg.norm(tiny) + 0.1 * (matrix[:, 3] + matrix[:, 12])
    res = solvers.omp(op, y, solvers.SolverConfig(sparsity_budget=5, residual_tolerance=0.0))
    assert 7 in res.support
    assert res.rank_deficient is True  # a Python bool: json.dumps refuses a numpy one
    assert np.abs(res.x_hat).max() < 10.0


def test_omp_ill_conditioned_full_rank_support_matches_householder_fit():
    # singular values from 1 down to 1e-6: every R diagonal is at least 1e-6,
    # far above _RANK_TOL, so the fit is the back substitution
    rng = np.random.default_rng(12)
    u, _ = np.linalg.qr(rng.standard_normal((30, 12)))
    v, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    matrix = u @ np.diag(np.logspace(0, -6, 12)) @ v.T
    assert 0.9e6 < np.linalg.cond(matrix) < 1.1e6
    op = sensing.SensingOperator(kind=sensing.DENSE, m=30, n=12, seed=0, matrix=matrix)
    y = matrix @ rng.standard_normal(12)
    res = solvers.omp(op, y, solvers.SolverConfig(sparsity_budget=12, residual_tolerance=0.0))
    assert not res.rank_deficient
    expected = _householder_fit(matrix[:, res.support], y)
    assert np.max(np.abs(res.x_hat[res.support] - expected)) <= 1e-9 * np.max(np.abs(expected))


def test_omp_past_estimated_operator_rank_stays_bounded(tmp_path):
    # 20 train pairs at 8 px: the estimated 64 x 64 operator has 20 singular
    # values near 0.5 and the rest near 2e-9, so 40 atoms go past its rank
    from click.testing import CliRunner

    from trustkit import dataset
    from trustkit.cli import main

    res = CliRunner().invoke(main, ["gen-data", "--out", str(tmp_path), "--image-size", "8",
                                    "--train", "20", "--val", "2", "--test", "4",
                                    "--seed", "0"], catch_exceptions=False)
    assert res.exit_code == 0, res.output
    manifest = dataset.load_manifest(tmp_path)
    train = dataset.load_split(manifest, "train")
    op = solvers.estimate_operator(train.x.reshape(len(train), -1), train.raw())
    config = solvers.SolverConfig(sparsity_budget=40, residual_tolerance=0.0)
    for y in dataset.load_split(manifest, "test").raw():
        res = solvers.omp(op, y, config)
        assert res.rank_deficient
        assert np.abs(res.x_hat).max() < 10.0  # 1e9 when rounding-level atoms were kept


# ---- what the operator keeps for the solvers ----------------------------------

_DERIVED = {"gram", "column_norms", "lipschitz"}


def test_omp_builds_gram_and_column_norms():
    op = _gaussian(16, 32, seed=1)
    assert not _DERIVED & set(vars(op))
    solvers.omp(op, np.ones(16))
    assert _DERIVED & set(vars(op)) == {"gram", "column_norms"}
    solvers.fista(op, np.ones(16))
    assert _DERIVED <= set(vars(op))


class _WholeOperandProducts(np.ndarray):
    """An operator matrix that counts the matrix products taking all of it,
    or all of its transpose, as an operand."""

    def __array_finalize__(self, obj):
        self.counts = getattr(obj, "counts", None)
        self.whole = getattr(obj, "whole", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and any(
                isinstance(v, _WholeOperandProducts) and v.size == v.whole for v in inputs):
            self.counts["products"] += 1
        plain = [v.view(np.ndarray) if isinstance(v, np.ndarray) else v for v in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


class _CountedGram:
    def __init__(self, gram):
        self.gram, self.products = gram, 0

    def __matmul__(self, v):
        self.products += 1
        return self.gram @ v


def test_pinned_operator_product_counts():
    # the benchmark's operator: gen-data's default 32 px dense draw
    a = sensing.sample_operator(sensing.DENSE, 1024, 1024, 0).matrix
    gram = _CountedGram(a.T @ a)
    solvers.lipschitz_constant(a, gram=gram)
    assert gram.products <= 100  # the power iteration took 510

    counted = a.view(_WholeOperandProducts)
    counted.counts, counted.whole = {"products": 0}, a.size
    op = sensing.SensingOperator(sensing.DENSE, 1024, 1024, 0, counted)
    op.gram  # built once per operator, not per call
    counted.counts["products"] = 0
    rng = np.random.default_rng(0)
    config = solvers.SolverConfig(sparsity_budget=24, residual_tolerance=0.0)
    for call in (1, 2):
        x = np.zeros(1024)
        x[rng.choice(1024, 8, replace=False)] = 1.0
        res = solvers.omp(op, a @ x, config)
        assert res.iterations_used == 24
        assert counted.counts["products"] == call  # A^T y, once per call
    assert _DERIVED & set(vars(op)) == {"gram", "column_norms"}

    op.lipschitz  # Lanczos runs on the plain Gram, before it is counted
    op.__dict__["gram"] = gram = _CountedGram(op.gram)
    config = solvers.SolverConfig(max_iterations=30, residual_tolerance=0.0)
    for method in (solvers.ista, solvers.fista):
        products, gram.products = counted.counts["products"], 0
        res = method(op, a @ x, config)
        assert res.iterations_used == 30
        assert counted.counts["products"] == products + 1  # A^T y only
        assert gram.products == 30  # one Gram product per step


def test_derived_values_shared_across_samples():
    op = _gaussian(16, 32, seed=3)
    rng = np.random.default_rng(0)
    solvers.fista(op, rng.standard_normal(16))
    solvers.omp(op, rng.standard_normal(16))
    kept = {name: vars(op)[name] for name in _DERIVED}
    solvers.fista(op, rng.standard_normal(16))
    solvers.omp(op, rng.standard_normal(16))
    assert all(vars(op)[name] is value for name, value in kept.items())
    assert op.lipschitz == solvers.lipschitz_constant(op.matrix)


def test_derived_values_never_cross_operators():
    cfg = solvers.SolverConfig(max_iterations=50, residual_tolerance=0.0)
    y = np.random.default_rng(1).standard_normal(16)
    first, second = _gaussian(16, 32, seed=1), _gaussian(16, 32, seed=2)
    solvers.fista(first, y, cfg)
    solvers.omp(first, y)
    got = solvers.fista(second, y, cfg).x_hat
    assert second.gram is not first.gram
    assert got.tobytes() == solvers.fista(_gaussian(16, 32, seed=2), y, cfg).x_hat.tobytes()


def test_operator_refuses_rebinding_and_writes():
    # what the solvers derived can never go stale: nothing they derive it from changes
    op = _gaussian(16, 32, seed=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.matrix = op.matrix.copy()
    with pytest.raises(ValueError, match="read-only"):
        op.matrix[0, 0] = 1
    fourier = sensing.sample_operator(sensing.FOURIER_MASKED, 8, 16, seed=0)
    with pytest.raises(ValueError, match="read-only"):
        fourier.mask[0] = 1


def test_cached_gram_and_column_norms_are_read_only():
    # a write into either would change every later solve on the operator, silently
    op = _gaussian(16, 32, seed=1)
    with pytest.raises(ValueError, match="read-only"):
        op.gram[:] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        op.column_norms[0] = 1.0


def test_derived_values_left_out_of_repr_and_init():
    op = _gaussian(8, 16, seed=0)
    text = repr(op)
    solvers.fista(op, np.ones(8))
    solvers.omp(op, np.ones(8))
    assert repr(op) == text
    assert [f.name for f in dataclasses.fields(op) if f.init] == \
        ["kind", "m", "n", "seed", "matrix", "mask"]


# ---- shrink -----------------------------------------------------------------


def test_shrink_properties():
    v = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    assert np.array_equal(solvers.shrink(v, 0.0), v)
    assert np.array_equal(solvers.shrink(-v, 1.0), -solvers.shrink(v, 1.0))
    assert np.array_equal(solvers.shrink(v, 1.0), [-1.0, 0.0, 0.0, 0.0, 1.0])


# ---- ISTA / FISTA -----------------------------------------------------------


def test_ista_scalar_soft_threshold():
    # A = [1], y = 3, lambda = 1: minimizer of 0.5(x-3)^2 + |x| is x = 2
    op = _identity_op(1)
    res = solvers.ista(op, np.array([3.0]),
                       solvers.SolverConfig(max_iterations=500, lam=1.0,
                                            residual_tolerance=0.0))
    assert abs(res.x_hat[0] - 2.0) < 1e-10


def test_fista_scalar_soft_threshold():
    op = _identity_op(1)
    res = solvers.fista(op, np.array([3.0]),
                        solvers.SolverConfig(max_iterations=500, lam=1.0,
                                             residual_tolerance=0.0))
    assert abs(res.x_hat[0] - 2.0) < 1e-10


def test_lambda_zero_orthonormal_gives_least_squares():
    op = sensing.sample_operator(sensing.ORTHONORMAL_SQUARE, 12, 12, seed=5)
    rng = np.random.default_rng(1)
    y = rng.standard_normal(12)
    res = solvers.ista(op, y, solvers.SolverConfig(max_iterations=2000, lam=0.0,
                                                   residual_tolerance=0.0))
    assert np.max(np.abs(res.x_hat - op.matrix.T @ y)) < 1e-10


def test_negative_lambda_rejected():
    with pytest.raises(ParameterError):
        solvers.SolverConfig(lam=-0.1)


@pytest.mark.parametrize("values, message", [
    ({"max_iterations": 2.5}, "max_iterations must be an integer >= 0, got 2.5"),
    ({"max_iterations": -1}, "max_iterations must be an integer >= 0, got -1"),
    ({"sparsity_budget": True}, "sparsity_budget must be an integer >= 1, got True"),
    ({"residual_tolerance": float("nan")}, "residual_tolerance must be finite and >= 0, got nan"),
    ({"lam": float("inf")}, "lam must be finite and >= 0, got inf"),
    ({"lam": float("nan")}, "lam must be finite and >= 0, got nan"),
], ids=["max-iterations-float", "max-iterations-negative", "sparsity-bool", "tolerance-nan",
        "lam-inf", "lam-nan"])
def test_solver_config_refuses_non_integers_and_non_finite_numbers(values, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        solvers.SolverConfig(**values)


def test_ista_objective_nonincreasing():
    op = _gaussian(16, 32, seed=2)
    rng = np.random.default_rng(7)
    y = rng.standard_normal(16)
    res = solvers.ista(op, y, solvers.SolverConfig(max_iterations=300,
                                                   residual_tolerance=0.0))
    obj = res.objective_history
    assert all(obj[i + 1] <= obj[i] + 1e-12 for i in range(len(obj) - 1))


def test_fista_beats_ista_at_same_iteration_count():
    wins = 0
    seeds = range(50)
    for seed in seeds:
        op = _gaussian(32, 64, seed=100 + seed)
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(32)
        cfg = solvers.SolverConfig(max_iterations=150, residual_tolerance=0.0)
        fi = solvers.fista(op, y, cfg)
        it = solvers.ista(op, y, cfg)
        if fi.objective_history[-1] <= it.objective_history[-1]:
            wins += 1
    assert wins > len(list(seeds)) // 2


def test_fista_reaches_long_run_optimum_faster():
    # oracle: objective after a long ISTA run
    op = _gaussian(32, 64, seed=77)
    rng = np.random.default_rng(42)
    y = rng.standard_normal(32)
    long_cfg = solvers.SolverConfig(max_iterations=20_000, residual_tolerance=0.0)
    long_run = solvers.ista(op, y, long_cfg)
    target = long_run.objective_history[-1] + 1e-6
    ista_hit = next(i for i, f in enumerate(long_run.objective_history) if f <= target) + 1
    fi = solvers.fista(op, y, solvers.SolverConfig(max_iterations=ista_hit,
                                                   residual_tolerance=0.0))
    fista_hit = next(
        (i + 1 for i, f in enumerate(fi.objective_history) if f <= target), None
    )
    assert fista_hit is not None and fista_hit < ista_hit


def test_proximal_gradient_matches_textbook_loops():
    # reference: ISTA and FISTA (Beck & Teboulle 2009) as two separate loops
    op = _gaussian(16, 32, seed=5)
    a = op.matrix
    y = np.random.default_rng(6).standard_normal(16)
    lam, iterations = 0.1, 40
    step = 1.0 / solvers.lipschitz_constant(a)
    gram, aty = a.T @ a, a.T @ y
    x_ista = np.zeros(32)
    for _ in range(iterations):
        x_ista = solvers.shrink(x_ista - step * (gram @ x_ista - aty), lam * step)
    x_fista, z, t = np.zeros(32), np.zeros(32), 1.0
    for _ in range(iterations):
        x_next = solvers.shrink(z - step * (gram @ z - aty), lam * step)
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        z = x_next + ((t - 1.0) / t_next) * (x_next - x_fista)
        x_fista, t = x_next, t_next
    cfg = solvers.SolverConfig(max_iterations=iterations, residual_tolerance=0.0, lam=lam)
    # the solver carries G x instead of forming G z: equal up to rounding
    for method, expected in ((solvers.ista, x_ista), (solvers.fista, x_fista)):
        got = method(op, y, cfg).x_hat
        assert np.array_equal(np.flatnonzero(got), np.flatnonzero(expected))
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("lam", [None, 0.0], ids=["default_lam", "lam_zero"])
@pytest.mark.parametrize("method", [solvers.ista, solvers.fista])
def test_residual_history_matches_the_iterates(method, lam):
    # the history comes from x.Gx - 2 x.A^T y + y.y; x_j is the result of a
    # j-step run, which repeats the first j steps of the longer run exactly
    op = _gaussian(16, 32, seed=13)
    y = np.random.default_rng(13).standard_normal(16)
    iterations = 120

    def run(steps):
        return method(op, y, solvers.SolverConfig(max_iterations=steps, residual_tolerance=0.0,
                                                   lam=lam))

    history = run(iterations).residual_norm_history
    for j in range(1, iterations + 1):
        exact = float(np.sum((op.matrix @ run(j).x_hat - y) ** 2))
        assert abs(history[j - 1] ** 2 - exact) <= 1e-12 * float(y @ y)


def _rank_deficient_fit():
    # 20 pairs of a 40-unknown map: a rank-20 estimate
    rng = np.random.default_rng(8)
    xs = rng.standard_normal((20, 40))
    return solvers.estimate_operator(xs, xs @ rng.standard_normal((24, 40)).T).matrix


@pytest.mark.parametrize("make", [
    lambda: _gaussian(30, 50, seed=5).matrix,
    lambda: sensing.sample_operator(sensing.DENSE, 64, 64, seed=2).matrix,
    lambda: sensing.sample_operator(sensing.FOURIER_MASKED, 24, 40, seed=1).matrix,
    lambda: sensing.sample_operator(sensing.ORTHONORMAL_SQUARE, 32, 32, seed=3).matrix,
    lambda: np.eye(16),
    _rank_deficient_fit,
    lambda: np.zeros((6, 9)),
], ids=["gaussian_fat", "gaussian_square", "fourier_masked", "orthonormal", "identity",
        "rank_deficient_fit", "zero"])
def test_lipschitz_matches_eigvalsh(make):
    a = make()
    top = max(float(np.linalg.eigvalsh(a.T @ a)[-1]), 1e-300)
    lip = solvers.lipschitz_constant(a)
    assert abs(lip - top) <= 1e-12 * top
    assert solvers.lipschitz_constant(a, gram=a.T @ a) == lip


def test_lipschitz_of_zero_matrix_takes_one_product():
    gram = _CountedGram(np.zeros((9, 9)))
    assert solvers.lipschitz_constant(np.zeros((6, 9)), gram=gram) == 1e-300
    assert gram.products == 1


def test_lipschitz_of_identity_breaks_down_after_one_product():
    gram = _CountedGram(np.eye(9))
    assert abs(solvers.lipschitz_constant(np.eye(9), gram=gram) - 1.0) <= 1e-12
    assert gram.products == 1


@pytest.mark.parametrize("gap", [1e-2, 1e-3])
def test_lipschitz_runs_past_several_eigensolve_checks(gap):
    # a diagonal Gram whose top eigenvalue sits just above an even spread of
    # the others converges slowly, so the Ritz test fails at the first checks
    spectrum = np.append(np.linspace(0.0, 1.0, 199), 1.0 + gap)
    gram = _CountedGram(np.diag(spectrum))
    lip = solvers.lipschitz_constant(np.diag(np.sqrt(spectrum)), gram=gram)
    assert abs(lip - spectrum[-1]) <= 1e-12 * spectrum[-1]
    assert 24 < gram.products < len(spectrum)


@settings(max_examples=60)
@given(st.integers(1, 12).flatmap(lambda m: st.integers(1, 12).flatmap(
    lambda n: arrays(np.float64, (m, n), elements=st.floats(-2.0, 2.0, width=64).map(
        lambda v: v if abs(v) >= 1e-100 else 0.0)))))
def test_lipschitz_matches_eigvalsh_on_random_operators(a):
    # entries below 1e-100 are zeroed: their squares would leave the normal range
    top = max(float(np.linalg.eigvalsh(a.T @ a)[-1]), 1e-300)
    assert abs(solvers.lipschitz_constant(a) - top) <= 1e-12 * top


def test_power_iteration_matches_svd():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((20, 35))
    lip = solvers.lipschitz_constant(a)
    smax = np.linalg.svd(a, compute_uv=False)[0]
    assert abs(lip - smax**2) < 1e-12 * smax**2


# ---- operator estimation -----------------------------------------------------


def test_estimate_operator_exactly_determined():
    rng = np.random.default_rng(11)
    n, m = 12, 8
    true = rng.standard_normal((m, n))
    xs = rng.standard_normal((3 * n, n))
    est = solvers.estimate_operator(xs, xs @ true.T, ridge=0.0)
    assert est.kind == sensing.DENSE
    rel = np.linalg.norm(est.matrix - true) / np.linalg.norm(true)
    assert rel < 1e-8


def test_estimate_operator_single_pair_minimum_norm():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(6)
    y = rng.standard_normal(4)
    # closed-form rank-1 oracle: y x^T / (|x|^2 + ridge)
    for ridge in (1e-2, 1e-4, 1e-6):
        est = solvers.estimate_operator(x[None], y[None], ridge=ridge)
        oracle = np.outer(y, x) / (x @ x + ridge)
        assert np.max(np.abs(est.matrix - oracle)) < 1e-10
    est = solvers.estimate_operator(x[None], y[None], ridge=1e-12)
    assert np.max(np.abs(est.matrix @ x - y)) < 1e-9  # consistent as ridge -> 0


def test_estimate_operator_from_few_pairs_solves_the_n_by_n_system():
    rng = np.random.default_rng(2)
    xs, ys = rng.standard_normal((12, 20)), rng.standard_normal((12, 8))
    est = solvers.estimate_operator(xs, ys, ridge=1e-3)
    # (X X^T + ridge I) A^T = X Y^T, in the (N, n) row layout
    oracle = np.linalg.solve(xs.T @ xs + 1e-3 * np.eye(20), xs.T @ ys).T
    assert np.max(np.abs(est.matrix - oracle)) <= 1e-10 * np.max(np.abs(oracle))


def test_estimate_operator_noisy_beats_truth_on_training_residual():
    rng = np.random.default_rng(9)
    n, m = 10, 6
    true = rng.standard_normal((m, n))
    xs = rng.standard_normal((40, n))
    ys = xs @ true.T + 0.1 * rng.standard_normal((40, m))
    est = solvers.estimate_operator(xs, ys, ridge=0.0)

    def residual(a):
        return float(np.sum((xs @ a.T - ys) ** 2))

    assert residual(est.matrix) <= residual(true) + 1e-12


def test_estimate_operator_singular_without_ridge():
    x = np.ones(5)
    y = np.ones(3)
    with pytest.raises(SingularMatrixError):
        solvers.estimate_operator(x[None], y[None], ridge=0.0)


def test_estimate_operator_rejects_mismatched_or_empty_stacks():
    with pytest.raises(DimensionError):
        solvers.estimate_operator(np.ones((3, 5)), np.ones((2, 4)))
    with pytest.raises(DimensionError):
        solvers.estimate_operator(np.ones(5), np.ones(4))
    with pytest.raises(ParameterError, match="at least one pair"):
        solvers.estimate_operator(np.ones((0, 5)), np.ones((0, 4)))

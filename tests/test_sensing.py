import math
import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from trustkit import bound_lab, sensing
from trustkit.errors import DimensionError, EnumerationCapExceeded, ParameterError


def test_orthonormal_square_gram_is_identity():
    op = sensing.sample_operator(sensing.ORTHONORMAL_SQUARE, 8, 8, seed=3)
    assert np.max(np.abs(op.matrix.T @ op.matrix - np.eye(8))) < 1e-10


def test_tall_orthonormal_gram_is_identity():
    op = sensing.sample_operator(sensing.TALL_ORTHONORMAL, 12, 5, seed=3)
    assert np.max(np.abs(op.matrix.T @ op.matrix - np.eye(5))) < 1e-10


def test_same_seed_bitwise_identical():
    a = sensing.sample_operator(sensing.GAUSSIAN_FAT, 16, 32, seed=99)
    b = sensing.sample_operator(sensing.GAUSSIAN_FAT, 16, 32, seed=99)
    assert a.matrix.tobytes() == b.matrix.tobytes()


def test_kind_shape_validation():
    with pytest.raises(ParameterError):
        sensing.sample_operator(sensing.ORTHONORMAL_SQUARE, 4, 8, seed=0)
    with pytest.raises(ParameterError):
        sensing.sample_operator(sensing.GAUSSIAN_FAT, 8, 8, seed=0)
    with pytest.raises(ParameterError):
        sensing.sample_operator(sensing.TALL_ORTHONORMAL, 4, 8, seed=0)
    with pytest.raises(ParameterError, match="identity requires m == n, got 4x8"):
        sensing.sample_operator(sensing.IDENTITY, 4, 8, seed=0)
    with pytest.raises(ParameterError, match="even m"):
        sensing.sample_operator(sensing.FOURIER_MASKED, 7, 8, seed=0)
    with pytest.raises(ParameterError, match="unknown operator kind"):
        sensing.sample_operator("bogus", 4, 4, seed=0)
    assert sensing.shape_violation(sensing.DENSE, 3, 7) is None
    assert sensing.shape_violation(sensing.GAUSSIAN_FAT, 8, 8) == "gaussian_fat requires m < n, got 8x8"


def test_operator_size_cap_refuses_before_allocating():
    # 128 px images (n = 16384) pass; the rule is checked without drawing 2 GiB
    assert sensing.shape_violation(sensing.DENSE, 128 * 128, 128 * 128) is None
    n = 256 * 256
    with pytest.raises(ParameterError, match="entries"):
        sensing.sample_operator(sensing.DENSE, n, n, seed=0)
    with pytest.raises(ParameterError, match="entries"):
        sensing.sample_operator(sensing.GAUSSIAN_FAT, n // 8, n, seed=0)
    with pytest.raises(ParameterError, match="entries"):
        sensing.fourier_from_keep(n, 0.25, seed=0)


def test_apply_identity_and_zero():
    op = sensing.sample_operator(sensing.IDENTITY, 6, 6, seed=0)
    x = np.arange(6, dtype=float)
    assert np.array_equal(sensing.apply(op, x), x)
    assert np.array_equal(sensing.apply(op, np.zeros(6)), np.zeros(6))


def test_apply_matches_rowwise_dots():
    op = sensing.sample_operator(sensing.GAUSSIAN_FAT, 9, 17, seed=5)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(17)
    y = sensing.apply(op, x)
    # naive matvec oracle
    expected = np.array([float(sum(op.matrix[i, j] * x[j] for j in range(17))) for i in range(9)])
    assert np.allclose(y, expected, atol=1e-12)


def test_apply_dimension_error():
    op = sensing.sample_operator(sensing.GAUSSIAN_FAT, 4, 8, seed=0)
    with pytest.raises(DimensionError):
        sensing.apply(op, np.zeros(7))


def test_apply_noise_deterministic_per_seed():
    # the same seeded rng gives the same noise, whatever ran before on the operator
    op = sensing.sample_operator(sensing.GAUSSIAN_FAT, 4, 8, seed=11)
    x = np.ones(8)
    first = sensing.apply(op, x, noise_sigma=0.5, rng=np.random.default_rng(3))
    sensing.apply(op, x, noise_sigma=0.5, rng=np.random.default_rng(4))
    again = sensing.apply(op, x, noise_sigma=0.5, rng=np.random.default_rng(3))
    assert np.array_equal(first, again)
    assert not np.array_equal(first, sensing.apply(op, x))


def test_apply_noise_without_rng_raises():
    op = sensing.sample_operator(sensing.GAUSSIAN_FAT, 4, 8, seed=11)
    with pytest.raises(ParameterError, match="rng"):
        sensing.apply(op, np.ones(8), noise_sigma=0.5)
    assert np.array_equal(sensing.apply(op, np.ones(8), noise_sigma=0.0), op.matrix @ np.ones(8))


def test_fourier_adjoint_matches_dense_materialization():
    op = sensing.sample_operator(sensing.FOURIER_MASKED, 12, 24, seed=4)
    # oracle: materialize the dense matrix independently from the mask
    t = np.arange(op.n)
    phases = -2.0 * np.pi * np.outer(op.mask, t) / op.n
    scale = math.sqrt(op.n / len(op.mask)) / math.sqrt(op.n)
    dense = np.empty((op.m, op.n))
    dense[0::2] = np.cos(phases) * scale
    dense[1::2] = np.sin(phases) * scale
    assert np.allclose(op.matrix, dense, atol=1e-12)


def test_rip_orthonormal_is_zero():
    op = sensing.sample_operator(sensing.ORTHONORMAL_SQUARE, 9, 9, seed=2)
    est = sensing.estimate_rip(op, k=2, method=sensing.EXACT_ENUMERATION)
    assert est.delta < 1e-10
    assert est.count == math.comb(9, 4)


def test_rip_exact_matches_eigen_oracle():
    op = sensing.sample_operator(sensing.GAUSSIAN_FAT, 8, 12, seed=21)
    est = sensing.estimate_rip(op, k=2, method=sensing.EXACT_ENUMERATION)
    # independent oracle: per-support eigen-decomposition sweep
    from itertools import combinations

    worst = 0.0
    for s in combinations(range(12), 4):
        sub = op.matrix[:, list(s)]
        sing = np.linalg.svd(sub, compute_uv=False)
        worst = max(worst, float(np.max(np.abs(sing**2 - 1.0))))
    assert est.count == 495
    assert abs(est.delta - worst) < 1e-12


def test_rip_monte_carlo_is_lower_bound():
    op = sensing.sample_operator(sensing.GAUSSIAN_FAT, 8, 12, seed=21)
    exact = sensing.estimate_rip(op, k=2, method=sensing.EXACT_ENUMERATION)
    mc = sensing.estimate_rip(op, k=2, method=sensing.MONTE_CARLO, budget=500, seed=3)
    assert mc.is_lower_bound
    assert mc.delta <= exact.delta + 1e-12


def test_rip_enumeration_cap_refusal():
    op = sensing.sample_operator(sensing.GAUSSIAN_FAT, 40, 80, seed=0)
    with pytest.raises(EnumerationCapExceeded):
        sensing.estimate_rip(op, k=10, method=sensing.EXACT_ENUMERATION)


def test_rip_sandwich_attained():
    # every enumerated unit vector obeys the sandwich, with equality at the max
    op = sensing.sample_operator(sensing.GAUSSIAN_FAT, 8, 10, seed=13)
    est = sensing.estimate_rip(op, k=1, method=sensing.EXACT_ENUMERATION)
    from itertools import combinations

    rng = np.random.default_rng(0)
    attained = 0.0
    for s in combinations(range(10), 2):
        sub = op.matrix[:, list(s)]
        for _ in range(50):
            z = rng.standard_normal(2)
            z /= np.linalg.norm(z)
            e = abs(np.linalg.norm(sub @ z) ** 2 - 1.0)
            assert e <= est.delta + 1e-9
            attained = max(attained, e)
        # eigenvector direction attains the per-support extreme
        w, v = np.linalg.eigh(sub.T @ sub)
        ext = v[:, np.argmax(np.abs(w - 1.0))]
        attained = max(attained, abs(np.linalg.norm(sub @ ext) ** 2 - 1.0))
    assert attained > est.delta - 1e-9


def _rip_per_support_loop(op, k):
    """Reference exact scan: one eigvalsh(sub.T @ sub) per support."""
    order = 2 * k
    delta, count = 0.0, 0
    for s in combinations(range(op.n), order):
        sub = op.matrix[:, s]
        delta = max(delta, float(np.max(np.abs(np.linalg.eigvalsh(sub.T @ sub) - 1.0))))
        count += 1
    return delta, count


def _rip_unpruned_stack(op, k):
    """Reference exact scan: eigvalsh of the Grams of every support, one stack."""
    supports = np.array(list(combinations(range(op.n), 2 * k)), dtype=np.intp)
    eigs = np.linalg.eigvalsh(sensing._gram_stack(np.ascontiguousarray(op.matrix.T), supports))
    return max(0.0, float(np.max(np.abs(eigs - 1.0))))


@pytest.mark.parametrize("kind,m", [
    (sensing.ORTHONORMAL_SQUARE, 16), (sensing.TALL_ORTHONORMAL, 24),
    (sensing.GAUSSIAN_FAT, 10), (sensing.FOURIER_MASKED, 12), (sensing.DENSE, 16),
    (sensing.IDENTITY, 16),
])
def test_rip_stacked_matches_per_support_loop(kind, m):
    # the pruned scan gives the unpruned stack's bits, whatever the kind
    op = sensing.sample_operator(kind, m, 16, seed=7)
    chunking = []
    for k in (1, 2, 3):
        est = sensing.estimate_rip(op, k, method=sensing.EXACT_ENUMERATION)
        delta, count = _rip_per_support_loop(op, k)
        assert est.count == count == math.comb(16, 2 * k)
        assert abs(est.delta - delta) < 1e-12
        assert est.delta == _rip_unpruned_stack(op, k)
        chunking.append((count, sensing._RIP_CHUNK_BYTES // (2 * k * m * 8)))
    assert any(count < per_chunk for count, per_chunk in chunking)
    assert any(count > per_chunk and count % per_chunk for count, per_chunk in chunking)


@pytest.mark.parametrize("per_chunk", [1, 5, 7])
def test_rip_stacked_matches_per_support_loop_small_chunks(monkeypatch, per_chunk):
    # C(8, 2) = 28 supports of 2 columns of length 4: one per chunk, five
    # full chunks and a partial one, and four full chunks
    op = sensing.sample_operator(sensing.GAUSSIAN_FAT, 4, 8, seed=3)
    monkeypatch.setattr(sensing, "_RIP_CHUNK_BYTES", per_chunk * 2 * 4 * 8)
    est = sensing.estimate_rip(op, 1, method=sensing.EXACT_ENUMERATION)
    delta, count = _rip_per_support_loop(op, 1)
    assert est.count == count == 28
    assert abs(est.delta - delta) < 1e-12


@settings(max_examples=40)
@given(st.integers(2, 10).flatmap(lambda m: st.integers(2, 10).flatmap(
    lambda n: arrays(np.float64, (m, n), elements=st.floats(-2.0, 2.0, width=64)))))
def test_rip_exact_matches_svd_and_grows_with_k(matrix):
    m, n = matrix.shape
    op = sensing.SensingOperator(sensing.DENSE, m, n, seed=0, matrix=matrix)
    deltas = []
    for k in range(1, min(m, n) // 2 + 1):
        est = sensing.estimate_rip(op, k, method=sensing.EXACT_ENUMERATION)
        worst = max(
            float(np.max(np.abs(np.linalg.svd(matrix[:, s], compute_uv=False) ** 2 - 1.0)))
            for s in combinations(range(n), 2 * k)
        )
        assert abs(est.delta - worst) <= 1e-10
        deltas.append(est.delta)
    assert all(b >= a - 1e-10 for a, b in zip(deltas, deltas[1:]))


@settings(max_examples=40)
@given(st.integers(2, 8).flatmap(lambda m: st.integers(2, 10).flatmap(
    lambda n: st.tuples(
        arrays(np.float64, (m, n), elements=st.floats(-2.0, 2.0, width=64)),
        st.integers(-6, 6), st.integers(-1, n - 1), st.integers(-1, n - 1)))))
def test_rip_pruned_scan_is_bitwise_the_unpruned_one(case):
    matrix, exponent, zero_col, dup_col = case
    matrix = matrix * 10.0 ** exponent
    if zero_col >= 0:
        matrix[:, zero_col] = 0.0
    if dup_col >= 0:
        matrix[:, dup_col] = matrix[:, (dup_col + 1) % matrix.shape[1]]
    m, n = matrix.shape
    op = sensing.SensingOperator(sensing.DENSE, m, n, seed=0, matrix=matrix)
    for k in range(1, min(m, n) // 2 + 1):
        reference = _rip_unpruned_stack(op, k)
        assert sensing.estimate_rip(op, k).delta == reference
        # with one seed per chunk the skip rule, not the seeds, finds the maximum
        with mock.patch.object(sensing, "_RIP_SEEDS", 1):
            assert sensing.estimate_rip(op, k).delta == reference


@pytest.mark.parametrize("kind,m,fewest,most", [
    # the Schatten-4 bound rules out nearly all supports of a Gaussian draw,
    # and none of an isometry's, whose deviations are all rounding noise
    (sensing.GAUSSIAN_FAT, 10, 0.0, 0.1), (sensing.ORTHONORMAL_SQUARE, 16, 1.0, 1.0),
])
def test_rip_eigen_solves_only_supports_the_bound_keeps(monkeypatch, kind, m, fewest, most):
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting(stack):
        solved.append(len(stack))
        return eigvalsh(stack)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    op = sensing.sample_operator(kind, m, 16, seed=7)
    est = sensing.estimate_rip(op, 3)
    assert est.count == math.comb(16, 6)
    assert fewest * est.count <= sum(solved) <= most * est.count


@pytest.mark.parametrize("per_chunk", [1, 5, 7])
@pytest.mark.parametrize("n,order", [(8, 2), (8, 3), (6, 6)])
def test_colex_supports_hold_every_subset_once(per_chunk, n, order):
    # C(8, 2) = 28 and C(8, 3) = 56 end in a partial chunk of 5 rows, C(6, 6) = 1 in one of 5 or 7
    chunks = list(sensing._colex_supports(n, order, per_chunk))
    total = math.comb(n, order)
    assert [len(c) for c in chunks] == [min(per_chunk, total - start)
                                        for start in range(0, total, per_chunk)]
    rows = np.concatenate(chunks)
    assert rows.dtype == np.intp and rows.shape == (total, order)
    assert np.all(np.diff(rows, axis=1) > 0)
    assert sorted(map(tuple, rows.tolist())) == list(combinations(range(n), order))


def test_rip_exact_memory_is_bounded():
    # C(20, 6) = 38,760 supports; all of their 6 x 10 column stacks at once
    # would take about 19 MB
    op = sensing.sample_operator(sensing.GAUSSIAN_FAT, 10, 20, seed=0)
    tracemalloc.start()
    try:
        est = sensing.estimate_rip(op, 3, method=sensing.EXACT_ENUMERATION)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.count == 38_760
    assert peak < 4 * 2**20


@pytest.mark.parametrize("method", [sensing.EXACT_ENUMERATION, sensing.MONTE_CARLO])
@pytest.mark.parametrize("k", [0, -1])
def test_rip_rejects_k_below_one(method, k):
    op = sensing.sample_operator(sensing.GAUSSIAN_FAT, 8, 12, seed=0)
    with pytest.raises(ParameterError, match="k >= 1"):
        sensing.estimate_rip(op, k, method=method)


# k-sparse draws: bound_lab._unit_ksparse is the one drawer of unit k-sparse rows


def test_ksparse_zero_k():
    rows = bound_lab._unit_ksparse(np.random.default_rng(0), 3, 10, 0)
    assert np.array_equal(rows, np.zeros((3, 10)))


def test_ksparse_normalized():
    rows = bound_lab._unit_ksparse(np.random.default_rng(4), 20, 50, 7)
    assert np.all(np.abs(np.linalg.norm(rows, axis=1) - 1.0) < 1e-12)
    assert np.all(np.count_nonzero(rows, axis=1) == 7)  # zero off the support


def test_ksparse_k_exceeds_n():
    with pytest.raises(ValueError):
        bound_lab._unit_ksparse(np.random.default_rng(0), 1, 4, 5)


def test_ksparse_support_uniform():
    # statistical oracle: each index appears ~ draws*k/n times, within 3-sigma
    n, k, draws = 12, 3, 20_000
    counts = np.count_nonzero(bound_lab._unit_ksparse(np.random.default_rng(0), draws, n, k),
                              axis=0)
    p = k / n
    sigma = math.sqrt(draws * p * (1 - p))
    assert np.all(np.abs(counts - draws * p) < 3 * sigma)

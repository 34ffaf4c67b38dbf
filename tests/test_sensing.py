import math
import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from trustkit import sensing
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


@pytest.mark.parametrize("kind,m,n", [(sensing.DENSE, 1024, 1024),
                                      (sensing.GAUSSIAN_FAT, 24, 40)])
def test_gaussian_draw_bytes_pinned(kind, m, n):
    # the draw divided by sqrt(m) into a new array, as it was first written
    rng = np.random.default_rng(np.random.SeedSequence(entropy=0))
    expected = rng.standard_normal((m, n)) / math.sqrt(m)
    assert sensing.sample_operator(kind, m, n, seed=0).matrix.tobytes() == expected.tobytes()


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
        sensing.sample_operator(sensing.FOURIER_MASKED, 2 * round(0.25 * n), n, seed=0)


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


def test_apply_maps_a_stack_row_by_row_bit_for_bit():
    op = sensing.sample_operator(sensing.GAUSSIAN_FAT, 9, 17, seed=5)
    xs = np.random.default_rng(3).standard_normal((6, 17))
    ys = sensing.apply(op, xs)
    assert ys.shape == (6, 9)
    for x, y in zip(xs, ys):
        assert y.tobytes() == (op.matrix @ x).tobytes() == sensing.apply(op, x).tobytes()
    with pytest.raises(DimensionError):
        sensing.apply(op, xs[:, :16])
    with pytest.raises(DimensionError):
        sensing.apply(op, xs[None])


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


_COLUMN_NORM_CASES = [(sensing.DENSE, 96, 96), (sensing.GAUSSIAN_FAT, 48, 96),
                      (sensing.FOURIER_MASKED, 48, 96), (sensing.ORTHONORMAL_SQUARE, 96, 96),
                      (sensing.TALL_ORTHONORMAL, 96, 48), (sensing.IDENTITY, 96, 96)]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind,m,n", _COLUMN_NORM_CASES,
                         ids=[case[0] for case in _COLUMN_NORM_CASES])
def test_column_norms_are_linalg_norms_bit_for_bit(kind, m, n, seed):
    op = sensing.sample_operator(kind, m, n, seed)
    assert np.array_equal(op.column_norms, np.linalg.norm(op.matrix, axis=0))


def test_column_norms_stand_in_one_for_a_zero_column():
    matrix = np.array([[3.0, 0.0, 1.0], [4.0, 0.0, 1.0]])
    op = sensing.SensingOperator(sensing.DENSE, 2, 3, 0, matrix)
    assert op.column_norms.tolist() == [5.0, 1.0, math.sqrt(2.0)]


def test_column_norms_make_no_matrix_sized_temporary():
    op = sensing.sample_operator(sensing.DENSE, 256, 256, seed=0)
    tracemalloc.start()
    try:
        op.column_norms
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < op.matrix.nbytes // 16


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
    """Reference exact scan: eigvalsh of the Grams of every support, one
    stack, each gathered from the operator's Gram as ``estimate_rip``
    gathers them. (A product of gathered columns can round differently on
    another BLAS kernel; ``_rip_per_support_loop`` and the SVD test check
    the Grams themselves.)"""
    supports = np.array(list(combinations(range(op.n), 2 * k)), dtype=np.intp)
    eigs = np.linalg.eigvalsh(op.gram[supports[:, :, None], supports[:, None, :]])
    return max(0.0, float(np.max(np.abs(eigs - 1.0))))


def _rip_margin(op):
    """The absolute margin of ``estimate_rip``'s exact branch."""
    return 1e-9 * max(1.0, float(np.max(np.diagonal(op.gram))))


def _assert_interlacing_bound(op, k, delta):
    """An isometry's delta is at most the margin, and within it of the full scan's."""
    margin = _rip_margin(op)
    assert delta <= margin
    assert abs(delta - _rip_unpruned_stack(op, k)) <= margin


def _assert_orbit_bound(op, k, delta):
    """A circulant Gram's delta, over one support per dihedral orbit, is at
    most the full scan's and within 2k tau of it; ``estimate_rip`` promises
    2 * 2k tau, and a partial DFT's cells at n = 16 keep within half of that."""
    reference = _rip_unpruned_stack(op, k)
    assert reference - 2 * k * sensing._circulance(op.gram) <= delta <= reference


# (kind, m) at n = 16 whose Gram is the identity up to rounding
_ROUNDED_ISOMETRIES = {(sensing.ORTHONORMAL_SQUARE, 16), (sensing.TALL_ORTHONORMAL, 24),
                       (sensing.FOURIER_MASKED, 32)}


@pytest.mark.parametrize("kind,m", [
    (sensing.ORTHONORMAL_SQUARE, 16), (sensing.TALL_ORTHONORMAL, 24),
    (sensing.GAUSSIAN_FAT, 10), (sensing.FOURIER_MASKED, 12), (sensing.DENSE, 16),
    (sensing.IDENTITY, 16), (sensing.FOURIER_MASKED, 32),
])
def test_rip_stacked_matches_per_support_loop(kind, m):
    # the pruned scan gives the unpruned stack's bits, whatever the kind; an
    # isometry takes no scan, and its delta is the interlacing bound; a
    # partial DFT's circulant Gram is scanned over one support per orbit
    op = sensing.sample_operator(kind, m, 16, seed=7)
    chunking = []
    for k in (1, 2, 3):
        est = sensing.estimate_rip(op, k, method=sensing.EXACT_ENUMERATION)
        delta, count = _rip_per_support_loop(op, k)
        assert est.count == count == math.comb(16, 2 * k)
        assert abs(est.delta - delta) < 1e-12
        if (kind, m) in _ROUNDED_ISOMETRIES:
            _assert_interlacing_bound(op, k, est.delta)
        elif kind == sensing.FOURIER_MASKED:
            _assert_orbit_bound(op, k, est.delta)
        else:
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
    # the Schatten-4 bound rules out nearly all supports of a Gaussian draw;
    # an isometry's delta comes from its n x n Gram, and no support's is solved
    (sensing.GAUSSIAN_FAT, 10, 0.0, 0.1), (sensing.ORTHONORMAL_SQUARE, 16, 0.0, 0.0),
])
def test_rip_eigen_solves_only_supports_the_bound_keeps(monkeypatch, kind, m, fewest, most):
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting(stack):
        solved.append(stack.shape)
        return eigvalsh(stack)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    op = sensing.sample_operator(kind, m, 16, seed=7)
    est = sensing.estimate_rip(op, 3)
    assert est.count == math.comb(16, 6)
    supports = sum(size for size, *matrix in solved if matrix == [6, 6])
    assert fewest * est.count <= supports <= most * est.count
    assert all(matrix in ([6, 6], [16, 16]) for _, *matrix in solved)


@pytest.mark.parametrize("kind,m,bounded_chunks", [
    # an isometry takes no scan, so no chunk gets bounds; a Gaussian draw's
    # delta exceeds the margin, and every chunk is pruned
    (sensing.ORTHONORMAL_SQUARE, 16, 0), (sensing.GAUSSIAN_FAT, 10, None),
])
def test_rip_forms_bounds_only_while_they_can_skip(monkeypatch, kind, m, bounded_chunks):
    calls = []
    schatten4 = sensing._schatten4_deviation

    def counting(grams):
        calls.append(len(grams))
        return schatten4(grams)

    monkeypatch.setattr(sensing, "_schatten4_deviation", counting)
    op = sensing.sample_operator(kind, m, 16, seed=7)
    per_chunk = max(1, sensing._RIP_CHUNK_BYTES // (6 * m * 8))
    chunks = -(-math.comb(16, 6) // per_chunk)
    assert chunks >= 3
    est = sensing.estimate_rip(op, 3)
    assert len(calls) == (chunks if bounded_chunks is None else bounded_chunks)
    monkeypatch.setattr(sensing, "_schatten4_deviation", schatten4)
    if (kind, m) in _ROUNDED_ISOMETRIES:
        _assert_interlacing_bound(op, 3, est.delta)
    else:
        assert est.delta == _rip_unpruned_stack(op, 3)


@pytest.mark.parametrize("column,bounded_chunks", [(0, 6), (15, 6)])
def test_rip_scans_an_operator_just_past_the_isometry_margin(monkeypatch, column,
                                                             bounded_chunks):
    # one column of an isometry scaled by 1 + 6e-10 puts |G - I|_F at about
    # 1.2e-9, just past the 1e-9 margin: the scan runs, with the unpruned
    # stack's bits. Of C(16, 6) = 8008 supports in six chunks, those holding
    # column 15 are the last 3003 in colex order, so before them delta is
    # rounding noise; every chunk still takes its bounds, which skip no
    # support while delta is within the margin.
    matrix = sensing.sample_operator(sensing.ORTHONORMAL_SQUARE, 16, 16, seed=7).matrix.copy()
    matrix[:, column] *= 1.0 + 6e-10
    op = sensing.SensingOperator(sensing.DENSE, 16, 16, seed=0, matrix=matrix)
    margin = _rip_margin(op)
    assert margin < np.linalg.norm(op.gram - np.eye(16)) < 1.5 * margin
    calls = []
    schatten4 = sensing._schatten4_deviation

    def counting(grams):
        calls.append(len(grams))
        return schatten4(grams)

    monkeypatch.setattr(sensing, "_schatten4_deviation", counting)
    est = sensing.estimate_rip(op, 3)
    assert len(calls) == bounded_chunks
    monkeypatch.setattr(sensing, "_schatten4_deviation", schatten4)
    assert est.delta == _rip_unpruned_stack(op, 3) > margin


@pytest.mark.parametrize("kind,m", [
    (sensing.ORTHONORMAL_SQUARE, 8), (sensing.TALL_ORTHONORMAL, 12),
    (sensing.FOURIER_MASKED, 16), (sensing.IDENTITY, 8),
])
def test_rip_of_an_isometry_at_full_order_is_the_scans_bits(kind, m):
    # at 2k = n the only support is G itself
    op = sensing.sample_operator(kind, m, 8, seed=3)
    est = sensing.estimate_rip(op, 4)
    assert est.count == 1
    assert est.delta == _rip_unpruned_stack(op, 4) <= _rip_margin(op)


def _counting_orbit_scans(monkeypatch):
    """Patch ``_dihedral_supports`` to record its calls; return the record."""
    calls = []
    dihedral = sensing._dihedral_supports

    def counting(*args):
        calls.append(args)
        return dihedral(*args)

    monkeypatch.setattr(sensing, "_dihedral_supports", counting)
    return calls


@pytest.mark.parametrize("m", [8, 10, 12, 14, 16, 24])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rip_of_a_partial_dft_scans_one_support_per_orbit(monkeypatch, m, seed):
    calls = _counting_orbit_scans(monkeypatch)
    op = sensing.sample_operator(sensing.FOURIER_MASKED, m, 16, seed=seed)
    assert sensing._circulance(op.gram) <= sensing._circulant_tolerance(m, op.gram)
    for k in (1, 2, 3):
        est = sensing.estimate_rip(op, k)
        assert est.count == math.comb(16, 2 * k)
        _assert_orbit_bound(op, k, est.delta)
    assert len(calls) == 3


@pytest.mark.parametrize("past", [0.99, 1.01])
def test_rip_takes_the_full_scan_just_past_the_circulant_tolerance(monkeypatch, past):
    # G[3, 9] and G[9, 3] of a partial DFT's Gram moved so tau lands at 0.99
    # or 1.01 times the tolerance: the first keeps the orbit scan, the second
    # takes the full scan and gives the unpruned stack's bits
    op = sensing.sample_operator(sensing.FOURIER_MASKED, 12, 16, seed=7)
    gram = op.gram.copy()
    tolerance = sensing._circulant_tolerance(12, gram)
    i, j = 3, 9
    off = gram[i, j] - gram[0, j - i]
    shift = np.copysign(past * tolerance - abs(off), off)
    gram[i, j] += shift
    gram[j, i] += shift
    op = sensing.SensingOperator(op.kind, op.m, op.n, op.seed, op.matrix)
    gram.setflags(write=False)
    op.__dict__["gram"] = gram  # the cached Gram, which the matrix need not have
    tau = sensing._circulance(op.gram)
    assert (tau > tolerance) == (past > 1) and tau < 1.5 * tolerance
    calls = _counting_orbit_scans(monkeypatch)
    for k in (1, 2, 3):
        est = sensing.estimate_rip(op, k)
        if past < 1:
            _assert_orbit_bound(op, k, est.delta)
        else:
            assert est.delta == _rip_unpruned_stack(op, k)
    assert len(calls) == (3 if past < 1 else 0)


def test_rip_takes_the_full_scan_of_a_tiny_gram(monkeypatch):
    # a Gaussian Gram scaled by 1e-12 is within the absolute 1e-9 margin of
    # circulant, but far from it relative to its own entries
    matrix = sensing.sample_operator(sensing.GAUSSIAN_FAT, 10, 16, seed=7).matrix * 1e-6
    op = sensing.SensingOperator(sensing.DENSE, 10, 16, seed=0, matrix=matrix)
    assert sensing._circulance(op.gram) < _rip_margin(op)
    assert sensing._circulance(op.gram) > 1e10 * sensing._circulant_tolerance(10, op.gram)
    calls = _counting_orbit_scans(monkeypatch)
    for k in (1, 2, 3):
        assert sensing.estimate_rip(op, k).delta == _rip_unpruned_stack(op, k)
    assert not calls


def _orbit(support, n):
    """Every rotation and reflection of ``support`` in range(n), as sorted tuples."""
    return {tuple(sorted((sign * s + r) % n for s in support))
            for r in range(n) for sign in (1, -1)}


@pytest.mark.parametrize("per_chunk", [1, 5, 7, None])
@pytest.mark.parametrize("n", [6, 8, 12, 16])
@pytest.mark.parametrize("order", [2, 4, 6])
def test_dihedral_supports_cover_every_support_once(per_chunk, n, order):
    # None: one chunk holds every support
    total = math.comb(n, order)
    per_chunk = per_chunk or total
    table = sensing._binomials(n, order)
    colex_chunks = []
    reps = []
    for chunk in sensing._dihedral_supports(n, order, per_chunk):
        assert chunk.dtype == np.intp and chunk.shape[1] == order and len(chunk)
        ranks = table[np.arange(1, order + 1), chunk].sum(axis=1)
        # each chunk is the representatives of one colex chunk, in colex order
        assert np.all(np.diff(ranks) > 0)
        assert len(set(ranks // per_chunk)) == 1
        colex_chunks.append(int(ranks[0] // per_chunk))
        reps.extend(map(tuple, chunk.tolist()))
    assert colex_chunks == sorted(set(colex_chunks))
    covered = [s for rep in reps for s in _orbit(rep, n)]
    assert sorted(covered) == list(combinations(range(n), order))
    if n == 16:
        assert len(reps) == {2: 8, 4: 72, 6: 280}[order]


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


# k-sparse draws: sensing.unit_ksparse_rows is the one drawer of unit k-sparse rows


def test_ksparse_zero_k():
    rows = sensing.unit_ksparse_rows(np.random.default_rng(0), 3, 10, 0)
    assert np.array_equal(rows, np.zeros((3, 10)))


def test_ksparse_normalized():
    rows = sensing.unit_ksparse_rows(np.random.default_rng(4), 20, 50, 7)
    assert np.all(np.abs(np.linalg.norm(rows, axis=1) - 1.0) < 1e-12)
    assert np.all(np.count_nonzero(rows, axis=1) == 7)  # zero off the support


def test_ksparse_k_exceeds_n():
    with pytest.raises(ValueError):
        sensing.unit_ksparse_rows(np.random.default_rng(0), 1, 4, 5)


def test_ksparse_support_uniform():
    # statistical oracle: each index appears ~ draws*k/n times, within 3-sigma
    n, k, draws = 12, 3, 20_000
    counts = np.count_nonzero(sensing.unit_ksparse_rows(np.random.default_rng(0), draws, n, k),
                              axis=0)
    p = k / n
    sigma = math.sqrt(draws * p * (1 - p))
    assert np.all(np.abs(counts - draws * p) < 3 * sigma)


def test_ksparse_every_subset_is_equally_likely():
    # chi-square over the C(6, 3) = 20 supports, 19 degrees of freedom:
    # 43.82 is the 0.999 quantile
    n, k, draws = 6, 3, 20_000
    rows = sensing.unit_ksparse_rows(np.random.default_rng(3), draws, n, k)
    support_ids = (rows != 0) @ (1 << np.arange(n))
    subsets = [sum(1 << i for i in s) for s in combinations(range(n), k)]
    counts = np.array([np.count_nonzero(support_ids == s) for s in subsets])
    assert counts.sum() == draws
    expected = draws / len(subsets)
    assert np.sum((counts - expected) ** 2 / expected) < 43.82


def test_ksparse_same_seed_same_bytes():
    a, b = (sensing.unit_ksparse_rows(np.random.default_rng(11), 50, 16, 3) for _ in range(2))
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != sensing.unit_ksparse_rows(np.random.default_rng(12), 50, 16, 3).tobytes()


@settings(max_examples=40)
@given(st.integers(2, 10).flatmap(lambda m: st.integers(2, 10).flatmap(
    lambda n: st.tuples(arrays(np.float64, (m, n), elements=st.floats(-2.0, 2.0, width=64)),
                        st.integers(1, min(m, n) // 2), st.integers(0, 2**32 - 1)))))
def test_rip_monte_carlo_never_exceeds_exact(case):
    matrix, k, seed = case
    op = sensing.SensingOperator(sensing.DENSE, *matrix.shape, seed=0, matrix=matrix)
    mc = sensing.estimate_rip(op, k, sensing.MONTE_CARLO, budget=300, seed=seed)
    assert mc.count == 300
    assert mc.delta <= sensing.estimate_rip(op, k).delta + 1e-12


def _rip_monte_carlo_reference(op, k, budget, seed, per_chunk):
    """Monte Carlo delta from ``unit_ksparse_rows`` blocks of ``per_chunk`` rows."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xB1,)))
    worst = []
    for start in range(0, budget, per_chunk):
        az = sensing.unit_ksparse_rows(rng, min(per_chunk, budget - start), op.n, 2 * k) \
            @ op.matrix.T
        worst.append(float(np.max(np.abs(np.einsum("ij,ij->i", az, az) - 1.0))))
    return max(worst)


@pytest.mark.parametrize("n", [16, 40, 65])
def test_rip_monte_carlo_budget_in_one_chunk_is_one_draw(n):
    # the lab's budget of 2000 rows fits one chunk up to n = 65
    op = sensing.sample_operator(sensing.GAUSSIAN_FAT, n // 2, n, seed=4)
    assert 2000 * n * 8 <= sensing._RIP_CHUNK_BYTES
    est = sensing.estimate_rip(op, 2, sensing.MONTE_CARLO, budget=2000, seed=9)
    assert est.delta == _rip_monte_carlo_reference(op, 2, 2000, 9, 2000)


def test_rip_monte_carlo_chunks_keep_the_running_maximum(monkeypatch):
    # 3 rows of keys per chunk: chunks of 3, 3, 3 and 1 rows
    op = sensing.sample_operator(sensing.GAUSSIAN_FAT, 6, 12, seed=1)
    monkeypatch.setattr(sensing, "_RIP_CHUNK_BYTES", 3 * 12 * 8)
    est = sensing.estimate_rip(op, 1, sensing.MONTE_CARLO, budget=10, seed=2)
    assert est.count == 10
    assert est.delta == _rip_monte_carlo_reference(op, 1, 10, 2, 3)


def test_rip_monte_carlo_memory_is_bounded():
    # 10,000 rows of 1024 keys and values: about 160 MiB drawn as one block
    op = sensing.sample_operator(sensing.GAUSSIAN_FAT, 64, 1024, seed=0)
    tracemalloc.start()
    try:
        est = sensing.estimate_rip(op, 3, sensing.MONTE_CARLO, budget=10_000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.count == 10_000 and np.isfinite(est.delta)
    assert peak < 4 * 2**20

import numpy as np
import pytest

from trustkit import bound_lab, sensing
from trustkit.errors import ContractError, DimensionError, ParameterError


def _pair(rng, n, k):
    def draw():
        x = np.zeros(n)
        sup = rng.choice(n, size=k, replace=False)
        v = rng.standard_normal(k)
        x[sup] = v / np.linalg.norm(v)
        return x

    return draw(), draw()


def test_orthonormal_deviation_is_zero():
    op = sensing.sample_operator(sensing.TALL_ORTHONORMAL, 20, 12, seed=1)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, xp = _pair(rng, 12, 3)
        assert bound_lab.inner_product_deviation(op, x, xp) < 1e-10


def test_self_pair_deviation_bounded_by_delta():
    op = sensing.sample_operator(sensing.GAUSSIAN_FAT, 8, 12, seed=9)
    delta = sensing.estimate_rip(op, k=2, method=sensing.EXACT_ENUMERATION).delta
    rng = np.random.default_rng(1)
    for _ in range(100):
        x, _ = _pair(rng, 12, 2)
        dev = bound_lab.inner_product_deviation(op, x, x)
        assert abs(dev - abs(np.linalg.norm(op.matrix @ x) ** 2 - 1.0)) < 1e-12
        assert dev <= delta + 1e-9


def test_deviation_bounded_by_exact_delta_many_pairs():
    op = sensing.sample_operator(sensing.GAUSSIAN_FAT, 8, 12, seed=17)
    delta = sensing.estimate_rip(op, k=2, method=sensing.EXACT_ENUMERATION).delta
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10_000):
        x, xp = _pair(rng, 12, 2)
        worst = max(worst, bound_lab.inner_product_deviation(op, x, xp))
    assert worst <= delta + 1e-9


def test_deviation_rejects_unnormalized():
    op = sensing.sample_operator(sensing.GAUSSIAN_FAT, 8, 12, seed=9)
    x = np.zeros(12)
    x[0] = 2.0
    with pytest.raises(ContractError):
        bound_lab.inner_product_deviation(op, x, x)


def test_sweep_orthonormal_rows_are_tiny():
    res = bound_lab.attention_similarity_sweep(
        kinds=[sensing.ORTHONORMAL_SQUARE], ms=[12], ns=[12], ks=[2, 3],
        trials=50, seed=0,
    )
    assert len(res.cells) == 2
    for cell in res.cells:
        assert cell.mean_dev < 1e-10
        assert not cell.violates_bound


def test_sweep_deterministic_csv():
    kw = dict(kinds=[sensing.GAUSSIAN_FAT], ms=[8, 10], ns=[16], ks=[2],
              trials=25, seed=42)
    a = bound_lab.attention_similarity_sweep(**kw).to_csv()
    b = bound_lab.attention_similarity_sweep(**kw).to_csv()
    assert a == b


def test_sweep_exact_cells_respect_bound():
    res = bound_lab.attention_similarity_sweep(
        kinds=[sensing.GAUSSIAN_FAT], ms=[8, 10], ns=[12], ks=[2],
        trials=200, seed=11,
    )
    for cell in res.cells:
        assert cell.delta_is_exact
        assert cell.max_dev <= cell.delta + 1e-9
    assert res.violations() == []


def test_sweep_mean_dev_nonincreasing_in_m():
    # more rows -> tighter isometry; majority over 3 seeds absorbs randomness
    ms = [12, 24, 48]
    wins = 0
    for seed in (1, 2, 3):
        res = bound_lab.attention_similarity_sweep(
            kinds=[sensing.GAUSSIAN_FAT], ms=ms, ns=[64], ks=[3],
            trials=120, seed=seed,
        )
        means = {c.m: c.mean_dev for c in res.cells}
        if means[12] >= means[24] >= means[48]:
            wins += 1
    assert wins >= 2


def test_sweep_skips_invalid_cells():
    res = bound_lab.attention_similarity_sweep(
        kinds=[sensing.ORTHONORMAL_SQUARE], ms=[8], ns=[12], ks=[2],
        trials=5, seed=0,
    )
    assert res.cells == []


def test_sweep_runs_every_shape_sample_operator_accepts():
    res = bound_lab.attention_similarity_sweep(
        kinds=[sensing.DENSE, sensing.IDENTITY], ms=[8, 12], ns=[12], ks=[2],
        trials=5, seed=0,
    )
    assert [(c.kind, c.m) for c in res.cells] == [
        (sensing.DENSE, 8), (sensing.DENSE, 12), (sensing.IDENTITY, 12)]
    identity = res.cells[-1]
    assert identity.max_dev == 0.0 and identity.delta == 0.0
    assert res.violations() == []


def test_sweep_unknown_kind_raises():
    with pytest.raises(ParameterError, match="unknown operator kind 'bogus'"):
        bound_lab.attention_similarity_sweep(
            kinds=[sensing.GAUSSIAN_FAT, "bogus"], ms=[8], ns=[12], ks=[2],
            trials=5, seed=0,
        )


@pytest.mark.parametrize("k", [0, -1])
def test_sweep_rejects_k_below_one_before_any_cell(monkeypatch, k):
    def run_cell(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(bound_lab, "_run_cell", run_cell)
    with pytest.raises(ParameterError, match="k must be >= 1"):
        bound_lab.attention_similarity_sweep(
            kinds=[sensing.GAUSSIAN_FAT], ms=[8], ns=[12], ks=[2, k],
            trials=5, seed=0,
        )


@pytest.mark.parametrize("axes,message", [
    ({"ms": [8, 8], "ns": [16], "ks": [1]}, "m names 8 more than once"),
    ({"kinds": [sensing.GAUSSIAN_FAT] * 2}, "kinds names gaussian_fat more than once"),
    ({"ns": [12, 16, 12]}, "n names 12 more than once"),
    ({"ks": [1, 2, 1]}, "k names 1 more than once"),
    ({"kinds": []}, "kinds must name at least one value"),
    ({"ms": []}, "m must name at least one value"),
    ({"ns": []}, "n must name at least one value"),
    ({"ks": []}, "k must name at least one value"),
    ({"ms": [8, 0]}, "every m must be >= 1, got 0"),
    ({"ns": [-12]}, "every n must be >= 1, got -12"),
])
def test_sweep_refuses_a_bad_axis_before_any_cell(monkeypatch, axes, message):
    # a repeated value would run its cells twice, from different draws
    def run_cell(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(bound_lab, "_run_cell", run_cell)
    grid = {"kinds": [sensing.GAUSSIAN_FAT], "ms": [8], "ns": [12], "ks": [2], **axes}
    with pytest.raises(ParameterError, match=message):
        bound_lab.attention_similarity_sweep(**grid, trials=5, seed=0)


def test_sweep_matrix_output():
    res = bound_lab.attention_similarity_sweep(
        kinds=[sensing.GAUSSIAN_FAT], ms=[8, 10], ns=[16], ks=[2, 3],
        trials=10, seed=1,
    )
    text = res.to_matrix(sensing.GAUSSIAN_FAT)
    lines = text.strip().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 3  # header + two m rows
    assert all(len(row.split()) == 2 for row in lines[1:])


# ---- stacked trials -------------------------------------------------------------


def _unit_ksparse_reference(rng, count, n, k):
    """The block draw row by row: the same key and value blocks, each row's
    support by a full sort of its keys, its values normalised one at a time."""
    keys = rng.random((count, n))
    vals = rng.standard_normal((count, k))
    rows = np.zeros((count, n))
    for key, val, row in zip(keys, vals, rows):
        row[np.sort(np.argsort(key)[:k])] = val / np.linalg.norm(val)
    return rows


def _pair_reference(op, x, xp):
    """Direct deviation and 2x2 post-softmax gap of one pair, one matvec at a time."""
    ax, axp = op.matrix @ x, op.matrix @ xp
    dev = abs(float(ax @ axp) - float(x @ xp))
    g_x = np.array([[x @ x, x @ xp], [xp @ x, xp @ xp]])
    g_y = np.array([[ax @ ax, ax @ axp], [axp @ ax, axp @ axp]])

    def rows(g):
        e = np.exp(g - g.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    return dev, float(np.mean(np.abs(rows(g_y) - rows(g_x))))


@pytest.mark.parametrize("n, k", [(16, 1), (16, 3), (12, 6)])
def test_stacked_draw_matches_single_draws_bit_for_bit(n, k):
    stacked = sensing.unit_ksparse_rows(np.random.default_rng(4), 37, n, k)
    loop = _unit_ksparse_reference(np.random.default_rng(4), 37, n, k)
    assert stacked.tobytes() == loop.tobytes()


@pytest.mark.parametrize("kind, m", [
    (sensing.GAUSSIAN_FAT, 8), (sensing.GAUSSIAN_FAT, 14), (sensing.FOURIER_MASKED, 10),
    (sensing.ORTHONORMAL_SQUARE, 16), (sensing.TALL_ORTHONORMAL, 24),
    (sensing.FOURIER_MASKED, 32), (sensing.IDENTITY, 16),
])
def test_stacked_deviations_match_per_pair_reference(kind, m):
    # pair_deviations raises unless the polarized route agrees on every row
    n, k = 16, 2
    op = sensing.sample_operator(kind, m, n, seed=5)
    delta = sensing.estimate_rip(op, k, sensing.EXACT_ENUMERATION).delta
    pairs = sensing.unit_ksparse_rows(np.random.default_rng(6), 2 * 60, n, k)
    # the last rows pair x with x' = x and with x' = -x, where the polarized
    # route collapses to 4|Ax|^2 and to -4|Ax|^2
    xs = np.concatenate([pairs[0::2], pairs[:5], pairs[:5]])
    xps = np.concatenate([pairs[1::2], pairs[:5], -pairs[:5]])
    devs, gaps = bound_lab.pair_deviations(op, xs, xps)
    ref = np.array([_pair_reference(op, x, xp) for x, xp in zip(xs, xps)])
    if delta > 1e-8:
        tol = dict(rtol=1e-15, atol=0.0)
    else:  # an isometry: deviations are rounding noise
        tol = dict(rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(devs, ref[:, 0], **tol)
    np.testing.assert_allclose(gaps, ref[:, 1], **tol)
    assert [bound_lab.inner_product_deviation(op, x, xp) for x, xp in zip(xs, xps)] \
        == list(devs)


@pytest.mark.parametrize("side, label", [(0, "x"), (1, "x'")])
def test_stacked_deviations_reject_a_non_unit_row(side, label):
    op = sensing.sample_operator(sensing.GAUSSIAN_FAT, 8, 12, seed=9)
    stacks = [sensing.unit_ksparse_rows(np.random.default_rng(s), 5, 12, 2) for s in (1, 2)]
    stacks[side][3] *= 1.5
    with pytest.raises(ContractError, match=rf"^{label} must be unit-norm.*row 3"):
        bound_lab.pair_deviations(op, *stacks)


def test_stacked_deviations_reject_routes_that_disagree():
    # entries of 1e8 put the polarized route's rounding near 1e-4, far past 1e-12
    good = sensing.sample_operator(sensing.GAUSSIAN_FAT, 8, 12, seed=9)
    op = sensing.SensingOperator(good.kind, good.m, good.n, good.seed, good.matrix * 1e8)
    xs = sensing.unit_ksparse_rows(np.random.default_rng(1), 5, 12, 2)
    xps = sensing.unit_ksparse_rows(np.random.default_rng(2), 5, 12, 2)
    with pytest.raises(ContractError, match="deviation routes disagree"):
        bound_lab.pair_deviations(op, xs, xps)
    bound_lab.pair_deviations(good, xs, xps)


def test_cell_matches_per_trial_loop():
    kind, m, n, k, index, trials, seed = sensing.GAUSSIAN_FAT, 10, 16, 3, 2, 40, 5
    cell = bound_lab._run_cell(kind, m, n, k, index, trials, seed)
    rng = np.random.default_rng(bound_lab._cell_rng_seed(seed, index))
    op = sensing.sample_operator(kind, m, n, int(rng.integers(0, 2**31 - 1)))
    rows = _unit_ksparse_reference(rng, 2 * trials, n, k)
    ref = np.array([_pair_reference(op, x, xp) for x, xp in zip(rows[0::2], rows[1::2])])
    assert cell.trials == trials and cell.delta_is_exact
    np.testing.assert_allclose([cell.mean_dev, cell.max_dev, cell.postsoftmax_mean_dev],
                               [ref[:, 0].mean(), ref[:, 0].max(), ref[:, 1].mean()],
                               rtol=1e-15, atol=0.0)


def test_deviation_rejects_a_vector_of_the_wrong_length():
    op = sensing.sample_operator(sensing.GAUSSIAN_FAT, 8, 12, seed=9)
    x = np.eye(11)[0]
    with pytest.raises(DimensionError):
        bound_lab.inner_product_deviation(op, x, x)

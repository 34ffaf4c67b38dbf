import numpy as np
import pytest

from trustkit import bound_lab, sensing
from trustkit.errors import ContractError, ParameterError


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


def test_polarization_random_pairs():
    op = sensing.sample_operator(sensing.GAUSSIAN_FAT, 10, 24, seed=3)
    rng = np.random.default_rng(7)
    for _ in range(200):
        x, xp = _pair(rng, 24, 4)
        assert bound_lab.verify_polarization(op, x, xp)


def test_polarization_substitutions():
    op = sensing.sample_operator(sensing.GAUSSIAN_FAT, 10, 24, seed=3)
    rng = np.random.default_rng(8)
    x, _ = _pair(rng, 24, 4)
    ax = op.matrix @ x
    # x' = x: left side collapses to 4|Ax|^2
    a_sum = op.matrix @ (2 * x)
    assert abs(float(a_sum @ a_sum) - 4.0 * float(ax @ ax)) < 1e-10
    assert bound_lab.verify_polarization(op, x, x)
    # x' = -x: left side collapses to -4|Ax|^2
    a_diff = op.matrix @ (2 * x)
    assert abs(-float(a_diff @ a_diff) + 4.0 * float(ax @ ax)) < 1e-10
    assert bound_lab.verify_polarization(op, x, -x)


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

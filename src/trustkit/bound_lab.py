"""Numerical verification of the isometry-bounded inner-product deviation.

For unit-norm k-sparse x, x' and an operator A with isometry constant
delta_2k, the similarity error |x^T A^T A x' - x^T x'| never exceeds
delta_2k. This module checks that bound over stacked trial pairs, validates
the polarization identity it rests on, and runs the operator-ensemble sweep
that maps mean/max deviation against the estimated constant. A sweep cell
draws all its pairs as one block (``sensing.unit_ksparse_rows``), maps them
through A in one product, and takes delta_2k from ``sensing.estimate_rip``,
whose exact scan gathers every support's Gram from the operator's A^T A. An
isometry's A^T A is the identity up to rounding; its delta is then the
interlacing bound |A^T A - I|_2 from one n x n eigensolve, which bounds every
support's deviation at once, and no support's Gram is formed. A partial
DFT's G = A^T A is circulant up to rounding: tau = max |G_ij - G_0,(j-i) mod n|
is at most 16 (m + n) eps max |G|. The scan then solves one support per orbit
under rotations and reflections of range(n), and its delta is at most the full
scan's and within 2 * 2k tau of it.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import sensing
from .errors import ContractError, DimensionError, ParameterError, csv_text

_NORM_TOL = 1e-9
BOUND_SLACK = 1e-9  # numerical slack allowed on deviation <= delta
MC_BUDGET = 2000  # random supports per cell when exact enumeration is over the cap


def _row_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u_t^T v_t for every row t, each by the same dot routine as ``u[t] @ v[t]``."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _require_unit_rows(sq_norms: np.ndarray, label: str) -> None:
    norms = np.sqrt(sq_norms)
    off = np.flatnonzero(np.abs(norms - 1.0) > _NORM_TOL)
    if off.size:
        norm = float(norms[off[0]])
        raise ContractError(
            f"{label} must be unit-norm, got |{label}| = {norm!r} in row {int(off[0])}"
        )


def _gram2(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The 2x2 similarity matrix [[u.u, u.v], [v.u, v.v]] of every row pair."""
    uv = _row_dots(u, v)
    return np.stack([np.stack([_row_dots(u, u), uv], axis=1),
                     np.stack([uv, _row_dots(v, v)], axis=1)], axis=1)


def _postsoftmax_row_gaps(g_x: np.ndarray, g_y: np.ndarray) -> np.ndarray:
    """Mean |softmax-row| gap between the 2x2 similarity matrices of each
    pair in signal (g_x) and measurement (g_y) domains. Descriptive companion
    output: the theorem bounds pre-softmax entries only."""

    def rows(g):
        e = np.exp(g - g.max(axis=2, keepdims=True))
        return e / e.sum(axis=2, keepdims=True)

    return np.abs(rows(g_y) - rows(g_x)).mean(axis=(1, 2))


def pair_deviations(op: sensing.SensingOperator, xs: np.ndarray,
                    xps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deviation |(Ax_t)^T(Ax'_t) - x_t^T x'_t| and post-softmax gap of every
    row pair of the (trials, n) stacks ``xs`` and ``xps``, whose rows must be
    unit-norm.

    One product maps all of x, x', x + x' and x - x' through A. The deviation
    is also evaluated through the polarization expansion
    ((|A(x+x')|^2 - |A(x-x')|^2) / 4); the two routes must agree to 1e-12 on
    every row.
    """
    xs = np.asarray(xs, dtype=np.float64)
    xps = np.asarray(xps, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != op.n or xps.shape != xs.shape:
        raise DimensionError(
            f"expected two (trials, {op.n}) stacks, got shapes {xs.shape} and {xps.shape}"
        )
    g_x = _gram2(xs, xps)
    _require_unit_rows(g_x[:, 0, 0], "x")
    _require_unit_rows(g_x[:, 1, 1], "x'")
    stacked = np.concatenate([xs, xps, xs + xps, xs - xps])
    # A broadcast matrix-vector product per row keeps each row's bits equal
    # to a single ``A @ x``.
    ax, axp, a_sum, a_diff = np.split((op.matrix @ stacked[:, :, None])[:, :, 0], 4)
    g_y = _gram2(ax, axp)
    cross = g_x[:, 0, 1]
    direct = np.abs(g_y[:, 0, 1] - cross)
    polarized = np.abs((_row_dots(a_sum, a_sum) - _row_dots(a_diff, a_diff)) / 4.0 - cross)
    split = np.flatnonzero(np.abs(direct - polarized) > 1e-12)
    if split.size:
        t = int(split[0])
        raise ContractError(
            f"deviation routes disagree in row {t}: direct {float(direct[t])!r} "
            f"vs polarized {float(polarized[t])!r}"
        )
    return direct, _postsoftmax_row_gaps(g_x, g_y)


def inner_product_deviation(op: sensing.SensingOperator, x: np.ndarray,
                            x_prime: np.ndarray) -> float:
    """|(Ax)^T(Ax') - x^T x'| for one unit-norm pair (see ``pair_deviations``)."""
    devs, _ = pair_deviations(op, np.asarray(x, dtype=np.float64)[None],
                              np.asarray(x_prime, dtype=np.float64)[None])
    return float(devs[0])


@dataclass
class SweepCell:
    kind: str
    m: int
    n: int
    k: int
    mean_dev: float
    max_dev: float
    delta: float
    delta_method: str
    trials: int
    postsoftmax_mean_dev: float  # descriptive only; no bound is claimed on it

    @property
    def delta_is_exact(self) -> bool:
        return self.delta_method == sensing.EXACT_ENUMERATION

    @property
    def violates_bound(self) -> bool:
        return self.delta_is_exact and self.max_dev > self.delta + BOUND_SLACK


@dataclass
class SweepResult:
    cells: list[SweepCell] = field(default_factory=list)

    def violations(self) -> list[SweepCell]:
        return [c for c in self.cells if c.violates_bound]

    def to_csv(self) -> str:
        return csv_text([f.name for f in fields(SweepCell)], map(astuple, self.cells))

    def to_matrix(self, kind: str) -> str:
        """Gnuplot-ready mean-deviation matrix (rows = m, cols = k) for one kind
        of a sweep over one n."""
        cells = [c for c in self.cells if c.kind == kind]
        ms = sorted({c.m for c in cells})
        ks = sorted({c.k for c in cells})
        lines = ["# rows: m = " + " ".join(map(str, ms)) + "; cols: k = " + " ".join(map(str, ks))]
        for m in ms:
            row = []
            for k in ks:
                match = [c for c in cells if c.m == m and c.k == k]
                row.append(repr(match[0].mean_dev) if match else "nan")
            lines.append(" ".join(row))
        return "\n".join(lines) + "\n"


def _cell_rng_seed(seed: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=(0xCE, index))


def _run_cell(kind: str, m: int, n: int, k: int, index: int, trials: int,
              seed: int) -> SweepCell:
    rng = np.random.default_rng(_cell_rng_seed(seed, index))
    op_seed = int(rng.integers(0, 2**31 - 1))
    op = sensing.sample_operator(kind, m, n, op_seed)
    pairs = sensing.unit_ksparse_rows(rng, 2 * trials, n, k)  # x_t, x'_t interleaved
    devs, post = pair_deviations(op, pairs[0::2], pairs[1::2])
    if math.comb(n, 2 * k) <= sensing.ENUMERATION_CAP:
        est = sensing.estimate_rip(op, k, sensing.EXACT_ENUMERATION)
    else:
        est = sensing.estimate_rip(op, k, sensing.MONTE_CARLO, budget=MC_BUDGET, seed=op_seed)
    return SweepCell(
        kind=kind, m=m, n=n, k=k,
        mean_dev=float(devs.mean()), max_dev=float(devs.max()),
        delta=est.delta, delta_method=est.method, trials=trials,
        postsoftmax_mean_dev=float(post.mean()),
    )


def attention_similarity_sweep(kinds, ms, ns, ks, trials: int, seed: int) -> SweepResult:
    """Mean/max deviation and delta estimate per (kind, m, n, k) cell.

    Cells run in deterministic grid order; (m, n) pairs the kind's ensemble
    has no member of, and k with 2k > min(m, n), are skipped. A cell draws
    its 2 * trials pair rows as one block of independent unit k-sparse rows
    (``sensing.unit_ksparse_rows``: one call for the supports' keys, one for
    the values), so joint supports of size <= 2k arise by construction
    (overlaps are kept, which the bound permits). An empty
    axis, a repeated value (its cells would run twice, from different
    draws), an m, n or k below 1, an unknown kind or an oversized operator
    raises ParameterError before any cell runs.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    for axis, values in (("kinds", kinds), ("m", ms), ("n", ns), ("k", ks)):
        if not values:
            raise ParameterError(f"{axis} must name at least one value")
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ParameterError(f"{axis} names {value} more than once")
            if axis != "kinds" and value < 1:
                raise ParameterError(f"every {axis} must be >= 1, got {value}")
    specs = []
    for kind in kinds:
        for n in ns:
            for m in ms:
                if sensing.shape_violation(kind, m, n):
                    continue
                specs.extend((kind, m, n, k) for k in ks if 2 * k <= min(m, n))
    return SweepResult(cells=[
        _run_cell(kind, m, n, k, index, trials, seed)
        for index, (kind, m, n, k) in enumerate(specs)
    ])


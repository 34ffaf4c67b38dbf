"""Sensing operators and isometry-constant estimation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionError, EnumerationCapExceeded, ParameterError

if TYPE_CHECKING:
    from collections.abc import Iterator

ORTHONORMAL_SQUARE = "orthonormal_square"
TALL_ORTHONORMAL = "tall_orthonormal"
GAUSSIAN_FAT = "gaussian_fat"
FOURIER_MASKED = "fourier_masked"
DENSE = "dense"  # free-shape Gaussian draw or estimated map; no ensemble invariant
IDENTITY = "identity"

KINDS = (ORTHONORMAL_SQUARE, TALL_ORTHONORMAL, GAUSSIAN_FAT, FOURIER_MASKED, DENSE, IDENTITY)

ENUMERATION_CAP = 1_000_000

# Gathered columns per chunk of the exact RIP scan (about 1 MiB).
_RIP_CHUNK_BYTES = 1 << 20

# Largest-bound supports eigen-solved first per chunk: their delta rules out most of the rest.
_RIP_SEEDS = 32

# Largest m * n materialized (2 GiB of float64): admits the 16384 x 16384
# operator of a 128 px image and refuses the 32 GiB one of a 256 px image.
MAX_OPERATOR_ENTRIES = 2**28

# kind -> (predicate on m, n, the requirement it states)
_SHAPE_RULES = {
    ORTHONORMAL_SQUARE: (lambda m, n: m == n, "m == n"),
    TALL_ORTHONORMAL: (lambda m, n: m >= n, "m >= n"),
    GAUSSIAN_FAT: (lambda m, n: m < n, "m < n"),
    FOURIER_MASKED: (lambda m, n: m % 2 == 0 and 0 < m <= 2 * n, "even m with 0 < m <= 2n"),
    DENSE: (lambda m, n: True, "any shape"),
    IDENTITY: (lambda m, n: m == n, "m == n"),
}


@dataclass(frozen=True, eq=False)
class SensingOperator:
    """Linear map y = A x + w, materialized as a dense m x n matrix.

    Immutable: rebinding a field raises FrozenInstanceError, and ``matrix``
    and ``mask`` (the masked-Fourier kind's kept frequency indices) are made
    read-only, so writing into them raises ValueError. What the solvers
    derive from the matrix alone is therefore computed on first use and
    kept: ``gram``, ``column_norms`` and ``lipschitz``. OMP reads the
    column norms and the Gram's rows; proximal gradient applies the Gram
    once per step and takes its step from the Lipschitz constant.
    Equality is identity.
    """

    kind: str
    m: int
    n: int
    seed: int
    matrix: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self):
        if self.matrix.shape != (self.m, self.n):
            raise DimensionError(
                f"operator matrix shape {self.matrix.shape} != ({self.m}, {self.n})"
            )
        self.matrix.setflags(write=False)
        if self.mask is not None:
            self.mask.setflags(write=False)

    @cached_property
    def gram(self) -> np.ndarray:
        """A^T A."""
        return self.matrix.T @ self.matrix

    @cached_property
    def column_norms(self) -> np.ndarray:
        """Euclidean column norms, with 1 standing in for a zero column."""
        norms = np.linalg.norm(self.matrix, axis=0)
        return np.where(norms > 0, norms, 1.0)

    @cached_property
    def lipschitz(self) -> float:
        """sigma_max(A)^2, by ``solvers.lipschitz_constant`` on the Gram."""
        from . import solvers  # solvers imports this module

        return solvers.lipschitz_constant(self.matrix, gram=self.gram)


def shape_violation(kind: str, m: int, n: int) -> str | None:
    """Why the ensemble ``kind`` has no m x n member, or None when it has one.

    Raises ParameterError for an unknown kind and for a matrix of more than
    MAX_OPERATOR_ENTRIES entries, so no caller allocates one.
    """
    if kind not in _SHAPE_RULES:
        raise ParameterError(f"unknown operator kind {kind!r}; choose from {KINDS}")
    if m * n > MAX_OPERATOR_ENTRIES:
        raise ParameterError(
            f"a {m}x{n} operator has {m * n} entries, more than the "
            f"{MAX_OPERATOR_ENTRIES} a dense float64 matrix may hold"
        )
    holds, requirement = _SHAPE_RULES[kind]
    return None if holds(m, n) else f"{kind} requires {requirement}, got {m}x{n}"


def sample_operator(kind: str, m: int, n: int, seed: int) -> SensingOperator:
    """Draw a deterministic operator of the given ensemble.

    Gaussian entries are i.i.d. N(0, 1/m); orthonormal kinds come from the
    QR factorization of a Gaussian draw (R-diagonal signs fixed so the
    result is canonical). The shape must pass ``shape_violation``.
    """
    violation = shape_violation(kind, m, n)
    if violation:
        raise ParameterError(violation)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    mask = None
    if kind == ORTHONORMAL_SQUARE:
        a = _orthonormal_columns(rng, n, n)
    elif kind == TALL_ORTHONORMAL:
        a = _orthonormal_columns(rng, m, n)
    elif kind == FOURIER_MASKED:
        mask = _center_weighted_mask(rng, n, m // 2)
        a = _fourier_rows(n, mask)
    elif kind == IDENTITY:
        a = np.eye(n)
    else:  # GAUSSIAN_FAT, DENSE: i.i.d. Gaussian (DENSE is the square forward model)
        a = rng.standard_normal((m, n)) / math.sqrt(m)
    return SensingOperator(kind, m, n, seed, np.ascontiguousarray(a), mask=mask)


def fourier_from_keep(n: int, keep: float, seed: int) -> SensingOperator:
    """Masked-Fourier operator keeping roughly `keep * n` frequencies."""
    if not 0 < keep <= 1:
        raise ParameterError(f"keep fraction must be in (0, 1], got {keep}")
    kept = max(1, round(keep * n))
    return sample_operator(FOURIER_MASKED, 2 * kept, n, seed)


def _orthonormal_columns(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q * np.sign(np.diag(r))


def _center_weighted_mask(rng: np.random.Generator, n: int, kept: int) -> np.ndarray:
    """Frequency indices sampled without replacement, weighted toward DC."""
    freq_dist = np.minimum(np.arange(n), n - np.arange(n))
    weights = np.exp(-0.5 * (freq_dist / max(1.0, n / 8.0)) ** 2) + 1e-6
    idx = rng.choice(n, size=kept, replace=False, p=weights / weights.sum())
    return np.sort(idx)


def _fourier_rows(n: int, mask: np.ndarray) -> np.ndarray:
    """Real/imaginary parts of kept unitary-DFT rows, stacked as separate rows.

    Rows are rescaled by sqrt(n / kept) so a generic unit vector keeps unit
    energy on average; the adjoint is then the (scaled) zero-filled inverse
    DFT restricted to the kept coefficients.
    """
    t = np.arange(n)
    phases = -2.0 * np.pi * np.outer(mask, t) / n
    scale = math.sqrt(n / len(mask)) / math.sqrt(n)
    a = np.empty((2 * len(mask), n))
    a[0::2] = np.cos(phases) * scale
    a[1::2] = np.sin(phases) * scale
    return a


def apply(op: SensingOperator, x: np.ndarray, noise_sigma: float = 0.0,
          rng: np.random.Generator | None = None) -> np.ndarray:
    """y = A x + w with w ~ N(0, sigma^2) drawn from the caller's ``rng``,
    which noise_sigma > 0 requires."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (op.n,):
        raise DimensionError(f"apply expects length-{op.n} vector, got shape {x.shape}")
    if noise_sigma < 0:
        raise ParameterError(f"noise_sigma must be >= 0, got {noise_sigma}")
    if noise_sigma > 0 and rng is None:
        raise ParameterError("noise_sigma > 0 needs an rng to draw the noise from")
    y = op.matrix @ x
    if noise_sigma > 0:
        y = y + noise_sigma * rng.standard_normal(op.m)
    return y


EXACT_ENUMERATION = "exact_enumeration"
MONTE_CARLO = "monte_carlo"


@dataclass
class RipEstimate:
    """Isometry constant of order 2k: exact over all supports, or a sampled lower bound."""

    order: int
    delta: float
    method: str
    count: int

    @property
    def is_lower_bound(self) -> bool:
        return self.method == MONTE_CARLO


def estimate_rip(op: SensingOperator, k: int, method: str = EXACT_ENUMERATION,
                 budget: int = 10_000, seed: int = 0) -> RipEstimate:
    """Estimate delta_2k, the smallest c with (1-c)|z|^2 <= |Az|^2 <= (1+c)|z|^2
    over 2k-sparse z.

    Exact enumeration returns max |lambda - 1| over the eigenvalues of the
    Gram matrix G_S of every size-2k support S; it refuses (never silently
    falls back) when C(n, 2k) exceeds ENUMERATION_CAP. Supports are unranked
    in colex order (``_colex_supports``) in chunks holding about 1 MiB of
    gathered columns (at least one support). Each chunk forms all its Grams
    in one batched matmul (``_gram_stack``) and, from M_S = G_S - I, the
    Schatten-4 norm b_S = |M_S^2|_F^(1/2) = (sum lambda^4)^(1/4), which is at
    least the spectral norm max |lambda - 1|. ``eigvalsh`` runs first on the
    chunk's _RIP_SEEDS largest-b supports, then on every other support unless
    b_S + margin < delta, the running maximum; a nan bound is so never
    skipped.

    The result is bit for bit the unpruned scan's. Every Gram handed to
    ``eigvalsh`` is the array the unpruned scan builds, and ``eigvalsh``
    solves each matrix of a stack on its own. A skipped support's computed
    |lambda - 1| would exceed b_S by at most O(2k eps |G_S|) of rounding, and
    |G_S| <= 2k max_j |a_j|^2, so it stays below delta and the maximum does
    not move. The margin, 1e-9 max(1, max_j |a_j|^2), is absolute because
    that rounding is: on an isometry delta and b_S are both rounding noise
    (about 1e-15), and a relative margin would skip supports whose computed
    deviation is the maximum. Skipping never happens there, so isometries
    cost a full scan.

    A chunk holds its gathered columns, or its Grams with M_S and M_S^2, at
    one time, so peak memory stays a few MiB however many supports there
    are. ``count`` is C(n, 2k), the supports covered. Monte Carlo maxes
    |(|Az|^2 - 1)| over random unit 2k-sparse draws and is therefore a lower
    bound.
    """
    if k < 1:
        raise ParameterError(f"RIP needs k >= 1, got {k}")
    order = 2 * k
    if order > min(op.m, op.n):
        raise ParameterError(
            f"RIP order 2k={order} exceeds min(m, n)={min(op.m, op.n)}"
        )
    if method == EXACT_ENUMERATION:
        n_supports = math.comb(op.n, order)
        if n_supports > ENUMERATION_CAP:
            raise EnumerationCapExceeded(
                f"C({op.n}, {order}) = {n_supports} supports exceeds cap {ENUMERATION_CAP}; "
                "request monte_carlo explicitly instead"
            )
        columns = np.ascontiguousarray(op.matrix.T)
        per_chunk = max(1, _RIP_CHUNK_BYTES // (order * op.m * columns.itemsize))
        margin = 1e-9 * max(1.0, float(np.max(np.einsum("ij,ij->i", columns, columns))))
        delta = 0.0
        for supports in _colex_supports(op.n, order, per_chunk):
            grams = _gram_stack(columns, supports)
            bounds = _schatten4_deviation(grams)
            kth = max(bounds.size - _RIP_SEEDS, 0)
            seeds = np.argpartition(bounds, kth)[kth:]
            delta = _max_eig_deviation(grams[seeds], delta)
            rest = ~(bounds + margin < delta)
            rest[seeds] = False
            delta = _max_eig_deviation(grams[rest], delta)
        return RipEstimate(order=order, delta=delta, method=method, count=n_supports)
    if method == MONTE_CARLO:
        if budget < 1:
            raise ParameterError(f"monte_carlo budget must be >= 1, got {budget}")
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xB1,)))
        delta = 0.0
        for _ in range(budget):
            support = rng.choice(op.n, size=order, replace=False)
            z = rng.standard_normal(order)
            z /= np.linalg.norm(z)
            az = op.matrix[:, support] @ z
            delta = max(delta, abs(float(az @ az) - 1.0))
        return RipEstimate(order=order, delta=delta, method=method, count=budget)
    raise ParameterError(f"unknown RIP method {method!r}")


def _gram_stack(columns: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """One Gram matrix per row of ``supports``, whose entries index the rows of
    ``columns`` (A^T).

    The gathered (len, 2k, m) stack is local, so it is freed before the
    caller's eigvalsh runs and never overlaps the next chunk's.
    """
    sub_t = columns[supports]
    return sub_t @ sub_t.transpose(0, 2, 1)


def _schatten4_deviation(grams: np.ndarray) -> np.ndarray:
    """(sum_i (lambda_i - 1)^4)^(1/4) of each Gram of the stack: |M^2|_F^(1/2)
    with M = G - I, an upper bound on max_i |lambda_i - 1|."""
    # a bound that overflows is inf or nan, and either keeps its support
    with np.errstate(over="ignore", invalid="ignore"):
        dev = grams - np.eye(grams.shape[-1])
        sq = dev @ dev
        return np.sqrt(np.sqrt(np.einsum("sij,sij->s", sq, sq)))


def _max_eig_deviation(grams: np.ndarray, delta: float) -> float:
    """max(delta, max |lambda - 1| over the eigenvalues of every Gram of the stack)."""
    if not len(grams):
        return delta
    return max(delta, float(np.max(np.abs(np.linalg.eigvalsh(grams) - 1.0))))


def _colex_supports(n: int, order: int, per_chunk: int) -> Iterator[np.ndarray]:
    """Every size-``order`` subset of range(n) once, as (rows, order) arrays
    of increasing indices holding ``per_chunk`` rows (the last one may hold
    fewer).

    Row r is the subset of colex rank r, c_1 < ... < c_order with
    r = sum_i C(c_i, i): c_i is the largest c with C(c, i) <= the rank left
    after the positions above i, one ``searchsorted`` per position in a table
    of binomials, so no Python tuple is made per subset.
    """
    table = np.array([[math.comb(c, i) for c in range(n)] for i in range(order + 1)],
                     dtype=np.int64)
    total = math.comb(n, order)
    for start in range(0, total, per_chunk):
        ranks = np.arange(start, min(start + per_chunk, total), dtype=np.int64)
        rows = np.empty((ranks.size, order), dtype=np.intp)
        for i in range(order, 0, -1):
            col = np.searchsorted(table[i], ranks, side="right") - 1
            rows[:, i - 1] = col
            ranks -= table[i, col]
        yield rows

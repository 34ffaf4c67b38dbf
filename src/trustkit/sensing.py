"""Sensing operators and isometry-constant estimation.

``_KINDS`` is the one description of each operator kind: the shapes it has
members of, how a member is drawn, and its default m. ``KINDS`` lists its keys.
"""

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

ENUMERATION_CAP = 1_000_000

# Chunk size of the RIP estimates: as many supports as would have about 1 MiB
# of 2k x m column blocks between them, or Monte-Carlo rows of n float64 keys.
_RIP_CHUNK_BYTES = 1 << 20

# Largest-bound supports eigen-solved first per chunk: their delta rules out most of the rest.
_RIP_SEEDS = 32

# Largest m * n materialized (2 GiB of float64): admits the 16384 x 16384
# operator of a 128 px image and refuses the 32 GiB one of a 256 px image.
MAX_OPERATOR_ENTRIES = 2**28


@dataclass(frozen=True, eq=False)
class SensingOperator:
    """Linear map y = A x + w, materialized as a dense m x n matrix.

    Immutable: rebinding a field raises FrozenInstanceError, and ``matrix``
    and ``mask`` (the masked-Fourier kind's kept frequency indices) are made
    read-only, so writing into them raises ValueError. What the solvers
    derive from the matrix alone is therefore computed on first use and
    kept, the arrays read-only too: ``gram``, ``column_norms`` and
    ``lipschitz``. OMP reads the column norms and the Gram's rows;
    proximal gradient applies the Gram once per step and takes its step
    from the Lipschitz constant; the exact ``estimate_rip`` scan gathers
    every support's Gram from it.
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
        gram = self.matrix.T @ self.matrix
        gram.setflags(write=False)
        return gram

    @cached_property
    def column_norms(self) -> np.ndarray:
        """Euclidean column norms, with 1 standing in for a zero column."""
        # einsum squares no m x n temporary, as norm(axis=0) does
        norms = np.sqrt(np.einsum("ij,ij->j", self.matrix, self.matrix))
        norms = np.where(norms > 0, norms, 1.0)
        norms.setflags(write=False)
        return norms

    @cached_property
    def lipschitz(self) -> float:
        """sigma_max(A)^2, by ``solvers.lipschitz_constant`` on the Gram."""
        from . import solvers  # solvers imports this module

        return solvers.lipschitz_constant(self.matrix, gram=self.gram)


def _gaussian(rng: np.random.Generator, m: int, n: int) -> tuple[np.ndarray, None]:
    """i.i.d. N(0, 1/m) entries."""
    a = rng.standard_normal((m, n))
    a /= math.sqrt(m)  # in place: the same bytes as dividing, without a second m x n array
    return a, None


def _orthonormal(rng: np.random.Generator, m: int, n: int) -> tuple[np.ndarray, None]:
    """Orthonormal columns from the QR factorization of a Gaussian draw, the
    R-diagonal signs fixed so the result is canonical."""
    q, r = np.linalg.qr(rng.standard_normal((m, n)))
    return q * np.sign(np.diag(r)), None


def _masked_fourier(rng: np.random.Generator, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The real and imaginary parts, as separate rows, of the unitary-DFT rows
    of m // 2 frequencies sampled without replacement, weighted toward DC;
    and the sorted frequency indices.

    Rows are rescaled by sqrt(n / kept) so a generic unit vector keeps unit
    energy on average; the adjoint is then the (scaled) zero-filled inverse
    DFT restricted to the kept coefficients.
    """
    freq_dist = np.minimum(np.arange(n), n - np.arange(n))
    weights = np.exp(-0.5 * (freq_dist / max(1.0, n / 8.0)) ** 2) + 1e-6
    mask = np.sort(rng.choice(n, size=m // 2, replace=False, p=weights / weights.sum()))
    phases = -2.0 * np.pi * np.outer(mask, np.arange(n)) / n
    scale = math.sqrt(n / len(mask)) / math.sqrt(n)
    a = np.empty((m, n))
    a[0::2] = np.cos(phases) * scale
    a[1::2] = np.sin(phases) * scale
    return a, mask


# kind -> (predicate on m, n; the requirement it states; its draw (rng, m, n) -> (A, mask);
#          its default m on an n-pixel image; that rule as --help states it)
_KINDS = {
    DENSE: (lambda m, n: True, "any shape", _gaussian, lambda n: n, "n"),
    ORTHONORMAL_SQUARE: (lambda m, n: m == n, "m == n", _orthonormal, lambda n: n, "n"),
    TALL_ORTHONORMAL: (lambda m, n: m >= n, "m >= n", _orthonormal, lambda n: n, "n"),
    GAUSSIAN_FAT: (lambda m, n: m < n, "m < n", _gaussian, lambda n: n // 2, "n // 2"),
    FOURIER_MASKED: (lambda m, n: m % 2 == 0 and 0 < m <= 2 * n, "even m with 0 < m <= 2n",
                     _masked_fourier, lambda n: n // 2, "n // 2"),
    IDENTITY: (lambda m, n: m == n, "m == n", lambda rng, m, n: (np.eye(n), None),
               lambda n: n, "n"),
}
KINDS = tuple(_KINDS)
DEFAULT_M_RULES = {kind: entry[4] for kind, entry in _KINDS.items()}  # as --help states them


def _kind(kind: str) -> tuple:
    """The ``_KINDS`` entry of ``kind``; ParameterError for an unknown kind."""
    if kind not in _KINDS:
        raise ParameterError(f"unknown operator kind {kind!r}; choose from {KINDS}")
    return _KINDS[kind]


def default_m(kind: str, n: int) -> int:
    """The m of the kind's default operator on an n-pixel image."""
    return _kind(kind)[3](n)


def shape_violation(kind: str, m: int, n: int) -> str | None:
    """Why the ensemble ``kind`` has no m x n member, or None when it has one.

    Raises ParameterError for an unknown kind and for a matrix of more than
    MAX_OPERATOR_ENTRIES entries, so no caller allocates one.
    """
    holds, requirement = _kind(kind)[:2]
    if m * n > MAX_OPERATOR_ENTRIES:
        raise ParameterError(
            f"a {m}x{n} operator has {m * n} entries, more than the "
            f"{MAX_OPERATOR_ENTRIES} a dense float64 matrix may hold"
        )
    return None if holds(m, n) else f"{kind} requires {requirement}, got {m}x{n}"


def sample_operator(kind: str, m: int, n: int, seed: int) -> SensingOperator:
    """Draw a deterministic m x n operator of the ensemble ``kind``, by its
    draw in ``_KINDS``. The shape must pass ``shape_violation``."""
    violation = shape_violation(kind, m, n)
    if violation:
        raise ParameterError(violation)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    a, mask = _KINDS[kind][2](rng, m, n)
    return SensingOperator(kind, m, n, seed, np.ascontiguousarray(a), mask=mask)


def apply(op: SensingOperator, x: np.ndarray) -> np.ndarray:
    """y = A x of an n-vector, or of every row of an (N, n) stack; a broadcast
    matrix-vector product per row keeps each row's bits equal to ``A @ x``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != op.n:
        raise DimensionError(
            f"apply expects a length-{op.n} vector or an (N, {op.n}) stack, got shape {x.shape}")
    return (op.matrix @ x[..., None])[..., 0]


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
    Gram matrix G_S of every size-2k support S (of an isometry, the bound
    on it below); it refuses (never silently falls back) when C(n, 2k)
    exceeds ENUMERATION_CAP. G = A^T A is formed once (the operator's
    ``gram``), and each G_S is the gather G[S][:, S].
    Supports are unranked in colex order (``_colex_supports``) in chunks of
    as many supports as have about 1 MiB of columns between them (at least
    one). Each chunk gathers all its Grams at once and, from M_S = G_S - I,
    the Schatten-4 norm b_S = |M_S^2|_F^(1/2) = (sum lambda^4)^(1/4), which
    is at least the spectral norm max |lambda - 1|. ``eigvalsh`` runs first
    on the chunk's _RIP_SEEDS largest-b supports, then on every other
    support unless b_S + margin < delta, the running maximum; a nan bound is
    so never skipped.

    The margin is 1e-9 max(1, max_j |a_j|^2). It is absolute because
    rounding is: on an isometry every deviation is rounding noise (about
    1e-15), and a relative margin would skip supports whose computed
    deviation is the maximum.

    An isometry takes no scan. Before any support is unranked, one O(n^2)
    test asks whether |G - I|_F <= margin. When it holds, delta is
    max |lambda - 1| over the eigenvalues of G, from one n x n
    ``eigvalsh``, and no G_S is formed. By Cauchy's interlacing theorem
    every G_S has its eigenvalues in [lambda_min(G), lambda_max(G)], so
    this |G - I|_2 bounds every support's deviation at once. It is at most
    the margin, and within the margin of the full scan's delta, as both
    are rounding noise; at 2k = n the only support is G itself, and it is
    the full scan's delta bit for bit.

    A circulant Gram takes the scan over one support per orbit. Before the
    scan, tau = max |G_ij - G_0,(j-i) mod n| (``_circulance``) measures how
    far G is from circulant. A symmetric G within tau of circulant is within
    tau, entry by entry, of a symmetric circulant matrix C; C_S has the same
    spectrum for every rotation s -> s + r and reflection s -> r - s (mod n)
    of S, and |G_S - C_S|_2 <= 2k tau. When tau is rounding, at most
    ``_circulant_tolerance``, 16 (m + n) eps max |G| (a partial DFT's Gram
    reads at most 6), the scan runs only over the supports that represent
    their dihedral orbit (``_dihedral_supports``), about C(n, 2k) / 2n of
    them: 280 of 8008 at n = 16, 2k = 6. The chunks are the same, each cut
    down to its representatives. delta is then the maximum over the
    representatives: never above the full scan's, and below it by at most
    2 * 2k tau, eigensolver rounding aside. On the ``fourier_masked`` cells
    at n = 16 (m 8-24, k 1-3) the gap is at most 2k tau, and 5.8e-15.
    ``count`` stays C(n, 2k). Every other operator takes the full scan.

    Either scan's delta is bit for bit the unpruned scan's over the same
    supports, as ``eigvalsh`` solves each matrix of a stack on its own.
    A skipped support's computed |lambda - 1| would exceed b_S by at most
    O(2k eps |G_S|) of rounding, and |G_S| <= 2k max_j |a_j|^2, so it stays
    below delta and the maximum does not move.

    Beside the n x n Gram, a chunk holds its Grams with M_S and M_S^2, so
    peak memory stays a few MiB however many supports there are. ``count``
    is C(n, 2k), the supports covered.

    Monte Carlo draws ``budget`` unit 2k-sparse rows z (``unit_ksparse_rows``)
    in blocks of as many rows as have about 1 MiB of keys, maps each block
    through A in one product and returns max |(|Az|^2 - 1)| over them all, a
    lower bound. A budget of one block is one ``unit_ksparse_rows`` draw.
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
        gram = op.gram
        margin = 1e-9 * max(1.0, float(np.max(np.diagonal(gram))))
        if np.linalg.norm(gram - np.eye(op.n)) <= margin:  # an isometry; a nan norm is not
            return RipEstimate(order=order, delta=_max_eig_deviation(gram[None], 0.0),
                               method=method, count=n_supports)
        per_chunk = max(1, _RIP_CHUNK_BYTES // (order * op.m * gram.itemsize))
        circulant = _circulance(gram) <= _circulant_tolerance(op.m, gram)
        chunks = (_dihedral_supports if circulant else _colex_supports)(op.n, order, per_chunk)
        delta = 0.0
        for supports in chunks:
            grams = gram[supports[:, :, None], supports[:, None, :]]
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
        per_chunk = max(1, _RIP_CHUNK_BYTES // (op.n * 8))
        delta = -np.inf
        for start in range(0, budget, per_chunk):
            az = unit_ksparse_rows(rng, min(per_chunk, budget - start), op.n, order) @ op.matrix.T
            # np.maximum, unlike max, keeps a nan deviation
            delta = np.maximum(delta, np.max(np.abs(np.einsum("ij,ij->i", az, az) - 1.0)))
        return RipEstimate(order=order, delta=float(delta), method=method, count=budget)
    raise ParameterError(f"unknown RIP method {method!r}")


def unit_ksparse_rows(rng: np.random.Generator, count: int, n: int, k: int) -> np.ndarray:
    """``count`` unit-norm k-sparse rows of length n, drawn as one block.

    All count x n keys come from one ``rng.random`` call, then all count x k
    values from one ``rng.standard_normal`` call. Row i's support is the
    indices of its k smallest keys, so every k-subset of range(n) is equally
    likely; value j of row i lands on the support's j-th smallest index,
    and the row is scaled to unit norm. k = 0 gives zero rows; k > n raises
    ParameterError.
    """
    if not 0 <= k <= n:
        raise ParameterError(f"a k-sparse row of length {n} needs 0 <= k <= {n}, got k={k}")
    keys = rng.random((count, n))
    vals = rng.standard_normal((count, k))
    # sorted, the supports do not depend on the order argpartition leaves them in
    # (k = 0 partitions at the last key and keeps none)
    supports = np.sort(np.argpartition(keys, k - 1)[:, :k])
    rows = np.zeros((count, n))
    norms = np.sqrt(row_dots(vals, vals))
    np.put_along_axis(rows, supports, vals / norms[:, None], axis=1)
    return rows


def row_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u_t^T v_t for every row t, each by the same dot routine as ``u[t] @ v[t]``."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


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


def _binomials(n: int, order: int) -> np.ndarray:
    """The (order + 1) x n table of C(c, i) at row i and column c."""
    return np.array([[math.comb(c, i) for c in range(n)] for i in range(order + 1)],
                    dtype=np.int64)


def _circulance(gram: np.ndarray) -> float:
    """tau = max |G_ij - G_0,(j-i) mod n|, how far G is from the circulant
    matrix of its first row; nan when G holds a nan."""
    n = len(gram)
    first = gram[0]
    # row i of that circulant is the first row turned right by i: a strided view
    turned = np.lib.stride_tricks.sliding_window_view(np.concatenate([first, first]), n)[n:0:-1]
    with np.errstate(invalid="ignore"):
        return float(np.max(np.abs(gram - turned)))


def _circulant_tolerance(m: int, gram: np.ndarray) -> float:
    """16 (m + n) eps max |G|: the largest ``_circulance`` of the n x n
    circulant Gram of an m-row operator as floating point rounds it. Each
    entry is a dot product of m terms, rounded by up to about m eps max |G|;
    and the phases 2 pi f j / n of a sampled DFT row reach 2 pi n, so its
    cosines and sines carry about n eps of rounding. ``fourier_masked``
    operators read at most 6 (m + n) eps max |G| at n <= 512. Relative to
    max |G|, so a Gram scaled down is no nearer circulant than before."""
    return 16.0 * (m + len(gram)) * np.finfo(gram.dtype).eps * float(np.max(np.abs(gram)))


def _dihedral_supports(n: int, order: int, per_chunk: int) -> Iterator[np.ndarray]:
    """Each chunk of ``_colex_supports(n, order, per_chunk)`` cut down to the
    supports that represent their orbit under the dihedral group of range(n),
    the rotations s -> s + r and reflections s -> r - s (mod n); a chunk left
    with none is dropped. Every orbit is covered exactly once.

    Every orbit has supports holding 0. Such a support is its gap sequence
    g_i = s_(i+1) - s_i, with g_last = n - s_last, and the gaps sum to n:
    rotating the support to put another member at 0 turns g, and reflecting
    it reverses g. So an orbit's supports holding 0 are the rotations of g
    and of g reversed, and the representative is the one whose gaps are
    lexicographically least among them. The comparison is of gaps, one
    position at a time, so it holds for any n. Only the C(n-1, order-1)
    supports holding 0 are unranked, as 0 and ``_colex_supports(n - 1,
    order - 1)`` shifted by one, in blocks of as many as have about 1 MiB of
    gap images between them; their colex ranks place the representatives in
    their chunks.
    """
    dtype = np.min_scalar_type(-n)  # holds every gap and every difference of two
    shifts = np.arange(order)
    turns = (shifts[:, None] + shifts) % order
    images = np.concatenate([turns, turns[:, ::-1]])  # the rotations of g and of g reversed
    block = max(1, _RIP_CHUNK_BYTES // (images.size * dtype.itemsize))
    kept = []
    for rest in _colex_supports(n - 1, order - 1, block):
        members = np.ascontiguousarray(rest.T) + 1  # each support's members after 0, by position
        gaps = np.empty((order, members.shape[1]), dtype)
        gaps[0] = members[0]
        gaps[1:-1] = members[1:] - members[:-1]
        gaps[-1] = n - members[-1]
        # the least image starts at a smallest gap
        candidates = np.flatnonzero(gaps[0] == gaps.min(axis=0))
        gaps = gaps[:, candidates]
        diff = gaps[images] - gaps  # (image, position, candidate)
        tied = diff == 0
        for p in range(1, order):
            tied[:, p] &= tied[:, p - 1]  # the image equals g up to position p
        below = diff < 0
        below[:, 1:] &= tied[:, :-1]  # the image first differs from g at p, and is less
        kept.append(members[:, candidates[~below.any(axis=(0, 1))]])
    members = np.concatenate(kept, axis=1)
    ranks = _binomials(n, order)[np.arange(2, order + 1)[:, None], members].sum(axis=0)
    supports = np.zeros((members.shape[1], order), dtype=np.intp)
    supports[:, 1:] = members.T
    starts = np.arange(per_chunk, math.comb(n, order), per_chunk)
    yield from (chunk for chunk in np.split(supports, np.searchsorted(ranks, starts)) if len(chunk))


def _colex_supports(n: int, order: int, per_chunk: int) -> Iterator[np.ndarray]:
    """Every size-``order`` subset of range(n) once, as (rows, order) arrays
    of increasing indices holding ``per_chunk`` rows (the last one may hold
    fewer).

    Row r is the subset of colex rank r, c_1 < ... < c_order with
    r = sum_i C(c_i, i): c_i is the largest c with C(c, i) <= the rank left
    after the positions above i, one ``searchsorted`` per position in a table
    of binomials, so no Python tuple is made per subset.
    """
    table = _binomials(n, order)
    total = math.comb(n, order)
    for start in range(0, total, per_chunk):
        ranks = np.arange(start, min(start + per_chunk, total), dtype=np.int64)
        rows = np.empty((ranks.size, order), dtype=np.intp)
        for i in range(order, 0, -1):
            col = np.searchsorted(table[i], ranks, side="right") - 1
            rows[:, i - 1] = col
            ranks -= table[i, col]
        yield rows

"""Classical sparse recovery: greedy pursuit, proximal-gradient descent with
and without momentum, and least-squares estimation of an unknown operator
from observation-target pairs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import sensing
from .errors import DimensionError, ParameterError, SingularMatrixError, check_finite, check_ints

# Relative size below which a Gram-Schmidt remainder, an R diagonal or a
# singular value counts as zero: sqrt(float64 eps), so a column that only
# rounding error separates from the span of the others adds no rank.
_RANK_TOL = math.sqrt(np.finfo(np.float64).eps)

# Lanczos for the Lipschitz constant: the Ritz residual bound, relative to
# the top Ritz value, that stops it, and the seed of its start vector.
_LANCZOS_TOL = 1e-12
_LANCZOS_SEED = 0


@dataclass
class SolverConfig:
    max_iterations: int = 500
    residual_tolerance: float = 1e-6
    sparsity_budget: int = 0           # greedy atom budget; 0 -> max(1, n // 4)
    lam: float | None = None           # l1 weight; None -> 0.05 * |A^T y|_inf

    def __post_init__(self):
        check_ints(self, {"max_iterations": 0, "sparsity_budget": 0})
        check_finite(self, ("residual_tolerance",) if self.lam is None
                     else ("residual_tolerance", "lam"))


@dataclass
class RecoveryResult:
    x_hat: np.ndarray
    support: np.ndarray
    residual_norm_history: list[float]
    iterations_used: int
    converged: bool
    rank_deficient: bool = False
    objective_history: list[float] = field(default_factory=list)


def omp(op: sensing.SensingOperator, y: np.ndarray,
        config: SolverConfig | None = None) -> RecoveryResult:
    """Orthogonal matching pursuit.

    Selection correlates the residual against column-normalized atoms
    (ties broken toward the lowest index). Each chosen atom is
    orthogonalized against an orthonormal basis of the earlier ones by
    classical Gram-Schmidt run twice, and the residual loses its component
    along the new basis vector; an atom already in the span of the basis
    stays in the support but adds no vector. Stops at the sparsity budget
    or when the residual norm drops to the configured tolerance, then fits
    the coefficients on the original, unnormalized columns once.

    The loop has already factored the support as A_S = Q R: column j of the
    upper-triangular R holds the atom's two Gram-Schmidt coefficients
    summed and, on the diagonal, the norm of its remainder, and Q^T y holds
    the residual's component along each basis vector. The fit then solves
    R x_S = Q^T y with ``np.linalg.solve``; R is triangular, so its
    partial pivoting swaps no rows. When an atom added no vector, or an R
    diagonal is at most ``_RANK_TOL`` times the largest (or 1), the support
    is rank deficient: the fit is the minimum-norm least-squares solution
    and the result says so.

    The correlations A^T r start from A^T y, the only product with the
    whole of A^T, and follow the residual by rank-one updates (Batch-OMP,
    Rubinstein, Zibulevsky & Elad 2008): the new basis vector's row A^T q
    is the operator's Gram row of the atom minus the stored rows of the
    earlier basis vectors, weighted by the same two Gram-Schmidt
    coefficients, so a step costs O((m + n) k) instead of O(m n).
    """
    config = config or SolverConfig()
    a = op.matrix
    y = np.asarray(y, dtype=np.float64)
    col_norms = op.column_norms

    support: list[int] = []
    residual = y.copy()
    history: list[float] = []
    budget = min(config.sparsity_budget or max(1, op.n // 4), op.n, config.max_iterations)

    if float(np.linalg.norm(residual)) <= config.residual_tolerance:
        return RecoveryResult(np.zeros(op.n), np.array(support, dtype=np.intp), history, 0, True)

    gram = op.gram
    corr = a.T @ y                        # A^T residual
    basis = np.empty((budget, op.m))      # rows [:rank] are orthonormal
    basis_corr = np.empty((budget, op.n))  # row i is A^T basis[i]
    r_factor = np.zeros((budget, budget))  # upper triangular, A_S = basis[:rank].T @ R
    qty = np.empty(budget)                 # entry i is basis[i] @ y
    rank = 0
    converged = False
    for _ in range(budget):
        score = np.abs(corr) / col_norms
        score[support] = -np.inf  # never reselect an atom
        pick = int(np.argmax(score))
        support.append(pick)
        atom, done = a[:, pick], basis[:rank]
        first = done @ atom
        q = atom - done.T @ first
        second = done @ q
        q -= done.T @ second  # the second pass restores orthogonality lost to rounding
        q_norm = float(np.linalg.norm(q))
        if q_norm > _RANK_TOL * col_norms[pick]:
            q /= q_norm
            basis[rank] = q
            coeffs = first + second
            q_corr = basis_corr[rank]
            np.subtract(gram[pick], coeffs @ basis_corr[:rank], out=q_corr)
            q_corr /= q_norm
            r_factor[:rank, rank] = coeffs
            r_factor[rank, rank] = q_norm
            along = float(q @ residual)
            qty[rank] = along
            rank += 1
            residual -= q * along
            corr -= q_corr * along
        history.append(float(np.linalg.norm(residual)))
        if history[-1] <= config.residual_tolerance:
            converged = True
            break

    x_hat = np.zeros(op.n)
    rank_deficient = False
    if support:
        diag = np.diag(r_factor)[:rank]  # remainder norms, all >= 0
        rank_deficient = rank < len(support) or \
            bool(diag.min() <= _RANK_TOL * max(1.0, diag.max()))
        if rank_deficient:
            coef, *_ = np.linalg.lstsq(a[:, support], y, rcond=_RANK_TOL)
        else:
            coef = np.linalg.solve(r_factor[:rank, :rank], qty[:rank])
        x_hat[support] = coef
    order = np.argsort(support)
    return RecoveryResult(
        x_hat=x_hat,
        support=np.array(support, dtype=np.intp)[order],
        residual_norm_history=history,
        iterations_used=len(history),
        converged=converged,
        rank_deficient=rank_deficient,
    )


def shrink(v: np.ndarray, t: float) -> np.ndarray:
    """Soft threshold sign(v) * max(|v| - t, 0), the l1 proximal map."""
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def lipschitz_constant(a: np.ndarray, gram: np.ndarray | None = None) -> float:
    """sigma_max(A)^2, the largest eigenvalue of A^T A, by Lanczos
    (Kuczynski & Wozniakowski 1992). Pass ``gram`` when A^T A is already
    formed.

    Each step applies the Gram matrix once and orthogonalizes the new
    vector against every earlier Lanczos vector, twice. It stops when the
    top Ritz value theta's residual bound beta |s_k| is at most
    ``_LANCZOS_TOL`` times theta, where s_k is the last entry of theta's
    eigenvector of the k x k tridiagonal T_k, or after n steps, when the
    Krylov space is all of R^n. ``np.linalg.eigh`` of the dense T_k gives
    theta and s_k; that check runs at step 8, then every max(8, k // 8)
    steps, so the eigensolves cost a bounded multiple of the last one.
    It also runs as soon as beta is at most ``_LANCZOS_TOL`` times T_k's
    largest diagonal entry: theta is at least that entry and |s_k| at
    most 1, so the test holds there, breakdown (beta = 0, an invariant
    subspace) included. A zero matrix gives 1e-300, so that 1 / L stays
    finite.
    """
    if gram is None:
        gram = a.T @ a
    n = a.shape[1]
    v = np.random.default_rng(_LANCZOS_SEED).standard_normal(n)
    v /= np.linalg.norm(v)
    vectors = np.empty((n, n))  # rows [:k] are the Lanczos vectors
    diag, off = np.empty(n), np.empty(n)  # the tridiagonal T = V^T (A^T A) V
    check = 8
    for k in range(1, n + 1):
        vectors[k - 1] = v
        w = gram @ v
        diag[k - 1] = v @ w
        done = vectors[:k]
        w -= done.T @ (done @ w)
        w -= done.T @ (done @ w)
        beta = float(np.linalg.norm(w))
        if k in (check, n) or beta <= _LANCZOS_TOL * diag[:k].max():
            # eigh reads the lower triangle: the diagonal and the subdiagonal
            ritz, ritz_vecs = np.linalg.eigh(np.diag(diag[:k]) + np.diag(off[:k - 1], -1))
            top = float(ritz[-1])
            if beta * abs(ritz_vecs[k - 1, -1]) <= _LANCZOS_TOL * top:
                break
            check = k + max(8, k // 8)
        off[k - 1] = beta
        v = w / beta
    return max(top, 1e-300)


def _proximal_gradient(op: sensing.SensingOperator, y: np.ndarray,
                       config: SolverConfig | None, momentum: bool) -> RecoveryResult:
    """Proximal gradient on 0.5|Ax - y|^2 + lambda |x|_1 at step 1/L.

    Each step shrinks a gradient step taken from z. Without momentum z is
    the last iterate; with it z extrapolates along the last move by
    (t_j - 1) / t_{j+1}, where t_1 = 1 and t_{j+1} = (1 + sqrt(1 + 4 t_j^2)) / 2
    (Beck & Teboulle 2009).

    A^T y is the only product with A. The loop carries G x for the operator's
    Gram G = A^T A, so a step applies G once, to the new iterate: G z is the
    same momentum combination of G x_{j+1} and G x_j, and the residual norm
    comes from |Ax - y|^2 = x.Gx - 2 x.A^T y + y.y, clamped at 0. Its
    rounding error is about eps |y|^2, so a residual norm near zero is
    accurate to about sqrt(eps) |y|.
    """
    config = config or SolverConfig()
    a = op.matrix
    y = np.asarray(y, dtype=np.float64)
    aty = a.T @ y
    yty = float(y @ y)
    lam = config.lam if config.lam is not None else 0.05 * float(np.max(np.abs(aty)))
    step = 1.0 / op.lipschitz
    gram = op.gram
    x, gx = np.zeros(op.n), np.zeros(op.n)
    z, gz = x, gx
    t = 1.0
    history, objectives = [], []
    prev_obj = 0.5 * yty
    converged = False
    for _ in range(config.max_iterations):
        x_next = shrink(z - step * (gz - aty), lam * step)
        gx_next = gram @ x_next
        if momentum:
            t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
            weight = (t - 1.0) / t_next
            z = x_next + weight * (x_next - x)
            gz = gx_next + weight * (gx_next - gx)
            t = t_next
        else:
            z, gz = x_next, gx_next
        x, gx = x_next, gx_next
        residual_sq = max(float(x @ gx) - 2.0 * float(x @ aty) + yty, 0.0)
        obj = 0.5 * residual_sq + lam * float(np.sum(np.abs(x)))
        history.append(math.sqrt(residual_sq))
        objectives.append(obj)
        if config.residual_tolerance > 0 and \
                abs(prev_obj - obj) <= config.residual_tolerance * max(1.0, abs(obj)):
            converged = True
            break
        prev_obj = obj
    return RecoveryResult(
        x_hat=x,
        support=np.flatnonzero(x).astype(np.intp),
        residual_norm_history=history,
        iterations_used=len(history),
        converged=converged,
        objective_history=objectives,
    )


def ista(op: sensing.SensingOperator, y: np.ndarray,
         config: SolverConfig | None = None) -> RecoveryResult:
    """Proximal gradient on 0.5|Ax - y|^2 + lambda |x|_1, without momentum."""
    return _proximal_gradient(op, y, config, momentum=False)


def fista(op: sensing.SensingOperator, y: np.ndarray,
          config: SolverConfig | None = None) -> RecoveryResult:
    """Proximal gradient on 0.5|Ax - y|^2 + lambda |x|_1, with momentum."""
    return _proximal_gradient(op, y, config, momentum=True)


def estimate_operator(xs: np.ndarray, ys: np.ndarray,
                      ridge: float | None = None) -> sensing.SensingOperator:
    """Ridge least-squares fit of the map x -> y over the rows of the (N, n)
    target stack ``xs`` and the (N, m) measurement stack ``ys``.

    Solves (X X^T + ridge I) A^T = X Y^T with ``np.linalg.solve``, once a
    Cholesky factorization has shown the left side positive definite; ridge
    defaults to 1e-6 * trace(X X^T) / n to stabilize small sample counts.
    With fewer pairs than target entries (N < n) it solves the N x N
    system of the same solution, A^T = X (X^T X + ridge I)^{-1} Y^T: it is
    smaller, and better conditioned. Pass ridge=0 to demand an exactly
    determined system (singular X X^T, N < n included, then raises).
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.ndim != 2 or ys.ndim != 2 or len(xs) != len(ys):
        raise DimensionError(
            f"estimate_operator needs (N, n) and (N, m) stacks, got {xs.shape} and {ys.shape}"
        )
    if not len(xs):
        raise ParameterError("estimate_operator needs at least one pair")
    # one column per pair
    xs, ys = np.ascontiguousarray(xs.T), np.ascontiguousarray(ys.T)
    n, pairs = xs.shape
    few = pairs < n  # X X^T then has rank at most N < n
    system = xs.T @ xs if few else xs @ xs.T  # the trace is the same either way
    if ridge is None:
        ridge = 1e-6 * float(np.trace(system)) / n
    if ridge < 0:
        raise ParameterError(f"ridge must be >= 0, got {ridge}")
    system = system + ridge * np.eye(len(system))
    if ridge == 0:
        eigs = np.linalg.eigvalsh(system)
        if few or eigs[0] <= 1e-12 * max(eigs[-1], 1e-300):
            raise SingularMatrixError(
                "X X^T is singular with ridge=0; add ridge or more pairs"
            )
    try:
        np.linalg.cholesky(system)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            f"X X^T is singular with ridge={ridge}; add ridge or more pairs"
        ) from exc
    at = xs @ np.linalg.solve(system, ys.T) if few else np.linalg.solve(system, xs @ ys.T)
    matrix = np.ascontiguousarray(at.T)
    return sensing.SensingOperator(
        kind=sensing.DENSE, m=ys.shape[0], n=n, seed=0, matrix=matrix
    )

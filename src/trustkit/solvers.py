"""Classical sparse recovery: greedy pursuit, proximal-gradient descent with
and without momentum, and least-squares estimation of an unknown operator
from observation-target pairs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import sensing
from .errors import DimensionError, ParameterError, SingularMatrixError

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
    max_iterations: int = 1000
    residual_tolerance: float = 1e-6
    sparsity_budget: int = 10          # greedy atom budget
    lam: float | None = None           # l1 weight; None -> 0.05 * |A^T y|_inf

    def __post_init__(self):
        if self.residual_tolerance < 0:
            raise ParameterError("residual_tolerance must be >= 0")
        if self.lam is not None and self.lam < 0:
            raise ParameterError("lambda must be >= 0")
        if self.sparsity_budget < 1:
            raise ParameterError("sparsity_budget must be >= 1")


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
    the residual's component along each basis vector. The fit is then one
    back substitution R x_S = Q^T y. When an atom added no vector, or an R
    diagonal is at most ``_RANK_TOL`` times the largest (or 1), the support
    is rank deficient: the fit is the minimum-norm least-squares solution
    and the result says so.

    The correlations A^T r start from A^T y, the only product with the
    whole of A^T, and follow the residual by rank-one updates (Batch-OMP,
    Rubinstein, Zibulevsky & Elad 2008): the new basis vector's row A^T q
    is the plan's Gram row of the atom minus the stored rows of the earlier
    basis vectors, weighted by the same two Gram-Schmidt coefficients, so a
    step costs O((m + n) k) instead of O(m n).
    """
    config = config or SolverConfig()
    a = op.matrix
    y = np.asarray(y, dtype=np.float64)
    plan = solver_plan(op)
    col_norms = plan.column_norms

    support: list[int] = []
    residual = y.copy()
    history: list[float] = []
    budget = min(config.sparsity_budget, op.n, config.max_iterations)

    if float(np.linalg.norm(residual)) <= config.residual_tolerance:
        return RecoveryResult(np.zeros(op.n), np.array(support, dtype=np.intp), history, 0, True)

    gram = plan.gram
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
            diag.min() <= _RANK_TOL * max(1.0, diag.max())
        if rank_deficient:
            coef, *_ = np.linalg.lstsq(a[:, support], y, rcond=_RANK_TOL)
        else:
            from scipy.linalg import solve_triangular  # scipy loads only when a solve needs it
            coef = solve_triangular(r_factor[:rank, :rank], qty[:rank], lower=False)
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
    top Ritz value's residual bound beta |s_last| is at most
    ``_LANCZOS_TOL`` times that value, which also covers breakdown
    (beta = 0, an invariant subspace), or after n steps, when the Krylov
    space is all of R^n. A zero matrix gives 1e-300, so that 1 / L stays
    finite.
    """
    from scipy.linalg.lapack import dstemr  # scipy loads only when a solve needs it

    if gram is None:
        gram = a.T @ a
    n = a.shape[1]
    v = np.random.default_rng(_LANCZOS_SEED).standard_normal(n)
    v /= np.linalg.norm(v)
    vectors = np.empty((n, n))  # rows [:k] are the Lanczos vectors
    diag, off = np.empty(n), np.zeros(n)  # the tridiagonal T = V^T (A^T A) V
    top = 0.0
    for k in range(1, n + 1):
        vectors[k - 1] = v
        w = gram @ v
        diag[k - 1] = v @ w
        done = vectors[:k]
        w -= done.T @ (done @ w)
        w -= done.T @ (done @ w)
        beta = float(np.linalg.norm(w))
        # the top eigenpair of the leading k x k block of T: range 2 selects
        # eigenvalues k..k by index; the off-diagonal argument has length k,
        # its last entry is workspace, and dstemr overwrites it
        _, ritz, ritz_vecs, info = dstemr(diag[:k], off[:k].copy(), 2, 0.0, 0.0, k, k)
        if info:
            raise np.linalg.LinAlgError(f"dstemr failed on the Lanczos matrix (info={info})")
        top = float(ritz[0])
        if beta * abs(ritz_vecs[k - 1, 0]) <= _LANCZOS_TOL * top:
            break
        off[k - 1] = beta
        v = w / beta
    return max(top, 1e-300)


class SolverPlan:
    """What every solve on one operator matrix shares, each part built on
    first use. Both solvers read the Gram matrix: OMP takes its rows to
    keep the correlations current and also reads the column norms, proximal
    gradient applies it once per step, for the gradient and the residual
    norm alike, and runs Lanczos on it for the Lipschitz constant. Neither
    multiplies by the whole of A after A^T y."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix

    @cached_property
    def gram(self) -> np.ndarray:
        return self.matrix.T @ self.matrix

    @cached_property
    def lipschitz(self) -> float:
        return lipschitz_constant(self.matrix, gram=self.gram)

    @cached_property
    def column_norms(self) -> np.ndarray:
        """Euclidean column norms, with 1 standing in for a zero column."""
        norms = np.linalg.norm(self.matrix, axis=0)
        return np.where(norms > 0, norms, 1.0)


def solver_plan(op: sensing.SensingOperator) -> SolverPlan:
    """The plan kept on ``op``, rebuilt when ``op.matrix`` is another array.

    Operators are immutable, so writing into ``op.matrix`` in place after a
    solve is not detected.
    """
    if op.solver_plan is None or op.solver_plan.matrix is not op.matrix:
        op.solver_plan = SolverPlan(op.matrix)
    return op.solver_plan


def _proximal_gradient(op: sensing.SensingOperator, y: np.ndarray,
                       config: SolverConfig | None, momentum: bool) -> RecoveryResult:
    """Proximal gradient on 0.5|Ax - y|^2 + lambda |x|_1 at step 1/L.

    Each step shrinks a gradient step taken from z. Without momentum z is
    the last iterate; with it z extrapolates along the last move by
    (t_j - 1) / t_{j+1}, where t_1 = 1 and t_{j+1} = (1 + sqrt(1 + 4 t_j^2)) / 2
    (Beck & Teboulle 2009).

    A^T y is the only product with A. The loop carries G x for the plan's
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
    plan = solver_plan(op)
    step = 1.0 / plan.lipschitz
    gram = plan.gram
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

    Solves A = Y X^T (X X^T + ridge I)^{-1} via Cholesky; ridge defaults to
    1e-6 * trace(X X^T) / n to stabilize small sample counts. Pass ridge=0
    to demand an exactly determined system (singular X X^T then raises).
    """
    from scipy.linalg import solve_triangular  # scipy loads only when a solve needs it

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
    n = xs.shape[0]
    if ridge is None:
        ridge = 1e-6 * float(np.trace(xs @ xs.T)) / n
    if ridge < 0:
        raise ParameterError(f"ridge must be >= 0, got {ridge}")
    gram = xs @ xs.T + ridge * np.eye(n)
    if ridge == 0:
        eigs = np.linalg.eigvalsh(gram)
        if eigs[0] <= 1e-12 * max(eigs[-1], 1e-300):
            raise SingularMatrixError(
                "X X^T is singular with ridge=0; add ridge or more pairs"
            )
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            f"X X^T is singular with ridge={ridge}; add ridge or more pairs"
        ) from exc
    # A^T solves (X X^T + ridge I) A^T = X Y^T
    rhs = xs @ ys.T
    half = solve_triangular(chol, rhs, lower=True)
    at = solve_triangular(chol.T, half, lower=False)
    matrix = np.ascontiguousarray(at.T)
    return sensing.SensingOperator(
        kind=sensing.DENSE, m=ys.shape[0], n=n, seed=0, matrix=matrix
    )

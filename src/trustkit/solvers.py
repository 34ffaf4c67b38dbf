"""Classical sparse recovery: greedy pursuit, proximal-gradient descent with
and without momentum, and least-squares estimation of an unknown operator
from observation-target pairs."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import solve_triangular

from . import sensing
from .errors import ParameterError, SingularMatrixError


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

    def to_json(self) -> str:
        return json.dumps(
            {
                "support": [int(i) for i in self.support],
                "iterations": self.iterations_used,
                "converged": self.converged,
                "final_residual": self.residual_norm_history[-1]
                if self.residual_norm_history
                else 0.0,
                "rank_deficient": self.rank_deficient,
            },
            sort_keys=True,
        )

    def save(self, path: str | Path) -> None:
        """JSON summary next to a raw little-endian f64 blob of the estimate."""
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        path.with_suffix(".x.bin").write_bytes(
            np.ascontiguousarray(self.x_hat, dtype="<f8").tobytes()
        )


def _ls_on_support(a: np.ndarray, y: np.ndarray, support: list[int]):
    """Least squares restricted to the chosen columns, by Householder QR.

    Falls back to the minimum-norm pseudo-solution when the selected
    submatrix is rank deficient; the caller surfaces that flag.
    """
    sub = a[:, support]
    q, r = np.linalg.qr(sub)
    diag = np.abs(np.diag(r))
    if diag.min() <= 1e-12 * max(1.0, diag.max()):
        coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
        return coef, True
    coef = solve_triangular(r, q.T @ y, lower=False)
    return coef, False


def omp(op: sensing.SensingOperator, y: np.ndarray,
        config: SolverConfig | None = None) -> RecoveryResult:
    """Orthogonal matching pursuit.

    Selection correlates the residual against column-normalized atoms
    (ties broken toward the lowest index); the refit each round uses the
    original, unnormalized columns. Stops at the sparsity budget or when
    the residual norm drops to the configured tolerance.
    """
    config = config or SolverConfig()
    a = op.matrix
    y = np.asarray(y, dtype=np.float64)
    col_norms = np.linalg.norm(a, axis=0)
    col_norms = np.where(col_norms > 0, col_norms, 1.0)

    support: list[int] = []
    x_hat = np.zeros(op.n)
    residual = y.copy()
    history: list[float] = []
    rank_deficient = False
    budget = min(config.sparsity_budget, op.n, config.max_iterations)

    if float(np.linalg.norm(residual)) <= config.residual_tolerance:
        return RecoveryResult(x_hat, np.array(support, dtype=np.intp), history, 0, True)

    converged = False
    for _ in range(budget):
        corr = np.abs(a.T @ residual) / col_norms
        corr[support] = -np.inf  # never reselect an atom
        pick = int(np.argmax(corr))
        support.append(pick)
        coef, deficient = _ls_on_support(a, y, support)
        rank_deficient = rank_deficient or deficient
        residual = y - a[:, support] @ coef
        history.append(float(np.linalg.norm(residual)))
        if history[-1] <= config.residual_tolerance:
            converged = True
            break

    x_hat = np.zeros(op.n)
    if support:
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


def lipschitz_constant(a: np.ndarray, tol: float = 1e-10, max_iter: int = 1000,
                       seed: int = 0) -> float:
    """sigma_max(A)^2 by power iteration on A^T A, with perturbation restart
    if an unlucky start collapses."""
    gram = a.T @ a
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(a.shape[1])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = gram @ v
        nw = np.linalg.norm(w)
        if nw <= 1e-300:
            v = rng.standard_normal(a.shape[1])
            v /= np.linalg.norm(v)
            continue
        v = w / nw
        new_lam = float(v @ (gram @ v))
        if abs(new_lam - lam) <= tol * max(1.0, abs(new_lam)):
            return max(new_lam, 1e-300)
        lam = new_lam
    return max(lam, 1e-300)


def _default_lam(a: np.ndarray, y: np.ndarray) -> float:
    return 0.05 * float(np.max(np.abs(a.T @ y)))


def _objective(a, y, x, lam) -> float:
    r = a @ x - y
    return 0.5 * float(r @ r) + lam * float(np.sum(np.abs(x)))


def _proximal_gradient(op: sensing.SensingOperator, y: np.ndarray,
                       config: SolverConfig | None, momentum: bool) -> RecoveryResult:
    """Proximal gradient on 0.5|Ax - y|^2 + lambda |x|_1 at step 1/L.

    Each step shrinks a gradient step taken from z. Without momentum z is
    the last iterate; with it z extrapolates along the last move by
    (t_j - 1) / t_{j+1}, where t_1 = 1 and t_{j+1} = (1 + sqrt(1 + 4 t_j^2)) / 2
    (Beck & Teboulle 2009).
    """
    config = config or SolverConfig()
    a = op.matrix
    y = np.asarray(y, dtype=np.float64)
    lam = config.lam if config.lam is not None else _default_lam(a, y)
    step = 1.0 / lipschitz_constant(a)
    x = np.zeros(op.n)
    z = x
    t = 1.0
    gram = a.T @ a
    aty = a.T @ y
    history, objectives = [], []
    prev_obj = _objective(a, y, x, lam)
    converged = False
    for _ in range(config.max_iterations):
        x_next = shrink(z - step * (gram @ z - aty), lam * step)
        if momentum:
            t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
            z = x_next + ((t - 1.0) / t_next) * (x_next - x)
            t = t_next
        else:
            z = x_next
        x = x_next
        obj = _objective(a, y, x, lam)
        history.append(float(np.linalg.norm(a @ x - y)))
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


def estimate_operator(pairs, ridge: float | None = None) -> sensing.SensingOperator:
    """Ridge least-squares fit of the map x -> y over the given pairs.

    Solves A = Y X^T (X X^T + ridge I)^{-1} via Cholesky; ridge defaults to
    1e-6 * trace(X X^T) / n to stabilize small sample counts. Pass ridge=0
    to demand an exactly determined system (singular X X^T then raises).
    """
    pairs = list(pairs)
    if not pairs:
        raise ParameterError("estimate_operator needs at least one pair")
    xs = np.stack([np.asarray(x, dtype=np.float64) for x, _ in pairs], axis=1)
    ys = np.stack([np.asarray(y, dtype=np.float64) for _, y in pairs], axis=1)
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

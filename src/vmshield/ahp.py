"""Priority weights from pairwise comparisons or observed demand profiles.

Weights come out of the principal eigenvector of a 3x3 positive
reciprocal comparison matrix (criteria: cpu, mem, bw).  Matrices can be
supplied directly (expert judgments on the 1-9 scale) or built from a
demand profile, in which case entry (i, j) is the exact ratio of demand
shares and the matrix is consistent by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentMatrix, NonConvergence
from .resources import ResourceVector, WeightVector

# Saaty random index for a 3x3 matrix; CI / RANDOM_INDEX gives the
# consistency ratio, conventionally acceptable below 0.1.
RANDOM_INDEX_3 = 0.58

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000
DEFAULT_CR_LIMIT = 0.1

# Share floor for profiles with a zero component: keeps ratio-matrix
# entries finite while leaving recovered weights within 1e-12 of the
# true shares.
_SHARE_FLOOR = 1e-12


@dataclass(frozen=True)
class HotspotProfile:
    """Mean observed demand of a VM or of a whole hotspot class."""

    avg_usage: ResourceVector


def validate_pairwise_matrix(m) -> np.ndarray:
    """Return m as a float array after checking the reciprocal-matrix invariants."""
    try:
        a = np.asarray(m, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"pairwise matrix must be a 3x3 array of numbers: {exc}") from exc
    if a.shape != (3, 3):
        raise ValueError(f"pairwise matrix must be 3x3, got shape {a.shape}")
    if not np.all(np.isfinite(a)) or np.any(a <= 0):
        raise ValueError("pairwise matrix entries must be finite and > 0")
    if not np.all(np.abs(np.diag(a) - 1.0) <= 1e-9):
        raise ValueError("pairwise matrix diagonal must be all ones")
    if not np.all(np.abs(a * a.T - 1.0) <= 1e-9):
        raise ValueError("pairwise matrix must be reciprocal: a[j][i] = 1/a[i][j]")
    return a


def matrix_from_profile(profile: HotspotProfile | ResourceVector) -> np.ndarray:
    """Consistent comparison matrix whose entries are demand-share ratios.

    A zero-demand profile (no history at all) degenerates to the
    all-ones matrix, i.e. uniform priorities.
    """
    usage = profile.avg_usage if isinstance(profile, HotspotProfile) else profile
    u = np.array(usage.as_tuple(), dtype=float)
    total = u.sum()
    if total <= 0:
        return np.ones((3, 3))
    shares = np.maximum(u / total, _SHARE_FLOOR)
    return np.outer(shares, 1.0 / shares)


def principal_eigenvector(
    m, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> tuple[WeightVector, float]:
    """Power iteration for the priority vector and its eigenvalue estimate.

    Starts from the uniform vector, renormalizes each iterate to sum 1,
    and stops when successive iterates agree within tol in max-norm.
    lambda_max is the mean of (m @ w) / w at the converged iterate and
    is >= 3 up to rounding for any valid reciprocal matrix.

    Raises NonConvergence (carrying the last iterate) past max_iter.
    """
    a = validate_pairwise_matrix(m)
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    w = np.full(3, 1.0 / 3.0)
    for _ in range(max_iter):
        v = a @ w
        w_next = v / v.sum()
        if np.max(np.abs(w_next - w)) < tol:
            lam = float(np.mean((a @ w_next) / w_next))
            return WeightVector(*(float(x) for x in w_next)), lam
        w = w_next
    raise NonConvergence(
        f"power iteration did not converge in {max_iter} iterations",
        last_iterate=w,
        iterations=max_iter,
    )


def consistency_ratio(lambda_max: float) -> float:
    """CR = CI / RI with CI = (lambda_max - 3) / 2 for three criteria."""
    ci = (lambda_max - 3.0) / 2.0
    return ci / RANDOM_INDEX_3


def _consistent_weights(source, tol, cr_limit, max_iter) -> tuple[WeightVector, float, float]:
    """(weights, lambda_max, CR) of a profile or matrix; InconsistentMatrix at CR >= cr_limit.

    The one consistency gate, for derive_weights and the ahp command.
    """
    if cr_limit <= 0:
        raise ValueError("cr_limit must be > 0")
    if isinstance(source, (HotspotProfile, ResourceVector)):
        source = matrix_from_profile(source)
    weights, lambda_max = principal_eigenvector(source, tol=tol, max_iter=max_iter)
    cr = consistency_ratio(lambda_max)
    if cr >= cr_limit:
        raise InconsistentMatrix(
            f"consistency ratio {cr:.4f} >= limit {cr_limit}; revise the judgments",
            cr=cr,
            lambda_max=lambda_max,
        )
    return weights, lambda_max, cr


def derive_weights(
    source,
    tol: float = DEFAULT_TOL,
    cr_limit: float = DEFAULT_CR_LIMIT,
    max_iter: int = DEFAULT_MAX_ITER,
) -> WeightVector:
    """Weights from a HotspotProfile/ResourceVector or a 3x3 comparison matrix.

    Profile inputs go through the ratio-matrix construction and are
    consistent by construction; matrix inputs are accepted only when
    their consistency ratio stays below cr_limit.
    """
    return _consistent_weights(source, tol, cr_limit, max_iter)[0]

"""Priority weights from pairwise comparisons or observed demand profiles.

Weights come out of the principal eigenvector of a 3x3 positive
reciprocal comparison matrix (criteria: cpu, mem, bw).  Matrices can be
supplied directly (expert judgments on the 1-9 scale) or built from a
demand profile, in which case entry (i, j) is the exact ratio of demand
shares and the matrix is consistent by construction.

The 3x3 arithmetic runs on Python floats, as numpy's per-call overhead
costs more at that size; matrices still come in and go out as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentMatrix, NonConvergence
from .resources import ResourceVector, WeightVector, is_vector

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
    rows = a.tolist()
    if not all(0.0 < x < np.inf for row in rows for x in row):  # NaN fails both
        raise ValueError("pairwise matrix entries must be finite and > 0")
    if any(abs(rows[i][i] - 1.0) > 1e-9 for i in range(3)):
        raise ValueError("pairwise matrix diagonal must be all ones")
    if any(abs(rows[i][j] * rows[j][i] - 1.0) > 1e-9 for i in range(3) for j in range(i + 1)):
        raise ValueError("pairwise matrix must be reciprocal: a[j][i] = 1/a[i][j]")
    return a


def matrix_from_profile(profile: HotspotProfile | ResourceVector) -> np.ndarray:
    """Consistent comparison matrix whose entries are demand-share ratios.

    A profile is a HotspotProfile or any three numbers (is_vector); zero
    demand (no history at all) gives the all-ones matrix, uniform weights.
    """
    usage = profile.avg_usage if isinstance(profile, HotspotProfile) else profile
    cpu, mem, bw = map(float, usage)
    total = cpu + mem + bw
    if total <= 0:
        return np.ones((3, 3))
    shares = [max(x / total, _SHARE_FLOOR) for x in (cpu, mem, bw)]
    return np.array([[x * (1.0 / y) for y in shares] for x in shares])


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
    rows = validate_pairwise_matrix(m).tolist()
    if not 0 < tol < np.inf:  # NaN fails both
        raise ValueError("tol must be finite and > 0")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    w = prev = [1.0 / 3.0] * 3
    for k in range(max_iter + 1):  # w is iterate k; rows @ w makes iterate k + 1, or lambda_max at the end
        v = [r[0] * w[0] + r[1] * w[1] + r[2] * w[2] for r in rows]  # rows @ w, summed left to right
        if k and max(abs(x - y) for x, y in zip(w, prev)) < tol:
            ratios = [x / y for x, y in zip(v, w)]
            return WeightVector(*w), (ratios[0] + ratios[1] + ratios[2]) / 3
        total = v[0] + v[1] + v[2]
        prev, w = w, [x / total for x in v]
    raise NonConvergence(
        f"power iteration did not converge in {max_iter} iterations",
        last_iterate=np.array(prev),
        iterations=max_iter,
    )


def consistency_ratio(lambda_max: float) -> float:
    """CR = CI / RI with CI = (lambda_max - 3) / 2 for three criteria."""
    return (lambda_max - 3.0) / 2.0 / RANDOM_INDEX_3


def _consistent_weights(source, tol, cr_limit, max_iter) -> tuple[WeightVector, float, float]:
    """(weights, lambda_max, CR) of a profile or matrix; InconsistentMatrix at CR >= cr_limit.

    The one consistency gate, for derive_weights and the ahp command.
    """
    if not 0 < cr_limit < np.inf:  # NaN fails both
        raise ValueError("cr_limit must be finite and > 0")
    if isinstance(source, HotspotProfile) or is_vector(source):
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
    """Weights from a HotspotProfile, three numbers or a 3x3 comparison matrix.

    Profile inputs go through the ratio-matrix construction and are
    consistent by construction; matrix inputs are accepted only when
    their consistency ratio stays below cr_limit.
    """
    return _consistent_weights(source, tol, cr_limit, max_iter)[0]

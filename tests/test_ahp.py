from __future__ import annotations

import numpy as np
import pytest

from conftest import CYCLIC
from vmshield.ahp import (
    DEFAULT_CR_LIMIT,
    HotspotProfile,
    consistency_ratio,
    derive_weights,
    matrix_from_profile,
    principal_eigenvector,
    validate_pairwise_matrix,
)
from vmshield.errors import InconsistentMatrix, NonConvergence
from vmshield.resources import ResourceVector


def test_profile_matrix_is_exact_share_ratios():
    m = matrix_from_profile(HotspotProfile(ResourceVector(20, 60, 20)))
    expected = np.array([[1, 1 / 3, 1], [3, 1, 3], [1, 1 / 3, 1]])
    assert np.allclose(m, expected, atol=1e-12)
    validate_pairwise_matrix(m)


def test_profile_matrix_accepts_bare_vector():
    a = matrix_from_profile(ResourceVector(10, 20, 30))
    b = matrix_from_profile(HotspotProfile(ResourceVector(10, 20, 30)))
    assert np.array_equal(a, b)


def test_zero_profile_degenerates_to_uniform():
    m = matrix_from_profile(HotspotProfile(ResourceVector(0, 0, 0)))
    assert np.array_equal(m, np.ones((3, 3)))
    w = derive_weights(HotspotProfile(ResourceVector(0, 0, 0)))
    assert w.as_tuple() == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)


def test_single_zero_component_stays_finite():
    w = derive_weights(HotspotProfile(ResourceVector(0, 50, 50)))
    assert w.w_cpu == pytest.approx(0.0, abs=1e-9)
    assert w.w_mem == pytest.approx(0.5, abs=1e-9)
    assert w.w_bw == pytest.approx(0.5, abs=1e-9)


def test_memory_heavy_profile_recovers_published_weights():
    w = derive_weights(HotspotProfile(ResourceVector(20, 60, 20)))
    assert w.as_tuple() == pytest.approx((0.2, 0.6, 0.2), abs=1e-10)


@pytest.mark.parametrize("profile", [(20, 60, 20), [20.0, 60.0, 20.0], np.array([20, 60, 20]), (7, 0, 3.5),
                                     (0, 0, 0), (1e-300, 2.5, 1e300)])
def test_any_three_numbers_are_a_profile_with_the_resource_vectors_weights(profile):
    # a plain tuple used to be read as a comparison matrix: "must be 3x3, got shape (3,)"
    expected = derive_weights(ResourceVector(*map(float, profile)))
    for source in (profile, HotspotProfile(profile)):
        got = derive_weights(source)
        assert got.as_tuple() == expected.as_tuple()
        assert [np.float64(x).tobytes() for x in got.as_tuple()] == [np.float64(x).tobytes() for x in expected.as_tuple()]
    assert np.array_equal(matrix_from_profile(profile), matrix_from_profile(ResourceVector(*profile)))


@pytest.mark.parametrize("source", [(20, 60), (20, 60, 20, 1), ("20", 60, 20), (True, 1, 1), [[1, 2, 3]]])
def test_what_is_not_three_numbers_is_read_as_a_matrix(source):
    with pytest.raises(ValueError, match="pairwise matrix"):
        derive_weights(source)


def test_validate_rejects_malformed_matrices():
    with pytest.raises(ValueError):
        validate_pairwise_matrix([[1, 2], [0.5, 1]])  # not 3x3
    with pytest.raises(ValueError):
        validate_pairwise_matrix([[1, 2, 3], [0.5, 1, 2], [1 / 3, 0.5, 2]])  # diag
    with pytest.raises(ValueError):
        validate_pairwise_matrix([[1, 2, 3], [0.4, 1, 2], [1 / 3, 0.5, 1]])  # reciprocity
    with pytest.raises(ValueError):
        validate_pairwise_matrix([[1, -2, 3], [-0.5, 1, 2], [1 / 3, 0.5, 1]])  # sign
    with pytest.raises(ValueError):
        validate_pairwise_matrix(np.full((3, 3), np.nan))
    with pytest.raises(ValueError, match="finite and > 0"):
        validate_pairwise_matrix([[1, np.inf, 3], [0.5, 1, 2], [1 / 3, 0.5, 1]])
    with pytest.raises(ValueError, match=r"3x3, got shape \(2, 3\)"):
        validate_pairwise_matrix([[1, 2, 3], [0.5, 1, 2]])
    with pytest.raises(ValueError, match="3x3"):
        validate_pairwise_matrix([[1, 2, 3], [0.5, 1], [1 / 3, 0.5, 1]])  # ragged


def test_eigenvector_on_consistent_matrix_gives_lambda_3():
    m = matrix_from_profile(HotspotProfile(ResourceVector(40, 15, 10)))
    w, lam = principal_eigenvector(m)
    assert lam == pytest.approx(3.0, abs=1e-9)
    assert consistency_ratio(lam) < 1e-9
    total = 40 + 15 + 10
    assert w.as_tuple() == pytest.approx((40 / total, 15 / total, 10 / total), abs=1e-8)


def test_recovery_property_seeded():
    # consistent matrices must give back the shares they were built from
    rng = np.random.default_rng(1234)
    for _ in range(300):
        raw = rng.uniform(0.01, 1.0, 3)
        shares = raw / raw.sum()
        m = np.outer(shares, 1.0 / shares)
        w, lam = principal_eigenvector(m)
        assert np.allclose(w.as_tuple(), shares, atol=1e-6)
        assert consistency_ratio(lam) < 1e-9


def test_eigenvector_handles_extreme_saaty_judgments():
    m = [[1, 9, 9], [1 / 9, 1, 1], [1 / 9, 1, 1]]
    w, lam = principal_eigenvector(m)
    assert lam == pytest.approx(3.0, abs=1e-6)  # still consistent: ratios agree
    assert w.w_cpu == pytest.approx(9 / 11, abs=1e-6)


def test_cyclic_matrix_lambda_and_rejection():
    w, lam = principal_eigenvector(CYCLIC)
    # circulant(1, 9, 1/9): principal eigenvalue is the row sum 1 + 9 + 1/9
    # and the uniform vector is its eigenvector
    assert lam == pytest.approx(1 + 9 + 1 / 9, abs=1e-9)
    assert consistency_ratio(lam) > DEFAULT_CR_LIMIT
    assert w.as_tuple() == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-6)
    with pytest.raises(InconsistentMatrix) as exc:
        derive_weights(CYCLIC)
    assert exc.value.cr > 0.1
    assert exc.value.lambda_max == pytest.approx(lam, rel=1e-9)


def test_cr_limit_is_a_strict_cutoff():
    # lambda_max = 3.116 sits exactly at CR = 0.1
    lam = 3.0 + 2 * 0.58 * 0.1
    assert consistency_ratio(lam) == pytest.approx(0.1, abs=1e-12)
    with pytest.raises(InconsistentMatrix):
        derive_weights(CYCLIC, cr_limit=6.0)  # cyclic CR ~6.13 exceeds even 6.0
    derive_weights(CYCLIC, cr_limit=7.0)  # ...but passes an absurd limit


def test_mildly_inconsistent_matrix_accepted():
    # within Saaty's tolerance: judgments 2, 4, 2 where consistency wants 8
    m = [[1, 2, 4], [1 / 2, 1, 2], [1 / 4, 1 / 2, 1]]
    w = derive_weights(m)
    assert w.w_cpu > w.w_mem > w.w_bw
    _, lam = principal_eigenvector(m)
    assert 0 <= consistency_ratio(lam) < 0.1


def test_non_convergence_carries_last_iterate():
    # a consistent (rank-1) matrix maps any start onto the share vector in
    # one multiply, so only a one-iteration cap can interrupt it
    m = matrix_from_profile(HotspotProfile(ResourceVector(30, 50, 20)))
    with pytest.raises(NonConvergence) as exc:
        principal_eigenvector(m, tol=1e-12, max_iter=1)
    assert exc.value.iterations == 1
    assert exc.value.last_iterate is not None
    assert np.asarray(exc.value.last_iterate).shape == (3,)


def test_bad_parameters_rejected():
    m = matrix_from_profile(HotspotProfile(ResourceVector(30, 50, 20)))
    with pytest.raises(ValueError):
        principal_eigenvector(m, tol=0.0)
    with pytest.raises(ValueError, match="max_iter"):
        principal_eigenvector(m, max_iter=0)
    with pytest.raises(ValueError):
        derive_weights(m, cr_limit=0.0)
    # NaN passes a plain "<= 0" test, and an infinite bound gates nothing
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tol must be finite"):
            principal_eigenvector(m, tol=bad)
        with pytest.raises(ValueError, match="cr_limit must be finite"):
            derive_weights(m, cr_limit=bad)


def test_weights_are_plain_floats():
    w = derive_weights(HotspotProfile(ResourceVector(25, 50, 25)))
    assert all(type(x) is float for x in w.as_tuple())

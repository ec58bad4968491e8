from __future__ import annotations

import math
import random
import re

import numpy as np
import pytest

from vmshield.errors import ParseError, ValidationError
from vmshield.resources import (
    UNIFORM_WEIGHTS,
    ZERO,
    ResourceVector,
    WeightVector,
    _six_places,
    check_vector,
    weighted_score,
)


def test_add_sub_componentwise():
    a = ResourceVector(10.0, 20.0, 30.0)
    b = ResourceVector(1.0, 2.0, 3.0)
    assert a + b == ResourceVector(11.0, 22.0, 33.0)
    assert a - b == ResourceVector(9.0, 18.0, 27.0)


def test_add_commutes_and_zero_is_identity():
    rng = random.Random(7)
    for _ in range(200):
        a = ResourceVector(rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 100))
        b = ResourceVector(rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 100))
        assert a + b == b + a
        assert a + ZERO == a


def test_sub_may_go_negative():
    # intermediate values (e.g. usage minus an average) are allowed below zero
    d = ResourceVector(1.0, 1.0, 1.0) - ResourceVector(2.0, 5.0, 1.5)
    assert d == ResourceVector(-1.0, -4.0, -0.5)


def test_scaled():
    v = ResourceVector(10.0, 20.0, 40.0).scaled(0.5)
    assert v == ResourceVector(5.0, 10.0, 20.0)


def test_weighted_score_is_dot_product():
    w = WeightVector(0.2, 0.6, 0.2)
    assert weighted_score(w, ResourceVector(70.4, 40.0, 60.0)) == pytest.approx(50.08, abs=1e-12)
    assert weighted_score(w, ZERO) == 0.0


def test_weighted_score_monotone_in_usage():
    rng = random.Random(21)
    for _ in range(300):
        raw = [rng.uniform(0.05, 1.0) for _ in range(3)]
        s = sum(raw)
        w = WeightVector(raw[0] / s, raw[1] / s, raw[2] / s)
        u = ResourceVector(rng.uniform(0, 90), rng.uniform(0, 90), rng.uniform(0, 90))
        bigger = u + ResourceVector(rng.uniform(0.01, 5), rng.uniform(0.01, 5), rng.uniform(0.01, 5))
        assert weighted_score(w, bigger) > weighted_score(w, u)


def test_weight_vector_validation():
    WeightVector(1.0, 0.0, 0.0)
    WeightVector(0.2, 0.6, 0.2)
    with pytest.raises(ValueError):
        WeightVector(0.5, 0.5, 0.5)  # sums to 1.5
    with pytest.raises(ValueError):
        WeightVector(-0.1, 0.6, 0.5)
    with pytest.raises(ValueError):
        WeightVector(1.1, -0.05, -0.05)
    with pytest.raises(ValueError):
        WeightVector(float("nan"), 0.5, 0.5)


def test_weight_sum_tolerance_accepts_rounding_noise():
    w = 1.0 / 3.0
    WeightVector(w, w, 1.0 - 2 * w)


def test_uniform_weights():
    assert sum(UNIFORM_WEIGHTS.as_tuple()) == pytest.approx(1.0, abs=1e-12)
    assert UNIFORM_WEIGHTS.w_cpu == UNIFORM_WEIGHTS.w_mem == UNIFORM_WEIGHTS.w_bw


def test_resource_vector_json_round_trip():
    v = ResourceVector(12.5, 0.0, 99.25)
    assert ResourceVector.from_json(v.to_json()) == v
    w = WeightVector(0.2, 0.6, 0.2)
    assert WeightVector.from_json(w.to_json()) == w


def test_resource_vector_from_json_rejects_bad_input():
    with pytest.raises(ParseError):
        ResourceVector.from_json({"cpu": 1, "mem": 2})  # bw missing
    with pytest.raises(ParseError):
        ResourceVector.from_json({"cpu": "high", "mem": 2, "bw": 3})


@pytest.mark.parametrize("bad", [-1, float("inf")], ids=["negative", "inf"])
def test_from_json_only_reads_and_check_vector_rejects_the_range(bad):
    # a JSON number reads; the range is check_vector's, which every owner of a vector calls
    vec = ResourceVector.from_json({"cpu": bad, "mem": 2, "bw": 3})
    assert vec == (bad, 2.0, 3.0)
    with pytest.raises(ValidationError, match=rf"^v components must be >= 0 and finite, got ResourceVector\(cpu={bad}"):
        check_vector(vec, "v")


@pytest.mark.parametrize("vec", [ResourceVector(1, 2.5, 4), (1, 2, 3), [0.5, 1, 7], np.array([1.0, 2.0, 3.0]),
                                 (np.float64(1), np.int64(2), np.float32(3))],
                         ids=["resource-vector", "tuple", "list", "array", "numpy-scalars"])
def test_check_vector_returns_three_numbers_as_given(vec):
    assert check_vector(vec, "v") is vec
    assert check_vector(vec, "v", positive=True) is vec


@pytest.mark.parametrize("vec", [("x", 1, 1), (1, 1), (1, 1, 1, 1), (True, 0, 0), (np.bool_(True), 0, 0),
                                 "abc", None, 5, {"cpu": 1, "mem": 1, "bw": 1}, np.zeros((3, 1)), np.array(1.0),
                                 ((1,), 2, 3)],
                         ids=["string", "two", "four", "bool", "numpy-bool", "str", "none", "int", "dict",
                              "column", "0-d-array", "nested"])
def test_check_vector_wants_three_numbers(vec):
    with pytest.raises(ValidationError, match=rf"^v must be three numbers, got {re.escape(repr(vec))}$"):
        check_vector(vec, "v")


@pytest.mark.parametrize("vec, positive, rule", [
    ((0, -1e-300, 0), False, ">= 0"), ((math.nan, 0, 0), False, ">= 0"), ((0, 0, -math.inf), False, ">= 0"),
    ((1, 0, 1), True, "> 0"), ((1, 1, math.inf), True, "> 0"), ((1, math.nan, 1), True, "> 0"),
])
def test_check_vector_wants_finite_components_in_range(vec, positive, rule):
    with pytest.raises(ValidationError, match=rf"^v components must be {rule} and finite, got {re.escape(str(vec))}$"):
        check_vector(vec, "v", positive=positive)


def test_resource_vector_from_json_rejects_non_objects_and_unknown_keys():
    for bad in ([1, 2, 3], "cpu", None, 5):
        with pytest.raises(ParseError, match="must be a JSON object"):
            ResourceVector.from_json(bad)
    with pytest.raises(ParseError, match=r"unknown keys \['gpu'\]"):
        ResourceVector.from_json({"cpu": 1, "mem": 2, "bw": 3, "gpu": 9})


def test_weight_vector_from_json_rejects_bad_input():
    with pytest.raises(ParseError):
        WeightVector.from_json({"w_cpu": 0.5, "w_mem": 0.5})
    with pytest.raises(ParseError):
        WeightVector.from_json({"w_cpu": 0.5, "w_mem": 0.4, "w_bw": 0.2})


@pytest.mark.parametrize("bad", ["20", True, 10**400], ids=["string", "bool", "huge-int"])
def test_vector_components_must_be_json_numbers(bad):
    with pytest.raises(ParseError, match="^cpu "):
        ResourceVector.from_json({"cpu": bad, "mem": 2, "bw": 3})
    with pytest.raises(ParseError, match="^w_cpu "):
        WeightVector.from_json({"w_cpu": bad, "w_mem": 0.0, "w_bw": 0.0})


def test_vectors_are_hashable_values():
    assert ResourceVector(1, 2, 3) in {ResourceVector(1, 2, 3)}
    with pytest.raises(Exception):
        ResourceVector(1, 2, 3).cpu = 5  # frozen


def _near_half_millionths():
    """Floats within a few ulps of a half millionth, at and above 1e9, and zeros."""
    halves = [(k + 0.5) / 1e6 for k in [*range(2000), *(10**e + 7 for e in range(3, 15))]]
    near = [x for h in halves for x in (h, math.nextafter(h, 0), math.nextafter(h, math.inf),
                                         math.nextafter(math.nextafter(h, 0), 0),
                                         math.nextafter(math.nextafter(h, math.inf), math.inf))]
    large = [1e9, math.nextafter(1e9, 0), math.nextafter(1e9, math.inf), 1e9 + 0.0000005, 123456789.0000005,
             999999999.9999995, 1e12 + 0.5e-3, 2.0**53, 1e300]
    exact_halves = [2.0**-k for k in range(1, 30)]  # 2**-7 * 1e6 is 7812.5 to the bit
    return [0.0, -0.0, *near, *large, *exact_halves, *(-x for x in near[:50])]


def test_six_places_writes_percent_six_f_digits_wherever_it_claims_to():
    values = _near_half_millionths()
    [(signs, negative), (whole, frac)], exact = _six_places(np.array(values))
    written = [f"{signs[n].decode()}{w}.{f:06d}" for n, w, f in zip(negative.tolist(), whole.tolist(), frac.tolist())]
    claimed = [(text, "%.6f" % v) for text, v, ok in zip(written, values, exact.tolist()) if ok]
    assert all(text == wanted for text, wanted in claimed)
    assert 200 < len(claimed) < len(values)  # most of these lie too near a half for the digit table

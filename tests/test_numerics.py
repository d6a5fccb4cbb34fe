import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from loramix.errors import DegenerateVectorError, ShapeError
from loramix.numerics import (AdamState, adam_step, cosine_similarity,
                              softmax_rows)


finite_vectors = hnp.arrays(
    np.float64, st.integers(1, 8),
    elements=st.floats(-50, 50, allow_nan=False),
)


def one_row_softmax(v) -> np.ndarray:
    """`softmax_rows` on a one-row stack."""
    return softmax_rows(np.array([v], dtype=np.float64))[0]


class TestSoftmax:
    def test_pinned_three_logits(self):
        out = one_row_softmax([1.0, 2.0, 3.0])
        assert out == pytest.approx([0.0900, 0.2447, 0.6652], abs=1e-4)

    def test_uniform_on_equal_logits(self):
        assert one_row_softmax([0.0, 0.0, 0.0]) == pytest.approx([1 / 3] * 3,
                                                             abs=1e-15)

    def test_singleton(self):
        assert one_row_softmax([5.0]).tolist() == [1.0]

    def test_huge_logits_do_not_overflow(self):
        out = one_row_softmax([1000.0, 1000.0])
        assert np.all(np.isfinite(out))
        assert out == pytest.approx([0.5, 0.5])

    @given(v=finite_vectors)
    def test_simplex(self, v):
        out = one_row_softmax(v)
        assert abs(out.sum() - 1.0) <= 1e-12
        assert np.all(out >= 0.0)

    @given(v=finite_vectors, shift=st.floats(-100, 100, allow_nan=False))
    def test_shift_invariance(self, v, shift):
        moved = one_row_softmax(v + shift) - one_row_softmax(v)
        assert np.max(np.abs(moved)) <= 1e-12

    @given(v=finite_vectors)
    def test_order_preserved(self, v):
        out = one_row_softmax(v)
        order = np.argsort(v, kind="stable")
        assert np.all(np.diff(out[order]) >= -1e-15)


class TestCosine:
    def test_pinned_45_degrees(self):
        assert cosine_similarity([1.0, 1.0], [1.0, 0.0]) == pytest.approx(
            1 / math.sqrt(2), abs=1e-12)

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_self_similarity(self, rng):
        v = rng.standard_normal(16)
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateVectorError):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])

    @given(v=finite_vectors, scale=st.floats(0.01, 100))
    def test_scale_invariance(self, v, scale):
        if np.linalg.norm(v) < 1e-6:
            return
        a = cosine_similarity(v, v * scale)
        assert a == pytest.approx(1.0, abs=1e-9)


class TestAdam:
    def test_scalar_first_step(self):
        # bias-corrected first step moves by lr/(1 + eps), a hair under 1e-4
        state = AdamState.for_param(np.zeros(1), lr=1e-4)
        out = adam_step(np.zeros(1), np.ones(1), state)
        assert out[0] == pytest.approx(-1e-4, abs=1e-11)

    def test_zero_grad_is_noop(self):
        params = np.array([0.5, -0.5])
        state = AdamState.for_param(params, lr=1e-3)
        out = adam_step(params, np.zeros(2), state)
        assert np.array_equal(out, params)

    def test_descends_constant_gradient(self):
        params = np.zeros(3)
        state = AdamState.for_param(params, lr=1e-2)
        for _ in range(10):
            params = adam_step(params, np.ones(3), state)
        assert np.all(params < 0)

    def test_deterministic_across_runs(self, rng):
        grads = [rng.standard_normal(4) for _ in range(5)]

        def run():
            p = np.zeros(4)
            s = AdamState.for_param(p, lr=1e-3)
            for g in grads:
                p = adam_step(p, g, s)
            return p

        assert np.array_equal(run(), run())

    def test_shape_mismatch_rejected(self):
        state = AdamState.for_param(np.zeros(2))
        with pytest.raises(ShapeError):
            adam_step(np.zeros(2), np.zeros(3), state)

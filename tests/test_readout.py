import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinqrc.errors import ValidationError
from spinqrc.readout import (ReadoutType, make_features, nmse, predict,
                             stm_capacity, train_weights)


def random_system(rows=200, cols=7, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(rows, cols))
    f[:, 0] = 1.0
    w_true = rng.normal(size=cols)
    y = f @ w_true + noise * rng.normal(size=rows)
    return f, y, w_true


class TestMakeFeatures:
    def test_per_qubit_layout(self):
        z = np.arange(12.0).reshape(3, 4)
        f = make_features(z, ReadoutType.PER_QUBIT)
        assert f.shape == (3, 5)
        assert np.all(f[:, 0] == 1.0)
        assert np.all(f[:, 1:] == z)

    def test_averaged_layout(self):
        z = np.array([[1.0, 3.0], [2.0, 4.0]])
        f = make_features(z, ReadoutType.AVERAGED)
        assert f.shape == (2, 2)
        assert np.all(f[:, 0] == 1.0)
        assert np.all(f[:, 1] == [2.0, 3.0])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            make_features(np.zeros((0, 4)), ReadoutType.PER_QUBIT)

    def test_readout_type_values(self):
        assert ReadoutType(1) is ReadoutType.PER_QUBIT
        assert ReadoutType(2) is ReadoutType.AVERAGED


class TestTrainWeights:
    def test_recovers_exact_solution(self):
        f, y, w_true = random_system()
        weights = train_weights(f, y)
        assert np.allclose(weights.w, w_true, atol=1e-10)
        assert weights.rank == 7
        assert weights.residual_rms < 1e-12

    def test_normal_equation_residual_orthogonality(self):
        f, y, _ = random_system(noise=0.3, seed=5)
        weights = train_weights(f, y)
        residual = f @ weights.w - y
        assert np.linalg.norm(f.T @ residual) < 1e-8

    def test_rank_deficient_min_norm(self):
        f, y, _ = random_system(cols=4, seed=2)
        f_dup = np.hstack([f, f[:, -1:]])  # duplicated column
        weights = train_weights(f_dup, y)
        assert weights.rank == 4
        # still fits, and the duplicated columns share the weight evenly
        assert np.allclose(f_dup @ weights.w, y, atol=1e-9)
        assert weights.w[-1] == pytest.approx(weights.w[-2])

    def test_ridge_shrinks_weights(self):
        f, y, _ = random_system(noise=1.0, seed=3)
        free = train_weights(f, y)
        shrunk = train_weights(f, y, ridge=10.0)
        assert np.linalg.norm(shrunk.w) < np.linalg.norm(free.w)

    def test_underdetermined_rejected(self):
        with pytest.raises(ValidationError):
            train_weights(np.ones((3, 5)), np.ones(3))

    def test_negative_ridge_rejected(self):
        f, y, _ = random_system()
        with pytest.raises(ValidationError):
            train_weights(f, y, ridge=-1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            train_weights(np.ones((4, 2)), np.ones(5))


class TestPredict:
    def test_linearity(self):
        f, y, _ = random_system()
        weights = train_weights(f, y)
        assert np.allclose(predict(weights, f), f @ weights.w)

    def test_column_mismatch(self):
        f, y, _ = random_system()
        weights = train_weights(f, y)
        with pytest.raises(ValidationError):
            predict(weights, np.ones((3, 2)))


class TestNmse:
    def test_zero_for_perfect_prediction(self):
        y = np.array([0.3, -0.2, 0.7])
        assert nmse(y, y) == 0.0

    def test_known_values(self):
        assert nmse(np.zeros(2), np.ones(2)) == pytest.approx(1.0)
        assert nmse(np.array([1.0, 0.0]), np.array([2.0, 0.0])) == pytest.approx(0.25)

    def test_zero_target_rejected(self):
        with pytest.raises(ValidationError):
            nmse(np.ones(3), np.zeros(3))

    @pytest.mark.parametrize("predicted, target", [
        (np.ones(3), np.ones(4)), (np.ones((3, 1)), np.ones(3)),
        (np.ones((2, 2)), np.ones((2, 2))), (np.ones(0), np.ones(0))])
    def test_shape_mismatch_rejected(self, predicted, target):
        with pytest.raises(ValidationError, match="equal-length vectors"):
            nmse(predicted, target)

    @given(scale=st.floats(min_value=1e-3, max_value=1e3),
           flip=st.sampled_from([1.0, -1.0]))
    @settings(max_examples=25)
    def test_scale_invariance(self, scale, flip):
        rng = np.random.default_rng(11)
        y = rng.normal(size=20)
        yhat = y + rng.normal(size=20) * 0.1
        a = scale * flip
        assert nmse(a * yhat, a * y) == pytest.approx(nmse(yhat, y), rel=1e-9)


class TestStmCapacity:
    def test_perfect_recall(self):
        y = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        assert stm_capacity(y, y) == pytest.approx(1.0)

    def test_sign_flip_still_informative(self):
        y = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        assert stm_capacity(-y, y) == pytest.approx(1.0)

    def test_constant_prediction_warns_and_scores_zero(self):
        y = np.array([0.0, 1.0, 0.0])
        with pytest.warns(UserWarning):
            assert stm_capacity(np.ones(3), y) == 0.0

    def test_independent_noise_scores_near_zero(self):
        rng = np.random.default_rng(17)
        y = rng.integers(0, 2, 2000).astype(float)
        guess = rng.normal(size=2000)
        assert stm_capacity(guess, y) < 0.05

    def test_capped_at_one(self):
        y = np.linspace(0, 1, 10)
        assert stm_capacity(y * 3.0, y) <= 1.0

    def test_length_validation(self):
        with pytest.raises(ValidationError):
            stm_capacity(np.ones(1), np.ones(1))

    @given(slope=st.floats(min_value=-5, max_value=5).filter(
               lambda x: abs(x) > 1e-3),
           offset=st.floats(min_value=-10, max_value=10))
    @settings(max_examples=25)
    def test_affine_invariance(self, slope, offset):
        rng = np.random.default_rng(23)
        y = rng.normal(size=30)
        yhat = y + 0.5 * rng.normal(size=30)
        base = stm_capacity(yhat, y)
        moved = stm_capacity(slope * yhat + offset, y)
        assert moved == pytest.approx(base, abs=1e-10)

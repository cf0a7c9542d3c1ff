import numpy as np
import pytest

from spinqrc.errors import ConfigError, DivergenceError
from spinqrc.experiment import _task_drive, _task_targets
from spinqrc.tasks import (DIVERGENCE_LIMIT, gen_narma_input,
                           gen_narma_target, gen_stm)

# Fixed point of the order-2 recurrence under zero input: the positive
# root of 0.1 y^2 - 0.7 y + 0.1 = 0 below 1.
NARMA2_ZERO_INPUT_FIXED_POINT = 0.14589803375031546


class TestStm:
    """The binary stream of ``gen_stm`` and the delayed targets that
    ``_task_targets`` builds from it, one per ``stm_tauXX`` row."""

    def test_targets_are_shifted_inputs(self):
        inputs = _task_drive("stm", 50, 1)
        [target] = _task_targets("stm", inputs, (3,))
        assert np.all(target[3:] == inputs[:-3])
        assert np.all(target[:3] == 0)

    def test_zero_delay_echoes_input(self):
        inputs = _task_drive("stm", 20, 2)
        [target] = _task_targets("stm", inputs, (0,))
        assert np.all(target == inputs)

    def test_delay_beyond_length_gives_zero_target(self):
        [target] = _task_targets("stm", _task_drive("stm", 5, 0), (5,))
        assert np.all(target == 0)

    def test_inputs_are_binary_and_seeded(self):
        a = gen_stm(200, seed=7)
        assert set(np.unique(a)) <= {0.0, 1.0}
        assert np.all(a == gen_stm(200, seed=7))
        assert np.all(a == np.random.default_rng(7).integers(0, 2, 200))
        assert not np.all(a == gen_stm(200, seed=8))
        assert np.all(_task_drive("stm", 200, 7) == a)

    def test_validation(self):
        with pytest.raises(ConfigError):
            gen_stm(0, 0)


class TestNarmaInput:
    def test_range_and_start(self):
        s = gen_narma_input(5000)
        assert s[0] == pytest.approx(0.1)  # all three tones start at zero
        assert s.min() >= 0.0
        assert s.max() <= 0.2

    def test_explicit_formula(self):
        s = gen_narma_input(10)
        k = 7
        expected = 0.1 * (np.sin(2 * np.pi * 2.11 * k / 100)
                          * np.sin(2 * np.pi * 3.73 * k / 100)
                          * np.sin(2 * np.pi * 4.11 * k / 100) + 1)
        assert s[k] == pytest.approx(expected, abs=1e-15)

    def test_length_validation(self):
        with pytest.raises(ConfigError):
            gen_narma_input(0)


class TestNarmaTarget:
    def test_initial_values(self):
        y = gen_narma_target(gen_narma_input(10), order=2)
        assert y[0] == 0.0
        # k=0 update: all memory terms vanish, only the offset remains
        assert y[1] == pytest.approx(0.1)

    def test_matches_independent_recurrence(self):
        s = gen_narma_input(40)
        y = gen_narma_target(s, order=5)
        # re-derive with explicitly padded history vectors
        ref = np.zeros(40)
        for k in range(39):
            hist = [ref[k - j] if k - j >= 0 else 0.0 for j in range(5)]
            s_old = s[k - 4] if k - 4 >= 0 else 0.0
            ref[k + 1] = (0.3 * ref[k] + 0.05 * ref[k] * sum(hist)
                          + 1.5 * s_old * s[k] + 0.1)
        assert np.allclose(y, ref, atol=1e-15)

    def test_zero_input_fixed_point_two_routes(self):
        # route 1: iterate the recurrence to convergence
        y = gen_narma_target(np.zeros(400), order=2)
        assert abs(y[-1] - y[-2]) < 1e-14
        # route 2: solve the quadratic the fixed point must satisfy
        root = (0.7 - np.sqrt(0.7**2 - 4 * 0.1 * 0.1)) / (2 * 0.1)
        assert y[-1] == pytest.approx(root, abs=1e-12)
        assert y[-1] == pytest.approx(NARMA2_ZERO_INPUT_FIXED_POINT, abs=1e-15)

    @pytest.mark.parametrize("order", [2, 5, 10, 15, 20])
    def test_bounded_on_standard_input(self, order):
        y = gen_narma_target(gen_narma_input(1000), order)
        assert np.all(np.isfinite(y))
        assert y.min() >= 0.0
        assert y.max() < 1.0

    def test_divergence_guard(self):
        with pytest.raises(DivergenceError):
            gen_narma_target(np.full(50, 5.0), order=2)
        assert DIVERGENCE_LIMIT == 10.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            gen_narma_target(np.zeros(10), order=1)
        with pytest.raises(ConfigError):
            gen_narma_target(np.zeros((2, 5)), order=2)

import hashlib
from dataclasses import astuple

import numpy as np
import pytest

from spinqrc import esn
from spinqrc.errors import ConfigError
from spinqrc.esn import EsnConfig, esn_weights, run_esn
from spinqrc.reservoir import ReservoirConfig, Schedule, run_sequence


def small_config(**kw):
    defaults = dict(n_nodes=6, n_pre=20, n_fb=40, n_test=20)
    defaults.update(kw)
    return EsnConfig(**defaults)


class TestConfig:
    def test_defaults(self):
        cfg = EsnConfig()
        assert cfg.variant == 1
        assert cfg.w_scale == 0.4
        assert cfg.total_steps == 440

    def test_phase_lengths_come_from_schedule(self):
        phases = astuple(Schedule())
        assert phases == (200, 200, 40)
        for cfg in (ReservoirConfig(), EsnConfig()):
            assert (cfg.n_pre, cfg.n_fb, cfg.n_test) == phases

    @pytest.mark.parametrize("kw, message", [
        (dict(n_fb=0), "n_fb must be an integer >= 1, got 0"),
        (dict(n_test=2.0), "n_test must be an integer >= 1, got 2.0"),
    ], ids=["zero_n_fb", "float_n_test"])
    def test_schedule_checks_its_lengths(self, kw, message):
        with pytest.raises(ConfigError, match=message):
            Schedule(**kw)

    @pytest.mark.parametrize("kw", [
        dict(variant=2),
        dict(n_nodes=0),
        dict(w_scale=0.0),
        dict(n_test=0),
        dict(weight_seed=-1),
    ])
    def test_validation(self, kw):
        with pytest.raises(ConfigError):
            small_config(**kw)


class TestWeights:
    def test_deterministic_and_in_range(self):
        a_w, a_in = esn_weights(small_config(weight_seed=3))
        b_w, b_in = esn_weights(small_config(weight_seed=3))
        assert np.all(a_w == b_w) and np.all(a_in == b_in)
        assert a_w.shape == (6, 6) and a_in.shape == (6,)
        assert a_w.min() >= 0 and a_w.max() <= 0.4
        assert a_in.min() >= 0 and a_in.max() <= 0.4

    @pytest.mark.parametrize("n_nodes", [10**9, 10**10],
                             ids=["no_memory", "past_numpy"])
    def test_a_weight_matrix_no_memory_holds_fails_at_once(self, n_nodes):
        # W is allocated before it is drawn: 10**18 entries are more than
        # any address space holds, and 10**20 more than numpy's largest
        # array; both raise MemoryError, which the CLI exits 2 on.
        with pytest.raises(MemoryError):
            esn_weights(EsnConfig(n_nodes=n_nodes))

    def test_variants_share_weights(self):
        # differences between variants must come from history depth alone
        w1, in1 = esn_weights(small_config(variant=1, weight_seed=9))
        w5, in5 = esn_weights(small_config(variant=5, weight_seed=9))
        assert np.all(w1 == w5) and np.all(in1 == in5)


class TestStep:
    def test_input_drive_without_recurrence(self, monkeypatch):
        cfg = small_config()
        w_in = np.zeros(6)
        w_in[0] = 1.0
        monkeypatch.setattr(esn, "esn_weights",
                            lambda config: (np.zeros((6, 6)), w_in))
        inputs = np.linspace(0.0, 0.2, cfg.total_steps)
        states = run_esn(cfg, inputs)
        assert np.allclose(states[:, 0], np.tanh(inputs), atol=1e-15)
        assert np.all(states[:, 1:] == 0.0)

    def test_history_mixing_per_variant(self):
        # states[k] = tanh(W sum_lag states[k - lag] + w_in s_k), summed in
        # lag order onto zeros, with the history before step 0 all zeros
        rng = np.random.default_rng(5)
        inputs = rng.uniform(0, 0.2, small_config().total_steps)
        for variant, lags in ((1, [1]), (3, [1, 3]), (5, [1, 3, 5])):
            cfg = small_config(n_nodes=4, variant=variant, weight_seed=5)
            w, w_in = esn_weights(cfg)
            states = run_esn(cfg, inputs)
            for k, s in enumerate(inputs):
                mixed = sum((states[k - lag] for lag in lags if k >= lag),
                            np.zeros(4))
                assert np.array_equal(states[k],
                                      np.tanh(w @ mixed + w_in * s))


class TestRunEsn:
    def test_zero_input_stays_at_origin(self):
        cfg = small_config()
        assert np.all(run_esn(cfg, np.zeros(cfg.total_steps)) == 0.0)

    def test_states_bounded_by_tanh(self):
        cfg = small_config(variant=5)
        rng = np.random.default_rng(1)
        states = run_esn(cfg, rng.uniform(0, 0.2, cfg.total_steps))
        assert np.abs(states).max() <= 1.0

    def test_deterministic(self):
        cfg = small_config(variant=3)
        inputs = np.linspace(0, 0.2, cfg.total_steps)
        a = run_esn(cfg, inputs)
        b = run_esn(cfg, inputs)
        assert a.tobytes() == b.tobytes()
        # The rows' bytes from before run_esn returned them bare: returning
        # the rows alone changed no arithmetic.
        assert a.shape == (cfg.total_steps, cfg.n_nodes)
        assert hashlib.sha256(a.tobytes()).hexdigest() == (
            "2cb0d0482e1ce7dde083b1c093be711fd2307406fe86bce795974bf5a72d15ff")

    def test_length_validation(self):
        cfg = small_config()
        with pytest.raises(ConfigError):
            run_esn(cfg, np.zeros(cfg.total_steps + 1))

    @pytest.mark.parametrize("index, value", [(3, np.nan), (0, 5.0),
                                              (7, -1e-9), (-1, np.inf)])
    def test_drive_outside_unit_interval_rejected(self, index, value):
        cfg = small_config()
        inputs = np.full(cfg.total_steps, 0.5)
        inputs[index] = value
        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            run_esn(cfg, inputs)

    @pytest.mark.parametrize("schedule", [
        dict(n_pre=20, n_fb=40, n_test=20), dict(n_pre=1, n_fb=1, n_test=1),
        dict(n_pre=1, n_fb=3, n_test=1), dict(n_pre=4, n_fb=1, n_test=2)])
    @pytest.mark.parametrize("kind", ["esn", "reservoir"])
    def test_slices_cover_phases(self, kind, schedule):
        # The schedule owns the windows: its slices cut either kind's rows
        # into the windows that phase_of names.
        if kind == "esn":
            cfg = small_config(**schedule)
            rows = run_esn(cfg, np.zeros(cfg.total_steps))
        else:
            cfg = ReservoirConfig(n_qubits=2, **schedule)
            rows = run_sequence(cfg, np.zeros(cfg.total_steps)).z_rows
        width = rows.shape[1]
        assert rows.shape == (cfg.total_steps, width)
        assert rows[cfg.train_slice].shape == (cfg.n_fb, width)
        assert rows[cfg.test_slice].shape == (cfg.n_test, width)
        steps = range(cfg.total_steps)
        for k in steps:
            assert (cfg.phase_of(k) == "train") == (k in steps[cfg.train_slice])
            assert (cfg.phase_of(k) == "test") == (k in steps[cfg.test_slice])


@pytest.mark.parametrize("variant", [1, 3, 5])
def test_fading_memory(variant):
    # two drives that differ only in their first 20 steps drive the network
    # into the same state: the differing prefix is forgotten
    cfg = small_config(variant=variant, n_pre=60)
    rng = np.random.default_rng(13)
    a = rng.uniform(0, 0.2, cfg.total_steps)
    b = a.copy()
    b[:20] = rng.uniform(0, 0.2, 20)
    xa, xb = run_esn(cfg, a), run_esn(cfg, b)
    assert np.linalg.norm(xa[19] - xb[19]) > 1e-4
    assert np.linalg.norm(xa[-1] - xb[-1]) < 1e-6

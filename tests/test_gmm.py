import numpy as np
import pytest

from spoofmeter import (
    DiagGmm,
    GmmTrainConfig,
    avg_log_likelihood,
    train_gmm,
)
from spoofmeter import gmm as gmm_module
from spoofmeter.gmm import frame_log_likelihoods
from spoofmeter.errors import (
    ConfigError,
    DegenerateDataError,
    DimMismatchError,
    EmptyFeaturesError,
    TooFewFramesError,
)


def naive_mixture_loglik(gmm, y):
    """Independent oracle: direct density sum, no log-domain tricks."""
    total = 0.0
    for w, mu, var in zip(gmm.weights, gmm.means, gmm.variances):
        gauss = np.prod(np.exp(-0.5 * (y - mu) ** 2 / var)
                        / np.sqrt(2 * np.pi * var))
        total += w * gauss
    return np.log(total)


def one_frame(gmm, y):
    return frame_log_likelihoods(gmm, np.asarray(y)[None, :])[0]


class TestTraining:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(20)
        frames = rng.normal(loc=[1.0, -2.0, 0.5], scale=[0.5, 2.0, 1.0],
                            size=(10_000, 3))
        gmm = train_gmm(frames, GmmTrainConfig(target_components=1))
        assert np.max(np.abs(gmm.means[0] - frames.mean(axis=0))) < 1e-9
        assert np.max(np.abs(gmm.variances[0] - frames.var(axis=0))) < 1e-9
        assert gmm.weights[0] == 1.0

    def test_two_cluster_recovery(self):
        # Oracle: the generating parameters of two well-separated clusters.
        # Symmetric bimodal data is a slow case for split-init EM (both
        # components own both clusters at first), so give the stage room.
        rng = np.random.default_rng(21)
        frames = np.concatenate([
            rng.normal(-5.0, 0.5, size=(5000, 1)),
            rng.normal(+5.0, 0.5, size=(5000, 1)),
        ])
        gmm = train_gmm(frames, GmmTrainConfig(
            target_components=2, em_iters_per_stage=40, convergence_tol=1e-9))
        means = np.sort(gmm.means.ravel())
        assert abs(means[0] - (-5.0)) < 0.1
        assert abs(means[1] - 5.0) < 0.1
        assert np.max(np.abs(gmm.weights - 0.5)) < 0.05

    def test_invariants_on_random_data(self):
        rng = np.random.default_rng(22)
        frames = rng.standard_normal((2000, 6))
        config = GmmTrainConfig(target_components=8, variance_floor_factor=1e-3)
        gmm = train_gmm(frames, config)
        assert abs(gmm.weights.sum() - 1.0) < 1e-9
        floor = 1e-3 * frames.var(axis=0)
        assert np.all(gmm.variances >= floor - 1e-15)

    def test_em_monotonic_within_stages(self):
        rng = np.random.default_rng(23)
        frames = rng.standard_normal((3000, 5))
        _, history = train_gmm(frames, GmmTrainConfig(target_components=8),
                               return_history=True)
        assert len(history) == 3  # stages at C = 2, 4, 8
        for trace in history:
            diffs = np.diff(trace)
            assert np.all(diffs >= -1e-8)

    def test_deterministic(self):
        rng = np.random.default_rng(24)
        frames = rng.standard_normal((1500, 4))
        config = GmmTrainConfig(target_components=4)
        a = train_gmm(frames, config)
        b = train_gmm(frames, config)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.variances, b.variances)

    def test_too_few_frames(self):
        with pytest.raises(TooFewFramesError):
            train_gmm(np.zeros((3, 2)) + np.eye(3, 2),
                      GmmTrainConfig(target_components=4))

    def test_degenerate_data(self):
        with pytest.raises(DegenerateDataError):
            train_gmm(np.full((100, 3), 1.5), GmmTrainConfig(target_components=2))

    def test_target_must_be_power_of_two(self):
        with pytest.raises(ConfigError):
            GmmTrainConfig(target_components=3)
        with pytest.raises(ConfigError):
            GmmTrainConfig(target_components=0)


class TestFrameLogLikelihood:
    def test_gaussian_at_its_mean(self):
        mu = np.array([0.3, -1.2])
        var = np.array([0.8, 2.5])
        gmm = DiagGmm(weights=np.array([1.0]), means=mu[None],
                      variances=var[None])
        expected = -0.5 * np.sum(np.log(2 * np.pi * var))
        assert abs(one_frame(gmm, mu) - expected) < 1e-12

    def test_identical_components_collapse(self):
        mu = np.array([[0.5, 0.5]])
        var = np.array([[1.0, 1.0]])
        single = DiagGmm(weights=np.array([1.0]), means=mu, variances=var)
        double = DiagGmm(weights=np.array([0.3, 0.7]),
                         means=np.vstack([mu, mu]),
                         variances=np.vstack([var, var]))
        y = np.array([1.0, -1.0])
        assert abs(one_frame(single, y) - one_frame(double, y)) < 1e-12

    def test_extreme_input_stays_finite(self):
        gmm = DiagGmm(weights=np.array([1.0]), means=np.zeros((1, 4)),
                      variances=np.ones((1, 4)))
        value = one_frame(gmm, np.full(4, 1e6))
        assert np.isfinite(value)
        assert value < -1e11

    def test_component_permutation_invariance(self):
        rng = np.random.default_rng(25)
        gmm = train_gmm(rng.standard_normal((500, 3)),
                        GmmTrainConfig(target_components=4))
        perm = np.array([2, 0, 3, 1])
        shuffled = DiagGmm(weights=gmm.weights[perm], means=gmm.means[perm],
                           variances=gmm.variances[perm])
        y = rng.standard_normal(3)
        assert abs(one_frame(gmm, y) - one_frame(shuffled, y)) < 1e-12

    def test_dim_mismatch(self):
        gmm = DiagGmm(weights=np.array([1.0]), means=np.zeros((1, 3)),
                      variances=np.ones((1, 3)))
        for frames in (np.zeros((1, 4)), np.zeros(3), 5.0):
            with pytest.raises(DimMismatchError, match="shape"):
                frame_log_likelihoods(gmm, frames)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(26)
        gmm = train_gmm(rng.standard_normal((400, 2)),
                        GmmTrainConfig(target_components=2))
        for _ in range(10):
            y = rng.standard_normal(2)
            assert abs(one_frame(gmm, y)
                       - naive_mixture_loglik(gmm, y)) < 1e-10


class TestChunking:
    """One call spanning several chunks, the last one short, must agree with
    the same call in a single chunk."""

    def _setup(self):
        rng = np.random.default_rng(28)
        gmm = train_gmm(rng.standard_normal((400, 3)),
                        GmmTrainConfig(target_components=4))
        return gmm, rng.standard_normal((50, 3))

    def test_chunks_are_bounded(self, monkeypatch):
        gmm, frames = self._setup()
        monkeypatch.setattr(gmm_module, "_MAX_CHUNK_FLOATS", 7 * 4)
        chunks = gmm_module._log_likelihood_chunks(
            frames, gmm.weights, gmm.means, gmm.variances)
        assert [len(x) for x, _, _ in chunks] == [7] * 7 + [1]

    def test_scores_match_single_chunk(self, monkeypatch):
        gmm, frames = self._setup()
        whole = frame_log_likelihoods(gmm, frames)
        monkeypatch.setattr(gmm_module, "_MAX_CHUNK_FLOATS", 7 * 4)
        chunked = frame_log_likelihoods(gmm, frames)
        np.testing.assert_allclose(chunked, whole, rtol=1e-12, atol=0)

    def test_estep_statistics_match_single_chunk(self, monkeypatch):
        gmm, frames = self._setup()
        args = (frames, gmm.weights, gmm.means, gmm.variances)
        whole = gmm_module._accumulate(*args)
        monkeypatch.setattr(gmm_module, "_MAX_CHUNK_FLOATS", 7 * 4)
        chunked = gmm_module._accumulate(*args)
        for a, b in zip(chunked, whole):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)

    def test_zero_frames_give_empty_scores(self):
        gmm, _ = self._setup()
        out = frame_log_likelihoods(gmm, np.zeros((0, 3)))
        assert out.shape == (0,)


class TestAvgLogLikelihood:
    def _model(self):
        rng = np.random.default_rng(27)
        return train_gmm(rng.standard_normal((600, 3)),
                         GmmTrainConfig(target_components=2)), rng

    def test_single_frame_equals_frame_score(self):
        gmm, rng = self._model()
        y = rng.standard_normal(3)
        assert abs(avg_log_likelihood(gmm, y[None, :])
                   - one_frame(gmm, y)) < 1e-12

    def test_duplication_invariance(self):
        gmm, rng = self._model()
        frames = rng.standard_normal((7, 3))
        base = avg_log_likelihood(gmm, frames)
        dup = avg_log_likelihood(gmm, np.tile(frames, (3, 1)))
        assert abs(base - dup) < 1e-9

    def test_matches_bruteforce_mean(self):
        gmm, rng = self._model()
        frames = rng.standard_normal((5, 3))
        oracle = sum(naive_mixture_loglik(gmm, f) for f in frames) / 5.0
        assert abs(avg_log_likelihood(gmm, frames) - oracle) < 1e-12

    def test_empty_features(self):
        gmm, _ = self._model()
        with pytest.raises(EmptyFeaturesError):
            avg_log_likelihood(gmm, np.zeros((0, 3)))


class TestDiagGmmValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DiagGmm(weights=np.array([0.5, 0.4]), means=np.zeros((2, 1)),
                    variances=np.ones((2, 1)))

    def test_variances_must_be_positive(self):
        with pytest.raises(ValueError):
            DiagGmm(weights=np.array([1.0]), means=np.zeros((1, 2)),
                    variances=np.array([[1.0, 0.0]]))

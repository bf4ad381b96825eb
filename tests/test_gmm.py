import numpy as np
import pytest

from helpers import reference_accumulate, reference_frame_log_likelihoods
from spoofmeter import (
    DiagGmm,
    GmmTrainConfig,
    avg_log_likelihood,
    train_gmm,
)
from spoofmeter import gmm as gmm_module
from spoofmeter.gmm import frame_log_likelihoods, gmm_stages
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


def two_cluster_frames():
    # Symmetric bimodal data is a slow case for split-init EM: both
    # components own both clusters at first, so early steps gain little LL.
    rng = np.random.default_rng(21)
    return np.concatenate([
        rng.normal(-5.0, 0.5, size=(5000, 1)),
        rng.normal(+5.0, 0.5, size=(5000, 1)),
    ])


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
        gmm = train_gmm(two_cluster_frames(), GmmTrainConfig(
            target_components=2, em_iters_per_stage=40))
        means = np.sort(gmm.means.ravel())
        assert abs(means[0] - (-5.0)) < 0.1
        assert abs(means[1] - 5.0) < 0.1
        assert np.max(np.abs(gmm.weights - 0.5)) < 0.05

    def test_every_stage_runs_the_configured_iterations(self):
        config = GmmTrainConfig(target_components=8, em_iters_per_stage=10)
        _, history = train_gmm(two_cluster_frames(), config,
                               return_history=True)
        assert [len(trace) for trace in history] == [10, 10, 10]

    def test_smaller_run_is_a_prefix_of_a_larger_one(self):
        # The C-component stage model depends only on the frames and the
        # stage index, so a grid could train once up to its largest count.
        rng = np.random.default_rng(25)
        frames = _clustered_frames(rng, 2000, 5)
        _, small = train_gmm(frames, GmmTrainConfig(target_components=8),
                             return_history=True)
        _, large = train_gmm(frames, GmmTrainConfig(target_components=32),
                             return_history=True)
        assert len(small) == 3 and len(large) == 5
        assert small == large[:3]
        # The stage models of one run are the standalone runs' models.
        stages = {gmm.n_components: gmm for gmm, _ in
                  gmm_stages(frames, GmmTrainConfig(target_components=32))}
        assert sorted(stages) == [1, 2, 4, 8, 16, 32]
        for count in (1, 2, 8, 32):
            alone = train_gmm(frames, GmmTrainConfig(target_components=count))
            for name in ("weights", "means", "variances"):
                assert np.array_equal(getattr(stages[count], name),
                                      getattr(alone, name))

    def test_invariants_on_random_data(self):
        rng = np.random.default_rng(22)
        frames = rng.standard_normal((2000, 6))
        config = GmmTrainConfig(target_components=8)
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


def reference_estep(xx, gmm):
    """``helpers.reference_accumulate`` with the signature and return of
    ``gmm._accumulate``: (average LL, counts, [Σx², Σx])."""
    avg_ll, counts, sum_x, sum_x2 = reference_accumulate(
        xx[:, gmm.dim:], gmm.weights, gmm.means, gmm.variances)
    return avg_ll, counts, np.hstack([sum_x2, sum_x])


def _clustered_frames(rng, n_frames, dim, n_clusters=16):
    centres = rng.normal(0.0, 3.0, size=(n_clusters, dim))
    scales = rng.uniform(0.3, 1.5, size=(n_clusters, dim))
    which = rng.integers(n_clusters, size=n_frames)
    return centres[which] + scales[which] * rng.standard_normal((n_frames, dim))


class TestFusedKernel:
    """The fused ``[x², x] @ proj + bias`` kernel against the per-component
    formula with ``scipy.special.logsumexp`` it replaced."""

    def test_frame_scores_match_reference_formula(self):
        rng = np.random.default_rng(29)
        frames = _clustered_frames(rng, 1300, 58)
        gmm = train_gmm(frames[:1000], GmmTrainConfig(target_components=64))
        probe = frames[1000:]
        np.testing.assert_allclose(frame_log_likelihoods(gmm, probe),
                                   reference_frame_log_likelihoods(gmm, probe),
                                   rtol=1e-12, atol=0)

    def test_em_traces_match_reference_estep(self, monkeypatch):
        rng = np.random.default_rng(30)
        frames = _clustered_frames(rng, 3000, 58)
        config = GmmTrainConfig(target_components=256)
        _, fused = train_gmm(frames, config, return_history=True)
        monkeypatch.setattr(gmm_module, "_accumulate", reference_estep)
        _, reference = train_gmm(frames, config, return_history=True)
        assert [len(t) for t in fused] == [len(t) for t in reference]
        for a, b in zip(fused, reference):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=0)

    def test_zero_weight_component_is_ignored(self):
        rng = np.random.default_rng(31)
        means = rng.standard_normal((3, 4))
        variances = rng.uniform(0.5, 2.0, size=(3, 4))
        with_zero = DiagGmm(weights=np.array([0.4, 0.0, 0.6]),
                            means=means, variances=variances)
        without = DiagGmm(weights=np.array([0.4, 0.6]),
                          means=means[[0, 2]], variances=variances[[0, 2]])
        frames = rng.standard_normal((20, 4))
        scores = frame_log_likelihoods(with_zero, frames)
        assert np.all(np.isfinite(scores))
        np.testing.assert_allclose(
            scores, frame_log_likelihoods(without, frames), rtol=1e-12, atol=0)

    def test_component_without_mass_keeps_statistics_finite(self):
        # The far component's joint log-likelihood sits about 1e8 below the
        # near one's on every frame, so its count falls below the minimum
        # mass and the M-step keeps its parameters.
        rng = np.random.default_rng(32)
        frames = rng.standard_normal((50, 3))
        old = DiagGmm(weights=np.array([0.5, 0.5]),
                      means=np.array([[0.0, 0.0, 0.0], [1e3, 1e3, 1e3]]),
                      variances=np.array([[1.0, 1.0, 1.0], [1e-2, 1e-2, 1e-2]]))
        avg_ll, counts, sums = gmm_module._accumulate(
            gmm_module._design(frames), old)
        assert counts[1] < gmm_module._MIN_COMPONENT_MASS
        for stat in (avg_ll, counts, sums):
            assert np.all(np.isfinite(stat))
        # DiagGmm itself rejects non-finite parameters.
        new = gmm_module._maximize(counts, sums, old, 1e-3 * np.ones(3),
                                   frames.shape[0])
        assert np.array_equal(new.means[1], old.means[1])
        assert np.array_equal(new.variances[1], old.variances[1])

    def test_rebuilt_model_scores_bit_identically(self):
        rng = np.random.default_rng(33)
        gmm = train_gmm(rng.standard_normal((400, 5)),
                        GmmTrainConfig(target_components=8))
        rebuilt = DiagGmm(gmm.weights, gmm.means, gmm.variances)
        frames = rng.standard_normal((40, 5))
        assert np.array_equal(frame_log_likelihoods(rebuilt, frames),
                              frame_log_likelihoods(gmm, frames))


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
            gmm_module._design(frames), *gmm._fused_tables)
        assert [len(xx) for xx, *_ in chunks] == [7] * 7 + [1]

    def test_scores_match_single_chunk(self, monkeypatch):
        gmm, frames = self._setup()
        whole = frame_log_likelihoods(gmm, frames)
        monkeypatch.setattr(gmm_module, "_MAX_CHUNK_FLOATS", 7 * 4)
        chunked = frame_log_likelihoods(gmm, frames)
        np.testing.assert_allclose(chunked, whole, rtol=1e-12, atol=0)

    def test_estep_statistics_match_single_chunk(self, monkeypatch):
        gmm, frames = self._setup()
        xx = gmm_module._design(frames)
        whole = gmm_module._accumulate(xx, gmm)
        monkeypatch.setattr(gmm_module, "_MAX_CHUNK_FLOATS", 7 * 4)
        chunked = gmm_module._accumulate(xx, gmm)
        for a, b in zip(chunked, whole):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)

    def test_training_matches_single_chunk(self, monkeypatch):
        rng = np.random.default_rng(34)
        frames = _clustered_frames(rng, 1000, 5)
        config = GmmTrainConfig(target_components=8)
        whole, whole_history = train_gmm(frames, config, return_history=True)

        chunk_lengths = {}
        chunks = gmm_module._log_likelihood_chunks

        def recorded(xx, proj, bias):
            lengths = chunk_lengths.setdefault(bias.shape[0], [])
            for out in chunks(xx, proj, bias):
                lengths.append(len(out[0]))
                yield out

        monkeypatch.setattr(gmm_module, "_log_likelihood_chunks", recorded)
        monkeypatch.setattr(gmm_module, "_MAX_CHUNK_FLOATS", 8 * 37)
        chunked, chunked_history = train_gmm(frames, config,
                                             return_history=True)
        # Every E-step, at C = 2, 4 and 8, spans several chunks of
        # 296 / C rows, and the last chunk of each is short.
        assert sorted(chunk_lengths) == [2, 4, 8]
        for n_components, lengths in chunk_lengths.items():
            rows = 8 * 37 // n_components
            per_step = -(-1000 // rows)
            assert lengths[:per_step] == [rows] * (per_step - 1) + [1000 % rows]
            assert lengths == lengths[:per_step] * (len(lengths) // per_step)

        assert [len(t) for t in chunked_history] == [len(t) for t in whole_history]
        for a, b in zip(chunked_history, whole_history):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)
        for part in ("weights", "means", "variances"):
            np.testing.assert_allclose(getattr(chunked, part),
                                       getattr(whole, part), rtol=1e-12, atol=0)

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

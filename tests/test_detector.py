import hashlib
import itertools
import json
import os
from pathlib import Path

import numpy as np
import pytest

import helpers
from helpers import RATE, make_wav_corpus, resonant_noise, small_feature_config
from spoofmeter import (
    DetectorModel,
    FeatureMatrix,
    GmmTrainConfig,
    avg_log_likelihood,
    extract_features,
    llr_score,
    parse_manifest,
    read_score_file,
    score_batch,
    train_detector,
    write_score_file,
)
from spoofmeter.config import to_doc
from spoofmeter.detector import CACHE_ENV_VAR
from spoofmeter.errors import (
    BatchScoringError,
    DimMismatchError,
    EmptyManifestError,
)
from spoofmeter.features import read_feature_cache, write_feature_cache
from spoofmeter.manifest import Manifest

LOW_BAND = (300.0, 900.0)
HIGH_BAND = (2500.0, 3800.0)

# Static coefficients included: the two synthetic classes differ by resonance
# band, a static spectral property that delta-only features discard.
FEATURE_CONFIG = small_feature_config(
    num_ceps=8, include_zeroth=True, use_static=True)
GMM_CONFIG = GmmTrainConfig(target_components=2, em_iters_per_stage=5)


def _class_corpus(directory, rng, band, label, system, count, prefix):
    entries = [(f"{prefix}{i}", label, system,
                resonant_noise(rng, 4000, freq_range=band))
               for i in range(count)]
    return make_wav_corpus(directory, entries)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("detector_corpus")
    rng = np.random.default_rng(40)
    nat_manifest = parse_manifest(
        _class_corpus(root / "nat", rng, LOW_BAND, "bonafide", "-", 6, "nat"))
    artif_manifest = parse_manifest(
        _class_corpus(root / "artif", rng, HIGH_BAND, "spoof", "vcX", 6, "art"))
    model = train_detector(nat_manifest, artif_manifest, FEATURE_CONFIG,
                           GMM_CONFIG)
    eval_entries = (
        [(f"eb{i}", "bonafide", "-", resonant_noise(rng, 4000, freq_range=LOW_BAND))
         for i in range(4)]
        + [(f"es{i}", "spoof", "vcX", resonant_noise(rng, 4000, freq_range=HIGH_BAND))
           for i in range(4)]
    )
    eval_manifest = parse_manifest(make_wav_corpus(root / "eval", eval_entries))
    return model, eval_manifest, rng


class TestTrainDetector:
    def test_identical_classes_give_zero_llr(self, tmp_path):
        rng = np.random.default_rng(41)
        manifest = parse_manifest(_class_corpus(
            tmp_path, rng, LOW_BAND, "bonafide", "-", 4, "u"))
        model = train_detector(manifest, manifest, FEATURE_CONFIG, GMM_CONFIG)
        probe = resonant_noise(rng, 4000, freq_range=LOW_BAND)
        assert llr_score(model, probe) == 0.0

    def test_single_component_matches_pooled_stats(self, trained, tmp_path):
        rng = np.random.default_rng(42)
        nat = parse_manifest(_class_corpus(
            tmp_path / "n", rng, LOW_BAND, "bonafide", "-", 2, "n"))
        art = parse_manifest(_class_corpus(
            tmp_path / "a", rng, HIGH_BAND, "spoof", "vcX", 2, "a"))
        model = train_detector(nat, art, FEATURE_CONFIG,
                               GmmTrainConfig(target_components=1))
        from spoofmeter import read_wav
        pooled = np.vstack([
            extract_features(model.feature_config, read_wav(e.path)).frames
            for e in nat
        ])
        assert np.max(np.abs(model.nat.means[0] - pooled.mean(axis=0))) < 1e-9
        assert np.max(np.abs(model.nat.variances[0] - pooled.var(axis=0))) < 1e-9

    def test_missing_file_error_names_path(self, tmp_path):
        from spoofmeter import ManifestEntry
        bad = Manifest(entries=(
            ManifestEntry("ghost", str(tmp_path / "ghost.wav"), "bonafide", "-"),),
            source_path=None)
        with pytest.raises(BatchScoringError, match="ghost.wav"):
            train_detector(bad, bad, FEATURE_CONFIG, GMM_CONFIG)

    def test_every_failed_file_is_named(self, tmp_path):
        from spoofmeter import ManifestEntry
        rng = np.random.default_rng(44)
        good = parse_manifest(_class_corpus(
            tmp_path, rng, LOW_BAND, "bonafide", "-", 2, "ok"))
        (tmp_path / "garbage.wav").write_bytes(b"not a wav file")
        bad = Manifest(entries=good.entries[:1] + (
            ManifestEntry("ghost", str(tmp_path / "ghost.wav"), "bonafide", "-"),
            ManifestEntry("junk", str(tmp_path / "garbage.wav"), "bonafide", "-"),
        ) + good.entries[1:], source_path=None)
        with pytest.raises(BatchScoringError) as info:
            train_detector(bad, good, FEATURE_CONFIG, GMM_CONFIG)
        failures = info.value.failures
        assert [(u, p) for u, p, _ in failures] == [
            ("ghost", str(tmp_path / "ghost.wav")),
            ("junk", str(tmp_path / "garbage.wav"))]
        # the original exceptions are kept whole, errno and filename included
        assert isinstance(failures[0][2], FileNotFoundError)
        assert failures[0][2].filename == str(tmp_path / "ghost.wav")
        assert "ghost.wav" in str(info.value)
        assert "garbage.wav" in str(info.value)

    def test_empty_manifest(self):
        empty = Manifest(entries=(), source_path=None)
        with pytest.raises(EmptyManifestError):
            train_detector(empty, empty, FEATURE_CONFIG, GMM_CONFIG)

    def test_model_is_self_describing(self, trained):
        model, _, _ = trained
        assert model.feature_config.grid_size is not None
        assert model.metadata["seed"] == str(GMM_CONFIG.seed)
        assert model.nat.dim == model.feature_config.output_dim


class TestLlrScore:
    def test_separated_classes_have_correct_sign(self, trained):
        # Constructed two-cluster setup: utterances from the natural band
        # must score positive, from the artificial band negative.
        model, eval_manifest, _ = trained
        scores = score_batch(model, eval_manifest)
        for record in scores.records:
            if record.label == "bonafide":
                assert record.llr > 0.0
            else:
                assert record.llr < 0.0

    def test_swap_antisymmetry_exact(self, trained):
        model, eval_manifest, rng = trained
        swapped = DetectorModel(nat=model.artif, artif=model.nat,
                                feature_config=model.feature_config,
                                metadata=model.metadata)
        probe = resonant_noise(rng, 4000, freq_range=LOW_BAND)
        assert llr_score(swapped, probe) == -llr_score(model, probe)

    def test_cached_features_accepted(self, trained):
        model, _, rng = trained
        feats = extract_features(model.feature_config,
                                 resonant_noise(rng, 4000))
        assert llr_score(model, feats) == llr_score(model, feats)

    def test_llr_is_the_difference_of_average_scores(self, trained):
        # The benchmark's traced pass rebuilds scoring in exactly this form.
        model, _, rng = trained
        feats = extract_features(model.feature_config,
                                 resonant_noise(rng, 4000))
        assert llr_score(model, feats) == (
            avg_log_likelihood(model.nat, feats)
            - avg_log_likelihood(model.artif, feats))

    def test_dim_mismatch_rejected(self, trained):
        model, _, _ = trained
        with pytest.raises(DimMismatchError):
            llr_score(model, FeatureMatrix(np.zeros((5, 3))))

    def test_self_concatenation_invariance(self, trained):
        # Frame averaging makes the score length-invariant on cached features.
        model, _, rng = trained
        feats = extract_features(model.feature_config,
                                 resonant_noise(rng, 4000))
        doubled = FeatureMatrix(np.vstack([feats.frames, feats.frames]))
        assert abs(llr_score(model, doubled) - llr_score(model, feats)) < 1e-9

    def test_rejects_other_types(self, trained):
        model, _, _ = trained
        with pytest.raises(TypeError):
            llr_score(model, [1.0, 2.0])


class TestScoreBatch:
    def test_cardinality_and_order(self, trained):
        model, eval_manifest, _ = trained
        scores = score_batch(model, eval_manifest)
        assert len(scores) == len(eval_manifest)
        assert [r.utt_id for r in scores.records] \
            == [e.utt_id for e in eval_manifest]

    def test_deterministic(self, trained):
        model, eval_manifest, _ = trained
        a = score_batch(model, eval_manifest)
        b = score_batch(model, eval_manifest)
        assert a == b

    def test_batch_fails_on_any_missing_file(self, trained, tmp_path):
        model, eval_manifest, _ = trained
        entry_type = type(eval_manifest.entries[0])
        broken = Manifest(
            entries=eval_manifest.entries + (
                entry_type("gone", str(tmp_path / "gone.wav"), "spoof", "vcX"),),
            source_path=None)
        with pytest.raises(BatchScoringError, match="gone.wav"):
            score_batch(model, broken)

    def test_empty_manifest(self, trained):
        model, _, _ = trained
        with pytest.raises(EmptyManifestError):
            score_batch(model, Manifest(entries=(), source_path=None))


class TestScoreFileRoundTrip:
    def test_llr_round_trips_exactly(self, trained, tmp_path):
        model, eval_manifest, _ = trained
        scores = score_batch(model, eval_manifest)
        path = tmp_path / "scores.tsv"
        write_score_file(scores, path, comments=("roundtrip test",))
        back = read_score_file(path)
        assert back == scores

    def test_plain_tsv_shape(self, trained, tmp_path):
        model, eval_manifest, _ = trained
        scores = score_batch(model, eval_manifest)
        path = tmp_path / "scores.tsv"
        write_score_file(scores, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "utt_id\tlabel\tsystem_id\tllr"
        assert len(lines) == 1 + len(scores)


class TestFeatureCacheIntegration:
    def test_cache_reused_and_equivalent(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(43)
        nat = parse_manifest(_class_corpus(
            tmp_path / "n", rng, LOW_BAND, "bonafide", "-", 3, "n"))
        art = parse_manifest(_class_corpus(
            tmp_path / "a", rng, HIGH_BAND, "spoof", "vcX", 3, "a"))
        uncached = train_detector(nat, art, FEATURE_CONFIG, GMM_CONFIG)

        cache = tmp_path / "cache"
        monkeypatch.setenv(CACHE_ENV_VAR, str(cache))
        first = train_detector(nat, art, FEATURE_CONFIG, GMM_CONFIG)
        n_files = len(list(cache.glob("*.feat")))
        assert n_files == 6
        second = train_detector(nat, art, FEATURE_CONFIG, GMM_CONFIG)
        assert len(list(cache.glob("*.feat"))) == n_files

        for a, b in [(uncached, first), (first, second)]:
            assert np.array_equal(a.nat.means, b.nat.means)
            assert np.array_equal(a.artif.means, b.artif.means)
        # cache files are renamed into place; no temporary file is left
        assert sorted(p.suffix for p in cache.iterdir()) == [".feat"] * 6

    def test_wav_replaced_in_place_is_not_served_stale(self, tmp_path,
                                                       monkeypatch):
        rng = np.random.default_rng(45)
        nat = parse_manifest(_class_corpus(
            tmp_path / "n", rng, LOW_BAND, "bonafide", "-", 3, "n"))
        art = parse_manifest(_class_corpus(
            tmp_path / "a", rng, HIGH_BAND, "spoof", "vcX", 3, "a"))
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cache"))
        train_detector(nat, art, FEATURE_CONFIG, GMM_CONFIG)

        # same path, different audio and a later modification time
        victim = nat.entries[0].path
        old_mtime = os.stat(victim).st_mtime_ns
        helpers.write_pcm16_wav(
            victim, resonant_noise(rng, 4000, freq_range=HIGH_BAND).samples)
        os.utime(victim, ns=(old_mtime + 10**9, old_mtime + 10**9))
        cached = train_detector(nat, art, FEATURE_CONFIG, GMM_CONFIG)

        monkeypatch.delenv(CACHE_ENV_VAR)
        uncached = train_detector(nat, art, FEATURE_CONFIG, GMM_CONFIG)
        assert np.array_equal(cached.nat.means, uncached.nat.means)
        assert np.array_equal(cached.nat.variances, uncached.nat.variances)

    def test_unreadable_entries_are_rebuilt(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(47)
        nat = parse_manifest(_class_corpus(
            tmp_path / "n", rng, LOW_BAND, "bonafide", "-", 3, "n"))
        art = parse_manifest(_class_corpus(
            tmp_path / "a", rng, HIGH_BAND, "spoof", "vcX", 3, "a"))
        uncached = train_detector(nat, art, FEATURE_CONFIG, GMM_CONFIG)

        cache = tmp_path / "cache"
        monkeypatch.setenv(CACHE_ENV_VAR, str(cache))
        train_detector(nat, art, FEATURE_CONFIG, GMM_CONFIG)
        truncated, old_format, empty = sorted(cache.glob("*.feat"))[:3]
        truncated.write_bytes(truncated.read_bytes()[:100])
        old_format.write_bytes(b"CQCCFEAT" + bytes(16))
        empty.write_bytes(b"")

        rebuilt = train_detector(nat, art, FEATURE_CONFIG, GMM_CONFIG)
        for gmm in ("nat", "artif"):
            for part in ("weights", "means", "variances"):
                assert (getattr(getattr(rebuilt, gmm), part).tobytes()
                        == getattr(getattr(uncached, gmm), part).tobytes())
        entries = sorted(cache.iterdir())
        assert len(entries) == 6
        for entry in entries:
            assert read_feature_cache(entry).n_frames > 0

    def test_entries_of_an_older_front_end_are_not_served(self, tmp_path,
                                                          monkeypatch):
        # Entries keyed as before the front-end revision joined the key,
        # under revision 2 (direct kernel on every bin), revision 3 (linear
        # interpolation on 3-bin grids) or revision 4 (per-bin direct
        # products), hold another front end's output; a finite sentinel
        # stands in for it.
        rng = np.random.default_rng(49)
        nat = parse_manifest(_class_corpus(
            tmp_path / "n", rng, LOW_BAND, "bonafide", "-", 3, "n"))
        art = parse_manifest(_class_corpus(
            tmp_path / "a", rng, HIGH_BAND, "spoof", "vcX", 3, "a"))
        uncached = train_detector(nat, art, FEATURE_CONFIG, GMM_CONFIG)

        cache = tmp_path / "cache"
        cache.mkdir()
        sentinel = FeatureMatrix(rng.standard_normal((30, uncached.nat.dim)))
        files = [*nat, *art]
        for entry, revision in itertools.product(files, ([], [2], [3], [4])):
            stat = os.stat(entry.path)
            doc = revision + [str(Path(entry.path).resolve()), stat.st_size,
                              stat.st_mtime_ns, to_doc(FEATURE_CONFIG),
                              FEATURE_CONFIG.effective_grid_size]
            key = hashlib.sha256(
                json.dumps(doc, sort_keys=True).encode()).hexdigest()[:24]
            write_feature_cache(cache / f"{key}.feat", sentinel)
        monkeypatch.setenv(CACHE_ENV_VAR, str(cache))
        cached = train_detector(nat, art, FEATURE_CONFIG, GMM_CONFIG)

        for gmm in ("nat", "artif"):
            for part in ("weights", "means", "variances"):
                assert (getattr(getattr(cached, gmm), part).tobytes()
                        == getattr(getattr(uncached, gmm), part).tobytes())
        assert len(list(cache.glob("*.feat"))) == 5 * len(files)


def test_helpers_config_sanity():
    # SMALL_CQT window must fit the 4000-sample test utterances
    assert helpers.SMALL_CQT.window_lengths(RATE)[0] < 4000

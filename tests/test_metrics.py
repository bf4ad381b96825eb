import numpy as np
import pytest

from helpers import bruteforce_eer_percent
from spoofmeter import (
    EerResult,
    OpinionRecord,
    ScoreRecord,
    ScoreSet,
    attack_averaged_eer,
    compute_eer,
    compute_mos,
    far_mr_curve,
    machine_opinion_score,
    read_opinion_file,
)
from spoofmeter.errors import (
    EmptyPopulationError,
    ManifestParseError,
    NoSpoofSystemsError,
)


def _score_set(bona, spoof_by_system):
    records = [ScoreRecord(f"b{i}", "bonafide", "-", s)
               for i, s in enumerate(bona)]
    for system, scores in spoof_by_system.items():
        records += [ScoreRecord(f"{system}_{i}", "spoof", system, s)
                    for i, s in enumerate(scores)]
    return ScoreSet(tuple(records))


class TestFarMrCurve:
    def test_sentinel_boundaries(self):
        curve = far_mr_curve([2.0, 3.0, 4.0], [-4.0, -3.0, -2.0])
        assert curve.far[0] == 1.0 and curve.mr[0] == 0.0    # below all scores
        assert curve.far[-1] == 0.0 and curve.mr[-1] == 1.0  # above all scores

    def test_separated_populations_at_zero(self):
        bona = np.array([2.0, 3.0, 4.0])
        spoof = np.array([-4.0, -3.0, -2.0])
        # direct counts at t=0 per the >=/< convention
        assert np.count_nonzero(spoof >= 0.0) / 3 == 0.0
        assert np.count_nonzero(bona < 0.0) / 3 == 0.0

    def test_monotonicity(self):
        rng = np.random.default_rng(30)
        curve = far_mr_curve(rng.standard_normal(40), rng.standard_normal(25))
        assert np.all(np.diff(curve.far) <= 0)
        assert np.all(np.diff(curve.mr) >= 0)

    def test_empty_population(self):
        with pytest.raises(EmptyPopulationError):
            far_mr_curve([], [1.0])
        with pytest.raises(EmptyPopulationError):
            far_mr_curve([1.0], [])


class TestComputeEer:
    def test_perfect_separation(self):
        result = compute_eer([2.0, 3.0, 4.0], [-4.0, -3.0, -2.0])
        assert result.eer_percent == 0.0
        assert result.n_bonafide == 3 and result.n_spoof == 3

    def test_identical_multisets_give_chance(self):
        result = compute_eer([0.0, 1.0], [0.0, 1.0])
        assert result.eer_percent == 50.0

    def test_derived_quarter_crossing(self):
        # Hand-derived via the brute-force sweep: FAR = MR = 0.25 around the
        # 1.5..2 threshold interval.
        bona = [1.0, 2.0, 3.0, 4.0]
        spoof = [-1.0, 0.0, 1.5, 5.0]
        result = compute_eer(bona, spoof)
        assert abs(result.eer_percent - 25.0) < 1e-12
        assert abs(result.eer_percent - bruteforce_eer_percent(bona, spoof)) < 1e-12
        t = result.threshold
        assert np.count_nonzero(np.array(spoof) >= t) / 4 == 0.25
        assert np.count_nonzero(np.array(bona) < t) / 4 == 0.25

    def test_matches_bruteforce_oracle_randomized(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            nb = int(rng.integers(3, 60))
            ns = int(rng.integers(3, 60))
            bona = rng.normal(0.5, 1.0, nb)
            spoof = rng.normal(-0.5, 1.2, ns)
            got = compute_eer(bona, spoof).eer_percent
            want = bruteforce_eer_percent(bona, spoof)
            assert abs(got - want) < 1e-9

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(32)
        bona = rng.normal(1.0, 1.0, 35)
        spoof = rng.normal(-1.0, 1.0, 28)
        base = compute_eer(bona, spoof).eer_percent
        for a, b in [(2.0, 0.0), (0.5, -3.0), (10.0, 100.0)]:
            transformed = compute_eer(a * bona + b, a * spoof + b).eer_percent
            assert transformed == base
        cubic = compute_eer(bona ** 3 + bona, spoof ** 3 + spoof).eer_percent
        assert cubic == base
        tanh = compute_eer(np.tanh(bona), np.tanh(spoof)).eer_percent
        assert tanh == base

    def test_role_swap_symmetry(self):
        # Swapping the class roles flips score polarity with it: the detector
        # that called high scores "natural" now calls them "artificial".
        # Equal up to interpolation roundoff (the two computations evaluate
        # algebraically identical rates through different float expressions).
        rng = np.random.default_rng(33)
        for _ in range(20):
            bona = rng.normal(0.3, 1.0, int(rng.integers(3, 40)))
            spoof = rng.normal(-0.3, 1.0, int(rng.integers(3, 40)))
            direct = compute_eer(bona, spoof).eer_percent
            swapped = compute_eer(-spoof, -bona).eer_percent
            assert abs(direct - swapped) < 1e-9

    @pytest.mark.parametrize("bona, spoof, name", [
        ([0.0, np.nan], [1.0], "bona fide"),
        ([0.0], [1.0, np.inf], "spoof"),
    ])
    def test_scores_must_be_finite(self, bona, spoof, name):
        with pytest.raises(ValueError, match=f"^{name} scores must be finite"):
            compute_eer(bona, spoof)

    def test_bounds(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            result = compute_eer(rng.standard_normal(15), rng.standard_normal(15))
            assert 0.0 <= result.eer_percent <= 100.0


class TestAttackAveragedEer:
    def test_unweighted_mean_on_constructed_fixture(self):
        # attack a: one of ten spoof scores above the lowest bona -> 10% EER;
        # attack b: two of ten -> 20% EER; average must be exactly 15%.
        bona = list(range(1, 11))
        scores = _score_set(bona, {
            "a": [0.0] * 9 + [1.5],
            "b": [0.0] * 8 + [2.5, 3.5],
        })
        summary = attack_averaged_eer(scores)
        assert summary.per_attack["a"].eer_percent == 10.0
        assert summary.per_attack["b"].eer_percent == 20.0
        assert summary.average_percent == 15.0

    def test_single_attack_equals_pooled(self):
        scores = _score_set([1.0, 2.0, 3.0], {"only": [-1.0, 0.5, 1.5]})
        summary = attack_averaged_eer(scores)
        pooled = compute_eer([1.0, 2.0, 3.0], [-1.0, 0.5, 1.5])
        assert summary.average_percent == pooled.eer_percent

    def test_no_spoof_systems(self):
        scores = _score_set([1.0, 2.0], {})
        with pytest.raises(NoSpoofSystemsError):
            attack_averaged_eer(scores)

    def test_no_bonafide(self):
        scores = _score_set([], {"a": [0.0, 1.0]})
        with pytest.raises(EmptyPopulationError):
            attack_averaged_eer(scores)


class TestMachineOpinionScore:
    def test_chance_level_maps_to_ideal(self):
        assert machine_opinion_score(50.0) == 5.0

    def test_paper_anchor(self):
        assert abs(machine_opinion_score(18.18) - 1.818) < 1e-12

    def test_zero(self):
        assert machine_opinion_score(0.0) == 0.0

    def test_above_chance_clamps(self):
        assert machine_opinion_score(72.0) == 5.0

    def test_range_check(self):
        with pytest.raises(ValueError):
            machine_opinion_score(120.0)


class TestMos:
    def test_mean(self):
        records = [OpinionRecord("u1", "s1", "l1", 4),
                   OpinionRecord("u2", "s1", "l1", 5),
                   OpinionRecord("u1", "s1", "l2", 4)]
        mos = compute_mos(records)
        assert abs(mos["s1"] - 13.0 / 3.0) < 1e-12

    def test_single_rating(self):
        assert compute_mos([OpinionRecord("u", "s", "l", 5)]) == {"s": 5.0}

    def test_score_range_enforced(self):
        with pytest.raises(ValueError):
            OpinionRecord("u", "s", "l", 6)

    def test_read_opinion_file(self, tmp_path):
        path = tmp_path / "op.tsv"
        path.write_text("utt_id\tsystem_id\tlistener_id\tscore\n"
                        "u1\ts1\tl1\t4\nu2\ts1\tl2\t5\n")
        records = read_opinion_file(path)
        assert len(records) == 2
        assert compute_mos(records)["s1"] == 4.5

    def test_read_opinion_file_bad_score(self, tmp_path):
        path = tmp_path / "op.tsv"
        path.write_text("utt_id\tsystem_id\tlistener_id\tscore\nu1\ts1\tl1\tsix\n")
        with pytest.raises(ManifestParseError) as info:
            read_opinion_file(path)
        assert info.value.line == 2


class TestRecordValidation:
    def test_spoof_needs_system(self):
        with pytest.raises(ValueError):
            ScoreRecord("u", "spoof", "-", 0.0)

    def test_bonafide_reserved_system(self):
        with pytest.raises(ValueError):
            ScoreRecord("u", "bonafide", "sysA", 0.0)

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            ScoreRecord("u", "genuine", "-", 0.0)

    def test_eer_result_range(self):
        with pytest.raises(ValueError):
            EerResult(eer_percent=101.0, threshold=0.0, n_bonafide=1, n_spoof=1)

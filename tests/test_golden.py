"""Golden-format oracle: exact bytes of every text artifact for hand-built inputs.

Nothing here runs EM or feature extraction, so the expected strings do not
depend on the BLAS build. They pin the model JSON, score, EER and report
formats that the package promises to keep byte-identical, and hold a model
in the retired format 1 that must still load.
"""

import numpy as np

from spoofmeter import (
    CqccConfig,
    CqtConfig,
    DetectorModel,
    DiagGmm,
    FeatureConfig,
    FeatureMatrix,
    ScoreRecord,
    ScoreSet,
    llr_score,
    load_model,
    save_model,
    write_score_file,
)
from spoofmeter.cli import main


def _model():
    config = FeatureConfig(
        16000, CqtConfig(12, 500.0, 8000.0, 160),
        CqccConfig(num_ceps=2, use_static=True, use_delta=False,
                   use_delta2=False),
        grid_size=16)
    nat = DiagGmm(weights=[0.25, 0.75],
                  means=[[0.1, -2.5], [1.0 / 3.0, 4.0]],
                  variances=[[1.0, 0.5], [2.0, 1e-3]])
    artif = DiagGmm(weights=[0.5, 0.5],
                    means=[[-0.1, 2.5], [0.0, -4.0]],
                    variances=[[0.3, 0.7], [1.5, 2.5]])
    return DetectorModel(nat, artif, config,
                         metadata={"seed": "7", "tool": "spoofmeter 0.1.0"})


# _model() in format 1, which load_model still reads.
MODEL_JSON = """\
{
 "artif_gmm": {
  "means": [
   [
    -0.1,
    2.5
   ],
   [
    0.0,
    -4.0
   ]
  ],
  "variances": [
   [
    0.3,
    0.7
   ],
   [
    1.5,
    2.5
   ]
  ],
  "weights": [
   0.5,
   0.5
  ]
 },
 "feature_config": {
  "cqcc": {
   "apply_cmvn": false,
   "include_zeroth": false,
   "num_ceps": 2,
   "resample_period": 16,
   "use_delta": false,
   "use_delta2": false,
   "use_static": true
  },
  "cqt": {
   "bins_per_octave": 12,
   "f_max": 8000.0,
   "f_min": 500.0,
   "hop": 160
  },
  "sample_rate": 16000
 },
 "format_version": 1,
 "grid": {
  "f_max": 8000.0,
  "f_min": 500.0,
  "size": 16
 },
 "metadata": {
  "seed": "7",
  "tool": "spoofmeter 0.1.0"
 },
 "nat_gmm": {
  "means": [
   [
    0.1,
    -2.5
   ],
   [
    0.3333333333333333,
    4.0
   ]
  ],
  "variances": [
   [
    1.0,
    0.5
   ],
   [
    2.0,
    0.001
   ]
  ],
  "weights": [
   0.25,
   0.75
  ]
 }
}
"""

# _model() as save_model writes it: format 2.
MODEL_JSON_V2 = """\
{
 "artif_gmm": {
  "means": {
   "data": "mpmZmZmZub8AAAAAAAAEQAAAAAAAAAAAAAAAAAAAEMA=",
   "dtype": "<f8",
   "shape": [
    2,
    2
   ]
  },
  "variances": {
   "data": "MzMzMzMz0z9mZmZmZmbmPwAAAAAAAPg/AAAAAAAABEA=",
   "dtype": "<f8",
   "shape": [
    2,
    2
   ]
  },
  "weights": {
   "data": "AAAAAAAA4D8AAAAAAADgPw==",
   "dtype": "<f8",
   "shape": [
    2
   ]
  }
 },
 "feature_config": {
  "cqcc": {
   "apply_cmvn": false,
   "include_zeroth": false,
   "num_ceps": 2,
   "resample_period": 16,
   "use_delta": false,
   "use_delta2": false,
   "use_static": true
  },
  "cqt": {
   "bins_per_octave": 12,
   "f_max": 8000.0,
   "f_min": 500.0,
   "hop": 160
  },
  "sample_rate": 16000
 },
 "format_version": 2,
 "grid": {
  "f_max": 8000.0,
  "f_min": 500.0,
  "size": 16
 },
 "metadata": {
  "seed": "7",
  "tool": "spoofmeter 0.1.0"
 },
 "nat_gmm": {
  "means": {
   "data": "mpmZmZmZuT8AAAAAAAAEwFVVVVVVVdU/AAAAAAAAEEA=",
   "dtype": "<f8",
   "shape": [
    2,
    2
   ]
  },
  "variances": {
   "data": "AAAAAAAA8D8AAAAAAADgPwAAAAAAAABA/Knx0k1iUD8=",
   "dtype": "<f8",
   "shape": [
    2,
    2
   ]
  },
  "weights": {
   "data": "AAAAAAAA0D8AAAAAAADoPw==",
   "dtype": "<f8",
   "shape": [
    2
   ]
  }
 }
}
"""

SCORES_TSV = (
    "# tool: spoofmeter 0.1.0\n"
    "# seed: 3\n"
    "utt_id\tlabel\tsystem_id\tllr\n"
    "b1\tbonafide\t-\t0.30000000000000004\n"
    "s1\tspoof\tsysA\t-2.0\n"
    "s2\tspoof\tsysB\t1e-17\n"
    "b2\tbonafide\t-\t12345.678901234567\n"
)

EER_TSV = (
    "# tool: spoofmeter 0.1.0\n"
    "# command: eer --scores scores.tsv\n"
    "# seed: 0\n"
    "system_id\teer_percent\tthreshold\tn_bonafide\tn_spoof\n"
    "sysA\t33.33333333333333\t0.7666666666666667\t4\t3\n"
    "sysB\t50.0\t1.0625\t4\t3\n"
    "(average)\t41.666666666666664\t-\t4\t6\n"
)

REPORT_TSV = (
    "# tool: spoofmeter 0.1.0\n"
    "# command: report --eer eer.tsv --opinions opinions.tsv\n"
    "# seed: 0\n"
    "system_id\teer_percent\tmachine_opinion_score\tmos\n"
    "sysA\t33.33333333333333\t3.333333333333333\t3.0\n"
    "sysB\t50.0\t5.0\t-\n"
)

SCORE_INPUT = (
    "# hand-written score file\n"
    "utt_id\tlabel\tsystem_id\tllr\n"
    "b1\tbonafide\t-\t2.5\n"
    "b2\tbonafide\t-\t0.75\n"
    "b3\tbonafide\t-\t-0.25\n"
    "b4\tbonafide\t-\t1.125\n"
    "a1\tspoof\tsysA\t-1.5\n"
    "a2\tspoof\tsysA\t0.8\n"
    "a3\tspoof\tsysA\t-3.0\n"
    "c1\tspoof\tsysB\t0.3\n"
    "c2\tspoof\tsysB\t1.0\n"
    "c3\tspoof\tsysB\t2.0\n"
)

OPINIONS_INPUT = (
    "utt_id\tsystem_id\tlistener_id\tscore\n"
    "a1\tsysA\tl1\t4\n"
    "a2\tsysA\tl2\t3\n"
    "a3\tsysA\tl1\t2\n"
)


def test_save_model_bytes(tmp_path):
    path = tmp_path / "model.json"
    save_model(_model(), path)
    assert path.read_text(encoding="utf-8") == MODEL_JSON_V2


def _assert_same_arrays(got, want):
    for name in ("nat", "artif"):
        for key in ("weights", "means", "variances"):
            a = getattr(getattr(got, name), key)
            b = getattr(getattr(want, name), key)
            assert a.dtype == b.dtype == np.float64
            assert np.array_equal(a, b)


def test_format_1_model_loads_and_scores_as_before(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(MODEL_JSON, encoding="utf-8")
    loaded, model = load_model(path), _model()
    _assert_same_arrays(loaded, model)
    assert loaded.feature_config == model.feature_config
    assert loaded.metadata == model.metadata
    feats = FeatureMatrix(np.random.default_rng(5).standard_normal((9, 2)))
    assert llr_score(loaded, feats) == llr_score(model, feats)


def test_format_1_model_resaves_as_format_2_with_the_same_arrays(tmp_path):
    v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
    v1.write_text(MODEL_JSON, encoding="utf-8")
    save_model(load_model(v1), v2)
    assert v2.read_text(encoding="utf-8") == MODEL_JSON_V2
    _assert_same_arrays(load_model(v2), load_model(v1))


def test_write_score_file_bytes(tmp_path):
    scores = ScoreSet((
        ScoreRecord("b1", "bonafide", "-", 0.1 + 0.2),
        ScoreRecord("s1", "spoof", "sysA", -2.0),
        ScoreRecord("s2", "spoof", "sysB", 1e-17),
        ScoreRecord("b2", "bonafide", "-", 12345.678901234567),
    ))
    path = tmp_path / "scores.tsv"
    write_score_file(scores, path, comments=("tool: spoofmeter 0.1.0",
                                             "seed: 3"))
    assert path.read_text(encoding="utf-8") == SCORES_TSV


def test_eer_and_report_cli_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scores.tsv").write_text(SCORE_INPUT, encoding="utf-8")
    (tmp_path / "opinions.tsv").write_text(OPINIONS_INPUT, encoding="utf-8")
    assert main(["eer", "--scores", "scores.tsv", "--out", "eer.tsv"]) == 0
    assert (tmp_path / "eer.tsv").read_text(encoding="utf-8") == EER_TSV
    assert main(["report", "--eer", "eer.tsv", "--opinions", "opinions.tsv",
                 "--out", "report.tsv"]) == 0
    assert (tmp_path / "report.tsv").read_text(encoding="utf-8") == REPORT_TSV

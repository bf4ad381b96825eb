"""Objective artifact assessment of converted speech.

Trains a two-hypothesis CQCC-GMM countermeasure (natural vs artificial
speech) and reports, per voice-conversion system, the equal error rate of
telling its outputs apart from real human speech. Higher EER means fewer
detectable processing artifacts; 50% is chance level.
"""

__version__ = "0.1.0"

from .audio_io import AudioSignal, read_wav, resample
from .cqt import CqtConfig, CqtSpectrogram, cqt_spectrogram, default_cqt_config
from .detector import (
    DetectorModel,
    llr_score,
    read_score_file,
    score_batch,
    train_detector,
    write_score_file,
)
from .features import (
    CqccConfig,
    FeatureConfig,
    FeatureMatrix,
    append_deltas,
    cmvn,
    dct_truncate,
    default_feature_config,
    extract_features,
    log_power,
    read_feature_cache,
    uniform_resample,
    write_feature_cache,
)
from .gmm import (
    DiagGmm,
    GmmTrainConfig,
    avg_log_likelihood,
    train_gmm,
)
from .manifest import Manifest, ManifestEntry, parse_manifest
from .metrics import (
    AttackEerSummary,
    EerResult,
    FarMrCurve,
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
from .model_io import load_model, save_model

__all__ = [
    "AudioSignal", "read_wav", "resample",
    "CqtConfig", "CqtSpectrogram", "cqt_spectrogram", "default_cqt_config",
    "CqccConfig", "FeatureConfig", "default_feature_config", "FeatureMatrix",
    "log_power", "uniform_resample", "dct_truncate", "append_deltas", "cmvn",
    "extract_features", "read_feature_cache", "write_feature_cache",
    "DiagGmm", "GmmTrainConfig", "train_gmm", "avg_log_likelihood",
    "DetectorModel", "train_detector", "llr_score", "score_batch",
    "write_score_file", "read_score_file",
    "Manifest", "ManifestEntry", "parse_manifest",
    "ScoreRecord", "ScoreSet", "FarMrCurve", "EerResult", "AttackEerSummary",
    "OpinionRecord", "far_mr_curve", "compute_eer", "attack_averaged_eer",
    "machine_opinion_score", "compute_mos", "read_opinion_file",
    "save_model", "load_model",
]

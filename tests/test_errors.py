"""Errors survive pickle, so that they can cross a process boundary."""

import pickle

from spoofmeter.errors import BatchScoringError, ManifestParseError


def _round_trip(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    return back


def test_manifest_parse_error_survives_pickle():
    back = _round_trip(ManifestParseError(3, "bad", "/x.tsv"))
    assert (back.line, back.reason, back.path) == (3, "bad", "/x.tsv")


def test_batch_scoring_error_survives_pickle():
    failures = [("u", "/p", ValueError("x")),
                ("v", "/q.tsv", ManifestParseError(2, "bad", "/q.tsv"))]
    back = _round_trip(BatchScoringError(failures))
    assert [(u, p, type(e), str(e)) for u, p, e in back.failures] \
        == [(u, p, type(e), str(e)) for u, p, e in failures]

"""Exception types shared across the package.

The split between :class:`DataError` and :class:`NumericalError` mirrors the
CLI exit codes: data/validation problems exit with 2, numerical failures
with 3.
"""


class SpoofmeterError(Exception):
    """Base class for all errors raised by this package."""


class DataError(SpoofmeterError):
    """Invalid input data, configuration, or file contents."""


class NumericalError(SpoofmeterError):
    """A computation could not be carried out on the given data."""


# --- audio ---------------------------------------------------------------

class CorruptHeaderError(DataError):
    """Malformed RIFF/WAVE container."""


class UnsupportedFormatError(DataError):
    """WAV encoding other than 16-bit integer PCM."""


class UnsupportedChannelsError(DataError):
    """WAV file with a channel count other than one."""


class InvalidRateError(DataError):
    """Non-positive sample rate."""


class EmptySignalError(DataError):
    """Operation requires a non-empty signal."""


class SignalTooShortError(DataError):
    """Signal shorter than the longest analysis window."""


# --- configuration and features ------------------------------------------

class ConfigError(DataError):
    """Inconsistent or out-of-range configuration values."""


class TooFewBinsError(DataError):
    """Spectrum has too few frequency bins to interpolate."""


class GridTooSmallError(DataError):
    """Uniform grid shorter than the requested cepstral order."""


class DimMismatchError(DataError):
    """Feature dimensionality does not match the model."""


class EmptyFeaturesError(DataError):
    """Feature matrix with zero frames."""


# --- manifests, scores, models -------------------------------------------

class EmptyManifestError(DataError):
    """Manifest contains no usable rows."""


class ManifestParseError(DataError):
    """Malformed table file: manifest, scores, opinions or EER table.

    Carries the file's ``path`` and the physical 1-based ``line`` the
    problem was found on.
    """

    def __init__(self, line, reason, path):
        super().__init__(f"{path}: line {line}: {reason}")
        self.line = line
        self.reason = reason
        self.path = path

    def __reduce__(self):  # pickle rebuilds from the arguments, not the message
        return type(self), (self.line, self.reason, self.path)


class BatchScoringError(DataError):
    """One or more files of a training or scoring manifest failed.

    ``failures`` is a list of ``(utt_id, path, exception)`` tuples; no
    partial model or score set is produced.
    """

    def __init__(self, failures):
        lines = "; ".join(f"{u} ({p}): {e}" for u, p, e in failures)
        super().__init__(f"{len(failures)} file(s) failed: {lines}")
        self.failures = list(failures)

    def __reduce__(self):
        return type(self), (self.failures,)


class EmptyPopulationError(DataError):
    """EER requested with an empty bona fide or spoof population."""


class NoSpoofSystemsError(DataError):
    """Score set has no spoof trials."""


class SchemaError(DataError):
    """Model file does not match the expected document structure."""


class VersionMismatchError(DataError):
    """Model file written by an incompatible format version."""


# --- numerical ------------------------------------------------------------

class TooFewFramesError(NumericalError):
    """Fewer training frames than mixture components."""


class DegenerateDataError(NumericalError):
    """Training data with zero variance in every dimension."""

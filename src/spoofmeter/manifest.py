"""Manifest files: the corpus protocol listing this tool consumes.

A manifest is a table (see :mod:`spoofmeter.tables`) with the columns
``utt_id  path  label  system_id``: blank lines and ``#`` lines are skipped
anywhere, and the header is the first line that is neither. Labels are
``bonafide`` or ``spoof``; bona fide rows carry the reserved system id
``-`` and spoof rows anything else but ``(average)``, the ``eer`` table's
attack-averaged row. Relative audio paths are resolved against the
manifest's own directory. A manifest has at least one row.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import EmptyManifestError
from .metrics import check_label
from .tables import read_table

MANIFEST_COLUMNS = ("utt_id", "path", "label", "system_id")


@dataclass(frozen=True)
class ManifestEntry:
    utt_id: str
    path: str
    label: str
    system_id: str


@dataclass(frozen=True)
class Manifest:
    entries: tuple
    source_path: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            where = f"{self.source_path}: " if self.source_path else ""
            raise EmptyManifestError(f"{where}manifest has no rows")

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def parse_manifest(path) -> Manifest:
    """Read and validate a manifest file.

    Problems (bad header, wrong column count, unknown label, duplicate
    utterance id, inconsistent system id) raise :class:`ManifestParseError`
    naming the file and the 1-based line number; a file with no rows raises
    :class:`EmptyManifestError` naming it.
    """
    path = Path(path)
    seen = set()

    def entry(utt_id, audio_path, label, system_id):
        if not utt_id:
            raise ValueError("empty utt_id")
        if utt_id in seen:
            raise ValueError(f"duplicate utt_id {utt_id!r}")
        seen.add(utt_id)
        check_label(label, system_id)
        return ManifestEntry(utt_id, str(path.parent / audio_path), label,
                             system_id)

    return Manifest(entries=tuple(read_table(path, MANIFEST_COLUMNS, entry)),
                    source_path=str(path))

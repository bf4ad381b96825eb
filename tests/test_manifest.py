import re

import pytest

from spoofmeter import parse_manifest
from spoofmeter.errors import EmptyManifestError, ManifestParseError
from spoofmeter.tables import replacing


def _write(tmp_path, text):
    path = tmp_path / "m.tsv"
    path.write_text(text, encoding="utf-8")
    return path


HEADER = "utt_id\tpath\tlabel\tsystem_id\n"


def test_three_valid_rows(tmp_path):
    path = _write(tmp_path, HEADER
                  + "u1\ta.wav\tbonafide\t-\n"
                  + "u2\tb.wav\tspoof\tsysA\n"
                  + "u3\tsub/c.wav\tspoof\tsysB\n")
    manifest = parse_manifest(path)
    assert len(manifest) == 3
    assert [e.utt_id for e in manifest] == ["u1", "u2", "u3"]
    # relative paths resolve against the manifest directory
    assert manifest.entries[0].path == str(tmp_path / "a.wav")
    assert manifest.entries[2].path == str(tmp_path / "sub" / "c.wav")


def test_duplicate_utt_id_cites_line(tmp_path):
    rows = [f"u{i}\tf{i}.wav\tbonafide\t-" for i in range(1, 6)]
    rows.append("u3\tdup.wav\tbonafide\t-")  # line 7
    path = _write(tmp_path, HEADER + "\n".join(rows) + "\n")
    with pytest.raises(ManifestParseError) as info:
        parse_manifest(path)
    assert info.value.line == 7
    assert "u3" in str(info.value)


def test_bad_label_cites_line(tmp_path):
    path = _write(tmp_path, HEADER + "u1\ta.wav\tgenuine\t-\n")
    with pytest.raises(ManifestParseError) as info:
        parse_manifest(path)
    assert info.value.line == 2


def test_spoof_with_reserved_system_rejected(tmp_path):
    path = _write(tmp_path, HEADER + "u1\ta.wav\tspoof\t-\n")
    with pytest.raises(ManifestParseError):
        parse_manifest(path)


def test_bonafide_with_named_system_rejected(tmp_path):
    path = _write(tmp_path, HEADER + "u1\ta.wav\tbonafide\tsysA\n")
    with pytest.raises(ManifestParseError):
        parse_manifest(path)


def test_column_count_cites_line(tmp_path):
    path = _write(tmp_path, HEADER + "u1\ta.wav\tbonafide\t-\nu2\tb.wav\n")
    with pytest.raises(ManifestParseError) as info:
        parse_manifest(path)
    assert info.value.line == 3


def test_wrong_header(tmp_path):
    path = _write(tmp_path, "id\tfile\tlabel\tsystem\nu1\ta.wav\tbonafide\t-\n")
    with pytest.raises(ManifestParseError) as info:
        parse_manifest(path)
    assert info.value.line == 1


def test_empty_file(tmp_path):
    path = _write(tmp_path, "")
    with pytest.raises(ManifestParseError):
        parse_manifest(path)


def test_header_only_file_names_the_file(tmp_path):
    # comment and blank lines around the header are no rows
    path = _write(tmp_path, "# no rows yet\n" + HEADER
                  + "\n#c\tx.wav\tbonafide\t-\n")
    with pytest.raises(EmptyManifestError,
                       match=f"^{re.escape(str(path))}: manifest has no rows$"):
        parse_manifest(path)


def test_absolute_paths_kept(tmp_path):
    path = _write(tmp_path, HEADER + f"u1\t{tmp_path}/x.wav\tbonafide\t-\n")
    manifest = parse_manifest(path)
    assert manifest.entries[0].path == str(tmp_path / "x.wav")


def test_comment_lines_skipped_anywhere(tmp_path):
    # a row whose utt_id starts with '#' is a comment, like every '#' line,
    # and the header may follow leading comments
    path = _write(tmp_path, "# corpus v2\n\n" + HEADER
                  + "#c\tx.wav\tbonafide\t-\n"
                  + "u1\ta.wav\tbonafide\t-\n"
                  + "# trailing note\n")
    manifest = parse_manifest(path)
    assert [e.utt_id for e in manifest] == ["u1"]


def test_errors_cite_physical_line_and_file(tmp_path):
    path = _write(tmp_path, "# note\n" + HEADER + "# skipped\n\n"
                  + "u1\ta.wav\tgenuine\t-\n")
    with pytest.raises(ManifestParseError) as info:
        parse_manifest(path)
    assert info.value.line == 5
    assert str(path) in str(info.value)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_bytes_that_are_not_utf8_cite_their_line(tmp_path, newline):
    path = tmp_path / "m.tsv"
    path.write_bytes(newline.join(
        ["# note", HEADER.rstrip("\n"), "u1\t\xe9.wav\tbonafide\t-"])
        .encode("latin-1") + newline.encode())
    with pytest.raises(ManifestParseError) as info:
        parse_manifest(path)
    assert info.value.line == 3
    assert str(info.value) == f"{path}: line 3: byte 0xe9 is not UTF-8"


def test_byte_order_mark_is_not_part_of_the_header(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("\ufeff" + HEADER + "u1\ta.wav\tbonafide\t-\n",
                    encoding="utf-8")
    assert [e.utt_id for e in parse_manifest(path)] == ["u1"]


def test_bytes_after_a_byte_order_mark_cite_their_line(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_bytes(b"\xef\xbb\xbf" + HEADER.encode()
                     + b"u1\ta.wav\tbonafide\t-\n"
                     + b"u2\t\xe9.wav\tspoof\tA\n")
    with pytest.raises(ManifestParseError) as info:
        parse_manifest(path)
    assert str(info.value) == f"{path}: line 3: byte 0xe9 is not UTF-8"


def test_comments_only_file_has_no_header(tmp_path):
    path = _write(tmp_path, "# nothing here\n\n")
    with pytest.raises(ManifestParseError, match="no header"):
        parse_manifest(path)


def test_replacing_keeps_the_old_file_when_the_body_fails(tmp_path):
    path = tmp_path / "out.tsv"
    path.write_bytes(b"old\n")
    with pytest.raises(RuntimeError):
        with replacing(path) as tmp:
            tmp.write_bytes(b"half")
            raise RuntimeError("write failed")
    assert path.read_bytes() == b"old\n"
    assert list(tmp_path.iterdir()) == [path]

    with replacing(path) as tmp:
        tmp.write_bytes(b"new\n")
    assert path.read_bytes() == b"new\n"
    assert list(tmp_path.iterdir()) == [path]

import numpy as np
import pytest

from celllineage.linker import LineageGraph, Track
from celllineage.trackfile import (
    TrackFileError,
    format_track_file,
    parse_track_file,
    read_track_file,
    write_track_file,
)


def sample_graph():
    g = LineageGraph()
    g.tracks = {
        1: Track(1, 1, 4, 0),
        2: Track(2, 5, 9, 1),
        3: Track(3, 5, 7, 1),
    }
    return g


def test_parse_basic():
    graph = parse_track_file("1 1 4 0\n2 5 9 1\n3 5 7 1\n")
    assert list(graph.tracks.values()) == [
        Track(1, 1, 4, 0),
        Track(2, 5, 9, 1),
        Track(3, 5, 7, 1),
    ]


def test_parse_skips_blank_lines():
    assert len(parse_track_file("1 1 2 0\n\n  \n2 3 4 1\n").tracks) == 2


def test_parse_rejections():
    with pytest.raises(TrackFileError):
        parse_track_file("1 1 4\n")  # short line
    with pytest.raises(TrackFileError):
        parse_track_file("1 one 4 0\n")  # non-integer
    with pytest.raises(TrackFileError):
        parse_track_file("0 1 4 0\n")  # non-positive id
    with pytest.raises(TrackFileError):
        parse_track_file("1 1 4 0\n1 5 6 0\n")  # duplicate id
    with pytest.raises(TrackFileError):
        parse_track_file("1 5 4 0\n")  # B > E
    with pytest.raises(TrackFileError):
        parse_track_file("1 1 4 -1\n")  # negative parent
    with pytest.raises(TrackFileError):
        parse_track_file("1 1 4 9\n")  # dangling parent
    with pytest.raises(TrackFileError):
        parse_track_file("1 1 4 0\n2 7 9 1\n")  # parent gap


@pytest.mark.parametrize("field", ["1_0", "+2", "\u0663", "1\u0660", "--1", "-", "0x1"])
def test_parse_takes_only_ascii_decimal_integers(field):
    # int() takes '_', '+' and non-ASCII digits; a field is '-'? [0-9]+
    with pytest.raises(TrackFileError, match="^line 2: non-integer field$"):
        parse_track_file("1 1 2 0\n%s 1 2 0\n" % field)
    with pytest.raises(TrackFileError, match="^line 1: non-integer field$"):
        parse_track_file("1 1 2 %s\n" % field)


def test_format_lf_endings():
    text = format_track_file(LineageGraph(tracks={1: Track(1, 1, 4, 0), 2: Track(2, 5, 6, 1)}))
    assert text == "1 1 4 0\n2 5 6 1\n"
    assert "\r" not in text


def test_round_trip_text():
    text = "1 1 4 0\n2 5 9 1\n3 5 7 1\n"
    assert format_track_file(parse_track_file(text)) == text


def test_format_sorts_tracks_by_id():
    g = sample_graph()
    g.tracks = {tid: g.tracks[tid] for tid in (3, 1, 2)}
    lines = format_track_file(g).splitlines()
    assert [int(line.split()[0]) for line in lines] == [1, 2, 3]
    assert lines[1] == "2 5 9 1"


def test_read_track_file_assigns_labels_present(tmp_path):
    path = tmp_path / "res_track.txt"
    path.write_text("1 1 2 0\n")
    g = read_track_file(str(path), [{0, 1}, {1}])
    assert g.assignments == {1: {1: 1}, 2: {1: 1}}
    g.validate()


def test_read_track_file_rejects_label_outside_span(tmp_path):
    # mask label outside the declared track span
    path = tmp_path / "res_track.txt"
    path.write_text("1 1 1 0\n")
    with pytest.raises(ValueError):
        read_track_file(str(path), [set(), {1}])


def test_file_round_trip(tmp_path):
    g = sample_graph()
    path = tmp_path / "res_track.txt"
    write_track_file(str(path), g)
    raw = path.read_bytes()
    assert raw == b"1 1 4 0\n2 5 9 1\n3 5 7 1\n"
    back = read_track_file(str(path))
    assert {tid: (tr.birth, tr.end, tr.parent) for tid, tr in back.tracks.items()} == {
        1: (1, 4, 0),
        2: (5, 9, 1),
        3: (5, 7, 1),
    }
    # byte-identical second write
    path2 = tmp_path / "again.txt"
    write_track_file(str(path2), back)
    assert path2.read_bytes() == raw


def test_random_round_trips():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(1, 10))
        tracks = []
        for label in range(1, n + 1):
            birth = int(rng.integers(1, 10))
            end = birth + int(rng.integers(0, 10))
            parent = 0
            candidates = [r for r in tracks if r.end == birth - 1]
            if candidates and rng.random() < 0.5:
                parent = int(rng.choice([r.id for r in candidates]))
            tracks.append(Track(label, birth, end, parent))
        text = format_track_file(LineageGraph(tracks={tr.id: tr for tr in tracks}))
        assert list(parse_track_file(text).tracks.values()) == tracks
        assert format_track_file(parse_track_file(text)) == text

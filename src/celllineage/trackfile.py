"""res_track.txt lineage interchange: one `L B E P` line per track."""

import re

from .linker import LineageGraph, Track

# an integer field: an optional '-' and ASCII digits; int() would also take
# '+', '_' and non-ASCII digits
_INTEGER = re.compile(r"-?[0-9]+")


class TrackFileError(ValueError):
    pass


def _parse_tracks(text):
    """Line-by-line parse into a LineageGraph's tracks; rejects malformed
    lines, duplicate ids and B > E. Parent links are left to `validate`."""
    graph = LineageGraph()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise TrackFileError("line %d: expected 4 fields, got %d" % (lineno, len(parts)))
        if not all(map(_INTEGER.fullmatch, parts)):
            raise TrackFileError("line %d: non-integer field" % lineno)
        label, birth, end, parent = (int(p) for p in parts)
        if label <= 0:
            raise TrackFileError("line %d: track id must be positive" % lineno)
        if label in graph.tracks:
            raise TrackFileError("line %d: duplicate track id %d" % (lineno, label))
        if birth > end:
            raise TrackFileError("line %d: B > E for track %d" % (lineno, label))
        if parent < 0:
            raise TrackFileError("line %d: negative parent id" % lineno)
        graph.tracks[label] = Track(label, birth, end, parent)
    return graph


def _validated(graph):
    try:
        graph.validate()
    except ValueError as exc:
        raise TrackFileError(str(exc)) from None
    return graph


def parse_track_file(text):
    """Strict parse into a LineageGraph's tracks; rejects duplicate ids,
    dangling parents, parent gaps and B > E."""
    return _validated(_parse_tracks(text))


def format_track_file(graph):
    """One `L B E P` line per track, in ascending track id."""
    tracks = (graph.tracks[tid] for tid in sorted(graph.tracks))
    return "".join("%d %d %d %d\n" % (tr.id, tr.birth, tr.end, tr.parent) for tr in tracks)


def write_track_file(path, graph):
    with open(path, "w", newline="\n") as f:
        f.write(format_track_file(graph))


def read_track_file(path, labels=()):
    """Read a track file; `labels[t - 1]` holds the mask labels present in
    frame t (0 is ignored). A mask label is its track's id, so each must lie
    inside that track's span."""
    with open(path) as f:
        graph = _parse_tracks(f.read())
    graph.assignments = {t: {lab: lab for lab in present if lab} for t, present in enumerate(labels, start=1)}
    return _validated(graph)

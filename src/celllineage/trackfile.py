"""res_track.txt lineage interchange: one `L B E P` line per track."""

import re

from .linker import LineageGraph, Track

# an integer field: an optional '-' and at most 20 ASCII digits; int() would
# also take '+', '_' and non-ASCII digits, and refuses 4,301 digits or more
INTEGER = re.compile(r"-?[0-9]{1,20}")


class TrackFileError(ValueError):
    pass


def records(lines):
    """(line number from 1, whitespace-split fields) of each non-blank line.
    Callers pass lines that end only at a newline (text split at '\\n', or a
    text-mode file), so a form feed or '\\u2028' inside a line separates
    fields and never starts a new line."""
    for lineno, line in enumerate(lines, start=1):
        fields = line.split()
        if fields:
            yield lineno, fields


def parse_track_file(text, labels=()):
    """Strict parse into a LineageGraph; rejects malformed lines, duplicate
    ids, dangling parents, parent gaps, B < 1 and B > E. `labels[t - 1]`
    holds the mask labels present in frame t (0 is ignored). A mask label
    is its track's id, so each must lie inside that track's span."""
    graph = LineageGraph()
    for lineno, parts in records(text.split("\n")):
        if len(parts) != 4:
            raise TrackFileError("line %d: expected 4 fields, got %d" % (lineno, len(parts)))
        if not all(map(INTEGER.fullmatch, parts)):
            raise TrackFileError("line %d: non-integer field" % lineno)
        label, birth, end, parent = (int(p) for p in parts)
        if label <= 0:
            raise TrackFileError("line %d: track id must be positive" % lineno)
        if label in graph.tracks:
            raise TrackFileError("line %d: duplicate track id %d" % (lineno, label))
        if birth < 1:
            raise TrackFileError("line %d: birth frame must be >= 1, got %d" % (lineno, birth))
        if birth > end:
            raise TrackFileError("line %d: B > E for track %d" % (lineno, label))
        if parent < 0:
            raise TrackFileError("line %d: negative parent id" % lineno)
        graph.tracks[label] = Track(label, birth, end, parent)
    graph.assignments = {t: {lab: lab for lab in present if lab} for t, present in enumerate(labels, start=1)}
    try:
        graph.validate()
    except ValueError as exc:
        raise TrackFileError(str(exc)) from None
    return graph


def format_track_file(graph):
    """One `L B E P` line per track, in ascending track id."""
    tracks = (graph.tracks[tid] for tid in sorted(graph.tracks))
    return "".join("%d %d %d %d\n" % (tr.id, tr.birth, tr.end, tr.parent) for tr in tracks)


def write_track_file(path, graph):
    with open(path, "w", newline="\n") as f:
        f.write(format_track_file(graph))


def read_track_file(path, labels=()):
    """`parse_track_file` of the file at `path`; each error names the file."""
    with open(path) as f:
        text = f.read()
    try:
        return parse_track_file(text, labels)
    except TrackFileError as exc:
        raise TrackFileError("%s: %s" % (path, exc)) from None

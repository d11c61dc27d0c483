"""res_track.txt lineage interchange: one `L B E P` line per track."""

from dataclasses import dataclass

from .linker import LineageGraph, Track


@dataclass(frozen=True)
class TrackFileRecord:
    label: int  # track id (L)
    birth: int  # first frame (B)
    end: int  # last frame (E)
    parent: int  # parent track id, 0 = none (P)


class TrackFileError(ValueError):
    pass


def parse_track_file(text):
    """Strict parse; rejects duplicate ids, dangling parents and B > E."""
    records = []
    by_id = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise TrackFileError("line %d: expected 4 fields, got %d" % (lineno, len(parts)))
        try:
            label, birth, end, parent = (int(p) for p in parts)
        except ValueError:
            raise TrackFileError("line %d: non-integer field" % lineno)
        if label <= 0:
            raise TrackFileError("line %d: track id must be positive" % lineno)
        if label in by_id:
            raise TrackFileError("line %d: duplicate track id %d" % (lineno, label))
        if birth > end:
            raise TrackFileError("line %d: B > E for track %d" % (lineno, label))
        if parent < 0:
            raise TrackFileError("line %d: negative parent id" % lineno)
        rec = TrackFileRecord(label, birth, end, parent)
        by_id[label] = rec
        records.append(rec)
    for rec in records:
        if rec.parent:
            parent = by_id.get(rec.parent)
            if parent is None:
                raise TrackFileError("track %d: dangling parent %d" % (rec.label, rec.parent))
            if parent.end != rec.birth - 1:
                raise TrackFileError(
                    "track %d born at %d but parent %d ends at %d"
                    % (rec.label, rec.birth, rec.parent, parent.end)
                )
    return records


def format_track_file(records):
    lines = ["%d %d %d %d" % (r.label, r.birth, r.end, r.parent) for r in records]
    return "".join(line + "\n" for line in lines)


def records_from_lineage(graph):
    return [
        TrackFileRecord(tr.id, tr.birth, tr.end, tr.parent)
        for tr in sorted(graph.tracks.values(), key=lambda tr: tr.id)
    ]


def lineage_from_records(records, masks=None):
    """Rebuild a LineageGraph; assignments come from masks when given
    (mask labels are track ids)."""
    import numpy as np

    graph = LineageGraph()
    for rec in records:
        graph.tracks[rec.label] = Track(rec.label, rec.birth, rec.end, rec.parent)
    if masks is not None:
        for t, mask in enumerate(masks, start=1):
            assign = {}
            for lab in np.unique(mask.labels):
                if lab > 0:
                    assign[int(lab)] = int(lab)
            graph.assignments[t] = assign
    graph.validate()
    return graph


def write_track_file(path, graph):
    with open(path, "w", newline="\n") as f:
        f.write(format_track_file(records_from_lineage(graph)))


def read_track_file(path, masks=None):
    with open(path) as f:
        text = f.read()
    return lineage_from_records(parse_track_file(text), masks)

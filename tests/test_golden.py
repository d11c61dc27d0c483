"""Golden outputs: sha256 of the canonical scenario's files, seeds 1-3.

`lineage simulate --seed N` writes the frames; `lineage track` on them
writes the mask stack, `res_track.txt` and `events.txt`. Every digest
below was recorded from the program before the FFT NCC kernel replaced
the sliding-window one; a change that alters any output byte fails here.
To see the digests of the current code, run this file as a script.
"""

import hashlib
import os
import sys

import pytest

from celllineage.cli import EVENT_FILE, FRAME_FMT, MASK_FMT, TRACK_FILE, main

GOLDEN = {
    1: {
        "frames": "61255cefa547c5aea702f9d3ad1fcd62d5e8fcd053ec23a2f1cb87c2393e45a9",
        "masks": "2d9c49a9121a2a18e25db59b9145731b09abd4ad02d43779ced226c479855c6e",
        "res_track": "48d3681b66f54927d05c852f8f03b62106d043eda8cc9aa550d48e90d29fd649",
        "events": "4292e5c27111a372f9452e60eb4952ede542a68b8dcffdf46a1479d5d0ef7fba",
    },
    2: {
        "frames": "c04213d392dce1e102ade5910c63c5cc12910072110e2bb5411f86e6ae918dd9",
        "masks": "00fe8a9d85a8b19c812ed108785a6e4493c0f185635c1cb6290e15c476ce7187",
        "res_track": "4d2b592597d6db76dfee183f4418af4b86ba2e900fce57e3cd79ecb4c9a22669",
        "events": "7080616a1aeb965b5a48fec749d6ecd08498017cc0a52fe8fa3771221514aff2",
    },
    3: {
        "frames": "fccaf6a49f129aa09695b356b35c313f372b14a8c165e832a8f6e5fae4ef53fa",
        "masks": "4a164716398299ab0e8ae9c57c085c449474b7cd74004a8ffe0d195b1e099009",
        "res_track": "11a747886ad09bba4b48ba096c5a368e080bdac2edabcbed106deeeb7f95ef7e",
        "events": "8fe02c720b745de8cb8b43c4885115579cbfdf8a24e415aba24fc59bef6ac1bb",
    },
}


def _stack_digest(directory, fmt):
    h = hashlib.sha256()
    t = 1
    while os.path.exists(os.path.join(directory, fmt % t)):
        with open(os.path.join(directory, fmt % t), "rb") as f:
            h.update(f.read())
        t += 1
    assert t > 1, "no %s in %s" % (fmt % 1, directory)
    return h.hexdigest()


def _file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def canonical_digests(seed, workdir):
    sim = os.path.join(workdir, "sim%d" % seed)
    out = os.path.join(workdir, "track%d" % seed)
    assert main(["simulate", "--seed", str(seed), "--out", sim]) == 0
    assert main(["track", "--in", sim, "--out", out]) == 0
    return {
        "frames": _stack_digest(sim, FRAME_FMT),
        "masks": _stack_digest(out, MASK_FMT),
        "res_track": _file_digest(os.path.join(out, TRACK_FILE)),
        "events": _file_digest(os.path.join(out, EVENT_FILE)),
    }


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_canonical_outputs_match_golden(seed, tmp_path, capsys):
    digests = canonical_digests(seed, str(tmp_path))
    capsys.readouterr()
    assert digests == GOLDEN[seed]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for seed in sorted(GOLDEN):
            print(seed, canonical_digests(seed, tmp), file=sys.stderr)

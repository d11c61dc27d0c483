"""Golden outputs: sha256 of `lineage simulate`, `track`, `evaluate` and
`overlay` files.

`lineage simulate` writes the frames; `lineage track` on them writes the
mask stack, `res_track.txt` and `events.txt`; `lineage evaluate` of the
tracked output against the simulated ground truth writes `report.json`.
`GOLDEN` pins the canonical scenario, seeds 1-3, full pipeline; its digests
were recorded from the program before the FFT NCC kernel replaced the
sliding-window one. `BASELINE_GOLDEN` pins the same seeds tracked with
`--baseline`, and `COLLISIONS_GOLDEN` a collision-heavy sequence tracked
both ways; these were recorded before cells stopped carrying a pixel set.
The `report` digests and `OVERLAY_GOLDEN` (the `lineage overlay` stack of
seed 1's tracked output) were recorded before `evaluate` built its
per-frame census once. `CROWDED_GOLDEN` pins `lineage simulate`'s frames,
ground-truth masks, `res_track.txt` and `events.txt` for a dense 512x512
field with random mitoses; it was recorded before the simulator rendered
each cell only in its own window. `CROWDED_TRACK_GOLDEN` pins `lineage
track` of that field, full and `--baseline`, with the 64 px window, and the
`report.json` of each; it was recorded before the linker matched cells by
box tables. The full-pipeline `masks` and `report` digests of both 64 px
window cases, and the crowded `events`, were re-recorded when a search
window narrower than its template came to be grown to hold the template
box instead of shifted off it. All ten `report` digests were re-recorded
when the ground-truth fingerprint in `report.json` came to hash 16-bit
labels, the width of a mask file. A change that alters any output byte
fails here. To see the digests of the current code for every pinned case,
run this file as a script.
"""

import hashlib
import json
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
        "report": "e53d70cba548c10907823c2b7bb6696f705b97843e32e5d441ca1a013484d152",
    },
    2: {
        "frames": "c04213d392dce1e102ade5910c63c5cc12910072110e2bb5411f86e6ae918dd9",
        "masks": "00fe8a9d85a8b19c812ed108785a6e4493c0f185635c1cb6290e15c476ce7187",
        "res_track": "4d2b592597d6db76dfee183f4418af4b86ba2e900fce57e3cd79ecb4c9a22669",
        "events": "7080616a1aeb965b5a48fec749d6ecd08498017cc0a52fe8fa3771221514aff2",
        "report": "e26cc4589b5c54cd0dfe2d09c8e827d65d40de4a43fb73ced65b7d56e1d40590",
    },
    3: {
        "frames": "fccaf6a49f129aa09695b356b35c313f372b14a8c165e832a8f6e5fae4ef53fa",
        "masks": "4a164716398299ab0e8ae9c57c085c449474b7cd74004a8ffe0d195b1e099009",
        "res_track": "11a747886ad09bba4b48ba096c5a368e080bdac2edabcbed106deeeb7f95ef7e",
        "events": "8fe02c720b745de8cb8b43c4885115579cbfdf8a24e415aba24fc59bef6ac1bb",
        "report": "ddd575f61a1e8ec9513a0b969e6baba7de188293c74e88176a784f59bb3289fd",
    },
}


BASELINE_GOLDEN = {
    1: {
        "masks": "6d8d5d0f208f8019419c505b2580a2f6ea353810028dfec7d3ebc073da879d6c",
        "res_track": "999c8ceb362527eac5e2dbd53dd3fb7df21a0ee4361026fb37776b997d9ae23d",
        "events": "c3bb5a22f63a5d1f56af283bdc7d44912a5d08921aed478a444a6d94e2753084",
        "report": "b3cf535d3c292bd445cadf9525adef9c3009d084115cb9769e7480ea54b012b9",
    },
    2: {
        "masks": "1b6becb121cffb4f37bbb9fc0f0770b1ce1b1fb8c5deb29cf2cf14be3552c161",
        "res_track": "69681b4e79479087495661af4e92bf295d447055d564aca3a9251330eff22225",
        "events": "fffb33a3b3f2c3f1205ed672f62406e22e46a4114b75e165ebd3d8c65c1f68b5",
        "report": "bc289e592b953dc78db840963cf4d168d8950eb548a1c4dc82adbefe8a2d3117",
    },
    3: {
        "masks": "087018e1375ee4722aa74aca5acfe8a567ec7c2cee6b189473b4af88b8b75fdf",
        "res_track": "83fe8cdb3dfba07b68ee4744d31c4f6d2f03b9e869181ec5fa24dfd80e062955",
        "events": "d16411c7aab00231f68777550dd19e086798a424703cc844e10cc8d6bf2a0e73",
        "report": "074086cb65bce9c58a8d46fa29efbb545fce65a77ede8f95514875b923217105",
    },
}

# Five scripted collisions on disjoint pairs in a 384x384 field, tracked
# with a 64 px search window: many lumps to split by random walker.
COLLISIONS_SIM = {
    "width": 384,
    "height": 384,
    "frames": 20,
    "n_init": 12,
    "radius_range": [9.0, 12.0],
    "drift_sigma": 1.0,
    "collision_script": [[8, 1, 2], [9, 3, 4], [10, 5, 6], [11, 7, 8], [12, 9, 10]],
    "noise_sigma": 0.02,
    "rng_seed": 111,
}
COLLISIONS_TRACK = {"tracker": {"search_size": 64}}
COLLISIONS_GOLDEN = {
    "full": {
        "frames": "e5b7de078de97294b92a936c2385d1e81eb173644fc48d17bba32d34c5fd30ac",
        "masks": "22ad5ab219cfe12139b8d630371c06350e5cee84264e0a43b08a50704e4650ed",
        "res_track": "f4514073cb3b75691d4f184311505e6244571061b68b92eb8dc4673cf0aa17dd",
        "events": "50838b5fffaf0cbbe44d1c6f0b7834d3696034fb6fa39e008569a5b48d965063",
        "report": "10715493b769717302ef4e9f0b8e20ceec8b19556e8c681e12747aff7e14f1bc",
    },
    "baseline": {
        "frames": "e5b7de078de97294b92a936c2385d1e81eb173644fc48d17bba32d34c5fd30ac",
        "masks": "25fc91d557f3f59789d08d9a04ad087b845e8c420ee665573a88ce37bb2ae5d0",
        "res_track": "2f538cfa4e6e2d048c50f706338b2c4ba61dc7eb612ab91f9fd2e2e8f2a13a16",
        "events": "eee52da49de110dc1763b506fe6c5e3d31298d1eed068a85352bdf04ad00971e",
        "report": "c399bb4ff0ab3aa0c5575df4f47752294b5bd97d2eea101e28d3774b22fb6423",
    },
}

# A larger, denser field with random mitoses (the shape of perfbench's
# `crowded` workload): half-radius daughters and cells whose render windows
# are clipped at the frame border. Only `lineage simulate`'s outputs are
# pinned: the frames, the ground-truth masks, `res_track.txt` and `events.txt`.
CROWDED_SIM = {
    "width": 512,
    "height": 512,
    "frames": 8,
    "n_init": 30,
    "radius_range": [9.0, 12.0],
    "drift_sigma": 1.0,
    "mitosis_prob": 0.03,
    "collision_script": [[7, 1, 2]],
    "noise_sigma": 0.02,
    "rng_seed": 1,
}
CROWDED_GOLDEN = {
    "frames": "270b8ccd1625b3175cc87d04578348ae2333aa0ae15d657442cf6b24587ccfc0",
    "masks": "7fd06b1e4d4698ffa661d26172d0f5bba43c0b1171102dff892c76962f98594e",
    "res_track": "00de1e5de43bcaba8af43a778212b639bacde724bf2fbedcd029a75c4fbc96c0",
    "events": "367596fe0ace69c7c03c57e63f521eb3c68a4c17e7628072563c316b55e2f6bb",
}

CROWDED_TRACK_GOLDEN = {
    "full": {
        "masks": "41d443ee8e1ce229b3a65a7a0b937ee3b08105e1498acfb9424d15a09499c4b1",
        "res_track": "1636234b02761f1f808dfad49a29fe1d6e314e56d5b4c63b8b8dac3729939fbd",
        "events": "9d921e4559f624164b483fd5dd4a339e689e62823765696bd99bb9973ca106cf",
        "report": "d5314cf1fce4598cad76b9d905b93332f5b44960fe18f7f8b2a8e736826880aa",
    },
    "baseline": {
        "masks": "7420ccbad6e73adf8ec761680264b2b712ff978019fc23c852065d45ffec74a8",
        "res_track": "4c30d443595af5755e040fe437bbd6bcc4b0b7b6856dca0fb41fa36e6b42d84e",
        "events": "f5ea177252d43bfd2afd009db48485334e838e81d3138d2349d4d74db50b865d",
        "report": "1eb5fdd5a88598fd37e0060f8c52e1cc76cd3a3e9e96e1bfb8b8acda36620062",
    },
}

OVERLAY_GOLDEN = "1a6d2d373f79b6dfb78ddb3270fbc4b3b98791d3d923fe0c5f37f699f9b88ff7"


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


def _track_digests(sim, out, track_args):
    assert main(["track", "--in", sim, "--out", out] + track_args) == 0
    digests = {
        "masks": _stack_digest(out, MASK_FMT),
        "res_track": _file_digest(os.path.join(out, TRACK_FILE)),
        "events": _file_digest(os.path.join(out, EVENT_FILE)),
    }
    assert main(["evaluate", "--gt", sim, "--pred", out]) == 0
    return dict(digests, report=_file_digest(os.path.join(out, "report.json")))


def canonical_digests(seed, workdir, track_args=()):
    sim = os.path.join(workdir, "sim%d" % seed)
    if not os.path.isdir(sim):
        assert main(["simulate", "--seed", str(seed), "--out", sim]) == 0
    out = os.path.join(workdir, "track%d%s" % (seed, "".join(track_args)))
    return {"frames": _stack_digest(sim, FRAME_FMT), **_track_digests(sim, out, list(track_args))}


def collisions_digests(workdir, baseline):
    sim = os.path.join(workdir, "collisions")
    sim_cfg, track_cfg = os.path.join(workdir, "sim.json"), os.path.join(workdir, "track.json")
    for path, doc in ((sim_cfg, COLLISIONS_SIM), (track_cfg, COLLISIONS_TRACK)):
        with open(path, "w") as f:
            json.dump(doc, f)
    if not os.path.isdir(sim):
        assert main(["simulate", "--config", sim_cfg, "--out", sim]) == 0
    out = os.path.join(workdir, "collisions_track%s" % ("_baseline" if baseline else ""))
    track_args = ["--config", track_cfg] + (["--baseline"] if baseline else [])
    return {"frames": _stack_digest(sim, FRAME_FMT), **_track_digests(sim, out, track_args)}


def _simulate_crowded(workdir):
    """Path of CROWDED_SIM's `lineage simulate` tree, simulated on first use."""
    sim, sim_cfg = os.path.join(workdir, "crowded"), os.path.join(workdir, "crowded.json")
    if not os.path.isdir(sim):
        with open(sim_cfg, "w") as f:
            json.dump(CROWDED_SIM, f)
        assert main(["simulate", "--config", sim_cfg, "--out", sim]) == 0
    return sim


def crowded_digests(workdir):
    """Digests of `lineage simulate`'s output tree for CROWDED_SIM."""
    sim = _simulate_crowded(workdir)
    return {
        "frames": _stack_digest(sim, FRAME_FMT),
        "masks": _stack_digest(sim, MASK_FMT),
        "res_track": _file_digest(os.path.join(sim, TRACK_FILE)),
        "events": _file_digest(os.path.join(sim, EVENT_FILE)),
    }


def crowded_track_digests(workdir, baseline):
    """Digests of `lineage track` of CROWDED_SIM with the 64 px window, and its report."""
    sim, track_cfg = _simulate_crowded(workdir), os.path.join(workdir, "crowded_track.json")
    with open(track_cfg, "w") as f:
        json.dump(COLLISIONS_TRACK, f)
    out = os.path.join(workdir, "crowded_track%s" % ("_baseline" if baseline else ""))
    return _track_digests(sim, out, ["--config", track_cfg] + (["--baseline"] if baseline else []))


def overlay_digest(workdir):
    """Digest of the overlay stack of canonical seed 1's tracked output."""
    canonical_digests(1, workdir)
    out = os.path.join(workdir, "overlay1")
    argv = ["overlay", "--in", os.path.join(workdir, "sim1"), "--masks", os.path.join(workdir, "track1")]
    assert main(argv + ["--out", out]) == 0
    return _stack_digest(out, "overlay%03d.ppm")


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_canonical_outputs_match_golden(seed, tmp_path, capsys):
    digests = canonical_digests(seed, str(tmp_path))
    capsys.readouterr()
    assert digests == GOLDEN[seed]


@pytest.mark.parametrize("seed", sorted(BASELINE_GOLDEN))
def test_canonical_baseline_outputs_match_golden(seed, tmp_path, capsys):
    digests = canonical_digests(seed, str(tmp_path), ["--baseline"])
    capsys.readouterr()
    assert digests == dict(BASELINE_GOLDEN[seed], frames=GOLDEN[seed]["frames"])


@pytest.mark.parametrize("mode", sorted(COLLISIONS_GOLDEN))
def test_collisions_outputs_match_golden(mode, tmp_path, capsys):
    digests = collisions_digests(str(tmp_path), mode == "baseline")
    capsys.readouterr()
    assert digests == COLLISIONS_GOLDEN[mode]


def test_crowded_simulation_matches_golden(tmp_path, capsys):
    digests = crowded_digests(str(tmp_path))
    capsys.readouterr()
    assert digests == CROWDED_GOLDEN


@pytest.mark.parametrize("mode", sorted(CROWDED_TRACK_GOLDEN))
def test_crowded_track_outputs_match_golden(mode, tmp_path, capsys):
    digests = crowded_track_digests(str(tmp_path), mode == "baseline")
    capsys.readouterr()
    assert digests == CROWDED_TRACK_GOLDEN[mode]


def test_canonical_overlay_matches_golden(tmp_path, capsys):
    digest = overlay_digest(str(tmp_path))
    capsys.readouterr()
    assert digest == OVERLAY_GOLDEN


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for seed in sorted(GOLDEN):
            print("canonical", seed, canonical_digests(seed, tmp), file=sys.stderr)
            print("canonical --baseline", seed, canonical_digests(seed, tmp, ["--baseline"]), file=sys.stderr)
        for mode in sorted(COLLISIONS_GOLDEN):
            print("collisions", mode, collisions_digests(tmp, mode == "baseline"), file=sys.stderr)
        print("overlay", 1, overlay_digest(tmp), file=sys.stderr)
        print("crowded simulate", crowded_digests(tmp), file=sys.stderr)
        for mode in sorted(CROWDED_TRACK_GOLDEN):
            print("crowded track", mode, crowded_track_digests(tmp, mode == "baseline"), file=sys.stderr)

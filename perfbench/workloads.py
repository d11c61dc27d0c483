"""The benchmark's workloads: seeded sets of simulated sequences.

A workload is a list of sequences, each described by the `SimConfig` JSON
that `lineage simulate --config` reads, plus the `track --config` JSON (or
None for the program's defaults). Everything is a pure function of the
workload name and the run seed.
"""

from dataclasses import dataclass

# Pipeline settings the benchmark's own checks must mirror.  The track
# configs below leave them at the program's defaults.
MIN_CELL_SIZE = 5
CONNECTIVITY = 4

# Sequence i of a run with seed n is simulated with rng_seed n + SEED_STRIDE * i,
# so runs with different seeds (below SEED_STRIDE) share no sequence.
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    sequences: int  # sequences simulated, tracked and evaluated per run
    sim: dict  # SimConfig fields shared by all sequences (rng_seed added per sequence)
    track_config: dict  # `track --config` JSON, or None for the defaults

    def sim_configs(self, seed):
        return [dict(self.sim, rng_seed=seed + SEED_STRIDE * i) for i in range(self.sequences)]

    def scripted_events(self):
        """(t, kind, first id) of every scripted event; simulate must log each."""
        events = [(t, "COLLISION", a) for t, a, _ in self.sim.get("collision_script", ())]
        events += [(t, "MITOSIS", a) for t, a in self.sim.get("mitosis_script", ())]
        events += [(t, "APOPTOSIS", a) for t, a in self.sim.get("apoptosis_script", ())]
        return events


# simulator.script_collision_scenario, spelled out so the benchmark, not the
# program, defines its inputs: 256x256, 20 frames, 5 cells, one collision,
# one mitosis and one apoptosis.  Tracked with the default 150 px window,
# where the NCC kernel does nearly all of the work.  Not in BENCHMARK.json:
# its track time varies by about 15% from seed to seed with the cells'
# radii, and the three sequences that fit in a run cannot average that out.
CANONICAL = Workload(
    name="canonical",
    sequences=3,
    sim={
        "width": 256,
        "height": 256,
        "frames": 20,
        "n_init": 5,
        "radius_range": [9.0, 12.0],
        "drift_sigma": 1.0,
        "collision_script": [[8, 1, 2]],
        "mitosis_script": [[12, 3]],
        "apoptosis_script": [[14, 4]],
        "fade_frames": 4,
        "noise_sigma": 0.02,
    },
    track_config=None,
)

# A larger field with many cells and random mitoses, tracked with a small
# window: per-pixel and per-cell work (rendering, thresholding, connected
# components, cell extraction, frame normalisation, PGM I/O, scoring)
# outweighs the kernel.  One scripted collision keeps the random walker
# in use, lightly, on every seed.
CROWDED = Workload(
    name="crowded",
    sequences=2,
    sim={
        "width": 512,
        "height": 512,
        "frames": 8,
        "n_init": 30,
        "radius_range": [9.0, 12.0],
        "drift_sigma": 1.0,
        "mitosis_prob": 0.03,
        "collision_script": [[7, 1, 2]],
        "noise_sigma": 0.02,
    },
    track_config={"tracker": {"search_size": 64}},
)

# Five scripted collisions on disjoint pairs: many under-segmented lumps to
# flag, split by random walker and re-predict.
COLLISIONS = Workload(
    name="collisions",
    sequences=4,
    sim={
        "width": 384,
        "height": 384,
        "frames": 20,
        "n_init": 12,
        "radius_range": [9.0, 12.0],
        "drift_sigma": 1.0,
        "collision_script": [[8, 1, 2], [9, 3, 4], [10, 5, 6], [11, 7, 8], [12, 9, 10]],
        "noise_sigma": 0.02,
    },
    track_config={"tracker": {"search_size": 64}},
)

WORKLOADS = {w.name: w for w in (CANONICAL, CROWDED, COLLISIONS)}

"""Workload inputs: parameters and seeded frame generation.

The program only ever receives the frames made here; the seed passed on
the command line is the only source of variation between runs.
"""

from __future__ import annotations

#: Distinct video frames rendered per run: one cold frame then warm ones.
VIDEO_POOL = 10

VIDEO_SHAPE = (1080, 1920)
VGA_SHAPE = (480, 640)

#: ``repro serve`` flags: the thread executor with default admission and
#: degradation, the CLI's default segmentation parameters, one kernel
#: thread per frame (at VGA a second one gains nothing, and it would
#: compete with the server's event loop and the client for two cores).
SERVE_ARGS = ("--port", "0", "--exec-mode", "thread", "--kernel-threads", "1")


def child_seeds(seed: int, n: int):
    """``n`` independent 32-bit seeds derived from the command-line seed."""
    import numpy as np

    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def video_params():
    """The shipped streaming params at the paper's 1080p K=5000."""
    from repro.core import SlicParams

    return SlicParams(
        n_superpixels=5000, subsample_ratio=0.5, architecture="ppa",
        convergence_threshold=0.3,
    )


def serve_params():
    """What ``repro serve`` runs with ``SERVE_ARGS`` (mirrors the CLI)."""
    from repro.core import SlicParams

    return SlicParams(
        n_superpixels=200, compactness=10.0, max_iterations=10,
        subsample_ratio=0.5, n_threads=1,
    )


PARAMS = {"video_1080p": video_params}


def video_sequence(seed: int, n_frames: int, shape):
    """A hand-held (shake) synthetic video with per-frame sensor noise."""
    from repro.data import SceneConfig, VideoSequence

    return VideoSequence(
        n_frames=n_frames,
        config=SceneConfig(height=shape[0], width=shape[1], noise=0.0),
        motion="shake", amplitude=3.0, noise_sigma=4.0, seed=seed,
    )

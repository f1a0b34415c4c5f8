"""Blocked contact extraction against the frame-by-frame reference.

:func:`repro.mobility.extract_contacts` scans position samples in blocks
of frames.  The reference below is the original one-frame-at-a-time
scan; the two must agree exactly (values and dtypes) on every input,
including encounters that straddle a block edge and pairs already in
range at the first frame.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility import extract_contacts
from repro.mobility.extraction import _BLOCK_FRAMES

B = _BLOCK_FRAMES
#: Frame counts just below, at and just above the block size and a few
#: multiples of it, so encounters land on and across block edges.
FRAME_COUNTS = sorted(
    {2, 3, B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 3 * B + 7, 5 * B}
)


def reference_extract(positions, times, radius):
    """The frame-by-frame scan: (times, node_a, node_b, duration)."""
    positions = np.asarray(positions, dtype=float)
    times = np.asarray(times, dtype=float)
    iu = np.triu_indices(positions.shape[1], k=1)
    event_times = []
    event_a = []
    event_b = []
    previous = np.zeros(len(iu[0]), dtype=bool)
    for k in range(len(times)):
        frame = positions[k]
        deltas = frame[iu[0]] - frame[iu[1]]
        in_range = (deltas[:, 0] ** 2 + deltas[:, 1] ** 2) <= radius**2
        started = in_range & ~previous
        count = int(started.sum())
        if count:
            event_times.append(np.full(count, times[k]))
            event_a.append(iu[0][started])
            event_b.append(iu[1][started])
        previous = in_range
    if event_times:
        return (
            np.concatenate(event_times),
            np.concatenate(event_a),
            np.concatenate(event_b),
            float(times[-1]),
        )
    return (
        np.empty(0),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        float(times[-1]),
    )


def assert_matches_reference(positions, times, radius):
    trace = extract_contacts(positions, times, radius)
    ref_times, ref_a, ref_b, ref_duration = reference_extract(
        positions, times, radius
    )
    for got, want in (
        (trace.times, ref_times),
        (trace.node_a, ref_a),
        (trace.node_b, ref_b),
    ):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert trace.duration == ref_duration
    assert trace.n_nodes == positions.shape[1]
    return trace


def random_walk(n_frames, n_nodes, step, seed, crowded_start):
    """Node tracks whose pairs drift in and out of range."""
    rng = np.random.default_rng(seed)
    if crowded_start:
        start = np.zeros((1, n_nodes, 2))
    else:
        start = rng.uniform(0.0, 10.0, size=(1, n_nodes, 2))
    steps = rng.normal(0.0, step, size=(n_frames - 1, n_nodes, 2))
    return np.cumsum(np.concatenate((start, steps)), axis=0)


@settings(max_examples=80, deadline=None)
@given(
    n_nodes=st.integers(2, 12),
    n_frames=st.sampled_from(FRAME_COUNTS),
    radius=st.floats(0.05, 8.0),
    step=st.floats(0.1, 2.0),
    seed=st.integers(0, 2**32 - 1),
    crowded_start=st.booleans(),
)
def test_blocked_extraction_matches_frame_scan(
    n_nodes, n_frames, radius, step, seed, crowded_start
):
    positions = random_walk(n_frames, n_nodes, step, seed, crowded_start)
    times = np.cumsum(np.random.default_rng(seed).uniform(0.5, 2.0, n_frames))
    trace = assert_matches_reference(positions, times, radius)
    if crowded_start:
        # Every pair is in range at the first sample: one start each.
        n_pairs = n_nodes * (n_nodes - 1) // 2
        assert np.count_nonzero(trace.times == times[0]) == n_pairs


@pytest.mark.parametrize("n_frames", FRAME_COUNTS)
def test_no_contact(n_frames):
    """Nodes parked far apart never meet: an empty, typed trace."""
    positions = np.zeros((n_frames, 4, 2))
    positions[:, :, 0] = [0.0, 100.0, 200.0, 300.0]
    trace = assert_matches_reference(positions, np.arange(float(n_frames)), 1.0)
    assert len(trace) == 0


@pytest.mark.parametrize("enter", [B - 2, B - 1, B, B + 1, 2 * B - 1, 2 * B])
@pytest.mark.parametrize("stay", [1, 2, B + 3])
def test_encounter_across_block_edge(enter, stay):
    """A pair entering range near a block edge starts exactly once."""
    n_frames = 3 * B + 5
    positions = np.zeros((n_frames, 3, 2))
    positions[:, 1, 0] = 50.0
    positions[:, 2, 0] = 100.0
    positions[enter : enter + stay, 1, 0] = 0.5
    trace = assert_matches_reference(positions, np.arange(float(n_frames)), 1.0)
    assert trace.times.tolist() == [float(enter)]
    assert (trace.node_a.tolist(), trace.node_b.tolist()) == ([0], [1])

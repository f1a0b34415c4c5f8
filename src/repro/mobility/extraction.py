"""Proximity-based contact extraction from position samples.

Follows the construction the paper applies to the Cabspotting data:
"taxicabs are in contact whenever they are less than 200 m apart".  A
*contact event* is recorded when a pair transitions from out-of-range to
in-range (the start of an encounter), which matches the instantaneous
meeting semantics of :class:`~repro.contacts.trace.ContactTrace`.
"""

from __future__ import annotations

import numpy as np

from ..contacts.trace import ContactTrace
from ..errors import ConfigurationError
from ..types import FloatArray

__all__ = ["extract_contacts"]

#: Frames per vectorized pass of :func:`extract_contacts`.
_BLOCK_FRAMES = 64


def extract_contacts(
    positions: FloatArray,
    times: FloatArray,
    radius: float,
) -> ContactTrace:
    """Derive a contact trace from sampled positions.

    Parameters
    ----------
    positions:
        Array of shape ``(n_times, n_nodes, 2)``.
    times:
        Sample instants, strictly increasing, starting at ``>= 0``.
    radius:
        Contact range in the same length unit as the positions.

    Returns
    -------
    ContactTrace
        One event per encounter *start*; pairs already in range at the
        first sample count as an encounter starting then.
    """
    positions = np.asarray(positions, dtype=float)
    times = np.asarray(times, dtype=float)
    if positions.ndim != 3 or positions.shape[2] != 2:
        raise ConfigurationError(
            f"positions must have shape (n_times, n_nodes, 2), got {positions.shape}"
        )
    if len(times) != positions.shape[0]:
        raise ConfigurationError("times length must match positions")
    if len(times) < 2 or np.any(np.diff(times) <= 0):
        raise ConfigurationError("times must be strictly increasing, >= 2 samples")
    if radius <= 0:
        raise ConfigurationError(f"radius must be > 0, got {radius}")

    n_nodes = positions.shape[1]
    iu_a, iu_b = np.triu_indices(n_nodes, k=1)
    event_times = []
    event_a = []
    event_b = []
    # One pass per block of frames: each block yields (frames, pairs)
    # arrays computed with the per-frame arithmetic, and nonzero() lists
    # encounter starts in (frame, pair) order, the order a frame-by-frame
    # scan emits them.  Slicing per block keeps no whole-column copies.
    previous = np.zeros((1, len(iu_a)), dtype=bool)
    for k0 in range(0, len(times), _BLOCK_FRAMES):
        x = positions[k0 : k0 + _BLOCK_FRAMES, :, 0]
        y = positions[k0 : k0 + _BLOCK_FRAMES, :, 1]
        dx = x[:, iu_a] - x[:, iu_b]
        dy = y[:, iu_a] - y[:, iu_b]
        in_range = (dx**2 + dy**2) <= radius**2
        shifted = np.concatenate((previous, in_range[:-1]))
        frame, pair = np.nonzero(in_range & ~shifted)
        event_times.append(times[k0 + frame])
        event_a.append(iu_a[pair])
        event_b.append(iu_b[pair])
        previous = in_range[-1:]
    return ContactTrace(
        times=np.concatenate(event_times),
        node_a=np.concatenate(event_a),
        node_b=np.concatenate(event_b),
        n_nodes=n_nodes,
        duration=float(times[-1]),
    )

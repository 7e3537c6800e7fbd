"""Binary state files: magic "KRYV1", little-endian u64 dim, (re, im) f64 pairs."""

from __future__ import annotations

import struct

import numpy as np

__all__ = ["MAGIC", "read_state", "write_state"]

MAGIC = b"KRYV1"


def write_state(path, state: np.ndarray) -> None:
    """Write a finite complex state vector; round-trips bit-exactly.

    A state with NaN or inf entries is rejected before the file is opened.
    """
    state = np.ascontiguousarray(state, dtype=np.complex128)
    if state.ndim != 1:
        raise ValueError("state must be a 1-D vector")
    if not np.isfinite(state).all():
        raise ValueError("state has NaN or inf entries")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", state.size))
        fh.write(state.view(np.float64).astype("<f8", copy=False).tobytes())


def read_state(path) -> np.ndarray:
    """Read a state vector written by :func:`write_state`."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"not a KRYV1 state file: bad magic {magic!r}")
        header = fh.read(8)
        if len(header) != 8:
            raise ValueError(f"truncated state file: {len(header)} of 8 dimension bytes")
        (dim,) = struct.unpack("<Q", header)
        payload = fh.read()
    expected = 16 * dim
    if len(payload) != expected:
        raise ValueError(f"truncated state file: {len(payload)} payload bytes, expected {expected}")
    pairs = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return pairs.view(np.complex128)

"""Length-prefixed binary message codec for the networked mode.

Framing: [u32 LE payload length][u8 type tag][payload]. Matrices travel as
[u32 LE rows][u32 LE cols][rows*cols float32 LE, row-major]; in-memory
values are float64, so the wire is lossy beyond float32 precision.
``as_received`` is that loss: the float64 matrix a peer decodes from one
it is sent, for a sender that must hold the same values as its peer.
Decoding never raises anything but WireError subclasses on malformed
input.

``_LAYOUT`` is the one place where payload layouts live: per tag, the
fixed header's struct, the message fields it carries and its matrix
count. ``encode_message`` and ``decode_message`` are each one pass over
that table, so a layout change is an edit to its entry. ``decode_message``
walks the frame with one offset and reads every field in place, so it
copies no bytes slice per field.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass, fields

import numpy as np

from .weights import KIND_ORDER, KINDS, WeightId

ACTIVATIONS = 1
CUT_GRAD = 2
ADAPTER_UPLOAD = 3
AGG_UPDATE = 4
PLAN = 5
BARRIER = 6

MAX_FRAME = 1 << 30
# The one type of every matrix entry on the wire.
_F32 = np.dtype("<f4")


class WireError(ValueError):
    """Base class for malformed wire data."""


class TruncatedError(WireError):
    pass


class ProtocolError(WireError):
    """A peer sent a well-formed frame that does not fit the session."""


@dataclass(frozen=True)
class WireMessage:
    tag: int
    # Populated per tag; unused fields stay at their defaults.
    client_id: int = 0
    round: int = 0
    n_samples: int = 0
    weight_id: WeightId | None = None
    loss: float = 0.0
    split_j: int = 0
    seed: int = 0
    ranks: tuple[tuple[WeightId, int], ...] = ()
    matrices: tuple[np.ndarray, ...] = ()

    def __eq__(self, other) -> bool:
        if not isinstance(other, WireMessage):
            return NotImplemented
        return all(_same(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


def _same(a, b) -> bool:
    # Tuples match item by item, matrices by shape and entries, any other value by ==.
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same, a, b))
    return a.shape == b.shape and np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


# The one declaration of every frame's payload: the fixed header's Struct,
# the WireMessage fields it carries, and how many matrices follow it.
# "block" and "kind" carry ``weight_id``. A header field named "ranks" counts
# the (u16 block, u8 kind, u16 rank) entries that follow the header, and one
# named "matrices" counts the matrices (the count column is then None).
# Matrices come last, each as [u32 rows][u32 cols][rows*cols float32].
_LAYOUT = {
    ACTIVATIONS: (struct.Struct("<IQ"), ("client_id", "n_samples"), 1),
    CUT_GRAD: (struct.Struct("<I"), ("client_id",), 1),
    ADAPTER_UPLOAD: (struct.Struct("<IHBQ"), ("client_id", "block", "kind", "n_samples"), 2),
    AGG_UPDATE: (struct.Struct("<HB"), ("block", "kind"), 1),
    PLAN: (struct.Struct("<IHQI"), ("client_id", "split_j", "seed", "ranks"), 0),
    BARRIER: (struct.Struct("<IIdB"), ("round", "client_id", "loss", "matrices"), None),
}
_FRAME = struct.Struct("<IB")
_ENTRY = struct.Struct("<HBH")
_DIMS = struct.Struct("<II")


def _weight_id(block: int, code: int) -> WeightId:
    if code >= len(KINDS):
        raise WireError(f"bad weight kind code {code}")
    return WeightId(block, KINDS[code])


def _end(data: bytes, pos: int, n: int) -> int:
    """The offset just past ``n`` bytes at ``pos``; TruncatedError if ``data`` ends before them."""
    if pos + n > len(data):
        raise TruncatedError(f"need {n} bytes at offset {pos}, have {len(data) - pos}")
    return pos + n


# The float64 matrix a peer decodes from ``m``, bit for bit: each entry rounded to the wire's float32.
def as_received(m: np.ndarray) -> np.ndarray:
    return np.asarray(m, dtype=_F32).astype(np.float64)


def encode_message(m: WireMessage) -> bytes:
    try:
        header, names, _ = _LAYOUT[m.tag]
    except KeyError:
        raise WireError(f"unknown message tag {m.tag}") from None
    values = []
    for f in names:
        if f == "block":
            values += (m.weight_id.block, KIND_ORDER[m.weight_id.kind])
        elif f in ("ranks", "matrices"):
            values.append(len(getattr(m, f)))
        elif f != "kind":
            values.append(getattr(m, f))
    parts = [header.pack(*values)]
    for wid, r in m.ranks:
        parts.append(_ENTRY.pack(wid.block, KIND_ORDER[wid.kind], r))
    for mat in m.matrices:
        parts += (_DIMS.pack(*mat.shape), np.ascontiguousarray(mat, dtype=_F32).tobytes())
    payload = b"".join(parts)
    return _FRAME.pack(len(payload), m.tag) + payload


def decode_message(data: bytes) -> WireMessage:
    if len(data) < _FRAME.size:
        raise TruncatedError(f"frame header needs {_FRAME.size} bytes, have {len(data)}")
    length, tag = _FRAME.unpack_from(data)
    if length > MAX_FRAME:
        raise WireError(f"frame length {length} exceeds limit")
    if len(data) - _FRAME.size != length:
        raise WireError(f"frame declares {length} payload bytes, have {len(data) - _FRAME.size}")
    try:
        header, names, n_matrices = _LAYOUT[tag]
    except KeyError:
        raise WireError(f"unknown message tag {tag}") from None
    pos = _end(data, _FRAME.size, header.size)
    kw = dict(zip(names, header.unpack_from(data, _FRAME.size)))
    if "block" in kw:
        kw["weight_id"] = _weight_id(kw.pop("block"), kw.pop("kind"))
    if "ranks" in kw:
        if kw["ranks"] > 65536:
            raise WireError(f"implausible plan entry count {kw['ranks']}")
        start, pos = pos, _end(data, pos, _ENTRY.size * kw["ranks"])
        entries = (_ENTRY.unpack_from(data, at) for at in range(start, pos, _ENTRY.size))
        kw["ranks"] = tuple((_weight_id(block, code), rank) for block, code, rank in entries)
    mats = []
    for _ in range(kw.get("matrices", n_matrices)):
        start, pos = pos, _end(data, pos, _DIMS.size)
        rows, cols = _DIMS.unpack_from(data, start)
        if rows == 0 or cols == 0 or rows * cols > (MAX_FRAME // _F32.itemsize):
            raise WireError(f"bad matrix dims {rows}x{cols}")
        start, pos = pos, _end(data, pos, rows * cols * _F32.itemsize)
        mats.append(as_received(np.frombuffer(data, _F32, rows * cols, start)).reshape(rows, cols))
    kw["matrices"] = tuple(mats)
    if tag == ADAPTER_UPLOAD and mats[0].shape[1] != mats[1].shape[0]:
        raise WireError(f"upload rank mismatch {mats[0].shape} vs {mats[1].shape}")
    if pos != len(data):
        raise WireError(f"{len(data) - pos} trailing payload bytes")
    return WireMessage(tag, **kw)


def frame_size(tag: int, shapes=(), entries: int = 0) -> int:
    """The byte length of a whole frame of ``tag`` whose matrices have
    ``shapes``; a PLAN's also counts its ``entries`` rank entries."""
    return (_FRAME.size + _LAYOUT[tag][0].size + _ENTRY.size * entries
            + sum(_DIMS.size + _F32.itemsize * rows * cols for rows, cols in shapes))


def read_frame(sock, sizes) -> bytes:
    """Read one complete frame from a socket, whose whole length must be
    one of ``sizes`` (each a ``frame_size``). The first recv asks for the
    shortest; a header that declares a length outside ``sizes`` raises
    ``ProtocolError`` before more is read. The socket's timeout bounds the
    frame, not each recv: any recv that leaves the frame incomplete lowers
    the timeout to what is left since the frame's read began, so a frame
    takes at most one timeout and at most ``max(sizes)`` bytes; past the
    timeout, ``TimeoutError``. A frame that arrives whole in one recv
    changes no timeout, and the socket's own timeout is restored
    afterwards."""
    timeout = sock.gettimeout()
    deadline = time.monotonic() + timeout if timeout else None
    # Until the header fixes the frame's length, the shortest it may have.
    chunks, got, length, want = [], 0, None, min(sizes)
    try:
        while got < want:
            chunk = sock.recv(want - got)
            if not chunk:
                raise TruncatedError(f"connection closed with {want - got} bytes outstanding")
            chunks.append(chunk)
            got += len(chunk)
            if length is None and got >= _FRAME.size:
                length, tag = _FRAME.unpack_from(b"".join(chunks))
                if _FRAME.size + length not in sizes:
                    raise ProtocolError(f"a tag-{tag} frame declares {length} payload bytes, "
                                        f"expected {sorted(s - _FRAME.size for s in sizes)}")
                want = _FRAME.size + length
            if got < want and deadline is not None:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise TimeoutError("frame deadline passed")
                sock.settimeout(left)
        return b"".join(chunks)
    finally:
        if sock.gettimeout() != timeout:
            sock.settimeout(timeout)

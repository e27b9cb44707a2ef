import hashlib
import struct
import threading
import time
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitft import wire
from splitft.weights import WeightId


def _f32(rng, rows, cols):
    """Random matrix whose float64 values are exactly representable in
    float32, so the wire round-trip is lossless."""
    return rng.standard_normal((rows, cols)).astype(np.float32).astype(np.float64)


def _sample_messages(rng):
    wid = WeightId(int(rng.integers(0, 4)), "QKVO"[rng.integers(0, 4)])
    return [
        wire.WireMessage(wire.ACTIVATIONS, client_id=3, n_samples=17, matrices=(_f32(rng, 4, 6),)),
        wire.WireMessage(wire.CUT_GRAD, client_id=1, matrices=(_f32(rng, 2, 8),)),
        wire.WireMessage(wire.ADAPTER_UPLOAD, client_id=2, weight_id=wid, n_samples=9,
                         matrices=(_f32(rng, 8, 2), _f32(rng, 2, 8))),
        wire.WireMessage(wire.AGG_UPDATE, weight_id=wid, matrices=(_f32(rng, 5, 5),)),
        wire.WireMessage(wire.PLAN, client_id=0, split_j=2, seed=12345,
                         ranks=((WeightId(0, "Q"), 4), (WeightId(1, "O"), 32))),
        wire.WireMessage(wire.BARRIER, round=7, client_id=1, loss=2.25,
                         matrices=(_f32(rng, 3, 1),)),
    ]


def test_round_trip_every_tag():
    rng = np.random.default_rng(0)
    for msg in _sample_messages(rng):
        assert wire.decode_message(wire.encode_message(msg)) == msg


def _m(rows, cols):
    return (np.arange(rows * cols, dtype=np.float64).reshape(rows, cols) - 3.0) / 4.0


# sha256 of one frame per tag. Frame bytes are the contract between server and
# clients, so a change to any of them updates these on purpose.
PINNED_FRAMES = {
    "ACTIVATIONS": (wire.WireMessage(wire.ACTIVATIONS, client_id=3, n_samples=17, matrices=(_m(4, 6),)),
                    "81a132b8d9520ca1af13f727ec7ed62e21be3d8ada7f144c4838311ff56ae690"),
    "CUT_GRAD": (wire.WireMessage(wire.CUT_GRAD, client_id=1, matrices=(_m(2, 8),)),
                 "f679c9bc4d4d2e9ab724ace78e1e739f0ef5b10ec527a9bc5c4708272a43bcbb"),
    "ADAPTER_UPLOAD": (wire.WireMessage(wire.ADAPTER_UPLOAD, client_id=2, weight_id=WeightId(1, "K"), n_samples=9,
                                        matrices=(_m(8, 2), _m(2, 8))),
                       "0df12cef87e8d88ef1deab088045faa1d47a91e5784ea7f93b14bddf1aef3f15"),
    "AGG_UPDATE": (wire.WireMessage(wire.AGG_UPDATE, weight_id=WeightId(3, "O"), matrices=(_m(5, 5),)),
                   "cddda67dc56123f301e79db9878cf3abeae0f1bf5ea2ae454f2dacd20a014637"),
    "PLAN": (wire.WireMessage(wire.PLAN, client_id=4, split_j=2, seed=12345,
                              ranks=((WeightId(0, "Q"), 4), (WeightId(1, "V"), 32), (WeightId(2, "O"), 1))),
             "70433fd36376c4279bb876089f1ba3dfcb80840c7567cddac78704b41117c760"),
    "PLAN-empty": (wire.WireMessage(wire.PLAN, client_id=0, split_j=1, seed=7),
                   "3e878843b88600f91346bbbdc39445a319deb8cb6336e071f99a8235b8b624a4"),
    "BARRIER-0": (wire.WireMessage(wire.BARRIER, round=7, client_id=1, loss=2.25),
                  "84c94f91473c5765ae268b1809ce47489ff4ba49283189adc6a03dbdf50cbd44"),
    "BARRIER-1": (wire.WireMessage(wire.BARRIER, round=0xFFFFFFFF, client_id=2, loss=-0.5, matrices=(_m(3, 1),)),
                  "46468fcab056fedb9d61f42cb664f37debfcf5f4bd8cc2304c8b390dbdb32c94"),
}


@pytest.mark.parametrize("name", sorted(PINNED_FRAMES))
def test_every_tag_encodes_to_pinned_bytes(name):
    msg, digest = PINNED_FRAMES[name]
    data = wire.encode_message(msg)
    assert hashlib.sha256(data).hexdigest() == digest
    assert wire.decode_message(data) == msg


def test_framing_layout():
    msg = wire.WireMessage(wire.CUT_GRAD, client_id=5, matrices=(np.ones((1, 1)),))
    data = wire.encode_message(msg)
    length, tag = struct.unpack("<IB", data[:5])
    assert tag == wire.CUT_GRAD
    assert length == len(data) - 5


def test_adapter_upload_byte_layout():
    B = np.array([[1.0], [0.0]])
    A = np.array([[2.0]])
    msg = wire.WireMessage(wire.ADAPTER_UPLOAD, client_id=7, weight_id=WeightId(3, "V"),
                           n_samples=11, matrices=(B, A))
    data = wire.encode_message(msg)
    payload = data[5:]
    assert payload[:4] == struct.pack("<I", 7)          # client id
    assert payload[4:7] == struct.pack("<HB", 3, 2)     # block 3, V = 2
    assert payload[7:15] == struct.pack("<Q", 11)       # sample count
    # B matrix body: dims then float32 LE values
    assert payload[15:23] == bytes([2, 0, 0, 0, 1, 0, 0, 0])
    assert payload[23:31] == struct.pack("<ff", 1.0, 0.0)


def test_kind_codes_are_q0_k1_v2_o3():
    for code, kind in enumerate("QKVO"):
        msg = wire.WireMessage(wire.AGG_UPDATE, weight_id=WeightId(0, kind),
                               matrices=(np.zeros((1, 1)),))
        assert wire.encode_message(msg)[5 + 2] == code


def test_truncated_frame_is_rejected():
    data = wire.encode_message(
        wire.WireMessage(wire.CUT_GRAD, client_id=0, matrices=(np.ones((2, 2)),))
    )
    with pytest.raises(wire.WireError, match=f"^frame declares {len(data) - 5} payload bytes, have {len(data) - 6}$"):
        wire.decode_message(data[:-1])
    # frame declaring more payload than present
    short = struct.pack("<IB", 10, wire.CUT_GRAD) + b"\x00" * 9
    with pytest.raises(wire.WireError, match="^frame declares 10 payload bytes, have 9$"):
        wire.decode_message(short)


def test_truncated_payload_inside_declared_length():
    payload = struct.pack("<I", 0) + struct.pack("<II", 4, 4) + b"\x00" * 8  # too few floats
    data = struct.pack("<IB", len(payload), wire.CUT_GRAD) + payload
    with pytest.raises(wire.TruncatedError):
        wire.decode_message(data)


def test_unknown_tag():
    data = struct.pack("<IB", 0, 99)
    with pytest.raises(wire.WireError, match="^unknown message tag 99$"):
        wire.decode_message(data)


def test_trailing_bytes_rejected():
    msg = wire.WireMessage(wire.CUT_GRAD, client_id=0, matrices=(np.ones((1, 1)),))
    data = bytearray(wire.encode_message(msg))
    data[:4] = struct.pack("<I", len(data) - 5 + 2)
    with pytest.raises(wire.WireError, match="^2 trailing payload bytes$"):
        wire.decode_message(bytes(data) + b"\x00\x00")


@settings(deadline=None, max_examples=300)
@given(st.binary(min_size=0, max_size=512))
def test_decode_total_on_fuzz(data):
    """Arbitrary bytes either decode or raise a WireError; nothing else."""
    try:
        wire.decode_message(data)
    except wire.WireError:
        pass


def test_float32_rounding_is_the_only_loss():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((6, 6))  # generic float64, NOT float32-exact
    msg = wire.WireMessage(wire.CUT_GRAD, client_id=0, matrices=(m,))
    out = wire.decode_message(wire.encode_message(msg)).matrices[0]
    assert np.array_equal(out, m.astype(np.float32).astype(np.float64))
    assert np.max(np.abs(out - m)) / np.max(np.abs(m)) < 1e-6


# Entries from below float32's subnormals (they round to zero) to past its
# largest finite value (they round to infinity).
_WIDE = st.builds(lambda m, e: m * 2.0 ** e, st.floats(-2.0, 2.0), st.integers(-160, 130))


@settings(deadline=None, max_examples=200)
@given(rows=st.integers(1, 4), entries=st.lists(_WIDE, min_size=1, max_size=12))
def test_as_received_is_the_decoded_matrix_bit_for_bit(rows, entries):
    m = np.resize(np.array(entries), (rows, len(entries)))
    with np.errstate(over="ignore"):  # float32 overflow is part of what the wire does
        sent = wire.decode_message(wire.encode_message(wire.WireMessage(wire.AGG_UPDATE, weight_id=WeightId(0, "Q"),
                                                                         matrices=(m,)))).matrices[0]
        got = wire.as_received(m)
    assert got.dtype == sent.dtype == np.float64
    assert got.shape == sent.shape and got.tobytes() == sent.tobytes()


def test_messages_that_differ_in_one_field_are_unequal():
    base = wire.WireMessage(wire.PLAN)
    other = {"tag": wire.BARRIER, "client_id": 1, "round": 1, "n_samples": 1, "weight_id": WeightId(0, "Q"),
             "loss": 0.5, "split_j": 1, "seed": 1, "ranks": ((WeightId(0, "Q"), 4),)}
    assert set(other) == {f.name for f in fields(wire.WireMessage)} - {"matrices"}
    for name, value in other.items():
        changed = replace(base, **{name: value})
        assert changed != base and base != changed, name
        assert changed == replace(base, **{name: value})


def test_read_frame_from_socket_pair():
    import socket

    a, b = socket.socketpair()
    msg = wire.WireMessage(wire.BARRIER, round=3, client_id=0, loss=1.0)
    a.sendall(wire.encode_message(msg))
    got = wire.decode_message(wire.read_frame(b, {wire.frame_size(wire.BARRIER)}))
    assert got == msg
    a.close()
    with pytest.raises(wire.TruncatedError):
        wire.read_frame(b, {wire.frame_size(wire.BARRIER)})
    b.close()


def test_frame_size_is_the_encoded_length_for_every_tag():
    rng = np.random.default_rng(2)
    for msg in _sample_messages(rng):
        shapes = [m.shape for m in msg.matrices]
        assert wire.frame_size(msg.tag, shapes, len(msg.ranks)) == len(wire.encode_message(msg))


@settings(deadline=None, max_examples=60)
@given(rows=st.integers(1, 40), cuts=st.lists(st.integers(1, 200), max_size=5),
       other_sizes=st.sets(st.integers(5, 400), max_size=4), fault=st.sampled_from([None, "truncated", "length"]),
       keep=st.floats(0.0, 1.0))
def test_read_frame_returns_the_frame_or_a_wire_error_and_reads_no_further(rows, cuts, other_sizes, fault, keep):
    """A BARRIER with a ``rows`` x 1 matrix sent in chunks ``cuts`` bytes
    apart, one ms between them; "truncated" closes the connection after a
    ``keep`` share of it, and "length" leaves its length out of ``sizes``.
    The read returns the frame, or the fault's error; it never consumes
    the BARRIER queued behind a frame it returns, and restores the
    socket's timeout."""
    import socket

    frame = wire.encode_message(wire.WireMessage(wire.BARRIER, round=1, client_id=2, loss=0.5,
                                                 matrices=(np.ones((rows, 1)),)))
    nxt = wire.encode_message(wire.WireMessage(wire.BARRIER, round=2, client_id=2))
    sizes = (other_sizes - {len(frame)} or {len(frame) + 4}) if fault == "length" else other_sizes | {len(frame)}
    sent = frame[:int(keep * (len(frame) - 1))] if fault == "truncated" else frame
    bounds = sorted({0, len(sent), *(c for c in np.cumsum(cuts) if c < len(sent))})
    ours, theirs = socket.socketpair()

    def peer():
        for lo, hi in zip(bounds, bounds[1:]):
            theirs.sendall(sent[lo:hi])
            time.sleep(0.001)
        if fault == "truncated":
            theirs.shutdown(socket.SHUT_WR)
        else:
            theirs.sendall(nxt)

    with ours, theirs:
        ours.settimeout(5.0)
        th = threading.Thread(target=peer, daemon=True)
        th.start()
        if fault == "length":
            with pytest.raises(wire.ProtocolError, match=f"declares {len(frame) - 5} payload bytes"):
                wire.read_frame(ours, sizes)
        elif fault == "truncated":
            with pytest.raises(wire.TruncatedError):
                wire.read_frame(ours, sizes)
        else:
            assert wire.read_frame(ours, sizes) == frame
            assert wire.read_frame(ours, {len(nxt)}) == nxt
        assert ours.gettimeout() == 5.0
        th.join(timeout=5)

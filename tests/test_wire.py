import ast
import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sapgnn
from sapgnn.wire import (AuditLog, Channel, CommStats, MessageKind, WireError, decode_message,
                         encode_message)


def test_codec_round_trip_all_dtypes():
    fields = {"f": np.array([[1.5, -2.25], [0.0, 1e300]]),
              "u": np.array([0, 2 ** 64 - 1], dtype=np.uint64),
              "i": np.array([-5, 7], dtype=np.int64),
              "b": np.arange(6, dtype=np.uint8),
              "c": np.array([-1, 0, 3], dtype=np.int8)}
    buf = encode_message(MessageKind.LOCAL_EMBEDDING, layer=2, epoch=9, sender_id=1,
                         fields=fields)
    kind, layer, epoch, sid, out = decode_message(buf)
    assert kind is MessageKind.LOCAL_EMBEDDING
    assert (layer, epoch, sid) == (2, 9, 1)
    for name, arr in fields.items():
        assert np.array_equal(out[name], arr), name
        assert out[name].dtype.itemsize == arr.dtype.itemsize


def test_codec_length_prefix():
    buf = encode_message(MessageKind.PRED_GRAD, 0, 0, 0, {"g": np.zeros((2, 2))})
    (length,) = np.frombuffer(buf[:4], dtype="<u4")
    assert length == len(buf) - 4


def test_codec_widens_integers_without_truncation():
    fields = {"u16": np.array([300, 65535], dtype=np.uint16),
              "u32": np.array([70000, 2 ** 32 - 1], dtype=np.uint32),
              "i16": np.array([-300, 32767], dtype=np.int16),
              "i32": np.array([-70000, 2 ** 31 - 1], dtype=np.int32),
              "f4": np.array([0.1, -3.5], dtype=np.float32)}
    _, _, _, _, out = decode_message(encode_message(MessageKind.PRED_GRAD, 0, 0, 0, fields))
    for name, arr in fields.items():
        assert np.array_equal(out[name], arr), name
    assert out["u16"].dtype == out["u32"].dtype == np.uint64
    assert out["i16"].dtype == out["i32"].dtype == np.int64


@pytest.mark.parametrize("value", [
    pytest.param(np.array([1 + 2j]), id="complex"),
    pytest.param(np.array([1, 2], dtype=object), id="object"),
    pytest.param(np.array([0.1], dtype=np.longdouble), id="longdouble",
                 marks=pytest.mark.skipif(np.dtype(np.longdouble).itemsize <= 8,
                                          reason="long double is float64 here")),
    pytest.param(b"\x01\x02\x03", id="bytes"),
    pytest.param(np.array(["abc"]), id="string"),
])
def test_codec_refuses_a_dtype_it_cannot_hold(value):
    with pytest.raises(WireError, match="field 'x': no wire code holds dtype"):
        encode_message(MessageKind.PRED_GRAD, 0, 0, 0, {"ok": np.zeros(2), "x": value})


def _pinned_fields() -> dict:
    grid = np.arange(12, dtype=np.float64).reshape(3, 4) - 5.5
    return {"f8": np.array([[1.5, -2.25], [0.0, 1e300]]),
            "u8": np.array([0, 1, 2 ** 64 - 1], dtype=np.uint64),
            "i8": np.array([-5, 7, -(2 ** 63)], dtype=np.int64),
            "u1": np.arange(250, 256, dtype=np.uint8),
            "i1": np.array([-128, 0, 127], dtype=np.int8),
            "u16": np.array([300, 65535], dtype=np.uint16),
            "i32": np.array([-70000, 2 ** 31 - 1], dtype=np.int32),
            "f4": np.array([0.1, -3.5], dtype=np.float32),
            "bool": np.array([True, False, True]),
            "scalar": np.float64(-0.0),
            "zero_d": np.array(7, dtype=np.uint64),
            "empty": np.zeros((0, 3)),
            "transposed": grid.T,
            "sliced": grid[::2, 1::2],
            "fortran": np.asfortranarray(grid.astype(np.int64)),
            "list": [1, -2],
            "ünï": np.array([1.0])}


def test_encoded_bytes_are_pinned():
    # every dtype code and every widening, 0-d and empty fields, and inputs
    # that are not C-contiguous: the encoder's bytes must not move
    buf = encode_message(MessageKind.PARTIAL_SUM, -1, 123456, 7, _pinned_fields())
    assert len(buf) == 779
    assert hashlib.sha256(buf).hexdigest() == (
        "9faca65e31a9cd3bbd74c9295811336995ea68f7ee15dbefbe39715ed3c55f57")
    _, _, _, _, out = decode_message(buf)
    for name, arr in _pinned_fields().items():
        arr = np.asarray(arr)
        assert out[name].shape == arr.shape and np.array_equal(out[name], arr), name


def test_channel_delivers_writable_arrays_that_share_no_memory():
    fields = {"t": np.arange(6, dtype=np.float64).reshape(2, 3),
              "valid": np.ones(2, dtype=np.uint8), "z": np.zeros((0, 4))}
    fields["tt"] = fields["t"].T
    chan = Channel(AuditLog())
    out = chan.send("holder-0", "server", MessageKind.LOCAL_EMBEDDING, 0, 0, fields)
    for name, sent in fields.items():
        got = out[name]
        assert got.flags.writeable and got.flags.c_contiguous, name
        assert not np.shares_memory(got, sent), name
        assert all(not np.shares_memory(got, other) for other in out.values()
                   if other is not got and other.size), name
        got[...] = 1
    assert np.array_equal(fields["t"], np.arange(6, dtype=np.float64).reshape(2, 3))


@pytest.mark.parametrize("name_len", [1, 2, 3, 4, 5, 7])
def test_a_writable_buffer_decodes_to_aligned_views_of_itself(name_len):
    # whatever the names before it, the largest payload starts 8-byte
    # aligned, so it is read in place; a one-byte field always is
    fields = {"v" * name_len: np.arange(name_len, dtype=np.uint8),
              "w" * (name_len + 2): np.array([1.5, -2.0]),
              "big": np.linspace(-1.0, 1.0, 16)}
    buf = encode_message(MessageKind.PRED_GRAD, 0, 0, 0, fields)
    _, _, _, _, out = decode_message(buf)
    for name, sent in fields.items():
        got = out[name]
        assert np.array_equal(got, sent), name
        assert got.flags.writeable and got.flags.aligned and got.flags.c_contiguous, name
    for name in ("v" * name_len, "big"):
        assert np.shares_memory(out[name], buf), name
    # immutable bytes decode to writable copies
    _, _, _, _, out = decode_message(bytes(buf))
    for name, sent in fields.items():
        got = out[name]
        assert np.array_equal(got, sent), name
        assert got.flags.owndata and got.flags.writeable and got.flags.aligned, name


def test_comm_stats_accounting():
    # the counters are a fold over the audit log, keyed by kind, direction,
    # layer and epoch
    log = AuditLog()
    log.append("holder-0", "server", "LocalEmbedding", "valid,t", 0, 0, 100)
    log.append("holder-0", "server", "LocalEmbedding", "valid,t", 1, 0, 50)
    log.append("holder-1", "holder-0", "GradShare", "seed", -1, 0, 30)
    log.append("holder-0", "server", "LocalEmbedding", "valid,t", 0, 1, 10)
    comm = CommStats.of(log)
    assert comm.total() == 190
    assert comm.bytes_for(kinds=[MessageKind.LOCAL_EMBEDDING]) == 160
    assert comm.bytes_for(kinds=[MessageKind.LOCAL_EMBEDDING], epoch=0) == 150
    assert comm.counts[("LocalEmbedding", "holder-0->server", 1, 0)] == 50
    rows = comm.rows()
    assert rows[0] == (0, MessageKind.GRAD_SHARE.value, "holder-1->holder-0", 30)
    # counters only grow
    before = comm.total()
    log.append("holder-1", "server", "PredGrad", "valid,g", 2, 0, 5)
    assert CommStats.of(log).total() == before + 5
    # a hand-built CommStats counts the same way
    built = CommStats()
    built.add(MessageKind.LOCAL_EMBEDDING, "holder-0->server", 0, 0, 100)
    built.add("LocalEmbedding", "holder-0->server", 0, 0, 1)
    assert built.counts == {("LocalEmbedding", "holder-0->server", 0, 0): 101}


def test_channel_meters_and_audits():
    audit = AuditLog()
    chan = Channel(audit)
    sent = np.arange(6, dtype=np.float64).reshape(2, 3)
    out = chan.send("holder-0", "server", MessageKind.LOCAL_EMBEDDING, 1, 2, {"t": sent})
    assert np.array_equal(out["t"], sent)
    assert out["t"] is not sent        # the receiver gets a decoded copy
    assert CommStats.of(audit).total() > sent.nbytes  # header overhead included
    assert len(audit) == 1
    rec = audit.records[0]
    assert (rec.sender, rec.receiver, rec.kind) == ("holder-0", "server", "LocalEmbedding")
    assert rec.schema == "t"
    # the record carries the message's layer, epoch and encoded size
    assert (rec.layer, rec.epoch) == (1, 2)
    assert rec.n_bytes == len(encode_message(MessageKind.LOCAL_EMBEDDING, 1, 2, -1, {"t": sent}))


# -- audit log ------------------------------------------------------------------------

def _two_record_log() -> AuditLog:
    log = AuditLog()
    log.append("holder-0", "server", "LocalEmbedding", "valid,t", 0, 3, 120)
    log.append("server", "holder-0", "GlobalEmbedding", "valid,h", 1, 3, 88)
    return log


def test_audit_log_jsonl_round_trip():
    log = _two_record_log()
    text = log.to_jsonl()
    back = AuditLog.from_jsonl(text)
    assert [r.__dict__ for r in back.records] == [r.__dict__ for r in log.records]
    assert back.records[0].ts == 0 and back.records[1].ts == 1
    assert sorted(json.loads(text.splitlines()[0])) == [
        "epoch", "kind", "layer", "n_bytes", "receiver", "schema", "sender", "ts"]


def _second_line(edit) -> str:
    first, second = _two_record_log().to_jsonl().splitlines()
    record = json.loads(second)
    edit(record)
    return first + "\n" + json.dumps(record) + "\n"


@pytest.mark.parametrize("text,reason", [
    *[pytest.param(_second_line(lambda r, k=key: r.pop(k)), f"line 2 lacks the key '{key}'",
                   id=f"no-{key}")
      for key in ("ts", "sender", "receiver", "kind", "schema", "layer", "epoch", "n_bytes")],
    pytest.param(_second_line(lambda r: r.update(n_bytes="88")), "line 2: 'n_bytes' is str",
                 id="bytes-as-string"),
    pytest.param(_second_line(lambda r: r.update(layer=1.0)), "line 2: 'layer' is float",
                 id="layer-as-float"),
    pytest.param(_second_line(lambda r: r.update(epoch=True)), "line 2: 'epoch' is bool",
                 id="epoch-as-bool"),
    pytest.param(_second_line(lambda r: r.update(sender=0)), "line 2: 'sender' is int",
                 id="sender-as-int"),
    pytest.param(_second_line(lambda r: r.update(payload=[1.5])), r"line 2 has unknown keys",
                 id="unknown-key"),
    pytest.param("[1, 2]\n", "line 1 is a JSON list, not an object", id="list"),
    pytest.param("\n\n7\n", "line 3 is a JSON int, not an object", id="number"),
    pytest.param('{"ts": 0,\n', "line 1 is not JSON", id="not-json"),
])
def test_malformed_audit_log_raises_value_error(text, reason):
    with pytest.raises(ValueError, match=reason):
        AuditLog.from_jsonl(text)


# -- malformed buffers -------------------------------------------------------------

DTYPES = ("<f8", "<u8", "<i8", "|u1", "|i1")


@st.composite
def messages(draw):
    fields = {}
    for name in draw(st.lists(st.text(max_size=6), max_size=4, unique=True)):
        dtype = np.dtype(draw(st.sampled_from(DTYPES)))
        shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
        raw = draw(st.binary(min_size=dtype.itemsize * math.prod(shape),
                             max_size=dtype.itemsize * math.prod(shape)))
        fields[name] = np.frombuffer(raw, dtype).reshape(shape)
    return (draw(st.sampled_from(list(MessageKind))), draw(st.integers(-1, 2 ** 15 - 1)),
            draw(st.integers(-1, 2 ** 31 - 1)), draw(st.integers(-1, 2 ** 15 - 1)), fields)


@settings(max_examples=150, deadline=None)
@given(messages())
def test_codec_round_trip_property(message):
    kind, layer, epoch, sender_id, fields = message
    out = decode_message(encode_message(kind, layer, epoch, sender_id, fields))
    assert out[:4] == (kind, layer, epoch, sender_id)
    assert list(out[4]) == list(fields)
    for name, arr in fields.items():
        assert out[4][name].dtype == arr.dtype and out[4][name].shape == arr.shape
        assert out[4][name].tobytes() == arr.tobytes()


@settings(max_examples=300, deadline=None)
@given(messages(), st.data())
def test_mutated_buffer_decodes_or_raises_wire_error(message, data):
    buf = bytearray(encode_message(*message))
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(buf)))
        edit = data.draw(st.sampled_from(["flip", "insert", "delete", "truncate"]))
        if edit == "flip" and at < len(buf):
            buf[at] ^= data.draw(st.integers(1, 255))
        elif edit == "insert":
            buf[at:at] = data.draw(st.binary(min_size=1, max_size=9))
        elif edit == "delete":
            del buf[at:at + data.draw(st.integers(1, 9))]
        elif edit == "truncate":
            del buf[at:]
    try:
        decode_message(bytes(buf))
    except WireError:
        pass


def _one_field_message() -> bytearray:
    # 4-byte length | header "<2sBhiB" (10) | name_len 1 | "g" | code | ndim |
    # shape i32 | raw_len i64 | 2 float64 | sender i16: 48 bytes
    buf = encode_message(MessageKind.PRED_GRAD, 1, 2, 3, {"g": np.array([1.0, 2.0])})
    assert len(buf) == 48
    return bytearray(buf)


def _patch(at: int, fmt: str, value) -> bytes:
    buf = _one_field_message()
    struct.pack_into(fmt, buf, at, value)
    return bytes(buf)


@pytest.mark.parametrize("buf,reason", [
    pytest.param(b"", "truncated", id="empty"),
    pytest.param(bytes(_one_field_message()[:3]), "truncated", id="no-length-prefix"),
    pytest.param(bytes(_one_field_message()[:40]), "disagrees", id="cut-short"),
    pytest.param(bytes(_one_field_message()) + bytes(8), "disagrees", id="appended-bytes"),
    pytest.param(_patch(0, "<I", 40), "disagrees", id="length-too-small"),
    pytest.param(_patch(0, "<I", 50), "disagrees", id="length-too-large"),
    pytest.param(_patch(0, "<I", 45) + bytes(1), "trailing", id="trailing-bytes"),
    pytest.param(_patch(4, "<2s", b"XX"), "magic", id="bad-magic"),
    pytest.param(_patch(6, "<B", len(MessageKind)), "kind code", id="unknown-kind"),
    pytest.param(_patch(16, "<c", b"z"), "dtype code", id="unknown-dtype"),
    pytest.param(_patch(18, "<i", -2), "negative", id="negative-dimension"),
    pytest.param(_patch(22, "<q", -16), "negative", id="negative-length"),
    pytest.param(_patch(22, "<q", 8), "cannot hold", id="length-shape-mismatch"),
    pytest.param(_patch(13, "<B", 2), "truncated", id="missing-field"),
    pytest.param(_patch(13, "<B", 0), "trailing", id="extra-field"),
])
def test_malformed_buffer_raises_wire_error(buf, reason):
    with pytest.raises(WireError, match=reason):
        decode_message(buf)


@pytest.mark.parametrize("module, allowed", [("wire", set()), ("pool", {"wire"})])
def test_module_imports_only_the_layers_below_it(module, allowed):
    # the wire imports nothing else from the package, and the holder pool
    # only the wire: neither may reach up into the protocol
    source = Path(sapgnn.__file__).with_name(f"{module}.py").read_text(encoding="utf-8")
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported |= {node.module} if node.module else {a.name for a in node.names}
    assert imported == allowed

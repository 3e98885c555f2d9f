"""Wire format, in-process channel, communication accounting and audit log.

Every cross-party value travels as a length-prefixed, schema-tagged binary
message (little-endian; floats as float64, unsigned integers as uint8 or
uint64, signed as int8 or int64, so every payload arrives exactly as sent;
a field of any other dtype is refused). The channel serializes, appends one
record per transmission to the AuditLog, the one ledger of the wire, and
hands the receiver the fields decoded from that message's own buffer, read
in place where they are aligned; CommStats is a fold over that log.
ROUTES declares each message kind's route and fields: every receiver's
check reads it, and so does the privacy audit, `verify_privacy_audit`,
which checks a run's log against it and reports an `AuditReport`.
This module imports nothing else from the package.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
import typing
from dataclasses import dataclass
from enum import Enum

import numpy as np


class MessageKind(str, Enum):
    """The closed schema; ROUTES declares each kind's route and fields. A
    holder's rows are its nodes in NodeIndex order, and the row kinds
    address them by that position: the sparse ones (a `valid` mask and one
    value block) carry only the masked rows. NodeIndex carries the holder's
    node digests, 16 bytes each, and declares per layer the rows of that
    layer's output it reads (`wants`); GlobalEmbedding masks exactly those.
    GradShare carries the 32-byte seed of a pair's mask to the pair's lower
    holder, PartialSum a masked gradient vector in the share mode's words,
    and PoolResult the max and the winning holder of every pooled element."""

    NODE_INDEX = "NodeIndex"
    LOCAL_EMBEDDING = "LocalEmbedding"
    GLOBAL_EMBEDDING = "GlobalEmbedding"
    PRED_GRAD = "PredGrad"
    LOCAL_EMB_GRAD = "LocalEmbGrad"
    INPUT_GRAD = "InputGrad"
    GRAD_SHARE = "GradShare"
    PARTIAL_SUM = "PartialSum"
    POOL_INPUT = "PoolInput"
    POOL_RESULT = "PoolResult"


SERVER_PARTY, POOL_PARTY = "server", "sealed-pool"
HOLDER = "holder"   # the role of every party holder-<p>; any other party is its own role


def holder_party(p: int) -> str:
    return f"{HOLDER}-{p}"


def holder_index(party: str) -> int:
    """p for the party holder-<p>, else -1: the sender id its messages carry."""
    role, _, p = party.partition("-")
    return int(p) if role == HOLDER and p.isdigit() else -1


@dataclass(frozen=True)
class Route:
    """Who sends a kind to whom, its fields in send order ({name: dtype}),
    and the pooling mode whose runs send it (None: both)."""
    sender: str
    receiver: str
    fields: dict
    mode: str | None = None


def _rows(block: str) -> dict:
    return {"valid": "uint8", block: "float64"}


ROUTES = {
    MessageKind.NODE_INDEX: Route(HOLDER, SERVER_PARTY, {"keys": "uint8", "wants": "uint8"}),
    MessageKind.LOCAL_EMBEDDING: Route(HOLDER, SERVER_PARTY, _rows("t"), "naive"),
    MessageKind.POOL_INPUT: Route(HOLDER, POOL_PARTY, _rows("values"), "secure-pooling"),
    MessageKind.POOL_RESULT: Route(POOL_PARTY, SERVER_PARTY, {"m": "float64", "winner": "int8"},
                                   "secure-pooling"),
    MessageKind.GLOBAL_EMBEDDING: Route(SERVER_PARTY, HOLDER, _rows("h")),
    MessageKind.PRED_GRAD: Route(HOLDER, SERVER_PARTY, _rows("g")),
    MessageKind.LOCAL_EMB_GRAD: Route(SERVER_PARTY, HOLDER, _rows("r")),
    MessageKind.INPUT_GRAD: Route(HOLDER, SERVER_PARTY, _rows("g")),
    MessageKind.GRAD_SHARE: Route(HOLDER, HOLDER, {"seed": "uint64"}),
    MessageKind.PARTIAL_SUM: Route(HOLDER, HOLDER,
                                   {"partial": {"fixed-point": "uint64", "real": "float64"}}),
}


KIND_IDS = {kind: i for i, kind in enumerate(MessageKind)}
IDS_KIND = {i: kind for kind, i in KIND_IDS.items()}

_DTYPE_CODES = {"<f8": b"f", "<u8": b"u", "<i8": b"i", "|u1": b"b", "|i1": b"c"}
_CODES_DTYPE = {v: k for k, v in _DTYPE_CODES.items()}
_HEADER = "<2sBhiB"  # magic, kind id, layer, epoch, field count
_SENDER = "<h"       # sender id, after the last field
_ALIGN = 8           # the widest wire dtype's itemsize


class WireError(ValueError):
    """A field handed to encode_message has a dtype that no wire code holds
    exactly, or the bytes handed to decode_message are not exactly one
    well-formed message."""


def _wire_dtype(name: str, dtype: np.dtype) -> np.dtype:
    """The wire dtype that holds every value of `dtype` exactly; a dtype
    that no wire code holds (complex, object, a float wider than 8 bytes, a
    string) is refused."""
    kind, size = dtype.kind, dtype.itemsize
    if kind == "f" and size <= 8:
        return np.dtype("<f8")
    if kind == "u":
        return np.dtype("|u1" if size == 1 else "<u8")
    if kind == "i" and size == 1:
        return np.dtype("|i1")
    if kind in "bi":
        return np.dtype("<i8")
    raise WireError(f"field {name!r}: no wire code holds dtype {dtype} exactly")


def encode_message(kind: MessageKind, layer: int, epoch: int, sender_id: int,
                   fields: dict[str, np.ndarray]) -> np.ndarray:
    """Serialize one message into a writable uint8 buffer of its length;
    the leading u32 is the body length.

    The message is sized first and filled in place: each payload is written
    once, in C order whatever its memory layout, through a view of the one
    buffer. The buffer is placed in a slightly larger allocation so that the
    largest payload starts at an 8-byte aligned address, which lets
    `decode_message` hand that payload to the receiver in place."""
    laid_out = []   # per field: its metadata format, name, wire dtype and values
    size = 4 + struct.calcsize(_HEADER)
    largest, at = -1, 0   # the largest payload's length and offset
    for name, arr in fields.items():
        arr = np.asarray(arr)
        wire = _wire_dtype(name, arr.dtype)
        name_b = name.encode("utf-8")
        meta = f"<B{len(name_b)}scB{arr.ndim}iq"
        laid_out.append((meta, name_b, wire, arr))
        size += struct.calcsize(meta)
        if arr.size * wire.itemsize > largest:
            largest, at = arr.size * wire.itemsize, size
        size += arr.size * wire.itemsize
    size += struct.calcsize(_SENDER)
    raw = np.empty(size + _ALIGN - 1, dtype=np.uint8)
    shift = -(raw.ctypes.data + at) % _ALIGN
    buf = raw[shift:shift + size]   # every byte of it is written below
    struct.pack_into("<I", buf, 0, size - 4)
    struct.pack_into(_HEADER, buf, 4, b"SG", KIND_IDS[kind], layer, epoch, len(fields))
    off = 4 + struct.calcsize(_HEADER)
    for meta, name_b, wire, arr in laid_out:
        raw_len = arr.size * wire.itemsize
        struct.pack_into(meta, buf, off, len(name_b), name_b, _DTYPE_CODES[wire.str],
                         arr.ndim, *arr.shape, raw_len)
        off += struct.calcsize(meta)
        np.frombuffer(buf, wire, arr.size, off).reshape(arr.shape)[...] = arr
        off += raw_len
    struct.pack_into(_SENDER, buf, off, sender_id)
    return buf


def _unpack(fmt: str, body, off: int) -> tuple:
    try:
        return struct.unpack_from(fmt, body, off)
    except struct.error:
        raise WireError(f"message truncated at byte {off} of {len(body)}") from None


def decode_message(buf):
    """Inverse of encode_message: (kind, layer, epoch, sender_id, fields).

    A field is a view of `buf` where `buf` is writable and the field is
    aligned for its dtype (always, for the largest payload of a buffer
    `encode_message` returned), and a copy otherwise, for example when `buf`
    is `bytes`; either way every field is writable, C-contiguous and shares
    no memory with another field.

    Raises WireError for a truncated buffer, trailing bytes, a length that
    disagrees with the buffer, an unknown kind or dtype code, a negative
    length or dimension, or a repeated field name.
    """
    (length,) = _unpack("<I", buf, 0)
    if length != len(buf) - 4:
        raise WireError(f"length prefix {length} disagrees with the {len(buf) - 4}-byte body")
    body = memoryview(buf)[4:]
    magic, kind_id, layer, epoch, n_fields = _unpack(_HEADER, body, 0)
    if magic != b"SG":
        raise WireError("bad message magic")
    if kind_id not in IDS_KIND:
        raise WireError(f"unknown message kind code {kind_id}")
    off = struct.calcsize(_HEADER)
    payload_end = len(body) - struct.calcsize(_SENDER)
    fields = {}
    for _ in range(n_fields):
        (name_len,) = _unpack("<B", body, off)
        off += 1
        try:
            name = bytes(body[off:off + name_len]).decode("utf-8")
        except UnicodeDecodeError:
            raise WireError(f"field name at byte {off} is not UTF-8") from None
        if name in fields:
            raise WireError(f"field {name!r} repeated")
        off += name_len
        code, ndim = _unpack("<cB", body, off)
        off += struct.calcsize("<cB")
        if code not in _CODES_DTYPE:
            raise WireError(f"field {name!r}: unknown dtype code {code!r}")
        shape = _unpack(f"<{ndim}i", body, off)
        off += 4 * ndim
        (raw_len,) = _unpack("<q", body, off)
        off += 8
        if min(shape, default=0) < 0 or raw_len < 0:
            raise WireError(f"field {name!r}: negative shape {shape} or length {raw_len}")
        dtype = np.dtype(_CODES_DTYPE[code])
        count = math.prod(shape)
        if raw_len != count * dtype.itemsize:
            raise WireError(f"field {name!r}: {raw_len} bytes cannot hold shape {shape}")
        if off + raw_len > payload_end:
            raise WireError(f"field {name!r}: message truncated in the payload")
        value = np.frombuffer(body, dtype, count, off).reshape(shape)
        fields[name] = value if value.flags.writeable and value.flags.aligned else value.copy()
        off += raw_len
    (sender_id,) = _unpack(_SENDER, body, off)
    off += struct.calcsize(_SENDER)
    if off != len(body):
        raise WireError(f"{len(body) - off} trailing bytes after the message")
    return IDS_KIND[kind_id], layer, epoch, sender_id, fields


def _kind_name(kind) -> str:
    return kind.value if isinstance(kind, MessageKind) else kind


class CommStats:
    """Monotone byte counters keyed by (kind, direction, layer, epoch); a
    run's are the fold of its audit log (`of`)."""

    def __init__(self):
        self.counts: dict[tuple, int] = {}

    @classmethod
    def of(cls, log: "AuditLog") -> "CommStats":
        stats = cls()
        for r in log.records:
            stats.add(r.kind, f"{r.sender}->{r.receiver}", r.layer, r.epoch, r.n_bytes)
        return stats

    def add(self, kind: MessageKind | str, direction: str, layer: int, epoch: int,
            n_bytes: int):
        key = (_kind_name(kind), direction, layer, epoch)
        self.counts[key] = self.counts.get(key, 0) + n_bytes

    def total(self) -> int:
        return sum(self.counts.values())

    def bytes_for(self, kinds=None, epoch=None) -> int:
        wanted = None if kinds is None else {_kind_name(k) for k in kinds}
        out = 0
        for (kind, _direction, _layer, ep), n in self.counts.items():
            if wanted is not None and kind not in wanted:
                continue
            if epoch is not None and ep != epoch:
                continue
            out += n
        return out

    def rows(self):
        """(epoch, kind, direction, bytes) rows, deterministically ordered."""
        agg: dict[tuple, int] = {}
        for (kind, direction, _layer, epoch), n in self.counts.items():
            key = (epoch, kind, direction)
            agg[key] = agg.get(key, 0) + n
        return [(*key, agg[key]) for key in sorted(agg)]


@dataclass(frozen=True)
class AuditRecord:
    ts: int          # logical clock, not wall time, so runs stay bit-reproducible
    sender: str
    receiver: str
    kind: str
    schema: str
    layer: int
    epoch: int
    n_bytes: int     # the encoded message, length prefix included


_RECORD_TYPES = typing.get_type_hints(AuditRecord)


class AuditLog:
    """Append-only transmission log: one record per message, its schema,
    layer, epoch and encoded size, never its payload.

    The log answers "who sent what kind of message to whom", which is what
    the privacy checks are defined over, and how many bytes it took, which
    is what the communication counters fold.
    """

    def __init__(self):
        self.records: list[AuditRecord] = []

    def append(self, sender: str, receiver: str, kind: str, schema: str, layer: int,
               epoch: int, n_bytes: int) -> AuditRecord:
        rec = AuditRecord(ts=len(self.records), sender=sender, receiver=receiver, kind=kind,
                          schema=schema, layer=layer, epoch=epoch, n_bytes=n_bytes)
        self.records.append(rec)
        return rec

    def extend(self, other: "AuditLog") -> None:
        """Append `other`'s records in order, each restamped with its position here."""
        for rec in other.records:
            self.records.append(dataclasses.replace(rec, ts=len(self.records)))

    def __len__(self):
        return len(self.records)

    def to_jsonl(self) -> str:
        lines = [json.dumps(r.__dict__, sort_keys=True) for r in self.records]
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_jsonl(cls, text: str) -> "AuditLog":
        """Inverse of to_jsonl. Raises ValueError, naming the line, for a
        line that is not a JSON object or whose keys are not exactly a
        record's, each of its type."""
        log = cls()
        for n, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            where = f"audit log line {n}"
            try:
                d = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where} is not JSON: {exc.msg}") from None
            if not isinstance(d, dict):
                raise ValueError(f"{where} is a JSON {type(d).__name__}, not an object")
            unknown = sorted(d.keys() - _RECORD_TYPES.keys())
            if unknown:
                raise ValueError(f"{where} has unknown keys {unknown}")
            for key, typ in _RECORD_TYPES.items():
                if key not in d:
                    raise ValueError(f"{where} lacks the key {key!r}")
                if type(d[key]) is not typ:
                    raise ValueError(f"{where}: {key!r} is {type(d[key]).__name__}, "
                                     f"not {typ.__name__}")
            log.records.append(AuditRecord(**d))
        return log


class Channel:
    """In-process transport: serialize, audit, deliver.

    The fields returned to the caller are what the receiver sees: decoded
    from the message's fresh buffer, so the receiver owns them and the
    original arrays never cross the party boundary. Tests may call send()
    directly with an arbitrary kind to inject rogue traffic for the audit.
    """

    def __init__(self, audit: AuditLog):
        self.audit = audit

    def send(self, sender: str, receiver: str, kind: MessageKind, layer: int,
             epoch: int, fields: dict[str, np.ndarray], sender_id: int = -1) -> dict:
        buf = encode_message(kind, layer, epoch, sender_id, fields)
        self.audit.append(sender, receiver, kind.value, ",".join(fields.keys()), layer, epoch,
                          len(buf))
        _kind, _layer, _epoch, _sid, decoded = decode_message(buf)
        return decoded


@dataclass(frozen=True)
class Finding:
    party: str
    kind: str
    description: str


@dataclass
class AuditReport:
    findings: list
    mode: str
    n_records: int

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        if self.ok:
            return f"audit clean over {self.n_records} records ({self.mode} mode)"
        lines = [f"{len(self.findings)} finding(s) over {self.n_records} records:"]
        lines += [f"  - {f.party}: {f.kind}: {f.description}" for f in self.findings]
        return "\n".join(lines)


def verify_privacy_audit(log: AuditLog, mode: str | None = None) -> AuditReport:
    """Check a completed run's transmissions against ROUTES, the closed wire
    schema. Each record must name a known kind, travel that kind's route
    (so the server never receives gradient shares or partial sums, and no
    holder another holder's local embeddings), carry the kind's declared
    fields in send order (its `schema`), and belong to the run's pooling
    mode (so in secure-pooling mode the server receives no plaintext local
    embedding). Each holder it names must have sent a NodeIndex before the
    log's first record of another kind (the run's holders register at
    init), a GradShare must go to the pair's lower holder and a PartialSum
    to another holder than its sender. Each record's `ts` must be its
    position in the log, so a record reordered, replayed or dropped after
    the run is found: once, at the first record off its position, since
    every record after a gap is off its position too. A record yields at
    most one finding, at its receiver.
    What each party may learn from the schema is set out in the README
    ("What each party sees"). The check reads kinds, parties and field
    names, not payloads: a payload that leaks more than its schema promises
    is caught by the protocol tests, not here.
    """
    routes = {kind.value: route for kind, route in ROUTES.items()}
    if mode is None:
        secure = any(routes[r.kind].mode == "secure-pooling"
                     for r in log.records if r.kind in routes)
        mode = "secure-pooling" if secure else "naive"
    findings: list[Finding] = []
    registered, at_init = set(), True    # the holders whose NodeIndex opens the log
    in_place = True                      # until the first record off its position
    for position, rec in enumerate(log.records):
        route = routes.get(rec.kind)
        at_init = at_init and rec.kind == MessageKind.NODE_INDEX.value
        if at_init and holder_index(rec.sender) >= 0:
            registered.add(rec.sender)
        sent = " -> ".join(HOLDER if holder_index(party) >= 0 else party
                           for party in (rec.sender, rec.receiver))
        unregistered = [party for party in (rec.sender, rec.receiver)
                        if holder_index(party) >= 0 and party not in registered]
        if route is None:
            problem = "message kind outside the closed schema"
        elif sent != (path := f"{route.sender} -> {route.receiver}"):
            problem = f"sent {sent}, off its route {path}"
        elif rec.schema != (schema := ",".join(route.fields)):
            problem = f"carries fields {rec.schema!r}, not {schema!r}"
        elif route.mode not in (None, mode):
            problem = f"belongs to {route.mode} runs, not to a {mode} run"
        elif unregistered:
            problem = f"{unregistered[0]} sent no NodeIndex before it"
        elif (rec.kind == MessageKind.GRAD_SHARE.value
              and holder_index(rec.sender) <= holder_index(rec.receiver)):
            problem = (f"a seed goes from a pair's higher holder to its lower, not from "
                       f"{rec.sender} to {rec.receiver}")
        elif rec.kind == MessageKind.PARTIAL_SUM.value and rec.sender == rec.receiver:
            problem = "sent to its own sender"
        elif in_place and rec.ts != position:
            in_place = False
            problem = (f"out of its place in the log: ts {rec.ts} where ts {position} was "
                       "expected, so a record was reordered, replayed or dropped at or "
                       "before it")
        else:
            continue
        finding = Finding(party=rec.receiver, kind=rec.kind, description=problem)
        if finding not in findings:
            findings.append(finding)
    return AuditReport(findings=findings, mode=mode, n_records=len(log.records))

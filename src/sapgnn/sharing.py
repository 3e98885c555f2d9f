"""n-out-of-n additive and boolean secret sharing over Z_{2^b}.

Real values are carried as two's-complement fixed-point residues (default
b=64 with 20 fraction bits; an 8-bit toy ring is available for exhaustive
tests). Gradient aggregation sums shares modularly, so reconstruction is
exact and the only loss is the initial encoding quantization. This module
holds the primitives; who sends which share to whom in the holders' secure
gradient sum is `protocol.secure_sum`. The secure element-wise argmax is an
ideal functionality: a sealed evaluator reconstructs inside a boundary,
compares, and re-shares the one-hot winner; the audit log shows that no
party outside the boundary saw plaintext values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .numerics import first_max

DEFAULT_FRAC_BITS = 20
DEFAULT_RING_BITS = 64

# Finer encoding used only for comparisons inside the pooling functionality,
# so the secured argmax agrees with plain float64 argmax except for values
# closer than 2^-40.
ARGMAX_FRAC_BITS = 40


@dataclass(frozen=True)
class FixedPoint:
    """A two's-complement fixed-point residue in Z_{2^ring_bits}."""

    raw: int
    frac_bits: int = DEFAULT_FRAC_BITS
    ring_bits: int = DEFAULT_RING_BITS

    def __post_init__(self):
        object.__setattr__(self, "raw", int(self.raw) % (1 << self.ring_bits))

    @classmethod
    def encode(cls, x: float, frac_bits: int = DEFAULT_FRAC_BITS,
               ring_bits: int = DEFAULT_RING_BITS) -> "FixedPoint":
        scaled = int(np.rint(float(x) * (1 << frac_bits)))
        if not -(1 << (ring_bits - 1)) <= scaled < (1 << (ring_bits - 1)):
            raise ValueError(f"value {x} overflows a {ring_bits}-bit ring at f={frac_bits}")
        return cls(raw=scaled % (1 << ring_bits), frac_bits=frac_bits, ring_bits=ring_bits)

    def decode(self) -> float:
        half = 1 << (self.ring_bits - 1)
        signed = self.raw - (1 << self.ring_bits) if self.raw >= half else self.raw
        return signed / float(1 << self.frac_bits)


@dataclass(frozen=True)
class AdditiveShare:
    """One party's additive share: the sum of all n_parties shares mod 2^b
    is the secret."""

    party_id: int
    value: int
    n_parties: int = 2
    frac_bits: int = DEFAULT_FRAC_BITS
    ring_bits: int = DEFAULT_RING_BITS


@dataclass(frozen=True)
class BooleanShare:
    """One party's XOR share of a bit vector."""

    party_id: int
    bits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bits", np.asarray(self.bits, dtype=np.uint8) & 1)


@dataclass(frozen=True)
class AuditRecord:
    ts: int          # logical clock, not wall time, so runs stay bit-reproducible
    sender: str
    receiver: str
    kind: str
    schema: str


class AuditLog:
    """Append-only transmission log: one record per message, schema only.

    Payload values are never stored; the log answers "who sent what kind of
    message to whom", which is what the privacy checks are defined over.
    """

    def __init__(self):
        self.records: list[AuditRecord] = []

    def append(self, sender: str, receiver: str, kind: str, schema: str) -> AuditRecord:
        rec = AuditRecord(ts=len(self.records), sender=sender, receiver=receiver,
                          kind=kind, schema=schema)
        self.records.append(rec)
        return rec

    def __len__(self):
        return len(self.records)

    def to_jsonl(self) -> str:
        lines = [json.dumps({"ts": r.ts, "sender": r.sender, "receiver": r.receiver,
                             "kind": r.kind, "schema": r.schema}, sort_keys=True)
                 for r in self.records]
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_jsonl(cls, text: str) -> "AuditLog":
        log = cls()
        for line in text.splitlines():
            if not line.strip():
                continue
            d = json.loads(line)
            log.records.append(AuditRecord(ts=d["ts"], sender=d["sender"],
                                           receiver=d["receiver"], kind=d["kind"],
                                           schema=d["schema"]))
        return log


# ---------------------------------------------------------------------------
# Scalar sharing
# ---------------------------------------------------------------------------

def share_additive(x: FixedPoint, P: int, rng: np.random.Generator) -> list[AdditiveShare]:
    """Split x into P shares: P-1 uniform ring elements plus the remainder."""
    if P < 2:
        raise ValueError("additive sharing needs at least 2 parties")
    ring = 1 << x.ring_bits
    randoms = [int(rng.integers(0, ring - 1, dtype=np.uint64, endpoint=True)) % ring
               for _ in range(P - 1)]
    last = (x.raw - sum(randoms)) % ring
    values = randoms + [last]
    return [AdditiveShare(party_id=i, value=v, n_parties=P, frac_bits=x.frac_bits,
                          ring_bits=x.ring_bits) for i, v in enumerate(values)]


def reconstruct_additive(shares: list[AdditiveShare]) -> FixedPoint:
    """Modular sum of all P shares; requires party ids 0..P-1 exactly once."""
    expected = {s.n_parties for s in shares}
    if len(expected) != 1 or expected.pop() != len(shares):
        raise ValueError(f"need all {sorted(s.n_parties for s in shares)} shares, "
                         f"got {len(shares)}")
    ids = sorted(s.party_id for s in shares)
    if ids != list(range(len(shares))):
        raise ValueError(f"need each party id exactly once, got {ids}")
    rings = {s.ring_bits for s in shares}
    fracs = {s.frac_bits for s in shares}
    if len(rings) != 1 or len(fracs) != 1:
        raise ValueError("shares disagree on ring or fraction bits")
    ring_bits = rings.pop()
    total = sum(s.value for s in shares) % (1 << ring_bits)
    return FixedPoint(raw=total, frac_bits=fracs.pop(), ring_bits=ring_bits)


def share_boolean(bits, P: int, rng: np.random.Generator) -> list[BooleanShare]:
    if P < 2:
        raise ValueError("boolean sharing needs at least 2 parties")
    bits = np.asarray(bits, dtype=np.uint8) & 1
    shares = [rng.integers(0, 2, size=bits.shape, dtype=np.uint8) for _ in range(P - 1)]
    last = bits.copy()
    for s in shares:
        last ^= s
    shares.append(last)
    return [BooleanShare(party_id=i, bits=b) for i, b in enumerate(shares)]


def reconstruct_boolean(shares: list[BooleanShare]) -> np.ndarray:
    ids = sorted(s.party_id for s in shares)
    if ids != list(range(len(shares))):
        raise ValueError(f"need each party id exactly once, got {ids}")
    out = np.zeros_like(shares[0].bits)
    for s in shares:
        out ^= s.bits
    return out


def reshare_boolean(shares: list[BooleanShare], rng: np.random.Generator) -> list[BooleanShare]:
    """Re-randomize boolean shares without changing the secret."""
    fresh = share_boolean(np.zeros_like(shares[0].bits), len(shares), rng)
    return [BooleanShare(party_id=s.party_id, bits=s.bits ^ z.bits)
            for s, z in zip(shares, fresh)]


# ---------------------------------------------------------------------------
# Vector fixed-point helpers (64-bit ring, numpy uint64 wraparound is modular)
# ---------------------------------------------------------------------------

def encode_vector(x: np.ndarray, frac_bits: int = DEFAULT_FRAC_BITS) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):     # an overflow to inf is refused below
        scaled = np.rint(x * float(1 << frac_bits))
    limit = float(1 << 62)
    # written as "all below" so that a NaN, which compares False, is refused
    if not np.all(np.abs(scaled) < limit):
        raise ValueError("value is NaN or overflows the 64-bit ring at this precision")
    return scaled.astype(np.int64).view(np.uint64)


def decode_vector(raw: np.ndarray, frac_bits: int = DEFAULT_FRAC_BITS) -> np.ndarray:
    return raw.view(np.int64).astype(np.float64) / float(1 << frac_bits)


def share_vector(x: np.ndarray, P: int, rng: np.random.Generator,
                 mode: str = "fixed-point") -> list[np.ndarray]:
    """Share a float vector into P vectors that sum back to it.

    mode "fixed-point": uint64 residues, exact modular reconstruction up to
    the encoding quantization; each encoded value must stay below 2^63 / P
    so that a sum over P holders cannot wrap. mode "real": float64 offsets;
    bypasses quantization so logic errors can be isolated from rounding
    (test mode, not a security mode).
    """
    if P < 2:
        raise ValueError("sharing needs at least 2 parties")
    x = np.asarray(x, dtype=np.float64)
    if mode == "fixed-point":
        enc = encode_vector(x)
        # P summands below 2^63 / P each cannot wrap the signed 64-bit sum
        if np.any(np.abs(enc.view(np.int64)) >= (1 << 63) // P):
            raise ValueError(f"value overflows the 64-bit ring when summed over {P} holders")
        shares = [rng.integers(0, 2 ** 64 - 1, size=x.shape, dtype=np.uint64, endpoint=True)
                  for _ in range(P - 1)]
        acc = np.zeros_like(enc)
        for s in shares:
            acc = acc + s
        shares.append(enc - acc)
        return shares
    if mode == "real":
        shares = [rng.uniform(-1.0, 1.0, size=x.shape) for _ in range(P - 1)]
        acc = np.zeros_like(x)
        for s in shares:
            acc = acc + s
        shares.append(x - acc)
        return shares
    raise ValueError(f"unknown share mode {mode!r}")


def combine_vector_shares(shares: list[np.ndarray], mode: str = "fixed-point",
                          decode: bool = True):
    """Sum shares in ascending party order; decode fixed-point if asked."""
    acc = shares[0].copy()
    for s in shares[1:]:
        acc = acc + s
    if mode == "fixed-point" and decode:
        return decode_vector(acc)
    return acc


# ---------------------------------------------------------------------------
# Secure element-wise argmax (ideal functionality)
# ---------------------------------------------------------------------------

def secure_argmax(values: list[FixedPoint], rng: np.random.Generator,
                  audit: AuditLog | None = None):
    """One-hot boolean shares of the maximum's index among P scalars.

    A sealed evaluator gathers the parties' shares, compares the decoded
    values (signed; ties go to the lowest party index), and XOR-shares the
    indicator vector back out. Returns (list of BooleanShare, audit).
    """
    P = len(values)
    if P < 2:
        raise ValueError("secure argmax needs at least 2 parties")
    audit = audit if audit is not None else AuditLog()
    for p in range(P):
        audit.append(f"holder-{p}", "sealed-evaluator", "ArgmaxInput", schema="fixed-point scalar")
    decoded = [v.decode() for v in values]
    winner = int(np.argmax(decoded))  # np.argmax takes the first max: lowest index
    onehot = np.zeros(P, dtype=np.uint8)
    onehot[winner] = 1
    shares = share_boolean(onehot, P, rng)
    for p in range(P):
        audit.append("sealed-evaluator", f"holder-{p}", "ArgmaxShare", schema=f"bits[{P}]")
    return shares, audit


def pooled_argmax(stack: np.ndarray, valid: np.ndarray,
                  frac_bits: int = ARGMAX_FRAC_BITS):
    """Vectorized sealed-evaluator core for the pooling functionality.

    stack: (P, N, d) float64 candidate values; valid: (P, N) row validity.
    Comparison happens on fixed-point encodings (monotone, so comparing the
    signed integers equals comparing the decoded values); the returned max
    values are the winners' original float64 entries, selected, not
    recomputed. Ties go to the lowest holder index. Raises if some element
    has no valid candidate.
    """
    P, N, d = stack.shape
    if valid.shape != (P, N):
        raise ValueError("validity mask shape mismatch")
    if not valid.any(axis=0).all():
        bad = int(np.flatnonzero(~valid.any(axis=0))[0])
        raise ValueError(f"node row {bad} has no valid candidate at any holder")
    enc = encode_vector(np.where(valid[:, :, None], stack, 0.0), frac_bits).view(np.int64)
    enc[~valid] = np.iinfo(np.int64).min
    winner = first_max(enc, P)[1].astype(np.int8)      # first max: lowest holder
    max_values = np.take_along_axis(stack, winner[None], axis=0)[0]
    return max_values, winner

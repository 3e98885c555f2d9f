"""n-out-of-n additive and boolean secret sharing over Z_{2^b}.

Real values are carried as two's-complement fixed-point residues, and
`encode_vector`/`decode_vector` are the one codec: uint64 residues mod 2^b
at a given number of fraction bits (b=64 with `GRAD_FRAC_BITS` = 32 by
default; an 8-bit toy ring is available for exhaustive tests). The scalar
`FixedPoint` API of the paper's sharing criteria encodes and decodes
through it. Gradient aggregation sums pairwise-masked vectors modularly
(`share_vector`, Bonawitz et al., CCS 2017, section 4), so the masks cancel
exactly and the only loss is the initial encoding quantization. A mask is
the expansion of a 32-byte seed that two holders share (`expand_seed`); a
seed reveals exactly what its expanded vector would. Seeds and expansions
come from numpy's PCG64, which is simulator-grade randomness and not a
CSPRNG. This module holds the primitives; who sends which seed to whom in
the holders' secure gradient sum is `protocol.secure_sum`, where a
GradShare's audit schema is `seed`. Boolean shares are one (P, k) uint8
array whose row p is party p's share. The secure element-wise argmax is an
ideal functionality: a sealed evaluator reconstructs inside a boundary,
compares, and XOR-shares the one-hot winner back out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gnn import stack_max

# Finer encoding used only for comparisons inside the pooling functionality,
# so the secured argmax agrees with plain float64 argmax except for values
# closer than 2^-40.
ARGMAX_FRAC_BITS = 40

# Fraction bits of the fixed-point gradient shares: Adam turns the rounding of
# a near-zero aggregate into a step of up to lr, so 20 bits let weights drift
# from the reference. A holder's value must stay below 2^63 / (P * 2^32).
GRAD_FRAC_BITS = 32

# A mask seed is SEED_WORDS uint64 words: 32 bytes stand in for a mask vector.
SEED_WORDS = 4


@dataclass(frozen=True)
class FixedPoint:
    """A two's-complement fixed-point residue in Z_{2^ring_bits}."""

    raw: int
    frac_bits: int = GRAD_FRAC_BITS
    ring_bits: int = 64

    def __post_init__(self):
        object.__setattr__(self, "raw", int(self.raw) % (1 << self.ring_bits))

    @classmethod
    def encode(cls, x: float, frac_bits: int = GRAD_FRAC_BITS,
               ring_bits: int = 64) -> "FixedPoint":
        return cls(int(encode_vector([x], frac_bits, ring_bits)[0]), frac_bits, ring_bits)

    def decode(self) -> float:
        return float(decode_vector(np.array([self.raw], np.uint64), self.frac_bits,
                                   self.ring_bits)[0])


@dataclass(frozen=True)
class AdditiveShare:
    """One party's additive share: the sum of all n_parties shares mod 2^b
    is the secret."""

    party_id: int
    value: int
    n_parties: int = 2
    frac_bits: int = GRAD_FRAC_BITS
    ring_bits: int = 64


# ---------------------------------------------------------------------------
# Fixed-point codec
# ---------------------------------------------------------------------------

def encode_vector(x, frac_bits: int, ring_bits: int = 64) -> np.ndarray:
    """x scaled by 2^frac_bits and rounded, as uint64 residues mod 2^ring_bits.

    A NaN, or a value whose scaled magnitude reaches 2^(ring_bits - 2), is
    refused, so that the sum of two encodings stays in the signed range."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):     # an overflow to inf is refused below
        scaled = np.rint(x * float(1 << frac_bits))
    # written as "all below" so that a NaN, which compares False, is refused
    if not np.all(np.abs(scaled) < float(1 << (ring_bits - 2))):
        raise ValueError(f"value is NaN or overflows the {ring_bits}-bit ring "
                         f"at this precision")
    raw = scaled.astype(np.int64).view(np.uint64)
    if ring_bits < 64:
        np.bitwise_and(raw, np.uint64((1 << ring_bits) - 1), out=raw)
    return raw


def decode_vector(raw: np.ndarray, frac_bits: int, ring_bits: int = 64) -> np.ndarray:
    """The float64 values of uint64 residues mod 2^ring_bits (two's complement)."""
    signed = raw.view(np.int64)
    if ring_bits < 64:
        shift = np.int64(64 - ring_bits)
        signed = (signed << shift) >> shift
    return signed.astype(np.float64) / float(1 << frac_bits)


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


def share_boolean(bits, P: int, rng: np.random.Generator) -> np.ndarray:
    """XOR shares of a bit vector: a (P, k) uint8 array whose row p is party
    p's share, P-1 uniform rows plus the XOR of the bits with all of them."""
    if P < 2:
        raise ValueError("boolean sharing needs at least 2 parties")
    bits = np.asarray(bits, dtype=np.uint8) & 1
    shares = np.empty((P,) + bits.shape, dtype=np.uint8)
    shares[:-1] = rng.integers(0, 2, size=shares[:-1].shape, dtype=np.uint8)
    shares[-1] = bits ^ np.bitwise_xor.reduce(shares[:-1], axis=0)
    return shares


def reconstruct_boolean(shares: np.ndarray) -> np.ndarray:
    """XOR of every party's share, row p of `shares` being party p's."""
    return np.bitwise_xor.reduce(np.asarray(shares, dtype=np.uint8), axis=0)


# ---------------------------------------------------------------------------
# Vector sharing (64-bit ring, numpy uint64 wraparound is modular)
# ---------------------------------------------------------------------------

def expand_seed(seed: np.ndarray, shape, mode: str = "fixed-point") -> np.ndarray:
    """The mask vector that a 32-byte seed stands for.

    The two holders that share a seed both call this on it and get the
    same vector: uniform over Z_2^64 (uint64 residues) in mode "fixed-point",
    uniform on [-1, 1) (float64) in mode "real".
    """
    bits = np.random.PCG64(seed)
    if mode == "fixed-point":
        return bits.random_raw(shape)
    if mode == "real":
        return np.random.Generator(bits).uniform(-1.0, 1.0, size=shape)
    raise ValueError(f"unknown share mode {mode!r}")


def share_vector(x: np.ndarray, P: int, add, subtract, mode: str = "fixed-point") -> np.ndarray:
    """One holder's masked vector in a pairwise-mask sum over P holders.

    Returns x encoded, plus the `expand_seed` expansion of every seed in
    `add` and minus that of every seed in `subtract` (each a sequence of
    (SEED_WORDS,) uint64 seeds). In the protocol every seed is added by one
    holder and subtracted by exactly one other, so the masks cancel in the
    sum of all P masked vectors, while each masked vector on its own is
    uniform to anyone who lacks one of its holder's seeds.

    mode "fixed-point": uint64 residues at GRAD_FRAC_BITS fraction bits,
    exact modular sum up to the encoding quantization, provided the caller
    has checked x with `check_ring_sum`, so that a sum over P holders cannot
    wrap.
    mode "real": a float64 copy masked with float offsets; bypasses
    quantization so logic errors can be isolated from rounding (test mode,
    not a security mode).
    """
    if P < 2:
        raise ValueError("sharing needs at least 2 parties")
    x = np.asarray(x, dtype=np.float64)
    if mode == "fixed-point":
        masked = encode_vector(x, GRAD_FRAC_BITS)
    elif mode == "real":
        masked = x.copy()
    else:
        raise ValueError(f"unknown share mode {mode!r}")
    for seed in add:
        np.add(masked, expand_seed(seed, x.shape, mode), out=masked)
    for seed in subtract:
        np.subtract(masked, expand_seed(seed, x.shape, mode), out=masked)
    return masked


def check_ring_sum(x: np.ndarray, P: int, mode: str) -> None:
    """Refuse x if, in mode "fixed-point", its encoding summed over P holders
    could wrap the 64-bit ring. P summands below 2^63 / P each cannot wrap
    the signed sum; the encoding is monotone in |x|, so the largest
    magnitude decides. Mode "real" has no ring to wrap, nor does a sum over
    one holder, which encodes nothing."""
    if mode != "fixed-point" or P == 1:
        return
    top = encode_vector(np.max(np.abs(x), initial=0.0), GRAD_FRAC_BITS).view(np.int64)
    if top >= (1 << 63) // P:
        raise ValueError(f"value overflows the 64-bit ring when summed over {P} holders")


def combine_vector_shares(shares, mode: str = "fixed-point"):
    """Sum masked vectors in the order given (ascending party order in the
    protocol), decoded at GRAD_FRAC_BITS in mode "fixed-point"."""
    acc = np.array(shares[0])
    for s in shares[1:]:
        np.add(acc, s, out=acc)
    return decode_vector(acc, GRAD_FRAC_BITS) if mode == "fixed-point" else acc


# ---------------------------------------------------------------------------
# Secure element-wise argmax (ideal functionality)
# ---------------------------------------------------------------------------

def secure_argmax(values: list[FixedPoint], rng: np.random.Generator) -> np.ndarray:
    """One-hot boolean shares of the maximum's index among P scalars.

    A sealed evaluator gathers the parties' shares and compares the values
    with `pooled_argmax`, each party's value a one-row block (signed; ties
    go to the lowest party index), re-encoding them at their own fraction
    bits so that the comparison is exact, and XOR-shares the indicator
    vector back out as `share_boolean` does: row p of the returned (P, P)
    array is party p's share.
    """
    P = len(values)
    if P < 2:
        raise ValueError("secure argmax needs at least 2 parties")
    row = np.zeros(1, dtype=np.int64)
    _, winner = pooled_argmax([(row, np.array([[v.decode()]])) for v in values], 1,
                              frac_bits=max(v.frac_bits for v in values))
    onehot = np.zeros(P, dtype=np.uint8)
    onehot[winner[0, 0]] = 1
    return share_boolean(onehot, P, rng)


def pooled_argmax(blocks: list, n: int, frac_bits: int = ARGMAX_FRAC_BITS,
                  first_row: int = 0):
    """Vectorized sealed-evaluator core for the pooling functionality.

    `blocks[p]` is holder p's `(rows, values)`: float64 candidate values of
    the universe rows `rows` out of n. Each block is encoded once at
    `frac_bits` into signed int64 codes, which `stack_max` pools (the
    encoding is monotone, so comparing codes compares values; a row no
    holder sent is refused as `stack_max` refuses it, by `first_row + row`).
    The returned maxima are the winners' float64 entries, selected from
    their blocks.
    """
    codes = [(rows, encode_vector(values, frac_bits).view(np.int64)) for rows, values in blocks]
    _, winner = stack_max(codes, n, first_row)
    # every element is written once, from the block of the holder that won it
    max_values = np.empty(winner.shape)
    for p, (rows, values) in enumerate(blocks):
        won = max_values[rows]
        np.copyto(won, values, where=winner[rows] == p)
        max_values[rows] = won
    return max_values, winner

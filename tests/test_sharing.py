import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sapgnn.numerics import make_rng
from sapgnn.protocol import ProtocolError, secure_sum
from sapgnn.sharing import (AdditiveShare, AuditLog, FixedPoint,
                            combine_vector_shares, decode_vector, encode_vector,
                            pooled_argmax, reconstruct_additive, reconstruct_boolean,
                            SEED_WORDS, expand_seed, secure_argmax,
                            share_additive, share_boolean, share_vector)
from sapgnn.wire import Channel, CommStats, MessageKind, encode_message


# -- fixed point ---------------------------------------------------------------

def test_fixed_point_round_trip_bound():
    for x in (0.0, 1.0, -1.0, 3.75, -1234.56789, 1e6):
        fp = FixedPoint.encode(x)
        assert abs(fp.decode() - x) <= 2 ** -20


def test_fixed_point_pi_round_trip():
    fp = FixedPoint.encode(math.pi)
    assert abs(fp.decode() - math.pi) <= 2 ** -20


def test_fixed_point_overflow_rejected():
    with pytest.raises(ValueError):
        FixedPoint.encode(2.0 ** 50)


def test_encode_decode_vector():
    x = make_rng(1, 0).uniform(-100, 100, size=64)
    assert np.max(np.abs(decode_vector(encode_vector(x)) - x)) <= 2 ** -20


def test_encode_vector_refuses_nan_and_overflow():
    for bad in (np.nan, np.inf, -np.inf, 2.0 ** 43, -1e300):
        with pytest.raises(ValueError, match="NaN or overflows"):
            encode_vector(np.array([1.0, bad]))


# -- additive sharing -----------------------------------------------------------

def test_share_of_zero_sums_to_zero():
    for P in (2, 3, 5):
        shares = share_additive(FixedPoint.encode(0.0), P, make_rng(P, 0))
        assert sum(s.value for s in shares) % 2 ** 64 == 0


def test_toy_ring_example():
    # 8-bit ring: shares (200, 61) reconstruct 261 mod 256 = 5
    shares = [AdditiveShare(party_id=0, value=200, n_parties=2, frac_bits=0, ring_bits=8),
              AdditiveShare(party_id=1, value=61, n_parties=2, frac_bits=0, ring_bits=8)]
    assert reconstruct_additive(shares).raw == 5


def test_random_round_trips():
    rng = make_rng(7, 0)
    for P in (2, 3, 4):
        for _ in range(200):
            x = FixedPoint.encode(float(rng.uniform(-1000, 1000)))
            got = reconstruct_additive(share_additive(x, P, rng))
            assert got.raw == x.raw


def test_toy_ring_exhaustive():
    rng = make_rng(8, 0)
    for x in range(256):
        fp = FixedPoint(raw=x, frac_bits=0, ring_bits=8)
        assert reconstruct_additive(share_additive(fp, 3, rng)).raw == x


def test_share_errors():
    with pytest.raises(ValueError):
        share_additive(FixedPoint.encode(1.0), 1, make_rng(0, 0))
    shares = share_additive(FixedPoint.encode(1.0), 3, make_rng(0, 0))
    with pytest.raises(ValueError):
        reconstruct_additive(shares[:2])           # missing party
    dup = [shares[0], shares[0], shares[2]]
    with pytest.raises(ValueError):
        reconstruct_additive(dup)                  # duplicate party


def test_flipped_bit_changes_secret():
    x = FixedPoint.encode(42.0)
    shares = share_additive(x, 2, make_rng(1, 0))
    tampered = [AdditiveShare(0, shares[0].value ^ 1, 2, shares[0].frac_bits,
                              shares[0].ring_bits), shares[1]]
    assert reconstruct_additive(tampered).raw != x.raw


def test_additive_homomorphism():
    rng = make_rng(2, 0)
    x, y = FixedPoint.encode(12.5), FixedPoint.encode(-7.25)
    sx = share_additive(x, 3, rng)
    sy = share_additive(y, 3, rng)
    summed = [AdditiveShare(i, (sx[i].value + sy[i].value) % 2 ** 64, n_parties=3)
              for i in range(3)]
    got = reconstruct_additive(summed)
    assert abs(got.decode() - 5.25) <= 2 ** -19


# -- boolean sharing --------------------------------------------------------------

def test_boolean_round_trip():
    bits = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    shares = share_boolean(bits, 4, make_rng(3, 0))
    assert np.array_equal(reconstruct_boolean(shares), bits)


# -- secure aggregation ------------------------------------------------------------

class RecordingChannel(Channel):
    """A metered channel that also keeps every delivered message."""

    def __init__(self):
        super().__init__(CommStats(), AuditLog())
        self.delivered = []

    def send(self, sender, receiver, kind, layer, epoch, fields, sender_id=-1):
        decoded = super().send(sender, receiver, kind, layer, epoch, fields, sender_id)
        self.delivered.append((sender, receiver, kind.value, decoded))
        return decoded


def run_sum(vectors, seed, mode="fixed-point"):
    """secure_sum over a fresh channel, one rng per holder; (total, channel)."""
    channel = RecordingChannel()
    rngs = [make_rng(seed, ("holder", p)) for p in range(len(vectors))]
    return secure_sum(channel, vectors, rngs, mode, epoch=0), channel


def test_aggregate_zerovectors():
    total, _ = run_sum([np.zeros(8), np.zeros(8)], 4)
    assert np.allclose(total, 0.0, atol=2 * 2 ** -20)


def test_aggregate_dyadic_exact():
    vals = [np.full(4, 1.5), np.full(4, 2.25)]
    total, _ = run_sum(vals, 5)
    assert np.array_equal(total, np.full(4, 3.75))  # dyadic rationals: error 0


def test_aggregate_matches_plaintext_sum():
    rng = make_rng(6, 0)
    vecs = [rng.uniform(-10, 10, size=64) for _ in range(4)]
    total, _ = run_sum(vecs, 7)
    expected = vecs[0] + vecs[1] + vecs[2] + vecs[3]
    assert np.max(np.abs(total - expected)) <= 4 * 2 ** -20


def test_aggregate_real_mode():
    rng = make_rng(8, 0)
    vecs = [rng.uniform(-5, 5, size=16) for _ in range(3)]
    total, _ = run_sum(vecs, 9, mode="real")
    assert np.allclose(total, sum(vecs), atol=1e-12)


def test_aggregate_over_three_holders_refuses_to_wrap():
    # each value encodes below 2^62, but the three-holder sum passes 2^63
    vecs = [np.array([1.5 * 2.0 ** 41])] * 3
    with pytest.raises(ProtocolError, match="summed over 3 holders"):
        run_sum(vecs, 3)
    total, _ = run_sum(vecs[:2], 3)
    assert total[0] == 3.0 * 2.0 ** 41


def test_aggregate_refuses_a_nan_gradient():
    vecs = [np.array([1.0, np.nan]), np.array([2.0, 0.5]), np.array([0.25, 0.25])]
    with pytest.raises(ProtocolError, match="NaN"):
        run_sum(vecs, 2)


def test_aggregate_rejects_length_mismatch():
    with pytest.raises(ProtocolError, match="length"):
        run_sum([np.zeros(3), np.zeros(4)], 0)


def test_aggregate_audit_never_touches_server():
    vecs = [np.ones(4), np.ones(4), np.ones(4)]
    _, channel = run_sum(vecs, 1)
    assert len(channel.audit) > 0
    for rec in channel.audit.records:
        assert "server" not in (rec.sender, rec.receiver)
        assert rec.kind in ("GradShare", "PartialSum")


def test_single_holder_aggregate_is_identity():
    v = np.array([1.0, -2.0])
    total, channel = run_sum([v], 2)
    assert np.array_equal(total, v)
    assert len(channel.audit) == 0 and channel.comm.total() == 0


def test_secure_sum_keeps_few_vectors_alive():
    # each receiver folds every partial into one running sum as it arrives,
    # so the peak stays O(P) vectors rather than the P(P-1) partials in flight
    P, L = 8, 200_000
    rng = make_rng(12, 0)
    vectors = [rng.uniform(-1.0, 1.0, size=L) for _ in range(P)]
    rngs = [make_rng(12, ("holder", p)) for p in range(P)]
    channel = Channel(CommStats(), AuditLog())
    tracemalloc.start()
    try:
        total = secure_sum(channel, vectors, rngs, "fixed-point", epoch=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(total - np.sum(vectors, axis=0))) <= P * 2.0 ** -20
    assert peak < 4 * P * L * 8, f"peak {peak / (L * 8):.1f} vectors of length L"


# Fixed-point: |value| <= 2^20 stays far below the 2^43 / P wrap bound, and
# float64 still carries every fraction bit of totals that large.
VALUE_BOUND = {"fixed-point": 2.0 ** 20, "real": 1e3}


@st.composite
def sum_inputs(draw):
    mode = draw(st.sampled_from(sorted(VALUE_BOUND)))
    P = draw(st.integers(1, 6))
    length = draw(st.integers(1, 40))
    bound = VALUE_BOUND[mode]
    values = st.floats(-bound, bound, allow_nan=False, allow_infinity=False)
    vectors = [np.array(draw(st.lists(values, min_size=length, max_size=length)))
               for _ in range(P)]
    return mode, vectors, draw(st.integers(0, 2 ** 32))


@settings(max_examples=60, deadline=None)
@given(sum_inputs())
def test_secure_sum_properties(inputs):
    mode, vectors, seed = inputs
    P = len(vectors)
    total, channel = run_sum(vectors, seed, mode)
    expected = np.sum(vectors, axis=0)
    tolerance = P * 2.0 ** -20 if mode == "fixed-point" else 1e-9
    assert np.max(np.abs(total - expected)) <= tolerance

    kinds = [rec.kind for rec in channel.audit.records]
    assert kinds.count("GradShare") == P * (P - 1)
    # a GradShare is one 32-byte seed, whatever the vector length
    seed_bytes = len(encode_message(MessageKind.GRAD_SHARE, -1, 0, 0,
                                    {"seed": np.zeros(SEED_WORDS, dtype=np.uint64)}))
    assert channel.comm.bytes_for(["GradShare"]) == P * (P - 1) * seed_bytes
    for _s, _r, kind, fields in channel.delivered:
        if kind == "GradShare":
            assert list(fields) == ["seed"]
            assert fields["seed"].shape == (SEED_WORDS,)
            assert fields["seed"].dtype == np.uint64
    assert kinds.count("PartialSum") == P * (P - 1)
    assert len(kinds) == 2 * P * (P - 1)          # P=1 sends nothing
    for rec in channel.audit.records:
        assert rec.sender.startswith("holder-") and rec.receiver.startswith("holder-")

    if P == 1:
        return
    if mode == "fixed-point":
        # exact mod 2^64: the total is the decoded sum of the encodings bit
        # for bit, whatever the seeds
        encoded = encode_vector(vectors[0])
        for v in vectors[1:]:
            encoded = encoded + encode_vector(v)
        assert np.array_equal(total.view(np.int64), decode_vector(encoded).view(np.int64))
    # rebuild every holder's total from what it received: its own partial
    # (the one it sends to everyone else) plus the partials sent to it
    sent = {(s, r): f["partial"] for s, r, k, f in channel.delivered if k == "PartialSum"}
    for k in range(P):
        me = f"holder-{k}"
        held = [sent[(me, f"holder-{(k + 1) % P}")] if i == k else sent[(f"holder-{i}", me)]
                for i in range(P)]
        assert np.array_equal(combine_vector_shares(held, mode=mode), total)


def test_share_vector_modes_reconstruct():
    x = make_rng(3, 0).uniform(-50, 50, size=(8, 4))
    for mode, seed in (("fixed-point", 4), ("real", 5)):
        seeds, own = share_vector(x, 4, make_rng(seed, 0), mode=mode)
        assert seeds.shape == (3, SEED_WORDS) and seeds.dtype == np.uint64
        assert own.shape == x.shape
        shares = [expand_seed(s, x.shape, mode) for s in seeds] + [own]
        got = combine_vector_shares(shares, mode=mode)
        assert np.max(np.abs(got - x)) <= (2 ** -20 if mode == "fixed-point" else 1e-12)
    # the expansion is fixed by the seed alone
    assert np.array_equal(expand_seed(seeds[0], (5,), "fixed-point"),
                          expand_seed(seeds[0].copy(), (5,), "fixed-point"))
    assert not np.array_equal(expand_seed(seeds[0], (5,), "fixed-point"),
                              expand_seed(seeds[1], (5,), "fixed-point"))


# -- secure argmax ------------------------------------------------------------------

def test_secure_argmax_basic():
    vals = [FixedPoint.encode(v) for v in (3.0, 7.0, 1.0)]
    shares, audit = secure_argmax(vals, make_rng(1, 0))
    assert np.array_equal(reconstruct_boolean(shares), np.array([0, 1, 0], dtype=np.uint8))
    assert len(audit) == 6  # one input and one share record per party


def test_secure_argmax_tie_lowest_index():
    vals = [FixedPoint.encode(5.0), FixedPoint.encode(5.0)]
    shares, _ = secure_argmax(vals, make_rng(2, 0))
    assert np.array_equal(reconstruct_boolean(shares), np.array([1, 0], dtype=np.uint8))


def test_secure_argmax_matches_plaintext():
    rng = make_rng(3, 0)
    for _ in range(200):
        P = int(rng.integers(2, 5))
        raw = rng.uniform(-100, 100, size=P)
        shares, _ = secure_argmax([FixedPoint.encode(v) for v in raw], rng)
        onehot = reconstruct_boolean(shares)
        assert onehot.sum() == 1
        assert int(np.argmax(onehot)) == int(np.argmax(raw))


def test_secure_argmax_rejects_single_party():
    with pytest.raises(ValueError):
        secure_argmax([FixedPoint.encode(1.0)], make_rng(0, 0))


# -- pooled argmax (sealed evaluator core) --------------------------------------------

def test_pooled_argmax_matches_plain_max():
    rng = make_rng(4, 0)
    stack = rng.uniform(-5, 5, size=(3, 10, 4))
    valid = np.ones((3, 10), dtype=bool)
    m, winner = pooled_argmax(stack, valid)
    assert np.array_equal(m, stack.max(axis=0))
    assert np.array_equal(winner, stack.argmax(axis=0).astype(np.int8))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5), st.integers(1, 6), st.integers(1, 3), st.data())
def test_pooled_argmax_ties_go_to_the_lowest_valid_holder(P, n, d, data):
    values = data.draw(st.lists(st.sampled_from([-1.5, -0.0, 0.0, 2.0]),
                                min_size=P * n * d, max_size=P * n * d))
    stack = np.array(values).reshape(P, n, d)
    valid = np.array(data.draw(st.lists(st.booleans(), min_size=P * n, max_size=P * n)))
    valid = valid.reshape(P, n)
    valid[0, ~valid.any(axis=0)] = True
    m, winner = pooled_argmax(stack, valid)
    for p, i, k in np.ndindex(P, n, d):
        w = winner[i, k]
        assert valid[w, i]
        # no valid holder is strictly larger, and none below w is as large
        assert not (valid[p, i] and stack[p, i, k] > stack[w, i, k])
        assert not (p < w and valid[p, i] and stack[p, i, k] == stack[w, i, k])
    assert np.array_equal(m.view(np.int64),
                          np.take_along_axis(stack, winner[None], axis=0)[0].view(np.int64))


def test_pooled_argmax_refuses_a_valid_nan():
    stack = np.zeros((2, 2, 3))
    stack[1, 1] = [np.nan, np.inf, -np.inf]
    m, _ = pooled_argmax(stack, np.array([[True, True], [True, False]]))  # not a candidate
    assert np.array_equal(m, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="NaN"):
        pooled_argmax(stack, np.ones((2, 2), dtype=bool))


def test_pooled_argmax_respects_validity():
    stack = np.stack([np.full((4, 2), 9.0), np.full((4, 2), 1.0)])
    valid = np.array([[False] * 4, [True] * 4])
    m, winner = pooled_argmax(stack, valid)
    assert np.all(m == 1.0) and np.all(winner == 1)


def test_pooled_argmax_all_invalid_raises():
    stack = np.zeros((2, 3, 2))
    valid = np.array([[True, False, True], [True, False, True]])
    with pytest.raises(ValueError, match="no valid candidate"):
        pooled_argmax(stack, valid)


# -- audit log ------------------------------------------------------------------------

def test_audit_log_jsonl_round_trip():
    log = AuditLog()
    log.append("holder-0", "server", "LocalEmbedding", "keys,t")
    log.append("server", "holder-0", "GlobalEmbedding", "keys,h")
    text = log.to_jsonl()
    back = AuditLog.from_jsonl(text)
    assert [r.__dict__ for r in back.records] == [r.__dict__ for r in log.records]
    assert back.records[0].ts == 0 and back.records[1].ts == 1

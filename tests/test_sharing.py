import math

import numpy as np
import pytest

from sapgnn.numerics import make_rng
from sapgnn.sharing import (AdditiveShare, AuditLog, FixedPoint,
                            combine_vector_shares, decode_vector, encode_vector,
                            pooled_argmax, reconstruct_additive, reconstruct_boolean,
                            reshare_boolean, secure_aggregate, secure_argmax,
                            share_additive, share_boolean, share_vector)


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

def test_boolean_round_trip_and_reshare():
    rng = make_rng(3, 0)
    bits = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    shares = share_boolean(bits, 4, rng)
    assert np.array_equal(reconstruct_boolean(shares), bits)
    fresh = reshare_boolean(shares, rng)
    assert any(not np.array_equal(a.bits, b.bits) for a, b in zip(shares, fresh))
    assert np.array_equal(reconstruct_boolean(fresh), bits)


# -- secure aggregation ------------------------------------------------------------

def test_aggregate_zerovectors():
    results, _ = secure_aggregate([np.zeros(8), np.zeros(8)], make_rng(4, 0))
    assert np.allclose(results[0], 0.0, atol=2 * 2 ** -20)


def test_aggregate_dyadic_exact():
    vals = [np.full(4, 1.5), np.full(4, 2.25)]
    results, _ = secure_aggregate(vals, make_rng(5, 0))
    for r in results:
        assert np.array_equal(r, np.full(4, 3.75))  # dyadic rationals: error 0


def test_aggregate_matches_plaintext_sum():
    rng = make_rng(6, 0)
    vecs = [rng.uniform(-10, 10, size=64) for _ in range(4)]
    results, _ = secure_aggregate(vecs, make_rng(7, 0))
    expected = vecs[0] + vecs[1] + vecs[2] + vecs[3]
    for r in results:
        assert np.max(np.abs(r - expected)) <= 4 * 2 ** -20


def test_aggregate_real_mode():
    rng = make_rng(8, 0)
    vecs = [rng.uniform(-5, 5, size=16) for _ in range(3)]
    results, _ = secure_aggregate(vecs, make_rng(9, 0), mode="real")
    assert np.allclose(results[0], sum(vecs), atol=1e-12)


def test_aggregate_over_three_holders_refuses_to_wrap():
    # each value encodes below 2^62, but the three-holder sum passes 2^63
    vecs = [np.array([1.5 * 2.0 ** 41])] * 3
    with pytest.raises(ValueError, match="summed over 3 holders"):
        secure_aggregate(vecs, make_rng(3, 0))
    results, _ = secure_aggregate(vecs[:2], make_rng(3, 0))
    assert results[0][0] == 3.0 * 2.0 ** 41


def test_aggregate_rejects_length_mismatch():
    with pytest.raises(ValueError):
        secure_aggregate([np.zeros(3), np.zeros(4)], make_rng(0, 0))


def test_aggregate_audit_never_touches_server():
    vecs = [np.ones(4), np.ones(4), np.ones(4)]
    _, audit = secure_aggregate(vecs, make_rng(1, 0))
    assert len(audit) > 0
    for rec in audit.records:
        assert "server" not in (rec.sender, rec.receiver)
        assert rec.kind in ("GradShare", "PartialSum")


def test_single_holder_aggregate_is_identity():
    v = np.array([1.0, -2.0])
    results, audit = secure_aggregate([v], make_rng(2, 0))
    assert np.array_equal(results[0], v)
    assert len(audit) == 0


def test_share_vector_modes_reconstruct():
    x = make_rng(3, 0).uniform(-50, 50, size=32)
    fx = share_vector(x, 4, make_rng(4, 0), mode="fixed-point")
    assert np.max(np.abs(combine_vector_shares(fx) - x)) <= 2 ** -20
    rx = share_vector(x, 4, make_rng(5, 0), mode="real")
    assert np.allclose(combine_vector_shares(rx, mode="real"), x, atol=1e-12)


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

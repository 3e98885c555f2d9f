import math
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sapgnn import protocol, sharing
from sapgnn.gnn import stack_max
from sapgnn.numerics import make_rng
from sapgnn.protocol import ProtocolError, secure_sum
from sapgnn.sharing import (GRAD_FRAC_BITS, AdditiveShare, FixedPoint, combine_vector_shares,
                            decode_vector, encode_vector, pooled_argmax, reconstruct_additive,
                            reconstruct_boolean, SEED_WORDS, expand_seed, secure_argmax,
                            share_additive, share_boolean, share_vector)
from sapgnn.wire import AuditLog, Channel, CommStats, MessageKind, encode_message


# -- fixed point ---------------------------------------------------------------

def test_fixed_point_round_trip_bound():
    for x in (0.0, 1.0, -1.0, 3.75, -1234.56789, 1e6):
        fp = FixedPoint.encode(x)
        assert fp.frac_bits == GRAD_FRAC_BITS and fp.ring_bits == 64
        assert abs(fp.decode() - x) <= 2.0 ** -(GRAD_FRAC_BITS + 1)


def test_fixed_point_pi_round_trip():
    fp = FixedPoint.encode(math.pi)
    assert abs(fp.decode() - math.pi) <= 2.0 ** -(GRAD_FRAC_BITS + 1)


def test_fixed_point_overflow_rejected():
    with pytest.raises(ValueError):
        FixedPoint.encode(2.0 ** 50)


def test_encode_decode_vector():
    x = make_rng(1, 0).uniform(-100, 100, size=64)
    back = decode_vector(encode_vector(x, GRAD_FRAC_BITS), GRAD_FRAC_BITS)
    assert np.max(np.abs(back - x)) <= 2.0 ** -(GRAD_FRAC_BITS + 1)


def test_encode_vector_refuses_nan_and_overflow():
    for bad in (np.nan, np.inf, -np.inf, 2.0 ** 43, -1e300):
        with pytest.raises(ValueError, match="NaN or overflows"):
            encode_vector(np.array([1.0, bad]), 20)


RING_BITS = (8, 16, 32, 64)


@st.composite
def codec_inputs(draw):
    """(x, frac_bits, ring_bits) with |x| * 2^frac_bits at most 2^(ring_bits - 3)."""
    ring_bits = draw(st.sampled_from(RING_BITS))
    frac_bits = draw(st.integers(0, ring_bits - 3))
    bound = 2.0 ** (ring_bits - 3 - frac_bits)
    return draw(st.floats(-bound, bound)), frac_bits, ring_bits


@settings(max_examples=300, deadline=None)
@given(codec_inputs())
def test_codec_round_trip_on_every_ring(inputs):
    x, f, b = inputs
    raw = encode_vector([x], f, b)
    assert raw.dtype == np.uint64 and int(raw[0]) < 2 ** b
    assert abs(decode_vector(raw, f, b)[0] - x) <= 2.0 ** -(f + 1)
    # the scalar API is the same codec: round(x * 2^f) mod 2^b, as Python ints
    fp = FixedPoint.encode(x, f, b)
    assert fp.raw == int(raw[0]) == round(x * 2 ** f) % 2 ** b
    assert fp.decode() == decode_vector(raw, f, b)[0]


@pytest.mark.parametrize("ring_bits", RING_BITS)
def test_codec_refuses_the_bound_and_nan(ring_bits):
    f = 2
    top = 2.0 ** (ring_bits - 2 - f)       # scales to exactly 2^(ring_bits - 2)
    # rounds to 2^(ring_bits - 2) - 1 where float64 holds that integer, else
    # to the largest float below the bound
    below = np.nextafter(top - 2.0 ** -f, 0.0)
    ok = np.array([below, -below])
    assert np.all(np.abs(decode_vector(encode_vector(ok, f, ring_bits), f, ring_bits) - ok)
                  <= 2.0 ** -(f + 1))
    for bad in (top, -top, np.nan):
        with pytest.raises(ValueError, match=f"NaN or overflows the {ring_bits}-bit ring"):
            encode_vector([1.0, bad], f, ring_bits)
        with pytest.raises(ValueError, match="NaN or overflows"):
            FixedPoint.encode(bad, f, ring_bits)


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
    # row p is party p's share, and the rows XOR to the bits
    assert shares.shape == (4, 5) and shares.dtype == np.uint8
    assert np.array_equal(shares[0] ^ shares[1] ^ shares[2] ^ shares[3], bits)
    assert np.array_equal(reconstruct_boolean(shares), bits)


# -- secure aggregation ------------------------------------------------------------

def run_sum(vectors, seed, mode="fixed-point", channel=None):
    """secure_sum over `channel` (a fresh one by default), one rng per
    holder; (total, channel)."""
    channel = channel or Channel(AuditLog())
    rngs = [make_rng(seed, ("holder", p)) for p in range(len(vectors))]
    return secure_sum(channel, vectors, rngs, mode, epoch=0), channel


def test_aggregate_zerovectors():
    total, _ = run_sum([np.zeros(8), np.zeros(8)], 4)
    assert np.allclose(total, 0.0, atol=2 * 2.0 ** -GRAD_FRAC_BITS)


def test_aggregate_dyadic_exact():
    vals = [np.full(4, 1.5), np.full(4, 2.25)]
    total, _ = run_sum(vals, 5)
    assert np.array_equal(total, np.full(4, 3.75))  # dyadic rationals: error 0


def test_aggregate_matches_plaintext_sum():
    rng = make_rng(6, 0)
    vecs = [rng.uniform(-10, 10, size=64) for _ in range(4)]
    total, _ = run_sum(vecs, 7)
    expected = vecs[0] + vecs[1] + vecs[2] + vecs[3]
    assert np.max(np.abs(total - expected)) <= 4 * 2.0 ** -GRAD_FRAC_BITS


def test_aggregate_real_mode():
    rng = make_rng(8, 0)
    vecs = [rng.uniform(-5, 5, size=16) for _ in range(3)]
    total, _ = run_sum(vecs, 9, mode="real")
    assert np.allclose(total, sum(vecs), atol=1e-12)


def test_aggregate_over_three_holders_refuses_to_wrap():
    # each value encodes below 2^62, but the three-holder sum passes 2^63
    big = 1.5 * 2.0 ** (61 - GRAD_FRAC_BITS)
    vecs = [np.array([big])] * 3
    with pytest.raises(ProtocolError, match="summed over 3 holders"):
        run_sum(vecs, 3)
    total, _ = run_sum(vecs[:2], 3)
    assert total[0] == 2 * big


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


@pytest.mark.parametrize("mode, kind, edit, message", [
    pytest.param("fixed-point", "GradShare", lambda f: {"seed": f["seed"][:3]},
                 r"holder-1: GradShare to holder-0 carries uint64 \(3,\) as 'seed', "
                 r"expected uint64 \(4,\)", id="short-seed"),
    pytest.param("fixed-point", "GradShare", lambda f: {"seed": f["seed"].astype(np.float64)},
                 r"holder-1: GradShare to holder-0 carries float64 \(4,\) as 'seed', "
                 "expected uint64", id="float-seed"),
    pytest.param("fixed-point", "GradShare", lambda f: {},
                 "holder-1: GradShare to holder-0 carries nothing as 'seed', expected uint64",
                 id="no-seed"),
    pytest.param("fixed-point", "PartialSum", lambda f: {"partial": f["partial"][:-1]},
                 r"holder-1: PartialSum to holder-0 carries uint64 \(4,\) as 'partial', "
                 r"expected uint64 \(5,\)", id="short-partial"),
    pytest.param("fixed-point", "PartialSum",
                 lambda f: {"partial": f["partial"].view(np.int64)},
                 r"holder-1: PartialSum to holder-0 carries int64 \(5,\) as 'partial', "
                 "expected uint64",
                 id="signed-partial"),
    pytest.param("real", "PartialSum", lambda f: {"partial": f["partial"].view(np.uint64)},
                 r"holder-1: PartialSum to holder-0 carries uint64 \(5,\) as 'partial', "
                 r"expected float64 \(5,\)",
                 id="real-partial-as-residues"),
])
def test_secure_sum_refuses_a_malformed_share(delivered_messages, tampering, mode, kind, edit,
                                               message):
    vecs = [np.full(5, float(p + 1)) for p in range(3)]
    tamper = tampering(kind, edit, sender="holder-1")
    with delivered_messages(tamper), pytest.raises(ProtocolError, match=message):
        run_sum(vecs, 4, mode)


def test_a_refused_partial_sum_receipt_ends_the_log_at_its_record(delivered_messages, tampering):
    # the receivers of a round run at once, but the log reads as if they had
    # run in turn: holder 2's refused receipt of holder 1's PartialSum is its
    # last record, and holder 3's receipt of the same round is not logged
    P = 4
    vecs = [np.full(5, float(p + 1)) for p in range(P)]
    channel = Channel(AuditLog())
    cut = tampering("PartialSum", lambda f: {"partial": f["partial"][:-1]}, sender="holder-1",
                    receiver="holder-2")
    with delivered_messages(cut), pytest.raises(
            ProtocolError, match=r"holder-1: PartialSum to holder-2 carries uint64 \(4,\) as "
                                 r"'partial', expected uint64 \(5,\)"):
        run_sum(vecs, 4, channel=channel)
    records = channel.audit.records
    assert [rec.ts for rec in records] == list(range(len(records)))
    assert [(rec.kind, rec.sender, rec.receiver) for rec in records] == (
        [("GradShare", f"holder-{j}", f"holder-{i}") for j in range(P) for i in range(j)]
        + [("PartialSum", "holder-0", f"holder-{i}") for i in (1, 2, 3)]
        + [("PartialSum", "holder-1", "holder-0"), ("PartialSum", "holder-1", "holder-2")])


def test_secure_sum_refuses_an_unknown_share_mode_before_it_sends():
    vecs = [np.full(4, float(p)) for p in range(3)]
    rngs = [make_rng(5, ("holder", p)) for p in range(3)]
    states = [rng.bit_generator.state for rng in rngs]
    channel = Channel(AuditLog())
    with pytest.raises(ProtocolError, match="unknown share mode 'fixed'"):
        secure_sum(channel, vecs, rngs, "fixed", epoch=0)
    assert len(channel.audit) == 0
    assert [rng.bit_generator.state for rng in rngs] == states


def test_single_holder_aggregate_is_identity():
    v = np.array([1.0, -2.0])
    total, channel = run_sum([v], 2)
    assert np.array_equal(total, v)
    assert len(channel.audit) == 0 and CommStats.of(channel.audit).total() == 0


def test_secure_sum_keeps_few_vectors_alive():
    # each holder masks its vector in place and adds every masked vector
    # into one running sum as it arrives, so the peak stays O(P) vectors
    # rather than the P(P-1) vectors in flight; the P masked vectors and the
    # P running sums overlap during the PartialSum round
    P, L = 8, 200_000
    rng = make_rng(12, 0)
    vectors = [rng.uniform(-1.0, 1.0, size=L) for _ in range(P)]
    rngs = [make_rng(12, ("holder", p)) for p in range(P)]
    channel = Channel(AuditLog())
    tracemalloc.start()
    try:
        total = secure_sum(channel, vectors, rngs, "fixed-point", epoch=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(total - np.sum(vectors, axis=0))) <= P * 2.0 ** -GRAD_FRAC_BITS
    assert peak < (2 * P + 3.5) * L * 8, f"peak {peak / (L * 8):.1f} vectors of length L"


# Fixed-point: |value| <= 2^20 stays far below the 2^31 / P wrap bound at
# GRAD_FRAC_BITS = 32. Sums that large carry fewer fraction bits in float64
# than the encoding does, so the check allows, on top of the encoding's
# quantization, for float64 rounding of the plaintext sum and of the decoded
# total, at most one spacing of the largest sum of magnitudes per holder.
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
def test_secure_sum_properties(delivered_messages, inputs):
    mode, vectors, seed = inputs
    P = len(vectors)
    with delivered_messages() as delivered:
        total, channel = run_sum(vectors, seed, mode)
    expected = np.sum(vectors, axis=0)
    if mode == "fixed-point":
        magnitude = np.max(np.sum(np.abs(vectors), axis=0))
        tolerance = P * (2.0 ** -GRAD_FRAC_BITS + np.spacing(magnitude))
    else:
        tolerance = 1e-9
    assert np.max(np.abs(total - expected)) <= tolerance

    kinds = [rec.kind for rec in channel.audit.records]
    # one seed per pair of holders, sent by the higher to the lower
    assert kinds.count("GradShare") == P * (P - 1) // 2
    assert [(d.sender, d.receiver) for d in delivered if d.kind == "GradShare"] == [
        (f"holder-{j}", f"holder-{i}") for j in range(P) for i in range(j)]
    # a GradShare is one 32-byte seed, whatever the vector length
    seed_bytes = len(encode_message(MessageKind.GRAD_SHARE, -1, 0, 0,
                                    {"seed": np.zeros(SEED_WORDS, dtype=np.uint64)}))
    assert seed_bytes == 67
    assert CommStats.of(channel.audit).bytes_for(["GradShare"]) == P * (P - 1) // 2 * seed_bytes
    for d in delivered:
        if d.kind == "GradShare":
            assert list(d.fields) == ["seed"]
            assert d.fields["seed"].shape == (SEED_WORDS,)
            assert d.fields["seed"].dtype == np.uint64
    assert kinds.count("PartialSum") == P * (P - 1)
    assert len(kinds) == 3 * P * (P - 1) // 2     # P=1 sends nothing
    for rec in channel.audit.records:
        assert rec.sender.startswith("holder-") and rec.receiver.startswith("holder-")

    if P == 1:
        return
    if mode == "fixed-point":
        # exact mod 2^64: the total is the decoded sum of the encodings bit
        # for bit, whatever the seeds
        encoded = encode_vector(vectors[0], GRAD_FRAC_BITS)
        for v in vectors[1:]:
            encoded = encoded + encode_vector(v, GRAD_FRAC_BITS)
        assert np.array_equal(total.view(np.int64),
                              decode_vector(encoded, GRAD_FRAC_BITS).view(np.int64))
    # rebuild every holder's total from what it received: its own partial
    # (the one it sends to everyone else) plus the partials sent to it
    sent = {(d.sender, d.receiver): d.fields["partial"] for d in delivered
            if d.kind == "PartialSum"}
    for k in range(P):
        me = f"holder-{k}"
        held = [sent[(me, f"holder-{(k + 1) % P}")] if i == k else sent[(f"holder-{i}", me)]
                for i in range(P)]
        assert np.array_equal(combine_vector_shares(held, mode=mode), total)


def test_share_vector_modes_reconstruct():
    # four holders, one seed per pair: the higher holder adds its expansion
    # and the lower one subtracts it, so the masks cancel in the total
    P = 4
    xs = [make_rng(3, p).uniform(-50, 50, size=(8, 4)) for p in range(P)]
    for mode, seed in (("fixed-point", 4), ("real", 5)):
        rng = make_rng(seed, 0)
        pair = {(i, j): rng.integers(0, 2 ** 64 - 1, size=SEED_WORDS, dtype=np.uint64,
                                     endpoint=True) for j in range(P) for i in range(j)}
        masked = [share_vector(x, P, [pair[(i, j)] for i in range(j)],
                               [pair[(j, k)] for k in range(j + 1, P)], mode=mode)
                  for j, x in enumerate(xs)]
        assert all(m.shape == xs[0].shape for m in masked)
        got = combine_vector_shares(masked, mode=mode)
        if mode == "fixed-point":
            assert all(m.dtype == np.uint64 for m in masked)
            assert not np.array_equal(masked[0], encode_vector(xs[0], GRAD_FRAC_BITS))
            encoded = sum(encode_vector(x, GRAD_FRAC_BITS) for x in xs)
            assert np.array_equal(got, decode_vector(encoded, GRAD_FRAC_BITS))
        else:
            assert np.max(np.abs(got - sum(xs))) <= 1e-12
    # the expansion is fixed by the seed alone
    a, b = pair[(0, 1)], pair[(0, 2)]
    assert np.array_equal(expand_seed(a, (5,), "fixed-point"),
                          expand_seed(a.copy(), (5,), "fixed-point"))
    assert not np.array_equal(expand_seed(a, (5,), "fixed-point"),
                              expand_seed(b, (5,), "fixed-point"))


@pytest.mark.parametrize("mode", ["fixed-point", "real"])
def test_secure_sum_expands_each_seed_by_its_two_holders(delivered_messages, monkeypatch,
                                                         mode):
    # holders mask at once, each in the thread that runs its step, so an
    # expansion belongs to the holder its thread is masking for
    P = 5
    vectors = [np.full(6, float(p)) for p in range(P)]
    masking, expanded, by_thread = [], [], {}

    def traced_share_vector(x, *args, **kwargs):
        p = next(p for p, v in enumerate(vectors) if v is x)
        masking.append(p)
        by_thread[threading.get_ident()] = p
        return share_vector(x, *args, **kwargs)

    def traced_expand_seed(seed, shape, mode):
        expanded.append((by_thread[threading.get_ident()], seed.tobytes()))
        return expand_seed(seed, shape, mode)

    monkeypatch.setattr(sharing, "expand_seed", traced_expand_seed)
    monkeypatch.setattr(protocol, "share_vector", traced_share_vector)
    with delivered_messages() as delivered:
        total, _ = run_sum(vectors, 6, mode)
    assert np.allclose(total, sum(vectors), atol=1e-9)
    assert sorted(masking) == list(range(P))      # each holder masks exactly once
    assert len(expanded) == P * (P - 1)
    seeds = {d.fields["seed"].tobytes(): (int(d.sender[7:]), int(d.receiver[7:]))
             for d in delivered if d.kind == "GradShare"}
    assert len(seeds) == P * (P - 1) // 2
    for seed, (sender, receiver) in seeds.items():
        assert sorted(p for p, s in expanded if s == seed) == [receiver, sender]


@pytest.mark.parametrize("mode", ["fixed-point", "real"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_secure_sum_refuses_a_non_finite_gradient_by_holder(mode, bad):
    vecs = [np.array([1.0, 0.5]), np.array([2.0, bad]), np.array([0.25, 0.25])]
    channel = Channel(AuditLog())
    with pytest.raises(ProtocolError, match="holder 1: .*NaN"):
        run_sum(vecs, 2, mode, channel=channel)
    assert len(channel.audit) == 0 and CommStats.of(channel.audit).total() == 0


# a value each holder can encode, but whose P-fold sum could wrap the ring for P >= 3
WRAPS = 3.5e18 / 2 ** GRAD_FRAC_BITS


@pytest.mark.parametrize("P", [3, 4, 8])
@pytest.mark.parametrize("faults, message", [
    pytest.param({1: np.nan, 2: WRAPS}, "holder 1: gradient has a NaN or infinite entry",
                 id="nan-then-wrap"),
    pytest.param({0: WRAPS, 2: np.inf}, "holder 0: value overflows the 64-bit ring when summed",
                 id="wrap-then-inf"),
    pytest.param({1: 1e300, 2: WRAPS}, "holder 1: value is NaN or overflows the 64-bit ring",
                 id="unencodable-then-wrap"),
    pytest.param({1: WRAPS, 2: WRAPS}, "holder 1: value overflows the 64-bit ring when summed",
                 id="wrap-twice"),
])
def test_secure_sum_raises_the_lowest_of_two_refusals_and_sends_nothing(P, faults, message):
    # every holder checks its own vector at once: with two holders at fault
    # the lower one's refusal is raised, nothing is sent and no seed is drawn
    vecs = [np.full(6, 0.5 + p) for p in range(P)]
    for p, bad in faults.items():
        vecs[p][3] = bad
    rngs = [make_rng(9, ("holder", p)) for p in range(P)]
    states = [rng.bit_generator.state for rng in rngs]
    channel = Channel(AuditLog())
    with pytest.raises(ProtocolError, match="^" + re.escape(message)):
        secure_sum(channel, vecs, rngs, "fixed-point", epoch=0)
    assert len(channel.audit) == 0
    assert [rng.bit_generator.state for rng in rngs] == states


# -- secure argmax ------------------------------------------------------------------

def test_secure_argmax_basic():
    vals = [FixedPoint.encode(v) for v in (3.0, 7.0, 1.0)]
    shares = secure_argmax(vals, make_rng(1, 0))
    assert shares.shape == (3, 3)  # one row of shares per party
    assert np.array_equal(reconstruct_boolean(shares), np.array([0, 1, 0], dtype=np.uint8))


def test_secure_argmax_tie_lowest_index():
    vals = [FixedPoint.encode(5.0), FixedPoint.encode(5.0)]
    shares = secure_argmax(vals, make_rng(2, 0))
    assert np.array_equal(reconstruct_boolean(shares), np.array([1, 0], dtype=np.uint8))


def test_secure_argmax_matches_plaintext():
    rng = make_rng(3, 0)
    for _ in range(200):
        P = int(rng.integers(2, 5))
        raw = rng.uniform(-100, 100, size=P)
        shares = secure_argmax([FixedPoint.encode(v) for v in raw], rng)
        onehot = reconstruct_boolean(shares)
        assert onehot.sum() == 1
        assert int(np.argmax(onehot)) == int(np.argmax(raw))


def test_secure_argmax_rejects_single_party():
    with pytest.raises(ValueError):
        secure_argmax([FixedPoint.encode(1.0)], make_rng(0, 0))


# -- pooled argmax (sealed evaluator core) --------------------------------------------

def row_blocks(stack, sent):
    """Holder p's `(rows, values)` block: the rows `sent[p]` marks, out of
    the dense (P, n, d) `stack`."""
    return [(np.flatnonzero(s), x[s]) for x, s in zip(stack, sent, strict=True)]


def test_pooled_argmax_matches_plain_max():
    rng = make_rng(4, 0)
    stack = rng.uniform(-5, 5, size=(3, 10, 4))
    m, winner = pooled_argmax(row_blocks(stack, np.ones((3, 10), dtype=bool)), 10)
    assert np.array_equal(m, stack.max(axis=0))
    assert np.array_equal(winner, stack.argmax(axis=0).astype(np.int8))


def test_pooled_argmax_single_holder_identity():
    t = make_rng(5, 0).uniform(-5, 5, size=(6, 3))
    m, winner = pooled_argmax([(np.arange(6), t)], 6)
    assert np.array_equal(m, t) and np.all(winner == 0)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5), st.integers(1, 6), st.integers(1, 3), st.data())
def test_pooled_argmax_ties_go_to_the_lowest_valid_holder(P, n, d, data):
    values = data.draw(st.lists(st.sampled_from([-1.5, -0.0, 0.0, 2.0]),
                                min_size=P * n * d, max_size=P * n * d))
    stack = np.array(values).reshape(P, n, d)
    sent = np.array(data.draw(st.lists(st.booleans(), min_size=P * n, max_size=P * n)))
    sent = sent.reshape(P, n)
    sent[0, ~sent.any(axis=0)] = True
    m, winner = pooled_argmax(row_blocks(stack, sent), n)
    for p, i, k in np.ndindex(P, n, d):
        w = winner[i, k]
        assert sent[w, i]
        # no sending holder is strictly larger, and none below w is as large
        assert not (sent[p, i] and stack[p, i, k] > stack[w, i, k])
        assert not (p < w and sent[p, i] and stack[p, i, k] == stack[w, i, k])
    assert np.array_equal(m.view(np.int64),
                          np.take_along_axis(stack, winner[None], axis=0)[0].view(np.int64))


def test_pooled_argmax_refuses_a_valid_nan():
    t = np.zeros((2, 3))
    t[1] = [np.nan, 1.0, -1.0]
    with pytest.raises(ValueError, match="NaN"):
        pooled_argmax([(np.arange(2), np.zeros((2, 3))), (np.arange(2), t)], 2)


def test_pooled_argmax_respects_validity():
    blocks = [(np.array([1, 2]), np.full((2, 2), 9.0)), (np.arange(4), np.full((4, 2), 1.0))]
    m, winner = pooled_argmax(blocks, 4)
    assert np.all(m[[0, 3]] == 1.0) and np.all(winner[[0, 3]] == 1)
    assert np.all(m[[1, 2]] == 9.0) and np.all(winner[[1, 2]] == 0)


def test_pooled_argmax_all_invalid_raises():
    rows = np.array([0, 2])
    with pytest.raises(ValueError, match="node row 1 is unknown to every holder"):
        pooled_argmax([(rows, np.zeros((2, 2))), (rows, np.ones((2, 2)))], 3)



# -- the server's row-range pooling ----------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 12), st.integers(1, 3), st.integers(1, 5),
       st.booleans(), st.data())
def test_row_ranges_pool_as_one_call(P, n, d, ranges, secure, data):
    # the ranges cut across every block, and ties between -0.0 and 0.0 are
    # decided in each range as in one call over all rows
    values = data.draw(st.lists(st.sampled_from([-1.5, -0.0, 0.0, 2.0]),
                                min_size=P * n * d, max_size=P * n * d))
    stack = np.array(values).reshape(P, n, d)
    sent = np.array(data.draw(st.lists(st.booleans(), min_size=P * n, max_size=P * n)))
    sent = sent.reshape(P, n)
    sent[0, ~sent.any(axis=0)] = True
    blocks = row_blocks(stack, sent)
    m, winner = (pooled_argmax if secure else stack_max)(blocks, n)
    got_m, got_winner = protocol._pool_rows(blocks, n, secure, ranges)
    assert np.array_equal(got_m.view(np.int64), m.view(np.int64))
    assert got_winner.dtype == winner.dtype and np.array_equal(got_winner, winner)


@pytest.mark.parametrize("secure", [False, True], ids=["stack_max", "pooled_argmax"])
def test_row_ranges_refuse_a_row_no_holder_sent_by_its_universe_row(secure):
    rows = np.array([0, 1, 2, 3, 4, 6, 7])       # no holder sent row 5
    blocks = [(rows, np.zeros((7, 2))), (rows[::2], np.ones((4, 2)))]
    for ranges in (1, 2, 3, 5):
        with pytest.raises(ValueError, match="node row 5 is unknown to every holder"):
            protocol._pool_rows(blocks, 8, secure, ranges)

"""Additive secret sharing walkthrough: fixed-point encoding, the 8-bit toy
ring, gradient aggregation among holders, and what each party ever sees.

Run: python demos/03_secret_sharing.py
"""

import numpy as np

from sapgnn import (AuditLog, Channel, CommStats, FixedPoint, make_rng, reconstruct_additive,
                    secure_sum, share_additive)

rng = make_rng(2024, "demo")

print("== scalar sharing over Z_2^64, 32 fraction bits ==")
x = FixedPoint.encode(3.14159)
shares = share_additive(x, 3, rng)
for s in shares:
    print(f"  party {s.party_id}: 0x{s.value:016x}")
back = reconstruct_additive(shares)
print(f"  reconstructed: {back.decode():.6f} (quantization <= 2^-33)")

print("\n== the same scheme on an 8-bit toy ring ==")
toy = FixedPoint(raw=5, frac_bits=0, ring_bits=8)
shares = share_additive(toy, 2, rng)
vals = [s.value for s in shares]
print(f"  5 splits into {vals}; {vals[0]} + {vals[1]} = {sum(vals)} = "
      f"{sum(vals) % 256} mod 256")

print("\n== holder-side gradient aggregation ==")
grads = [rng.normal(size=6) for _ in range(3)]
channel = Channel(AuditLog())
holder_rngs = [make_rng(2024, ("shares", p)) for p in range(len(grads))]
total = secure_sum(channel, grads, holder_rngs, "fixed-point", epoch=0)
print("  per-holder gradients:")
for i, v in enumerate(grads):
    print(f"    holder {i}: {np.round(v, 3)}")
print(f"  every holder reconstructs: {np.round(total, 3)}")
print(f"  plaintext sum:             {np.round(sum(grads), 3)}")
print(f"  max quantization error: {np.max(np.abs(total - sum(grads))):.2e}")

audit = channel.audit
senders = {r.sender for r in audit.records} | {r.receiver for r in audit.records}
print(f"\n  parties on the wire: {sorted(senders)} (the server is never one of them)")
print(f"  message kinds: {sorted({r.kind for r in audit.records})}, "
      f"{len(audit)} messages, {CommStats.of(audit).total()} bytes")

"""Dense float64 numerics shared by the model and protocol code.

Everything here is deterministic: random draws come from named RNG streams,
and all reductions run in a fixed order so that two executions of the same
computation produce bit-identical results.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


def _stream_key(stream) -> int:
    """Map a stream label (int, str, or tuple) to a stable 64-bit integer."""
    if isinstance(stream, (int, np.integer)):
        return int(stream)
    digest = hashlib.sha256(repr(stream).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def make_rng(seed: int, stream=0) -> np.random.Generator:
    """Deterministic, independent random stream.

    Identical (seed, stream) pairs always yield identical draw sequences;
    distinct stream labels give statistically independent streams.
    """
    key = _stream_key(stream)
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(key,)))


def glorot_init(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Uniform(-a, a) matrix with a = sqrt(6 / (rows + cols))."""
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be >= 1, got {rows}x{cols}")
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam accumulators for one parameter tensor (caller owns the state)."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 0.01

    @classmethod
    def for_param(cls, shape, lr: float = 0.01) -> "AdamState":
        return cls(m=np.zeros(shape), v=np.zeros(shape), step=0, lr=lr)


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray):
    """One bias-corrected Adam update. Returns (new_params, new_state)."""
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError(
            f"shape mismatch: params {params.shape}, grads {grads.shape}, state {state.m.shape}")
    if not np.all(np.isfinite(grads)):
        raise ValueError("non-finite gradient entry")
    t = state.step + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grads
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * (grads * grads)
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    new_params = params - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return new_params, AdamState(m=m, v=v, step=t, lr=state.lr)


def finite_diff_grad(f, at: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function over a flat vector.

    Independent of any analytic backward pass; used to cross-check them.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    at = np.asarray(at, dtype=np.float64)
    grad = np.zeros_like(at)
    flat = at.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(at)
        flat[i] = orig - eps
        fm = f(at)
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite function evaluation at coordinate {i}")
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


def first_max(candidates, count: int):
    """Element-wise running max over `count` candidate arrays, with the
    position of the first maximal candidate per element.

    Candidate 0 fixes the shape; candidate j may cover only a leading prefix
    of its rows. A later candidate wins only when strictly greater, so a tie
    keeps the lowest position. Positions come in the smallest unsigned dtype
    that holds count - 1. Raises ValueError when the max holds a NaN: a
    strict `>` never lets a NaN win, so its position would hide it.
    """
    if count < 1:
        raise ValueError("first_max needs at least one candidate")
    candidates = iter(candidates)
    best = np.array(next(candidates))
    pos = np.zeros(best.shape, dtype=np.min_scalar_type(count - 1))
    for j, x in enumerate(candidates, start=1):
        b, p = best[:len(x)], pos[:len(x)]
        p += (x > b) * (j - p)   # branch-free: p becomes j where x wins
        np.maximum(b, x, out=b)
    if best.dtype.kind == "f" and np.isnan(best).any():
        raise ValueError("NaN among the pooled candidates")
    return best, pos


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray) -> np.ndarray:
    """Subgradient of relu: 1 where x > 0, else 0 (the tie at 0 maps to 0)."""
    return (x > 0.0).astype(np.float64)


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by subtracting the row max."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def dropout_mask(rng: np.random.Generator, rate: float, shape) -> np.ndarray:
    """0/(1/(1-rate)) scaled keep mask; rate 0 gives the all-ones matrix."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return np.ones(shape)
    keep = rng.random(shape) >= rate
    return keep.astype(np.float64) / (1.0 - rate)

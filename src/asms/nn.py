"""Dense two-hidden-layer MLPs with hand-written backprop and Adam.

Parameters live in one flat float64 vector (per layer: weights then biases)
so models can be averaged, perturbed, serialized, and finite-difference
checked without touching layer structure. Forward/backward operate on a
single input vector or a batch.
"""

from __future__ import annotations

import logging
import struct
import zlib
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import RngStream

log = logging.getLogger(__name__)

ACTIVATIONS = ("tanh", "relu")
HEADS = ("categorical", "scalar")

CHECKPOINT_MAGIC = b"FMAP"
CHECKPOINT_VERSION = 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class CheckpointError(ValueError):
    """Raised for corrupt or incompatible serialized models."""


@dataclass(frozen=True)
class ModelParams:
    """Flat parameter vector plus the shape/activation metadata to use it."""

    shapes: tuple[tuple[int, int], ...]
    theta: np.ndarray
    activation: str
    head: str

    def __post_init__(self) -> None:
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        if self.head not in HEADS:
            raise ValueError(f"head must be one of {HEADS}")
        expected = sum(i * o + o for i, o in self.shapes)
        if self.theta.shape != (expected,):
            raise ValueError(f"flat vector length {self.theta.shape} != {expected}")
        if not np.all(np.isfinite(self.theta)):
            raise ValueError("parameters must be finite")

    @property
    def in_dim(self) -> int:
        return self.shapes[0][0]

    @property
    def out_dim(self) -> int:
        return self.shapes[-1][1]

    def layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(W, b) views into the flat vector, W laid out (in, out)."""
        out = []
        pos = 0
        for i, o in self.shapes:
            w = self.theta[pos:pos + i * o].reshape(i, o)
            pos += i * o
            b = self.theta[pos:pos + o]
            pos += o
            out.append((w, b))
        return out

    def with_theta(self, theta: np.ndarray) -> "ModelParams":
        return replace(self, theta=theta)


def flat_size(shapes: tuple[tuple[int, int], ...]) -> int:
    return sum(i * o + o for i, o in shapes)


def init_mlp(in_dim: int, hidden: int, out_dim: int, activation: str,
             rng: RngStream, head: str | None = None) -> ModelParams:
    """Two-hidden-layer MLP; Glorot-uniform weights, zero biases."""
    if min(in_dim, hidden, out_dim) < 1:
        raise ValueError("dimensions must be >= 1")
    shapes = ((in_dim, hidden), (hidden, hidden), (hidden, out_dim))
    theta = np.zeros(flat_size(shapes))
    pos = 0
    for i, o in shapes:
        bound = np.sqrt(6.0 / (i + o))
        theta[pos:pos + i * o] = rng.uniform(-bound, bound, size=i * o)
        pos += i * o + o    # biases stay zero
    if head is None:
        head = "categorical" if out_dim > 1 else "scalar"
    return ModelParams(shapes=shapes, theta=theta, activation=activation, head=head)


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    return np.tanh(z) if kind == "tanh" else np.maximum(z, 0.0)


def _act_grad(z: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    return 1.0 - a * a if kind == "tanh" else (z > 0).astype(np.float64)


def forward(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Network output and the activation cache needed by backward().

    Accepts one input vector (in_dim,) or a batch (B, in_dim); the output
    mirrors the input's batching.
    """
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    batch = arr[None, :] if single else arr
    if batch.ndim != 2 or batch.shape[1] != params.in_dim:
        raise ValueError(f"input shape {arr.shape} incompatible with in_dim {params.in_dim}")
    (w1, b1), (w2, b2), (w3, b3) = params.layers()
    z1 = batch @ w1 + b1
    a1 = _act(z1, params.activation)
    z2 = a1 @ w2 + b2
    a2 = _act(z2, params.activation)
    out = a2 @ w3 + b3
    cache = (batch, z1, a1, z2, a2, single)
    return (out[0] if single else out), cache


def backward(params: ModelParams, cache: tuple, grad_out: np.ndarray) -> np.ndarray:
    """Exact gradient of sum(grad_out * output) w.r.t. the flat vector.

    grad_out must match the forward call's output shape; batch entries are
    summed (supply per-sample dLoss/dOutput for a mean loss already divided
    by the batch size).
    """
    batch, z1, a1, z2, a2, single = cache
    g = np.asarray(grad_out, dtype=np.float64)
    g = g[None, :] if single else g
    if g.shape != (batch.shape[0], params.out_dim):
        raise ValueError(f"grad_out shape {grad_out.shape} does not match cached batch")
    (w1, b1), (w2, b2), (w3, b3) = params.layers()

    dw3 = a2.T @ g
    db3 = g.sum(axis=0)
    da2 = g @ w3.T
    dz2 = da2 * _act_grad(z2, a2, params.activation)
    dw2 = a1.T @ dz2
    db2 = dz2.sum(axis=0)
    da1 = dz2 @ w2.T
    dz1 = da1 * _act_grad(z1, a1, params.activation)
    dw1 = batch.T @ dz1
    db1 = dz1.sum(axis=0)

    return np.concatenate([dw1.ravel(), db1, dw2.ravel(), db2, dw3.ravel(), db3])


@dataclass(frozen=True)
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n), step=0)


def adam_step(params: ModelParams, state: AdamState, grad: np.ndarray, lr: float,
              grad_clip: float = 0.5) -> tuple[ModelParams, AdamState]:
    """One Adam update after global-norm clipping the gradient.

    Non-finite gradients skip the step (logged) rather than poisoning the
    parameters. Inputs are not mutated; the heavy vector work runs in-place
    on the three freshly allocated outputs.
    """
    if grad.shape != params.theta.shape:
        raise ValueError("gradient length does not match parameters")
    if not np.all(np.isfinite(grad)):
        log.warning("non-finite gradient; Adam step skipped")
        return params, state
    norm = float(np.linalg.norm(grad))
    scale = grad_clip / norm if (grad_clip > 0 and norm > grad_clip) else 1.0
    t = state.step + 1

    m = np.multiply(state.m, ADAM_BETA1)
    scratch = np.multiply(grad, (1.0 - ADAM_BETA1) * scale)
    m += scratch
    np.multiply(grad, grad, out=scratch)
    scratch *= (1.0 - ADAM_BETA2) * scale * scale
    v = np.multiply(state.v, ADAM_BETA2)
    v += scratch
    # scratch <- lr * m_hat / (sqrt(v_hat) + eps), reusing the buffer
    np.divide(v, 1.0 - ADAM_BETA2 ** t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPS
    np.divide(m, scratch, out=scratch)
    scratch *= -lr / (1.0 - ADAM_BETA1 ** t)
    scratch += params.theta
    return params.with_theta(scratch), AdamState(m=m, v=v, step=t)


def categorical_head(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max-shifted softmax: (probabilities, log-probabilities, entropy).

    Works on (K,) logits or a (B, K) batch; entropy is scalar or (B,).
    """
    z = np.asarray(logits, dtype=np.float64)
    single = z.ndim == 1
    zz = z[None, :] if single else z
    shifted = zz - zz.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    probs = exp / total
    logp = shifted - np.log(total)
    entropy = -(probs * logp).sum(axis=1)
    if single:
        return probs[0], logp[0], float(entropy[0])
    return probs, logp, entropy


def grad_check(params: ModelParams,
               loss_and_grad: Callable[[ModelParams], tuple[float, np.ndarray]],
               rng: RngStream, n_coords: int = 200, h: float = 1e-5) -> float:
    """Max relative error of the analytic gradient versus central finite
    differences over a random coordinate subsample."""
    loss0, analytic = loss_and_grad(params)
    if not np.isfinite(loss0):
        raise ValueError("loss is not finite at the given parameters")
    size = params.theta.size
    if size <= n_coords:
        coords = np.arange(size)
    else:
        coords = np.unique(rng.integers(size, size=n_coords * 2))[:n_coords]
    worst = 0.0
    for c in coords:
        bumped = params.theta.copy()
        bumped[c] += h
        plus, _ = loss_and_grad(params.with_theta(bumped))
        bumped[c] -= 2 * h
        minus, _ = loss_and_grad(params.with_theta(bumped))
        fd = (plus - minus) / (2 * h)
        denom = max(abs(fd), abs(analytic[c]), 1e-5)
        worst = max(worst, abs(fd - analytic[c]) / denom)
    return worst


# ---------------------------------------------------------------------------
# Serialization: magic | version | tags | shapes | float64 payload | crc32
# ---------------------------------------------------------------------------

def params_to_bytes(params: ModelParams) -> bytes:
    header = bytearray()
    header += CHECKPOINT_MAGIC
    header += struct.pack("<H", CHECKPOINT_VERSION)
    header += struct.pack("<BB", ACTIVATIONS.index(params.activation),
                          HEADS.index(params.head))
    header += struct.pack("<H", len(params.shapes))
    for i, o in params.shapes:
        header += struct.pack("<II", i, o)
    header += struct.pack("<Q", params.theta.size)
    payload = params.theta.astype("<f8").tobytes()
    body = bytes(header) + payload
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def serialized_size(params: ModelParams) -> int:
    """len(params_to_bytes(params)), computed from the shapes alone."""
    return (len(CHECKPOINT_MAGIC) + struct.calcsize("<HBBH")
            + struct.calcsize("<II") * len(params.shapes) + struct.calcsize("<Q")
            + 8 * params.theta.size + struct.calcsize("<I"))


def params_from_bytes(data: bytes) -> ModelParams:
    if len(data) < 4 + 2 + 2 + 2 + 8 + 4:
        raise CheckpointError("truncated checkpoint")
    body, crc_raw = data[:-4], data[-4:]
    (crc,) = struct.unpack("<I", crc_raw)
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise CheckpointError("checkpoint CRC mismatch")
    if body[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError("bad checkpoint magic")
    pos = 4
    (version,) = struct.unpack_from("<H", body, pos); pos += 2
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    act_i, head_i = struct.unpack_from("<BB", body, pos); pos += 2
    if act_i >= len(ACTIVATIONS) or head_i >= len(HEADS):
        raise CheckpointError("unknown activation/head tag")
    (n_layers,) = struct.unpack_from("<H", body, pos); pos += 2
    shapes = []
    for _ in range(n_layers):
        i, o = struct.unpack_from("<II", body, pos); pos += 8
        shapes.append((i, o))
    (length,) = struct.unpack_from("<Q", body, pos); pos += 8
    expected = flat_size(tuple(shapes))
    if length != expected or len(body) - pos != 8 * length:
        raise CheckpointError("checkpoint payload length mismatch")
    theta = np.frombuffer(body, dtype="<f8", count=length, offset=pos).copy()
    try:
        return ModelParams(shapes=tuple(shapes), theta=theta,
                           activation=ACTIVATIONS[act_i], head=HEADS[head_i])
    except ValueError as exc:
        raise CheckpointError(str(exc)) from None


def save_params(path: str, params: ModelParams) -> int:
    data = params_to_bytes(params)
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def load_params(path: str) -> ModelParams:
    with open(path, "rb") as fh:
        return params_from_bytes(fh.read())


__all__ = [
    "ACTIVATIONS", "ADAM_BETA1", "ADAM_BETA2", "ADAM_EPS", "AdamState",
    "CHECKPOINT_MAGIC", "CHECKPOINT_VERSION", "CheckpointError", "HEADS",
    "ModelParams", "adam_step", "backward", "categorical_head",
    "flat_size", "forward", "grad_check", "init_mlp", "load_params",
    "params_from_bytes", "params_to_bytes", "save_params", "serialized_size",
]

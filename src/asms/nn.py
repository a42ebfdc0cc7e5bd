"""Dense two-hidden-layer MLPs with hand-written backprop and Adam.

Parameters live in one flat float64 vector (per layer: weights then biases)
so models can be averaged, perturbed, serialized, and finite-difference
checked without touching layer structure. ``forward`` takes a single
input vector or a batch; ``backward`` and the categorical head take
batches, so ``backward`` needs a batch's cache.
"""

from __future__ import annotations

import logging
import math
import struct
import zlib
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import RngStream

log = logging.getLogger(__name__)

ACTIVATIONS = ("tanh", "relu")

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

    def __post_init__(self) -> None:
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        expected = flat_size(self.shapes)
        if self.theta.shape != (expected,):
            raise ValueError(f"flat vector length {self.theta.shape} != {expected}")
        if not np.all(np.isfinite(self.theta)):
            raise ValueError("parameters must be finite")
        object.__setattr__(self, "_layers", _layer_views(self.theta, self.shapes))

    def __reduce__(self):
        # pickle and deepcopy rebuild through the constructor, so the layer
        # views stay views of the copied vector
        return type(self), (self.shapes, self.theta, self.activation)

    @property
    def in_dim(self) -> int:
        return self.shapes[0][0]

    @property
    def out_dim(self) -> int:
        return self.shapes[-1][1]

    def layers(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(W, b) views into the flat vector, W laid out (in, out), built
        once per object; an in-place write to ``theta`` shows through them."""
        return self._layers

    def with_theta(self, theta: np.ndarray) -> "ModelParams":
        return type(self)(self.shapes, theta, self.activation)


def flat_size(shapes: tuple[tuple[int, int], ...]) -> int:
    return sum(i * o + o for i, o in shapes)


def _layer_views(flat: np.ndarray, shapes: tuple[tuple[int, int], ...],
                 ) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(W, b) views into a flat vector laid out per layer as weights (in, out)
    then biases."""
    views, pos = [], 0
    for i, o in shapes:
        w = flat[pos:pos + i * o].reshape(i, o)
        pos += i * o
        views.append((w, flat[pos:pos + o]))
        pos += o
    return tuple(views)


def init_mlp(in_dim: int, hidden: int, out_dim: int, activation: str,
             rng: RngStream) -> ModelParams:
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
    return ModelParams(shapes=shapes, theta=theta, activation=activation)


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    return np.tanh(z) if kind == "tanh" else np.maximum(z, 0.0)


def _act_grad(z: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    return 1.0 - a * a if kind == "tanh" else (z > 0).astype(np.float64)


def forward(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Network output and the activation cache needed by backward().

    Accepts one input vector (in_dim,) or a batch (B, in_dim) and runs the
    same arithmetic on either: per layer ``z = x @ W``, then ``z += b``,
    then the activation. The output and every cache entry keep the input's
    rank, so a vector gives a cache of vectors; a 1-D product equals the
    batch-of-one product bit for bit.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim not in (1, 2) or arr.shape[-1] != params.in_dim:
        raise ValueError(f"input shape {arr.shape} incompatible with in_dim {params.in_dim}")
    (w1, b1), (w2, b2), (w3, b3) = params.layers()
    z1 = arr @ w1
    z1 += b1
    a1 = _act(z1, params.activation)
    z2 = a1 @ w2
    z2 += b2
    a2 = _act(z2, params.activation)
    out = a2 @ w3
    out += b3
    return out, (arr, z1, a1, z2, a2)


def backward(params: ModelParams, cache: tuple, grad_out: np.ndarray,
             out: ModelParams | None = None) -> np.ndarray:
    """Exact gradient of sum(grad_out * output) w.r.t. the flat vector.

    ``cache`` is that of a forward of a (B, in_dim) batch, and grad_out is
    (B, out_dim); one input goes through as a batch of one. Batch entries
    are summed (supply per-sample dLoss/dOutput for a mean loss already
    divided by the batch size). The gradient is written through the layer
    views of ``out``, a buffer of the network's shapes such as
    ``params.with_theta(np.zeros(P))``, and ``out.theta`` is returned;
    without one a fresh vector is allocated.
    """
    batch, z1, a1, z2, a2 = cache
    g = np.asarray(grad_out, dtype=np.float64)
    if g.shape != (batch.shape[0], params.out_dim):
        raise ValueError(f"grad_out shape {grad_out.shape} does not match cached batch")
    if out is None:
        out = params.with_theta(np.zeros(params.theta.size))
    elif out.shapes != params.shapes:
        raise ValueError(f"out has shapes {out.shapes}, the network {params.shapes}")
    (w1, _), (w2, _), (w3, _) = params.layers()
    (dw1, db1), (dw2, db2), (dw3, db3) = out.layers()

    np.matmul(a2.T, g, out=dw3)
    np.add.reduce(g, axis=0, out=db3)
    da2 = g @ w3.T
    dz2 = da2 * _act_grad(z2, a2, params.activation)
    np.matmul(a1.T, dz2, out=dw2)
    np.add.reduce(dz2, axis=0, out=db2)
    da1 = dz2 @ w2.T
    dz1 = da1 * _act_grad(z1, a1, params.activation)
    np.matmul(batch.T, dz1, out=dw1)
    np.add.reduce(dz1, axis=0, out=db1)
    return out.theta


@dataclass
class AdamState:
    """First and second moment estimates and the step count; adam_step
    updates all three in place."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n), step=0)


class AdamReport(NamedTuple):
    """What one adam_step did: the gradient's global norm before clipping,
    whether clipping scaled it, and whether the step was skipped."""

    grad_norm: float
    clipped: bool
    skipped: bool


def adam_step(params: ModelParams, state: AdamState, grad: np.ndarray, lr: float,
              grad_clip: float) -> AdamReport:
    """One Adam update after global-norm clipping the gradient, written in
    place into ``params.theta`` and ``state``; ``grad`` is only read.

    A gradient with a NaN or infinite entry skips the step (logged) and
    leaves params and state as they were. Finite entries whose squares
    overflow the norm are clipped from a norm taken on the gradient scaled
    by its largest entry, so they step like any clipped gradient; without a
    clip bound such a gradient is skipped too.
    """
    if grad.shape != params.theta.shape:
        raise ValueError("gradient length does not match parameters")
    # np.linalg.norm's own arithmetic for a 1-D float64 vector
    norm = math.sqrt(grad.dot(grad))
    if math.isfinite(norm):
        clipped = grad_clip > 0 and norm > grad_clip
        scale = grad_clip / norm if clipped else 1.0
    elif grad_clip > 0 and np.all(np.isfinite(grad)):
        # grad_clip-long copy of the direction; nothing is squared unscaled
        peak = float(np.abs(grad).max())
        grad = grad / peak
        unit_norm = math.sqrt(grad.dot(grad))
        grad *= grad_clip / unit_norm
        norm, clipped, scale = peak * unit_norm, True, 1.0
    else:
        log.warning("non-finite gradient norm; Adam step skipped")
        return AdamReport(norm, False, True)
    state.step += 1
    t = state.step

    m, v, theta = state.m, state.v, params.theta
    m *= ADAM_BETA1
    scratch = np.multiply(grad, (1.0 - ADAM_BETA1) * scale)
    m += scratch
    np.multiply(grad, grad, out=scratch)
    scratch *= (1.0 - ADAM_BETA2) * scale * scale
    v *= ADAM_BETA2
    v += scratch
    # scratch <- lr * m_hat / (sqrt(v_hat) + eps), reusing the buffer
    np.divide(v, 1.0 - ADAM_BETA2 ** t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPS
    np.divide(m, scratch, out=scratch)
    scratch *= -lr / (1.0 - ADAM_BETA1 ** t)
    theta += scratch
    return AdamReport(norm, clipped, False)


def categorical_head(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max-shifted softmax of (B, K) logits: (probabilities, log-probabilities),
    each (B, K)."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - np.maximum.reduce(z, axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = np.add.reduce(exp, axis=1, keepdims=True)
    return exp / total, shifted - np.log(total)


def grad_check(params: ModelParams,
               loss_and_grad: Callable[[ModelParams], tuple[float, np.ndarray]],
               rng: RngStream, n_coords: int = 200) -> float:
    """Max relative error of the analytic gradient versus central finite
    differences (step 1e-5) over a random coordinate subsample."""
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
        bumped[c] += 1e-5
        plus, _ = loss_and_grad(params.with_theta(bumped))
        bumped[c] -= 2e-5
        minus, _ = loss_and_grad(params.with_theta(bumped))
        fd = (plus - minus) / 2e-5
        denom = max(abs(fd), abs(analytic[c]), 1e-5)
        worst = max(worst, abs(fd - analytic[c]) / denom)
    return worst


# ---------------------------------------------------------------------------
# Serialization: magic | version | tags | shapes | float64 payload | crc32
# ---------------------------------------------------------------------------

def _head_tag(out_dim: int) -> int:
    return 0 if out_dim > 1 else 1   # categorical for several outputs, else scalar


def _header(params: ModelParams) -> bytes:
    """Everything before the payload: magic, version, tags, shapes, length."""
    return b"".join((CHECKPOINT_MAGIC,
                     struct.pack("<HBBH", CHECKPOINT_VERSION, ACTIVATIONS.index(params.activation),
                                 _head_tag(params.out_dim), len(params.shapes)),
                     *(struct.pack("<II", i, o) for i, o in params.shapes),
                     struct.pack("<Q", params.theta.size)))


def params_to_bytes(params: ModelParams) -> bytes:
    body = _header(params) + params.theta.astype("<f8").tobytes()
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def serialized_size(params: ModelParams) -> int:
    """len(params_to_bytes(params)), computed without the payload."""
    return len(_header(params)) + 8 * params.theta.size + struct.calcsize("<I")


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
    if act_i >= len(ACTIVATIONS):
        raise CheckpointError("unknown activation tag")
    (n_layers,) = struct.unpack_from("<H", body, pos); pos += 2
    if len(body) < pos + 8 * n_layers + 8:
        raise CheckpointError("truncated checkpoint")
    shapes = []
    for _ in range(n_layers):
        i, o = struct.unpack_from("<II", body, pos); pos += 8
        shapes.append((i, o))
    # forward() runs exactly three chained layers
    if (len(shapes) != 3 or min(min(shape) for shape in shapes) < 1
            or any(a[1] != b[0] for a, b in zip(shapes, shapes[1:]))):
        raise CheckpointError(f"checkpoint layers {shapes} cannot run: a model has three "
                              f"layers of sizes >= 1, each taking the previous one's output")
    out_dim = shapes[-1][1]
    if head_i != _head_tag(out_dim):
        raise CheckpointError(f"head tag {head_i} does not match output size {out_dim}")
    (length,) = struct.unpack_from("<Q", body, pos); pos += 8
    expected = flat_size(tuple(shapes))
    if length != expected or len(body) - pos != 8 * length:
        raise CheckpointError("checkpoint payload length mismatch")
    theta = np.frombuffer(body, dtype="<f8", count=length, offset=pos).copy()
    try:
        return ModelParams(shapes=tuple(shapes), theta=theta,
                           activation=ACTIVATIONS[act_i])
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
    "ACTIVATIONS", "ADAM_BETA1", "ADAM_BETA2", "ADAM_EPS", "AdamReport", "AdamState",
    "CHECKPOINT_MAGIC", "CHECKPOINT_VERSION", "CheckpointError",
    "ModelParams", "adam_step", "backward", "categorical_head",
    "flat_size", "forward", "grad_check", "init_mlp", "load_params",
    "params_from_bytes", "params_to_bytes", "save_params", "serialized_size",
]

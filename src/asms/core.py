"""Domain types, defaults, config parsing, and the seeded RNG used everywhere.

Everything here is a plain immutable value; simulation state lives in the
other modules. The RNG is counter-based so that any (seed, stream, call
sequence) triple reproduces bit-identically, including when draws are
requested in vectorized blocks.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

# Bitrate change menu (Mbps). Symmetric around a single zero entry so the
# categorical policy head has an obvious "hold" action.
DEFAULT_DELTA_TABLE: tuple[float, ...] = (-5.0, -1.0, 0.0, 1.0, 5.0)

OBS_DIM = 6


class ConfigError(ValueError):
    """Raised for unreadable, malformed, or invariant-violating config input."""


# ---------------------------------------------------------------------------
# Observations and actions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Observation:
    """Per-agent network snapshot for one 1-second step.

    ``received_mbps`` can never exceed ``target_mbps`` (the link only ever
    under-delivers) and every lost packet triggers exactly one NACK.
    """

    target_mbps: float
    received_mbps: float
    latency_ms: float
    jitter_ms: float
    lost_packets: float
    nack_count: float

    def __post_init__(self) -> None:
        vals = (self.target_mbps, self.received_mbps, self.latency_ms,
                self.jitter_ms, self.lost_packets, self.nack_count)
        if any(not math.isfinite(v) or v < 0 for v in vals):
            raise ValueError(f"observation fields must be finite and >= 0, got {vals}")
        if self.received_mbps > self.target_mbps + 1e-9:
            raise ValueError(
                f"received {self.received_mbps} exceeds target {self.target_mbps}")
        if self.nack_count > self.lost_packets + 1e-9:
            raise ValueError(
                f"nack count {self.nack_count} exceeds lost packets {self.lost_packets}")

    def as_tuple(self) -> tuple[float, float, float, float, float, float]:
        return (self.target_mbps, self.received_mbps, self.latency_ms,
                self.jitter_ms, self.lost_packets, self.nack_count)


@dataclass(frozen=True)
class ActionDelta:
    """One entry of the bitrate-change table."""

    index: int
    delta_mbps: float


def validate_delta_table(table: Sequence[float]) -> None:
    vals = [float(v) for v in table]
    if vals.count(0.0) != 1:
        raise ConfigError(f"delta_table must contain exactly one zero entry, got {vals}")
    if sorted(vals) != sorted(-v for v in vals):
        raise ConfigError(f"delta_table must be symmetric around zero, got {vals}")


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Span:
    """Closed interval [lo, hi] sampled uniformly."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("span bounds must be finite")
        if self.lo < 0 or self.hi < self.lo:
            raise ValueError(f"need 0 <= lo <= hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class Channel:
    """A scenario quantity: a fixed range, or a range drifting linearly
    from ``start`` at step 0 to ``end`` at step T-1 (ramp)."""

    start: Span
    end: Span

    @classmethod
    def fixed(cls, lo: float, hi: float | None = None) -> "Channel":
        span = Span(lo, lo if hi is None else hi)
        return cls(span, span)

    @classmethod
    def ramp(cls, start: float, end: float) -> "Channel":
        return cls(Span(start, start), Span(end, end))

    @property
    def is_ramp(self) -> bool:
        return self.start != self.end

    def at(self, t: int, episode_len: int) -> Span:
        """Interpolated range at step t of an episode_len-step episode."""
        if episode_len <= 1:
            return self.start
        frac = min(max(t, 0), episode_len - 1) / (episode_len - 1)
        return Span(self.start.lo + frac * (self.end.lo - self.start.lo),
                    self.start.hi + frac * (self.end.hi - self.start.hi))


@dataclass(frozen=True)
class ScenarioSpec:
    """One network-condition profile: bandwidth/latency/jitter in their usual
    units, loss rates as fractions in [0, 1]."""

    name: str
    bandwidth: Channel
    latency: Channel
    jitter: Channel
    loss_rate: Channel
    burst_loss: Channel

    def __post_init__(self) -> None:
        for label in ("loss_rate", "burst_loss"):
            ch: Channel = getattr(self, label)
            for span in (ch.start, ch.end):
                if span.hi > 1.0:
                    raise ValueError(f"{self.name}.{label} must stay within [0, 1]")


def builtin_scenarios() -> list[ScenarioSpec]:
    """The six stock condition profiles, s1..s6.

    s1 cloud streaming, s2 home Wi-Fi, s3 LTE, s4 5G edge, s5 congestion
    onset (ramps down), s6 recovery (ramps back up).
    """
    return [
        ScenarioSpec("s1", Channel.fixed(100, 200), Channel.fixed(10, 30),
                     Channel.fixed(2, 5), Channel.fixed(0.001), Channel.fixed(0.0)),
        ScenarioSpec("s2", Channel.fixed(50, 100), Channel.fixed(30, 50),
                     Channel.fixed(5, 10), Channel.fixed(0.005), Channel.fixed(0.005)),
        ScenarioSpec("s3", Channel.fixed(20, 80), Channel.fixed(50, 100),
                     Channel.fixed(10, 20), Channel.fixed(0.01), Channel.fixed(0.01)),
        ScenarioSpec("s4", Channel.fixed(200, 500), Channel.fixed(5, 10),
                     Channel.fixed(1, 3), Channel.fixed(0.001), Channel.fixed(0.0)),
        ScenarioSpec("s5", Channel.ramp(100, 30), Channel.ramp(50, 100),
                     Channel.ramp(5, 20), Channel.ramp(0.005, 0.05), Channel.fixed(0.10)),
        ScenarioSpec("s6", Channel.ramp(30, 100), Channel.ramp(100, 20),
                     Channel.ramp(20, 5), Channel.ramp(0.02, 0.005), Channel.ramp(0.05, 0.0)),
    ]


def scenario_by_name(name: str) -> ScenarioSpec:
    for spec in builtin_scenarios():
        if spec.name == name.lower():
            return spec
    raise KeyError(f"unknown scenario {name!r} (expected s1..s6)")


# ---------------------------------------------------------------------------
# Reward-model coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QoECoefficients:
    """Weights and auxiliary constants of the per-step experience score."""

    alpha: float = 1.0        # scene quality
    beta: float = 0.4         # choppiness (frame-rate mismatch)
    gamma: float = 0.2        # latency-per-throughput
    delta1: float = 0.6       # quality fluctuation between steps
    delta2: float = 0.5       # above-threshold packet loss
    y_min: float = 1.0        # Mbps floor of useful video
    f_target: float = 60.0    # fps
    u_max: int = 6            # user capacity of the density decay
    p_threshold: float = 10.0  # packets/step before loss is penalized
    eps_small: float = 1e-6   # divide guard

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "delta1", "delta2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.y_min <= 0:
            raise ValueError("y_min must be > 0")
        if self.u_max < 1:
            raise ValueError("u_max must be >= 1")
        if self.eps_small <= 0 or self.p_threshold < 0:
            raise ValueError("eps_small must be > 0 and p_threshold >= 0")

    def weights(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.gamma, self.delta1, self.delta2])


def default_qoe_coefficients() -> QoECoefficients:
    return QoECoefficients()


# ---------------------------------------------------------------------------
# Training hyperparameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HyperParams:
    """Training constants. Defaults are the reference experiment settings;
    the ldp_* and entropy_coef knobs are artifact choices (documented in the
    README), not experiment-pinned values."""

    gamma_discount: float = 0.95
    gae_lambda: float = 0.95
    clip_eps: float = 0.2
    minibatch: int = 64
    lr: float = 0.0003
    epochs: int = 10
    grad_clip: float = 0.5
    policy_update_freq: int = 40
    fedavg_freq: int = 4          # episodes between aggregations; 0 disables
    hidden_width: int = 128
    episode_len: int = 40
    episodes: int = 330
    entropy_coef: float = 0.01
    entropy_coef_final: float = -1.0  # < 0: constant bonus; else anneal to this
    value_scale: float = 100.0    # critic predicts returns / value_scale
    ldp_eps: float = 1.0          # privacy budget of the upload perturbation
    ldp_clip: float = 0.1         # per-coordinate update bound (= sensitivity)
    ldp_enabled: bool = True      # False: upload raw updates (no clip, no noise)
    # Parsed for config compatibility with the soft-actor-critic baseline
    # family; not used by any code path here.
    replay_buffer_size: int = 5000
    target_update_coef: float = 0.005
    sac_critics: int = 2
    entropy_temperature: float = 0.2

    def __post_init__(self) -> None:
        if not (0 < self.gamma_discount <= 1):
            raise ValueError("gamma_discount must be in (0, 1]")
        if not (0 <= self.gae_lambda <= 1):
            raise ValueError("gae_lambda must be in [0, 1]")
        if not (0 < self.clip_eps < 1):
            raise ValueError("clip_eps must be in (0, 1)")
        for name in ("minibatch", "epochs", "policy_update_freq",
                     "hidden_width", "episode_len", "episodes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.fedavg_freq < 0:
            raise ValueError("fedavg_freq must be >= 0 (0 disables aggregation)")
        if self.lr <= 0 or self.grad_clip <= 0:
            raise ValueError("lr and grad_clip must be > 0")
        if self.ldp_eps <= 0 or self.ldp_clip < 0:
            raise ValueError("ldp_eps must be > 0 and ldp_clip >= 0")
        if self.entropy_coef < 0:
            raise ValueError("entropy_coef must be >= 0")
        if self.value_scale <= 0:
            raise ValueError("value_scale must be > 0")

    def entropy_coef_at(self, episode: int, total_episodes: int) -> float:
        """Entropy bonus for one episode; anneals linearly when a final
        value is configured."""
        if self.entropy_coef_final < 0 or total_episodes <= 1:
            return self.entropy_coef
        frac = min(1.0, episode / (total_episodes - 1))
        return self.entropy_coef + frac * (self.entropy_coef_final - self.entropy_coef)


def default_hyperparams() -> HyperParams:
    return HyperParams()


# ---------------------------------------------------------------------------
# Simulation configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimConfig:
    """Environment knobs: shared-link population, bitrate bounds, and the
    packet/queuing constants of the bottleneck model."""

    n_agents: int = 6
    y_min: float = 1.0
    y_max: float = 200.0
    x_init: float = 10.0
    x_init_spread: float = 0.0   # log-uniform episode start jitter, in nats
    packet_size_bytes: int = 1200
    congestion_loss_coef: float = 0.05   # extra loss per unit of overload
    queue_delay_coef: float = 1.0        # latency factor is 1 + coef * U^2
    f_target: float = 60.0
    delta_table: tuple[float, ...] = DEFAULT_DELTA_TABLE
    users_schedule: tuple[int, ...] | None = None  # per-step user counts
    reward_mode: str = "mean"            # "mean" or "sum" over agent scores

    def __post_init__(self) -> None:
        if self.n_agents < 1:
            raise ValueError("n_agents must be >= 1")
        if not (0 < self.y_min <= self.x_init <= self.y_max):
            raise ValueError("need 0 < y_min <= x_init <= y_max")
        if self.x_init_spread < 0:
            raise ValueError("x_init_spread must be >= 0")
        if self.packet_size_bytes < 1:
            raise ValueError("packet_size_bytes must be >= 1")
        if self.congestion_loss_coef < 0 or self.queue_delay_coef < 0:
            raise ValueError("loss/delay coefficients must be >= 0")
        if self.f_target <= 0:
            raise ValueError("f_target must be > 0")
        if self.reward_mode not in ("mean", "sum"):
            raise ValueError("reward_mode must be 'mean' or 'sum'")
        validate_delta_table(self.delta_table)
        if self.users_schedule is not None:
            if len(self.users_schedule) == 0 or any(u < 0 for u in self.users_schedule):
                raise ValueError("users_schedule must be non-empty with counts >= 0")

    def users_at(self, t: int) -> int:
        if self.users_schedule is None:
            return self.n_agents
        return self.users_schedule[min(t, len(self.users_schedule) - 1)]


def default_sim_config() -> SimConfig:
    return SimConfig()


# ---------------------------------------------------------------------------
# Config file I/O (flat `key = value` text)
# ---------------------------------------------------------------------------

_CONFIG_STRUCTS = (SimConfig, HyperParams, QoECoefficients)


def _field_map() -> dict[str, tuple[type, dataclasses.Field]]:
    out: dict[str, tuple[type, dataclasses.Field]] = {}
    for struct in _CONFIG_STRUCTS:
        for f in dataclasses.fields(struct):
            # f_target intentionally appears in both SimConfig and
            # QoECoefficients; one key feeds both.
            out.setdefault(f.name, (struct, f))
    return out


def _parse_value(raw: str, f: dataclasses.Field, key: str, lineno: int):
    raw = raw.strip()
    ftype = str(f.type)
    try:
        if "bool" in ftype:
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError("expected a boolean")
        if ftype == "int":
            return int(raw)
        if ftype == "float":
            return float(raw)
        if ftype == "str":
            return raw
        if "tuple" in ftype:
            parts = [p for p in raw.replace(",", " ").split() if p]
            if "int" in ftype:
                return tuple(int(p) for p in parts)
            return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    raise ConfigError(f"line {lineno}: unsupported type for {key!r}")


def parse_config_text(text: str) -> tuple[SimConfig, HyperParams, QoECoefficients]:
    fields = _field_map()
    overrides: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in fields:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in overrides:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        overrides[key] = _parse_value(raw, fields[key][1], key, lineno)

    def build(struct):
        names = {f.name for f in dataclasses.fields(struct)}
        kwargs = {k: v for k, v in overrides.items() if k in names}
        if struct is SimConfig and "users_schedule" in kwargs and kwargs["users_schedule"] == ():
            kwargs["users_schedule"] = None
        try:
            return struct(**kwargs)
        except ValueError as exc:
            bad = next((k for k in kwargs if k in str(exc)), "?")
            raise ConfigError(f"invalid value for {bad!r}: {exc}") from None

    return build(SimConfig), build(HyperParams), build(QoECoefficients)


def load_config(path: str) -> tuple[SimConfig, HyperParams, QoECoefficients]:
    """Read a flat key=value config file; unset keys keep their defaults."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return parse_config_text(text)


def serialize_config(cfg: SimConfig, hp: HyperParams, coeffs: QoECoefficients) -> str:
    """Render a config that parses back to equal values."""
    lines: list[str] = []
    seen: set[str] = set()
    for struct, obj in ((SimConfig, cfg), (HyperParams, hp), (QoECoefficients, coeffs)):
        for f in dataclasses.fields(struct):
            if f.name in seen:
                continue
            seen.add(f.name)
            value = getattr(obj, f.name)
            if value is None:
                continue
            if isinstance(value, tuple):
                rendered = ",".join(repr(v) for v in value)
            elif isinstance(value, bool):
                rendered = "true" if value else "false"
            elif isinstance(value, float):
                rendered = repr(value)
            else:
                rendered = str(value)
            lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Counter-based RNG
# ---------------------------------------------------------------------------

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_UINT = np.uint64


def _fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h


def _mix64(z: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer; operates on uint64 arrays (wrapping arithmetic)
    z = (z ^ (z >> _UINT(30))) * _UINT(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _UINT(27))) * _UINT(0x94D049BB133111EB)
    return z ^ (z >> _UINT(31))


class RngStream:
    """Deterministic counter-based random stream.

    Output i is a pure function of (seed, stream label, i), so draws are
    identical no matter how they are chunked into vectorized requests. Streams
    with different labels are statistically independent. Instances are
    single-owner: never share one mutably across concurrent contexts.
    """

    def __init__(self, seed: int, stream: str = "root"):
        self.seed = int(seed) & _MASK64
        self.stream = stream
        base = np.array([self.seed ^ _fnv1a64(stream.encode("utf-8"))], dtype=_UINT)
        self._key = _mix64(base)[0]
        self._counter = 0

    def spawn(self, label: str) -> "RngStream":
        """Independent child stream; does not consume from this stream."""
        return RngStream(self.seed, f"{self.stream}/{label}")

    def raw(self, n: int) -> np.ndarray:
        """Next n raw uint64 words."""
        idx = np.arange(self._counter, self._counter + n, dtype=_UINT)
        self._counter += n
        return _mix64(self._key + idx * _UINT(_GAMMA))

    def uniform(self, low: float = 0.0, high: float = 1.0, size: int | None = None):
        """Uniform draws in [low, high); scalar when size is None."""
        n = 1 if size is None else size
        u01 = (self.raw(n) >> _UINT(11)).astype(np.float64) * (2.0 ** -53)
        out = low + (high - low) * u01
        return float(out[0]) if size is None else out

    def integers(self, n_exclusive: int, size: int | None = None):
        """Uniform integers in [0, n_exclusive)."""
        n = 1 if size is None else size
        out = (self.raw(n) % _UINT(n_exclusive)).astype(np.int64)
        return int(out[0]) if size is None else out

    def permutation(self, n: int) -> np.ndarray:
        """Random permutation of range(n) via random-key sort."""
        return np.argsort(self.raw(n), kind="stable")

    def normal(self, size: int | None = None):
        """Standard normal draws (Box-Muller); consumes 2 uniforms each."""
        n = 1 if size is None else size
        u = self.uniform(size=2 * n)
        r = np.sqrt(-2.0 * np.log(np.maximum(u[:n], 2.0 ** -53)))
        out = r * np.cos(2.0 * np.pi * u[n:])
        return float(out[0]) if size is None else out

    def laplace(self, scale: float, size: int | None = None):
        """Zero-mean Laplace draws with the given scale b (variance 2 b^2)."""
        if scale < 0:
            raise ValueError("scale must be >= 0")
        n = 1 if size is None else size
        if scale == 0.0:
            out = np.zeros(n)
        else:
            v = self.uniform(size=n) - 0.5
            out = -scale * np.sign(v) * np.log(np.maximum(1.0 - 2.0 * np.abs(v), 2.0 ** -53))
        return float(out[0]) if size is None else out

    def binomial(self, n: int, p: float) -> int:
        """Number of successes in n Bernoulli(p) trials.

        Uses geometric skips between successes, so cost scales with n*p
        rather than n.
        """
        if n <= 0 or p <= 0.0:
            return 0
        if p >= 1.0:
            return n
        log_q = math.log1p(-p)
        successes = 0
        pos = 0
        while True:
            chunk = max(16, int((n - pos) * p * 1.3) + 16)
            u = self.uniform(size=chunk)
            skips = np.floor(np.log1p(-u) / log_q).astype(np.int64) + 1
            positions = pos + np.cumsum(skips)
            inside = int(np.searchsorted(positions, n, side="right"))
            if inside < chunk:
                return successes + inside
            successes += chunk
            pos = int(positions[-1])


__all__ = [
    "ActionDelta", "Channel", "ConfigError", "DEFAULT_DELTA_TABLE", "HyperParams",
    "OBS_DIM", "Observation", "QoECoefficients", "RngStream", "ScenarioSpec",
    "SimConfig", "Span", "builtin_scenarios", "default_hyperparams",
    "default_qoe_coefficients", "default_sim_config",
    "load_config", "parse_config_text", "scenario_by_name", "serialize_config",
    "validate_delta_table",
]

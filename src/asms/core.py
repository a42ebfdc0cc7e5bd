"""Domain types, defaults, config parsing, and the seeded RNG used everywhere.

Everything here is a plain immutable value; simulation state lives in the
other modules. The RNG is numpy's counter-based Philox, keyed by (seed,
stream label), so that any (seed, stream, call sequence) triple reproduces
bit-identically, including when draws are requested in vectorized blocks.

An agent's observation of one 1-second step is a row of ``OBS_DIM`` floats,
indexed by the ``OBS_*`` columns: target bitrate, received bitrate (Mbps),
latency, jitter (ms), lost packets and NACKs. Every field is finite and
>= 0, the received bitrate never exceeds the target (the link only ever
under-delivers), and NACKs never exceed lost packets (every lost packet
triggers exactly one NACK). The simulator emits (N, 6) rows per step, and
``check_obs_rows`` is the one place that enforces the contract.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

# Bitrate change menu (Mbps). Symmetric around a single zero entry so the
# categorical policy head has an obvious "hold" action.
DEFAULT_DELTA_TABLE: tuple[float, ...] = (-5.0, -1.0, 0.0, 1.0, 5.0)

OBS_DIM = 6
# Columns of an (..., OBS_DIM) observation row.
OBS_TARGET, OBS_RECEIVED, OBS_LATENCY, OBS_JITTER, OBS_LOST, OBS_NACKS = range(OBS_DIM)


class ConfigError(ValueError):
    """Raised for unreadable, malformed, or invariant-violating config input."""


# Parsed, since every run's config snapshot writes them, but read by no code
# path, so only their defaults are accepted.
_UNUSED_KEYS = ("policy_update_freq", "replay_buffer_size", "target_update_coef",
                "sac_critics", "entropy_temperature")


def _check_fields(obj) -> None:
    """Reject a config dataclass holding a non-finite float, or an unused
    key set away from its default."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")
        if f.name in _UNUSED_KEYS and value != f.default:
            raise ConfigError(f"{f.name} is unused; only its default "
                              f"{f.default!r} is accepted")


# ---------------------------------------------------------------------------
# The row contract and the action table
# ---------------------------------------------------------------------------

def check_obs_rows(rows) -> np.ndarray:
    """Validate a (..., OBS_DIM) block of observation rows against the row
    contract; returns it as a float64 array."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 0 or rows.shape[-1] != OBS_DIM:
        raise ValueError(f"observation rows need shape (..., {OBS_DIM}), got {rows.shape}")
    valid = np.all(np.isfinite(rows) & (rows >= 0), axis=-1)
    for bad, what in ((~valid, "fields must be finite and >= 0"),
                      (rows[..., OBS_RECEIVED] > rows[..., OBS_TARGET] + 1e-9,
                       "received bitrate exceeds its target"),
                      (rows[..., OBS_NACKS] > rows[..., OBS_LOST] + 1e-9,
                       "NACKs exceed lost packets")):
        if np.any(bad):
            raise ValueError(f"observation {what}: {rows[bad][0].tolist()}")
    return rows


def validate_delta_table(table: Sequence[float]) -> None:
    vals = [float(v) for v in table]
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"delta_table entries must be finite, got {vals}")
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


@dataclass(frozen=True)
class Channel:
    """A scenario quantity: a fixed range, or a range drifting linearly
    from ``start`` at step 0 to ``end`` at step T-1 (ramp); the simulator
    tabulates it per step with ``netsim.link_bounds``."""

    start: Span
    end: Span

    @classmethod
    def fixed(cls, lo: float, hi: float | None = None) -> "Channel":
        span = Span(lo, lo if hi is None else hi)
        return cls(span, span)

    @classmethod
    def ramp(cls, start: float, end: float) -> "Channel":
        return cls(Span(start, start), Span(end, end))


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
    raise ConfigError(f"unknown scenario {name!r} (expected s1..s6)")


# ---------------------------------------------------------------------------
# Reward-model coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QoECoefficients:
    """Weights and auxiliary constants of the per-step experience score."""

    # the weight fields, in the order of weights() and of qoe_features' terms
    WEIGHTS: ClassVar[tuple[str, ...]] = ("alpha", "beta", "gamma", "delta1", "delta2")

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
        _check_fields(self)
        for name in self.WEIGHTS:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.y_min <= 0:
            raise ValueError("y_min must be > 0")
        if self.u_max < 1:
            raise ValueError("u_max must be >= 1")
        if self.eps_small <= 0 or self.p_threshold < 0:
            raise ValueError("eps_small must be > 0 and p_threshold >= 0")

    def weights(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in self.WEIGHTS])


# ---------------------------------------------------------------------------
# Training hyperparameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HyperParams:
    """Training constants. Defaults are the reference experiment settings;
    the ldp_* and entropy_coef knobs are artifact choices, not
    experiment-pinned values (``verify.learning_config`` shows the values the
    learning checks use; CHANGES.md records why)."""

    gamma_discount: float = 0.95
    gae_lambda: float = 0.95
    clip_eps: float = 0.2
    minibatch: int = 64
    lr: float = 0.0003
    epochs: int = 10
    grad_clip: float = 0.5
    policy_update_freq: int = 40
    fedavg_freq: int = 4          # episodes between fmappo aggregations (>= 1)
    hidden_width: int = 128
    episode_len: int = 40
    episodes: int = 330
    entropy_coef: float = 0.01
    value_scale: float = 100.0    # critic predicts returns / value_scale
    ldp_eps: float = 1.0          # privacy budget of the upload perturbation
    ldp_clip: float = 0.1         # per-coordinate update bound (= sensitivity)
    ldp_enabled: bool = True      # False: upload raw updates (no clip, no noise)
    replay_buffer_size: int = 5000
    target_update_coef: float = 0.005
    sac_critics: int = 2
    entropy_temperature: float = 0.2

    def __post_init__(self) -> None:
        _check_fields(self)
        if not (0 < self.gamma_discount <= 1):
            raise ValueError("gamma_discount must be in (0, 1]")
        if not (0 <= self.gae_lambda <= 1):
            raise ValueError("gae_lambda must be in [0, 1]")
        if not (0 < self.clip_eps < 1):
            raise ValueError("clip_eps must be in (0, 1)")
        for name in ("minibatch", "epochs", "fedavg_freq", "hidden_width", "episode_len",
                     "episodes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.lr <= 0 or self.grad_clip <= 0:
            raise ValueError("lr and grad_clip must be > 0")
        if self.ldp_eps <= 0:
            raise ValueError("ldp_eps must be > 0")
        if self.ldp_clip <= 0:   # LDP's one off switch is ldp_enabled
            raise ValueError("ldp_clip must be > 0")
        if self.entropy_coef < 0:
            raise ValueError("entropy_coef must be >= 0")
        if self.value_scale <= 0:
            raise ValueError("value_scale must be > 0")


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
    y_min: float = QoECoefficients.y_min
    y_max: float = 200.0
    x_init: float = 10.0
    packet_size_bytes: int = 1200
    congestion_loss_coef: float = 0.05   # extra loss per unit of overload
    queue_delay_coef: float = 1.0        # latency factor is 1 + coef * U^2
    f_target: float = QoECoefficients.f_target
    delta_table: tuple[float, ...] = DEFAULT_DELTA_TABLE

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.n_agents < 1:
            raise ValueError("n_agents must be >= 1")
        if not (0 < self.y_min <= self.x_init <= self.y_max):
            raise ValueError("need 0 < y_min <= x_init <= y_max")
        if self.packet_size_bytes < 1:
            raise ValueError("packet_size_bytes must be >= 1")
        if self.congestion_loss_coef < 0 or self.queue_delay_coef < 0:
            raise ValueError("loss/delay coefficients must be >= 0")
        if self.f_target <= 0:
            raise ValueError("f_target must be > 0")
        validate_delta_table(self.delta_table)


# ---------------------------------------------------------------------------
# Config file I/O (flat `key = value` text)
# ---------------------------------------------------------------------------

_CONFIG_STRUCTS = (SimConfig, HyperParams, QoECoefficients)


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError("expected a boolean")


# A field's (parse, render) pair, chosen by the type of its default.
_CODECS = {
    bool: (_parse_bool, lambda v: "true" if v else "false"),
    int: (int, str),
    float: (float, repr),
    tuple: (lambda raw: tuple(float(p) for p in raw.replace(",", " ").split()),
            lambda v: ",".join(repr(x) for x in v)),
}


def _field_map() -> dict[str, dataclasses.Field]:
    """Every config key's field, in file order. y_min and f_target
    intentionally appear in both SimConfig and QoECoefficients; one key feeds
    both."""
    out: dict[str, dataclasses.Field] = {}
    for struct in _CONFIG_STRUCTS:
        for f in dataclasses.fields(struct):
            out.setdefault(f.name, f)
    return out


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
        parse, _ = _CODECS[type(fields[key].default)]
        try:
            overrides[key] = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None

    def build(struct):
        names = {f.name for f in dataclasses.fields(struct)}
        kwargs = {k: v for k, v in overrides.items() if k in names}
        try:
            return struct(**kwargs)
        except ValueError as exc:
            # a message can name several set keys ("need 0 < y_min <=
            # x_init <= y_max"): blame the longest, on a tie the first set
            bad = max((k for k in kwargs if k in str(exc)), key=len, default="?")
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
    """Render a config that parses back to equal values. A key shared by two
    structs must hold one value in both, since one line sets both."""
    lines: list[str] = []
    for key, f in _field_map().items():
        owners = [obj for obj in (cfg, hp, coeffs) if key in obj.__dataclass_fields__]
        values = [getattr(obj, key) for obj in owners]
        if any(v != values[0] for v in values):
            pairs = ", ".join(f"{type(o).__name__}.{key} = {v!r}"
                              for o, v in zip(owners, values))
            raise ConfigError(f"{pairs}: one config key sets both, so they must agree")
        lines.append(f"{key} = {_CODECS[type(f.default)][1](values[0])}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Seeded RNG
# ---------------------------------------------------------------------------

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h


class RngStream:
    """Seeded random stream: numpy's Philox4x64 keyed by (seed, label).

    Philox is the counter-based generator of Random123 (Salmon et al., SC
    2011), so a (seed, stream label, call sequence) triple reproduces
    bit-identically, and streams with different labels are independent.
    Draws do not depend on how they are chunked into vectorized requests,
    and ``copy.deepcopy`` of a stream is an exact peek at its next draws.
    A negative size raises ``ValueError`` before anything is drawn.
    numpy does not promise the same ``Generator`` streams across its
    versions (NEP 19). Instances are single-owner: never share one mutably
    across concurrent contexts.
    """

    def __init__(self, seed: int, stream: str = "root"):
        self.seed = int(seed) & _MASK64
        self.stream = stream
        # a uint64 array: numpy would take a list mixing words at and below
        # 2^63 through float64, rounding the hash and overflowing seed -1
        key = np.array([self.seed, _fnv1a64(stream.encode("utf-8"))], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def spawn(self, label: str) -> "RngStream":
        """Independent child stream; does not consume from this stream."""
        return RngStream(self.seed, f"{self.stream}/{label}")

    def raw(self, n: int) -> np.ndarray:
        """Next n raw uint64 words."""
        return self._gen.bit_generator.random_raw(n)

    def uniform(self, low: float = 0.0, high: float = 1.0, size: int | None = None):
        """Uniform draws in [low, high); a float when size is None, as ``Generator.random``."""
        return low + (high - low) * self._gen.random(size)

    def integers(self, n_exclusive: int, size: int) -> np.ndarray:
        """Uniform integers in [0, n_exclusive)."""
        if n_exclusive < 1:
            raise ValueError(f"n_exclusive must be >= 1, got {n_exclusive}")
        return self._gen.integers(n_exclusive, size=size)

    def permutation(self, n: int) -> np.ndarray:
        """Random permutation of range(n)."""
        if n < 0:   # Generator.permutation(-1) would return an empty array
            raise ValueError(f"cannot permute a negative number of values, got {n}")
        return self._gen.permutation(n)

    def normal(self, size: int) -> np.ndarray:
        """Standard normal draws."""
        return self._gen.standard_normal(size)

    def laplace(self, scale: float, size: int) -> np.ndarray:
        """Zero-mean Laplace draws with the given scale b (variance 2 b^2);
        scale 0 draws nothing."""
        if scale < 0:
            raise ValueError("scale must be >= 0")
        if scale == 0.0:
            return np.zeros(size)
        return self._gen.laplace(0.0, scale, size)

    def binomial(self, n, p: float):
        """Number of successes in n Bernoulli(p) trials, for an int n (an int
        back) or for each entry of an (N,) int array n (an (N,) int64 array
        back). An entry with n <= 0, and every entry when p <= 0 or p >= 1,
        draws nothing; an array call draws what its scalar calls would, in
        entry order."""
        counts = np.maximum(np.asarray(n, dtype=np.int64), 0)
        if p <= 0.0:
            counts = np.zeros_like(counts)
        elif p < 1.0:
            counts = self._gen.binomial(counts, p)
        return int(counts) if np.ndim(n) == 0 else counts


__all__ = [
    "Channel", "ConfigError", "DEFAULT_DELTA_TABLE", "HyperParams",
    "OBS_DIM", "OBS_JITTER", "OBS_LATENCY", "OBS_LOST", "OBS_NACKS", "OBS_RECEIVED",
    "OBS_TARGET", "QoECoefficients", "RngStream", "ScenarioSpec",
    "SimConfig", "Span", "builtin_scenarios", "check_obs_rows", "default_hyperparams",
    "load_config", "parse_config_text", "scenario_by_name", "serialize_config",
    "validate_delta_table",
]

"""Quality-of-experience scoring of observation rows, and the closed-form
calibration of the score's weights against opinion ratings.

The score is linear in its five weights, which the fitting code exploits:
each trace reduces to one 5-dim feature vector, and the weights are one
non-negative least-squares solve over those vectors, normalized so the
largest weight is 1 and rounded to 0.1. Scores and traces read observation
rows, columns ``core.OBS_*``.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (OBS_LATENCY, OBS_LOST, OBS_RECEIVED, QoECoefficients, RngStream,
                   check_obs_rows)

# Tally of received bitrates clamped up to y_min inside quality(); a starving
# stream scores floor quality instead of erroring.
_clamp_count = 0


def quality_clamp_count() -> int:
    return _clamp_count


def _libm(fn, x) -> np.ndarray:
    """``fn`` from ``math`` applied to each element of ``x``: an array of
    the same shape, or a scalar for a scalar.

    numpy's SIMD log and exp differ from libm in the last bit for some
    inputs, so the score takes its logs and exps from libm.
    """
    x = np.asarray(x, dtype=np.float64)
    return np.fromiter(map(fn, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)[()]


def quality(received_mbps, y_min: float) -> np.ndarray:
    """Log bitrate utility ln(y / y_min), elementwise; diminishing returns,
    0 at the floor.

    Inputs below y_min are clamped to y_min (counted, not raised).
    """
    if y_min <= 0:
        raise ValueError("y_min must be > 0")
    received_mbps = np.asarray(received_mbps, dtype=np.float64)
    below = received_mbps < y_min
    global _clamp_count
    _clamp_count += int(np.count_nonzero(below))
    return _libm(math.log, np.where(below, y_min, received_mbps) / y_min)


def qoe_features(rows, frame_rate, users, c: QoECoefficients) -> np.ndarray:
    """Signed per-term features, (T, ..., 5), of a trace of (T, ..., 6)
    observation rows, time on axis 0, so that features . weights == compute_qoe.

    ``frame_rate`` and ``users`` broadcast against the rows' leading shape.
    Fluctuation compares each step's quality with the next step's; the final
    step compares against itself. Order matches ``QoECoefficients.WEIGHTS``.
    Penalty terms are negated here.
    """
    rows = check_obs_rows(rows)
    if rows.ndim < 2:
        raise ValueError(f"a trace needs shape (T, ..., 6), got {rows.shape}")
    received = rows[..., OBS_RECEIVED]
    q_now = quality(received, c.y_min)
    q_next = np.concatenate([q_now[1:], q_now[-1:]])
    terms = (q_now * _libm(math.exp, -users / c.u_max),
             -np.abs(frame_rate - c.f_target),
             -rows[..., OBS_LATENCY] / (received + c.eps_small),
             -np.abs(q_next - q_now),
             -np.maximum(0.0, rows[..., OBS_LOST] - c.p_threshold))
    return np.stack(np.broadcast_arrays(*terms), axis=-1)


def compute_qoe(rows, frame_rate, users, c: QoECoefficients) -> np.ndarray:
    """Experience score of each step of a trace, shape rows.shape[:-1].

    Scene quality (damped by user density) minus penalties for frame-rate
    mismatch, latency per unit throughput, quality fluctuation versus the
    next step, and above-threshold packet loss. The weighted terms are
    added left to right, in the order of ``QoECoefficients.WEIGHTS``, so
    the score's bits do not depend on the BLAS kernel, as a dot product's
    do.
    """
    feats = qoe_features(rows, frame_rate, users, c)
    score = 0.0
    for k, weight in enumerate(c.weights().tolist()):
        score = score + feats[..., k] * weight
    return score


# ---------------------------------------------------------------------------
# Ratings and coefficient fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatingsRecord:
    """One rated trial: one agent's trace of observation rows and its 1-5
    opinion score."""

    scenario: str
    rows: np.ndarray         # (T, 6)
    frame_rate: np.ndarray   # (T,) delivered frame rates
    users: np.ndarray        # (T,) user counts
    mos: float

    def __post_init__(self) -> None:
        _check_mos(self.mos)
        object.__setattr__(self, "rows", check_obs_rows(self.rows))
        t = len(self.rows)
        if self.rows.ndim != 2 or t == 0 or not self.frame_rate.shape == self.users.shape == (t,):
            raise ValueError("a trace needs T >= 1 rows, each with a frame rate and user count")
        _check_rates_users(self.frame_rate, self.users)


def _check_mos(mos: float) -> None:
    if not (1.0 <= mos <= 5.0):   # NaN fails too
        raise ValueError(f"mos must be within [1, 5], got {mos}")


def _check_rates_users(frame_rate: np.ndarray, users: np.ndarray) -> None:
    """Frame rates must be finite and >= 0, user counts whole numbers >= 0."""
    bad = ~(np.isfinite(frame_rate) & (frame_rate >= 0))
    if bad.any():
        raise ValueError(f"frame rate must be finite and >= 0, got {frame_rate[bad][0]}")
    bad = ~(np.isfinite(users) & (users >= 0) & (users == np.floor(users)))
    if bad.any():
        raise ValueError(f"user count must be a whole number >= 0, got {users[bad][0]}")


def record_features(record: RatingsRecord, base: QoECoefficients) -> np.ndarray:
    """Trace-mean feature vector."""
    feats = qoe_features(record.rows, record.frame_rate, record.users, base)
    return feats.sum(axis=0) / len(feats)


FIT_NORMALIZATION = "largest weight 1, each weight rounded to 0.1"


def _nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lawson and Hanson's active-set solution of min |a @ x - b| over x >= 0."""
    n = a.shape[1]
    x = np.zeros(n)
    free = np.zeros(n, dtype=bool)   # the columns solved without their bound
    tol = 10 * max(a.shape) * np.finfo(float).eps * np.abs(a).sum(axis=0).max()
    for _ in range(3 * n):   # rounding could otherwise cycle the loop
        grad = a.T @ (b - a @ x)
        if free.all() or grad[~free].max() <= tol:
            break
        free[np.argmax(np.where(free, -np.inf, grad))] = True
        while True:
            z = np.zeros(n)
            z[free] = np.linalg.lstsq(a[:, free], b, rcond=None)[0]
            hit = free & (z <= 0)
            if not hit.any():
                break
            # step from x toward z until the first weight reaches 0, then bind it
            idx = np.flatnonzero(hit)
            ratio = x[idx] / np.maximum(x[idx] - z[idx], np.finfo(float).tiny)
            x += ratio.min() * (z - x)
            x[idx[np.argmin(ratio)]] = 0.0
            free &= x > 0
            x[~free] = 0.0
        x = z
    return x


def _affine_rmse(predicted: np.ndarray, mos: np.ndarray) -> tuple[float, float, float]:
    """Least-squares alignment a*pred+b onto the rating scale, with a >= 0:
    a score that falls as ratings rise gets a=0.

    Returns (rmse, a, b). Constant predictions fall back to a=0, b=mean(mos).
    """
    p_mean = float(predicted.mean())
    m_mean = float(mos.mean())
    p_centered = predicted - p_mean
    var = float((p_centered ** 2).mean())
    cov = float((p_centered * (mos - m_mean)).mean())
    a = max(cov, 0.0) / var if var > 1e-18 else 0.0
    b = m_mean - a * p_mean
    return math.sqrt(float(((a * predicted + b - mos) ** 2).mean())), a, b


@dataclass(frozen=True)
class FitResult:
    coefficients: QoECoefficients
    rmse: float
    r_squared: float | None   # None when every rating is equal: R² is undefined
    scale: float      # fitted a of a*score+b -> MOS
    offset: float     # fitted b


def fit_coefficients(records: Sequence[RatingsRecord]) -> FitResult:
    """Non-negative least-squares weights against the MOS ratings.

    Model scores and the 1-5 rating scale differ in units, so the fit regresses
    the centred ratings on the centred trace-mean features, which fixes the
    weights up to a positive factor. ``FIT_NORMALIZATION`` fixes that factor.
    The normalized weights are then aligned by least-squares a*score+b for
    the RMSE. All-zero weights (flat ratings, say) stay zero, with a=0 and
    b=mean(mos). Flat ratings leave R² undefined, so ``r_squared`` is None.
    The non-weight terms are the defaults of ``QoECoefficients``.
    """
    if len(records) < 2:
        raise ValueError("need at least 2 ratings records")
    base = QoECoefficients()
    feats = np.stack([record_features(r, base) for r in records])   # (R, 5)
    mos = np.array([r.mos for r in records])
    w = _nnls(feats - feats.mean(axis=0), mos - mos.mean())
    if w.max() > 0:
        w = np.round(w / w.max(), 1)
    rmse, scale, offset = _affine_rmse(feats @ w, mos)
    spread = float(mos.std())
    r2 = 1.0 - (rmse / spread) ** 2 if spread > 0 else None
    coeffs = dataclasses.replace(base, **dict(zip(base.WEIGHTS, w.tolist())))
    return FitResult(coefficients=coeffs, rmse=rmse, r_squared=r2,
                     scale=scale, offset=offset)


def _rmse_of(coeffs: QoECoefficients, feats: np.ndarray, mos: np.ndarray) -> float:
    return _affine_rmse(feats @ coeffs.weights(), mos)[0]


@dataclass(frozen=True)
class SensitivityResult:
    baseline_rmse: float
    # weight name -> (rmse at -20%, rmse at +20%)
    perturbed: dict[str, tuple[float, float]]
    mean_abs_change: float
    # mean |rmse delta| / baseline, or None when the baseline RMSE is 0
    mean_rel_change: float | None


def coefficient_sensitivity(coeffs: QoECoefficients,
                            records: Sequence[RatingsRecord]) -> SensitivityResult:
    """RMSE shift when each weight is scaled by +/-20% with the rest fixed."""
    if len(records) < 2:
        raise ValueError("need at least 2 ratings records")
    feats = np.stack([record_features(r, coeffs) for r in records])
    mos = np.array([r.mos for r in records])
    baseline = _rmse_of(coeffs, feats, mos)

    perturbed: dict[str, tuple[float, float]] = {}
    deltas: list[float] = []
    for name in coeffs.WEIGHTS:
        lo_hi = []
        for factor in (0.8, 1.2):
            trial = dataclasses.replace(coeffs, **{name: getattr(coeffs, name) * factor})
            r = _rmse_of(trial, feats, mos)
            lo_hi.append(r)
            deltas.append(abs(r - baseline))
        perturbed[name] = (lo_hi[0], lo_hi[1])
    mean_abs = float(np.mean(deltas))
    mean_rel = mean_abs / baseline if baseline > 0 else None
    return SensitivityResult(baseline_rmse=baseline, perturbed=perturbed,
                             mean_abs_change=mean_abs, mean_rel_change=mean_rel)


# ---------------------------------------------------------------------------
# Ratings CSV ingestion
# ---------------------------------------------------------------------------

RATINGS_HEADER = ["scenario", "step", "x", "y", "l", "j", "p", "n", "f", "u", "mos"]


def load_ratings_csv(path: str) -> list[RatingsRecord]:
    """Parse rated traces: rows grouped into trials wherever the step counter
    resets or the scenario changes; every row repeats its trial's MOS."""
    records: list[RatingsRecord] = []
    cur_steps: list[tuple[list[float], float, int]] = []   # (row, frame rate, users)
    cur_scenario: str | None = None
    cur_mos: float | None = None
    prev_step = -1

    def flush() -> None:
        if cur_steps:
            rows, rates, users = zip(*cur_steps)
            records.append(RatingsRecord(cur_scenario or "", np.array(rows), np.array(rates),
                                         np.array(users), float(cur_mos)))

    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise ValueError(f"cannot read ratings file {path!r}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"ratings file {path!r} is empty")
        if [h.strip() for h in header] != RATINGS_HEADER:
            raise ValueError(
                f"{path!r}: expected header {','.join(RATINGS_HEADER)}, got {','.join(header)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(RATINGS_HEADER):
                raise ValueError(f"{path!r} line {lineno}: expected "
                                 f"{len(RATINGS_HEADER)} columns, got {len(row)}")
            try:
                scenario = row[0].strip()
                step = int(row[1])
                *obs, f, u, mos = (float(v) for v in row[2:])
                check_obs_rows(obs)
                _check_rates_users(np.array([f]), np.array([u]))
                _check_mos(mos)
            except ValueError as exc:
                raise ValueError(f"{path!r} line {lineno}: {exc}") from None
            if scenario != cur_scenario or step <= prev_step:
                flush()
                cur_steps = []
                cur_scenario = scenario
                cur_mos = mos
            if mos != cur_mos:
                raise ValueError(f"{path!r} line {lineno}: MOS changed mid-trial")
            cur_steps.append((obs, f, int(u)))
            prev_step = step
    flush()
    if not records:
        raise ValueError(f"ratings file {path!r} contains no data rows")
    return records


def synthetic_ratings(truth: QoECoefficients, rng: RngStream, n_records: int = 96,
                      trace_len: int = 20, noise_sigma: float = 0.0) -> list[RatingsRecord]:
    """Ratings manufactured from known weights, for fit-recovery tests.

    Traces spread across bitrate/latency/loss regimes; the trace scores map
    affinely onto [1.3, 4.7] (so the fitter's rescale can be exact). Each
    record's mean opinion score averages 8 independent ratings carrying
    Gaussian noise_sigma noise, then the 1-5 bounds are enforced.
    """
    drafts: list[RatingsRecord] = []
    scores: list[float] = []
    for r in range(n_records):
        # Designed-experiment layout: each record probes one term over a wide
        # regime while the others stay mild, cycling through the five terms.
        # Fully random regimes leave the weights nearly collinear under the
        # affine MOS alignment, which noise then exploits.
        base_y = rng.uniform(2.0, 80.0)
        users = 1 + int(rng.uniform(0, 6))
        base_l = rng.uniform(8.0, 12.0)
        volatility = rng.uniform(0.02, 0.08)    # log-scale bitrate swings
        max_overshoot = rng.uniform(0.0, 0.04)  # target above delivery
        loss_ceiling = 0.0
        probe = r % 4
        if probe == 0:
            max_overshoot = rng.uniform(0.05, 0.5)
        elif probe == 1:
            base_l = rng.uniform(5.0, 100.0)
        elif probe == 2:
            volatility = rng.uniform(0.3, 2.0)
        else:
            loss_ceiling = rng.uniform(5.0, 30.0)
        rows, rates = [], []
        for _ in range(trace_len):
            y = max(1.0, base_y * math.exp(rng.uniform(-volatility, volatility)))
            x = y * (1.0 + rng.uniform(0.0, max_overshoot))
            lat = base_l * rng.uniform(0.8, 1.2)
            lost = float(int(rng.uniform(0.0, loss_ceiling))) if loss_ceiling >= 1 else 0.0
            rows.append((x, y, lat, 2.0, lost, lost))
            rates.append(60.0 * min(1.0, y / x))
        draft = RatingsRecord(f"synthetic-{r}", np.array(rows), np.array(rates),
                              np.full(trace_len, users), mos=3.0)
        drafts.append(draft)
        scores.append(float(truth.weights() @ record_features(draft, truth)))

    lo, hi = min(scores), max(scores)
    span = hi - lo if hi > lo else 1.0
    records = []
    for draft, score in zip(drafts, scores):
        mos = 1.3 + (4.7 - 1.3) * (score - lo) / span
        if noise_sigma > 0:
            mos += noise_sigma * float(np.mean(rng.normal(size=8)))
        records.append(dataclasses.replace(draft, mos=min(5.0, max(1.0, mos))))
    return records


__all__ = [
    "FIT_NORMALIZATION", "FitResult", "RATINGS_HEADER", "RatingsRecord",
    "SensitivityResult", "coefficient_sensitivity", "compute_qoe", "fit_coefficients",
    "load_ratings_csv", "qoe_features", "quality", "quality_clamp_count",
    "record_features", "synthetic_ratings",
]

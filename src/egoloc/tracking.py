"""Temporal smoothing of per-frame positions with a constant-velocity Kalman filter.

Per-frame localization of video is noisier than still images (occlusion,
motion blur, outright failures); filtering the position track compensates.
The state is 3D position plus velocity; missing frames and measurements
failing the Mahalanobis gate are bridged by prediction alone. A track that
rejects `REINIT_AFTER_GATED` measurements in a row is treated as lost and
restarts from the latest measurement, so a wrong start (an outlier at the
first frame) or a diverged velocity cannot lock the gate shut for good.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Sequence

import numpy as np

from .errors import EmptyInputError, In, check_fields, check_value

# Consecutive gate rejections after which the track is declared lost and
# restarted from the latest measurement: short enough that a lock-in costs a
# few frames, long enough that an isolated outlier never restarts the track.
REINIT_AFTER_GATED = 3


@dataclass(frozen=True)
class TrackParams:
    """Filter tuning.

    `process_noise` is the white-noise acceleration spectral density
    (m^2/s^3); `measurement_variance` the per-axis position noise (m^2);
    `gate_threshold` the Mahalanobis distance beyond which a measurement is
    treated as an outlier; `frame_interval` the nominal frame spacing.
    """

    process_noise: Annotated[float, In("(0, inf)")] = 1.0
    measurement_variance: Annotated[float, In("(0, inf)")] = 0.25
    gate_threshold: Annotated[float, In("(0, inf)")] = 3.0
    frame_interval: Annotated[float, In("(0, inf)")] = 0.1

    def __post_init__(self):
        check_fields(self)


@dataclass
class TrackState:
    """Filtered state at one timestamp.

    `gated` is set when this frame's measurement failed the Mahalanobis gate
    and `restarted` when the track was re-initialized on it (a restart is
    also a gated frame).
    """

    position: np.ndarray
    velocity: np.ndarray
    covariance: np.ndarray
    gated: bool = False
    restarted: bool = False

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=np.float64).reshape(3)
        self.velocity = np.asarray(self.velocity, dtype=np.float64).reshape(3)
        self.covariance = np.asarray(self.covariance, dtype=np.float64).reshape(6, 6)
        if np.max(np.abs(self.covariance - self.covariance.T)) > 1e-12:
            raise ValueError("covariance must be symmetric")


def _transition(dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Constant-velocity transition and discrete white-noise-acceleration Q."""
    f = np.eye(6)
    f[:3, 3:] = dt * np.eye(3)
    q11 = dt**3 / 3.0
    q12 = dt**2 / 2.0
    q = np.zeros((6, 6))
    q[:3, :3] = q11 * np.eye(3)
    q[:3, 3:] = q12 * np.eye(3)
    q[3:, :3] = q12 * np.eye(3)
    q[3:, 3:] = dt * np.eye(3)
    return f, q


def _initial_state(z: np.ndarray, params: TrackParams) -> tuple[np.ndarray, np.ndarray]:
    """State and covariance of a track started at measurement `z`."""
    x = np.zeros(6)
    x[:3] = z
    p = np.zeros((6, 6))
    p[:3, :3] = params.measurement_variance * np.eye(3)
    # Velocity is unobserved at initialization; give it a broad prior scaled
    # to covering one frame interval.
    v_sigma2 = max(params.measurement_variance, 1.0) / params.frame_interval**2
    p[3:, 3:] = v_sigma2 * np.eye(3)
    return x, p


def _measurement(row: int, measurement) -> tuple[float, np.ndarray | None]:
    """Row `row` as (t, z), z None or a (3,) array; a ValueError naming the
    row unless t is a number in (-inf, inf) and z None or three finite
    numbers, since one NaN would poison every later state."""
    try:
        t, z = measurement
    except (TypeError, ValueError):
        raise ValueError(f"measurement row {row}: {measurement!r} is not a (t, z) pair") from None
    t = check_value(f"measurement row {row}: timestamp", float, t, In("(-inf, inf)"))
    if z is None:
        return t, None
    try:
        position = np.asarray(z, dtype=np.float64).reshape(-1)
    except (TypeError, ValueError):
        position = None
    if position is None or len(position) != 3 or not np.isfinite(position).all():
        raise ValueError(f"measurement row {row}: {z!r} is not three finite numbers")
    return t, position


def smooth_trajectory(
    measurements: Sequence[tuple[float, np.ndarray | None]],
    params: TrackParams | None = None,
) -> list[TrackState]:
    """Filter an ordered list of (timestamp, position-or-None) measurements.

    Returns one state per timestamp. The track starts at the first
    measurement, and every frame up to it gets that start state. After it,
    a None measurement, or one whose innovation exceeds the Mahalanobis
    gate, only propagates the prediction. After `REINIT_AFTER_GATED`
    consecutive gated measurements (None frames neither count nor break the
    run) the track is re-initialized on the latest one with the same prior
    as at the start; each state's `gated` and `restarted` flags record both
    events. The covariance update uses the Joseph form so it stays
    symmetric PSD.

    Raises:
        EmptyInputError: no measurements given.
        ValueError: a row that is not a (t, z) pair, a timestamp that is not
            a number in (-inf, inf), or a position that is neither None nor
            three finite numbers (each named by its row); or timestamps that
            do not increase.
    """
    params = params or TrackParams()
    if len(measurements) == 0:
        raise EmptyInputError("no measurements to smooth")
    rows = [_measurement(i, m) for i, m in enumerate(measurements)]
    times = np.array([t for t, _ in rows], dtype=np.float64)
    if np.any(np.diff(times) <= 0):
        raise ValueError("timestamps must be strictly increasing")
    positions = [z for _, z in rows]

    # The measurement is the position, x[:3]; products with the selector
    # matrix [I 0] are taken as slices.
    r = params.measurement_variance * np.eye(3)
    q_density = params.process_noise

    first = next((i for i, z in enumerate(positions) if z is not None), None)
    if first is None:
        raise ValueError("at least one measurement must be present")
    x, p = _initial_state(positions[first], params)
    states = [TrackState(x[:3].copy(), x[3:].copy(), p.copy()) for _ in range(first + 1)]

    gated_run = 0
    for dt, z in zip(np.diff(times[first:]).tolist(), positions[first + 1 :]):
        f, q = _transition(dt)
        x = f @ x
        p = f @ p @ f.T + q_density * q
        p = 0.5 * (p + p.T)

        gated = restarted = False
        if z is not None:
            innovation = z - x[:3]
            s = p[:3, :3] + r
            maha2 = float(innovation @ np.linalg.solve(s, innovation))
            if maha2 <= params.gate_threshold**2:
                k = np.linalg.solve(s.T, p[:, :3].T).T
                x = x + k @ innovation
                ikh = np.eye(6)
                ikh[:, :3] -= k
                p = ikh @ p @ ikh.T + k @ r @ k.T
                p = 0.5 * (p + p.T)
                gated_run = 0
            else:
                gated = True
                gated_run += 1
                restarted = gated_run >= REINIT_AFTER_GATED
                if restarted:
                    x, p = _initial_state(z, params)
                    gated_run = 0

        states.append(
            TrackState(x[:3].copy(), x[3:].copy(), p.copy(), gated=gated, restarted=restarted)
        )
    return states

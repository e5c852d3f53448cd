"""Constant-velocity Kalman smoothing of position tracks."""

import numpy as np
import pytest

from egoloc import TrackParams, smooth_trajectory
from egoloc.errors import EmptyInputError


def constant_velocity_track(rng, n=200, dt=0.1, noise=0.5, velocity=(1.5, -0.8, 0.2)):
    times = dt * np.arange(n)
    truth = np.outer(times, np.asarray(velocity)) + np.array([10.0, -4.0, 1.0])
    measured = truth + rng.normal(scale=noise, size=truth.shape)
    return times, truth, measured


class TestSmoothTrajectory:
    def test_constant_position_negligible_noise_params(self):
        times = 0.1 * np.arange(50)
        pos = np.array([2.0, -1.0, 0.5])
        measurements = [(float(t), pos.copy()) for t in times]
        params = TrackParams(process_noise=1e-12, measurement_variance=1e-12)
        states = smooth_trajectory(measurements, params)
        for s in states:
            np.testing.assert_allclose(s.position, pos, atol=1e-9)

    def test_smoothing_beats_raw_rmse(self):
        wins = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            times, truth, measured = constant_velocity_track(rng)
            measurements = [(float(t), measured[i]) for i, t in enumerate(times)]
            params = TrackParams(process_noise=0.5, measurement_variance=0.25)
            states = smooth_trajectory(measurements, params)
            smoothed = np.stack([s.position for s in states])
            raw_rmse = np.sqrt(((measured - truth) ** 2).sum(axis=1).mean())
            kf_rmse = np.sqrt(((smoothed - truth) ** 2).sum(axis=1).mean())
            wins += kf_rmse < raw_rmse
        assert wins >= 19

    def test_outlier_spike_gated(self):
        rng = np.random.default_rng(3)
        times, truth, measured = constant_velocity_track(rng, noise=0.1)
        spike_at = 120
        measured[spike_at] += np.array([50.0, 0.0, 0.0])
        measurements = [(float(t), measured[i]) for i, t in enumerate(times)]
        params = TrackParams(process_noise=0.5, measurement_variance=0.01, gate_threshold=3.0)
        states = smooth_trajectory(measurements, params)
        err = np.linalg.norm(states[spike_at].position - truth[spike_at])
        assert err < 5.0  # under 10% of the 50 m spike

    def test_missing_measurements_predict_only(self):
        rng = np.random.default_rng(4)
        times, truth, measured = constant_velocity_track(rng, n=60, noise=0.2)
        measurements = [
            (float(t), None if 20 <= i < 30 else measured[i]) for i, t in enumerate(times)
        ]
        states = smooth_trajectory(measurements, TrackParams())
        assert len(states) == 60
        # Prediction bridges the gap without drifting away from the truth.
        gap_err = np.linalg.norm(states[29].position - truth[29])
        assert gap_err < 2.0

    def test_covariance_symmetric_psd_every_step(self):
        rng = np.random.default_rng(5)
        times, truth, measured = constant_velocity_track(rng, n=100)
        measurements = [
            (float(t), None if i % 7 == 0 else measured[i]) for i, t in enumerate(times)
        ]
        states = smooth_trajectory(measurements, TrackParams())
        for s in states:
            np.testing.assert_allclose(s.covariance, s.covariance.T, atol=1e-12)
            assert np.linalg.eigvalsh(s.covariance).min() >= -1e-10

    def test_predict_only_grows_position_covariance(self):
        times = 0.1 * np.arange(30)
        measurements = [(float(t), np.zeros(3) if i == 0 else None) for i, t in enumerate(times)]
        states = smooth_trajectory(measurements, TrackParams())
        traces = [np.trace(s.covariance[:3, :3]) for s in states]
        assert all(b > a for a, b in zip(traces[1:], traces[2:]))

    def test_converges_to_measurements_as_r_vanishes(self):
        rng = np.random.default_rng(6)
        times, truth, measured = constant_velocity_track(rng, n=40)
        measurements = [(float(t), measured[i]) for i, t in enumerate(times)]
        params = TrackParams(process_noise=1.0, measurement_variance=1e-10, gate_threshold=1e9)
        states = smooth_trajectory(measurements, params)
        for s, z in zip(states, measured):
            np.testing.assert_allclose(s.position, z, atol=1e-6)

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            smooth_trajectory([], TrackParams())

    def test_non_increasing_timestamps_rejected(self):
        measurements = [(0.0, np.zeros(3)), (0.0, np.zeros(3))]
        with pytest.raises(ValueError):
            smooth_trajectory(measurements, TrackParams())

    def test_parameters_must_be_positive(self):
        with pytest.raises(ValueError):
            TrackParams(process_noise=0.0)

    @pytest.mark.parametrize(
        "value", [np.inf, np.nan, 10**400, True], ids=["inf", "nan", "huge-int", "bool"]
    )
    @pytest.mark.parametrize("name", ["process_noise", "measurement_variance", "gate_threshold"])
    def test_parameters_must_be_finite_numbers(self, name, value):
        with pytest.raises(ValueError, match="finite and positive"):
            TrackParams(**{name: value})

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_a_timestamp_that_is_not_finite(self, t):
        measurements = [(0.0, [0.0, 0.0, 0.0]), (t, [1.0, 1.0, 1.0]), (0.2, [2.0, 2.0, 2.0])]
        with pytest.raises(ValueError, match="measurement row 1: timestamp"):
            smooth_trajectory(measurements)

    def test_recovers_from_outlier_at_first_frame(self):
        # A track started on an outlier gates out every true measurement that
        # follows; after REINIT_AFTER_GATED rejections it must restart and
        # follow the truth again.
        from egoloc.tracking import REINIT_AFTER_GATED

        rng = np.random.default_rng(7)
        times, truth, measured = constant_velocity_track(rng, n=60, noise=0.1)
        measured[0] += np.array([60.0, -40.0, 25.0])
        measurements = [(float(t), measured[i]) for i, t in enumerate(times)]
        states = smooth_trajectory(measurements, TrackParams())
        settled = REINIT_AFTER_GATED + 5
        for i in range(settled, len(states)):
            assert np.linalg.norm(states[i].position - truth[i]) < 1.0
        # The flags report what happened: the true measurements after the
        # outlier start are gated until the restart on the last of them.
        gated = [i for i, s in enumerate(states) if s.gated]
        restarted = [i for i, s in enumerate(states) if s.restarted]
        assert gated == list(range(1, REINIT_AFTER_GATED + 1))
        assert restarted == [REINIT_AFTER_GATED]

    @pytest.mark.parametrize(
        "bad",
        [[np.nan, 2.0, 3.0], [1.0, np.inf, 3.0], [1.0, 2.0], [1.0, 2.0, 3.0, 4.0], "abc"],
        ids=["nan", "inf", "short", "long", "text"],
    )
    def test_rejects_a_position_that_is_not_three_finite_numbers(self, bad):
        # One NaN would make every later state NaN; the row is named instead.
        measurements = [(0.0, [1.0, 2.0, 3.0]), (0.1, None), (0.2, bad), (0.3, [1.0, 2.0, 3.0])]
        with pytest.raises(ValueError, match="measurement row 2"):
            smooth_trajectory(measurements)

    def test_non_finite_first_measurement_rejected(self):
        with pytest.raises(ValueError, match="measurement row 0"):
            smooth_trajectory([(0.0, [np.nan, 2.0, 3.0]), (1.0, [1.0, 2.0, 3.0])])

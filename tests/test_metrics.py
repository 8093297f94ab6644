import warnings

import numpy as np
import pytest

import consensuskit as ck
from consensuskit.graph import directed_cycle, empty_graph, laplacian
from consensuskit.metrics import (
    SpeedConventionWarning, disagreement, empirical_rate,
    theoretical_speed_fixed, theoretical_speed_switching,
)
from consensuskit.sim import Trajectory
from consensuskit.switching import MarkovTopology, default_switching_pair, speed_bound


def _traj_with_outputs(times, y):
    n, n_ag = y.shape
    return Trajectory(times=times, y=y, xi_hat=np.zeros((n, n_ag, 1)),
                      eta=[np.zeros((n, 0))] * n_ag, u=np.zeros((n, n_ag)))


def test_disagreement_on_constructed_outputs():
    times = np.array([0.0, 1.0, 2.0])
    y = np.array([[1.0, -2.0, 0.5],
                  [0.0, 0.0, 0.0],
                  [3.0, 3.5, 2.5]])
    d = disagreement(_traj_with_outputs(times, y))
    assert np.array_equal(d, [3.0, 0.0, 1.0])


def test_empirical_rate_exact_exponential():
    times = np.linspace(0.0, 10.0, 501)
    values = 3.0 * np.exp(-0.7 * times)
    fit = empirical_rate(times, values, window=(1.0, 9.0))
    assert fit.rate == pytest.approx(0.7, abs=1e-10)
    assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-8)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.window == (1.0, 9.0)


def test_empirical_rate_default_window():
    times = np.linspace(0.0, 10.0, 101)
    values = np.exp(-0.5 * times)
    fit = empirical_rate(times, values)
    # default window starts 40 percent into the horizon
    assert fit.window == (4.0, 10.0)
    assert fit.rate == pytest.approx(0.5, abs=1e-10)


def test_empirical_rate_growing_series_is_negative():
    times = np.linspace(0.0, 5.0, 51)
    fit = empirical_rate(times, np.exp(0.3 * times))
    assert fit.rate == pytest.approx(-0.3, abs=1e-10)


def test_empirical_rate_window_errors():
    times = np.linspace(0.0, 10.0, 11)
    values = np.exp(-times)
    with pytest.raises(ck.EmptyWindowError):
        empirical_rate(times, values, window=(20.0, 30.0))
    with pytest.raises(ck.EmptyWindowError):
        empirical_rate(times, values[:5])
    with pytest.raises(ck.EmptyWindowError):
        empirical_rate(times, np.zeros((11, 2)))
    with pytest.raises(ck.NonPositiveSeriesError):
        empirical_rate(times, np.zeros(11))


def test_empirical_rate_floors_tiny_values():
    times = np.linspace(0.0, 4.0, 41)
    values = np.exp(-times)
    values[-1] = 0.0  # one exact zero must not blow up the log
    fit = empirical_rate(times, values, window=(0.0, 4.0))
    assert np.isfinite(fit.rate)


def test_empirical_rate_floor_follows_settings():
    # an exact zero is read as the fixed floor 1e-15
    times = np.array([0.0, 1.0])
    values = np.array([1.0, 0.0])
    fit = empirical_rate(times, values, window=(0.0, 1.0))
    assert fit.rate == pytest.approx(-np.log(1e-15), rel=1e-12)


def test_theoretical_speed_fixed_default_design(target, unit_gain, five_cycle):
    lap = laplacian(five_cycle)
    # coupling term 1 - cos(2 pi / 5) is below both readings of the pole
    # term (1 and 2), so the reading does not matter and nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error", SpeedConventionWarning)
        speed = theoretical_speed_fixed(target, unit_gain, lap)
    assert speed == pytest.approx(1.0 - np.cos(2.0 * np.pi / 5.0), abs=1e-12)


def test_theoretical_speed_fixed_pole_limited(target, five_cycle):
    lap = laplacian(five_cycle)
    strong = ck.rank_one_gain(target, mu=1.0, q1=10.0, r_hat=1.0)
    with pytest.warns(SpeedConventionWarning):
        speed = theoretical_speed_fixed(target, strong, lap)
    # coupling sqrt(10) * 0.69 exceeds the slowest plant pole, so the
    # pole term 1 becomes binding
    assert speed == pytest.approx(1.0, abs=1e-12)


def test_theoretical_speed_fixed_no_warning_off_design(five_cycle):
    cs = ck.design_companion([-4.0, -5.0])
    gain = ck.rank_one_gain(cs, mu=1.0, q1=1.0, r_hat=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", SpeedConventionWarning)
        speed = theoretical_speed_fixed(cs, gain, laplacian(five_cycle))
    coupling = float(cs.B @ cs.nu) * (1.0 - np.cos(2.0 * np.pi / 5.0))
    assert speed == pytest.approx(min(coupling, 4.0), abs=1e-12)


def test_theoretical_speed_fixed_warns_when_reading_matters(five_cycle):
    cs = ck.design_companion([-3.0, -5.0])
    gain = ck.rank_one_gain(cs, mu=10.0, q1=1.0, r_hat=1.0)
    # coupling 10 * (1 - cos 72 deg) = 6.9 lies above both pole readings,
    # so the smallest real part gives 3 and the largest would give 5
    with pytest.warns(SpeedConventionWarning):
        speed = theoretical_speed_fixed(cs, gain, laplacian(five_cycle))
    assert speed == pytest.approx(3.0, abs=1e-12)


def test_theoretical_speed_fixed_fourth_order_target(five_cycle):
    cs = ck.design_companion([-1.0, -2.0, -3.0])
    gain = ck.rank_one_gain(cs, mu=1.0, q1=1.0, r_hat=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", SpeedConventionWarning)
        speed = theoretical_speed_fixed(cs, gain, laplacian(five_cycle))
    coupling = float(cs.B @ cs.nu) * (1.0 - np.cos(2.0 * np.pi / 5.0))
    assert isinstance(speed, float)
    assert speed == pytest.approx(min(coupling, 1.0), abs=1e-12)


def test_theoretical_speed_fixed_requires_rank_one(target, five_cycle):
    g = ck.full_gain(target, mu=1.0, q1_matrix=np.eye(3), r_hat=1.0)
    with pytest.raises(ck.NotRankOneError):
        theoretical_speed_fixed(target, g, laplacian(five_cycle))


def test_theoretical_speed_fixed_requires_spanning_tree(target, unit_gain):
    with pytest.raises(ck.NoSpanningTreeError):
        theoretical_speed_fixed(target, unit_gain, laplacian(empty_graph(4)))


def test_theoretical_speed_switching_delegates(target, unit_gain):
    g1, g2 = default_switching_pair(5)
    mt = MarkovTopology(graphs=[g1, g2],
                        generator=np.array([[-1.0, 1.0], [1.0, -1.0]]))
    assert (theoretical_speed_switching(mt, unit_gain, target)
            == speed_bound(mt, unit_gain, target))

import numpy as np
import pytest

from conftest import default_switching_pair, empty_graph

from consensuskit import errors
from consensuskit.graph import DiGraph, laplacian
from consensuskit.metrics import (
    disagreement, empirical_rate,
    theoretical_speed_fixed, theoretical_speed_switching,
)
from consensuskit.sim import Trajectory
from consensuskit.synthesis import (
    CompanionSystem, closed_loop_spectrum, design_companion, full_gain,
    rank_one_gain,
)
from consensuskit.switching import MarkovTopology, speed_bound


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
    with pytest.raises(errors.ConvergenceFailure,
                       match=r"window \[20, 30\] selects 0 samples"):
        empirical_rate(times, values, window=(20.0, 30.0))
    with pytest.raises(errors.ValidationError, match="equal-length 1-d"):
        empirical_rate(times, values[:5])
    with pytest.raises(errors.ValidationError, match="equal-length 1-d"):
        empirical_rate(times, np.zeros((11, 2)))
    with pytest.raises(errors.ConvergenceFailure,
                       match="no positive values inside the fit window"):
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
    # coupling term 1 - cos(2 pi / 5) is below the slowest pole 1
    speed = theoretical_speed_fixed(target, unit_gain, lap)
    assert speed == pytest.approx(1.0 - np.cos(2.0 * np.pi / 5.0), abs=1e-12)


def test_theoretical_speed_fixed_pole_limited(target, five_cycle):
    lap = laplacian(five_cycle)
    strong = rank_one_gain(target, mu=1.0, q1=10.0, r_hat=1.0)
    speed = theoretical_speed_fixed(target, strong, lap)
    # coupling sqrt(10) * 0.69 exceeds the slowest plant pole, so the
    # pole term 1 becomes binding
    assert speed == pytest.approx(1.0, abs=1e-12)


def test_theoretical_speed_fixed_no_warning_off_design(five_cycle):
    cs = design_companion([-4.0, -5.0])
    gain = rank_one_gain(cs, mu=1.0, q1=1.0, r_hat=1.0)
    speed = theoretical_speed_fixed(cs, gain, laplacian(five_cycle))
    coupling = float(cs.B @ cs.nu) * (1.0 - np.cos(2.0 * np.pi / 5.0))
    assert speed == pytest.approx(min(coupling, 4.0), abs=1e-12)


def test_theoretical_speed_fixed_reads_the_slowest_pole(five_cycle):
    cs = design_companion([-3.0, -5.0])
    gain = rank_one_gain(cs, mu=10.0, q1=1.0, r_hat=1.0)
    # coupling 10 * (1 - cos 72 deg) = 6.9 lies above both poles, so the
    # slowest closed-loop mode is the pole at -3
    speed = theoretical_speed_fixed(cs, gain, laplacian(five_cycle))
    assert speed == pytest.approx(3.0, abs=1e-12)


def test_theoretical_speed_fixed_fourth_order_target(five_cycle):
    cs = design_companion([-1.0, -2.0, -3.0])
    gain = rank_one_gain(cs, mu=1.0, q1=1.0, r_hat=1.0)
    speed = theoretical_speed_fixed(cs, gain, laplacian(five_cycle))
    coupling = float(cs.B @ cs.nu) * (1.0 - np.cos(2.0 * np.pi / 5.0))
    assert isinstance(speed, float)
    assert speed == pytest.approx(min(coupling, 1.0), abs=1e-12)


def _dense_rate(cs, gain, lap):
    """Spectral abscissa of the dense closed loop I (x) A - L (x) B K with
    its eigenvalue nearest zero (the consensus mode) dropped."""
    loop = (np.kron(np.eye(lap.shape[0]), cs.A)
            - np.kron(lap, np.outer(cs.B, gain.K)))
    vals = np.linalg.eigvals(loop)
    return float(-np.delete(vals, np.argmin(np.abs(vals))).real.max())


def _weak_path(weight):
    """The path 0 -> 1 -> 2 -> 3 -> 4 whose last edge has `weight`."""
    return DiGraph.from_edges(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0),
                                  (3, 4, weight)])


@pytest.mark.parametrize("weight", [1e-16, 1e-12, 1e-10, 1e-9])
def test_theoretical_speed_fixed_follows_a_weak_edge(target, unit_gain,
                                                     weight):
    # the Laplacian eigenvalue `weight` sets the slowest closed-loop mode;
    # a zero threshold of 1e-9 ||L|| once hid it and returned the pole 1,
    # and edges below 1e-15 were cut from the graph
    lap = laplacian(_weak_path(weight))
    speed = theoretical_speed_fixed(target, unit_gain, lap)
    assert speed == pytest.approx(weight, rel=1e-9)
    # the dense eigensolver resolves the mode to ~1e-16 absolute
    assert speed == pytest.approx(_dense_rate(target, unit_gain, lap),
                                  rel=0.0, abs=1e-14)


def test_theoretical_speed_fixed_one_agent_has_no_rate(target, unit_gain):
    with pytest.raises(errors.ValidationError,
                       match="a one-node graph has no eigenvalue"):
        theoretical_speed_fixed(target, unit_gain, laplacian(empty_graph(1)))


def test_theoretical_speed_fixed_rejects_a_matrix_that_is_no_laplacian(
        target, unit_gain):
    with pytest.raises(errors.ValidationError,
                       match="Laplacian must be square"):
        theoretical_speed_fixed(target, unit_gain, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        theoretical_speed_fixed(target, unit_gain,
                                np.array([[1.0, 0.5], [-1.0, 1.0]]))


def _rank_one_designs(seed, count):
    """Seeded rank-one targets (r = 1 included), gains and Laplacians of
    random digraphs built around a spanning path, N in {2, 5, 10}."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        r, n = int(rng.integers(1, 7)), int(rng.choice([2, 5, 10]))
        poles = []
        while len(poles) < r - 1:
            if r - 1 - len(poles) >= 2 and rng.random() < 0.4:
                re, im = -rng.uniform(0.3, 2.5), rng.uniform(0.2, 1.5)
                poles += [complex(re, im), complex(re, -im)]
            else:
                poles.append(-rng.uniform(0.3, 2.5))
        cs = (design_companion(poles) if poles else CompanionSystem(
            r=1, b=np.zeros(0), A=np.zeros((1, 1)), B=np.ones(1),
            nu=np.ones(1), stable_poles=np.zeros(0, dtype=complex)))
        gain = rank_one_gain(cs, mu=rng.uniform(0.1, 2.0),
                             q1=rng.uniform(0.1, 10.0),
                             r_hat=rng.uniform(0.2, 2.0))
        order = rng.permutation(n).tolist()
        edges = [(order[k], order[k + 1], rng.uniform(0.2, 2.0))
                 for k in range(n - 1)]
        edges += [(a, b, rng.uniform(0.2, 2.0))
                  for a, b in rng.integers(0, n, (n, 2)).tolist() if a != b]
        yield cs, gain, laplacian(DiGraph.from_edges(n, edges))


def test_theoretical_speed_fixed_is_the_closed_loop_spectral_abscissa():
    # the dense eigensolver's relative gap, measured over seeds 0-399 of
    # this generator (19,200 designs): 2.8e-9 at worst, 1.2e-12 on these 48
    for cs, gain, lap in _rank_one_designs(0, 48):
        speed = theoretical_speed_fixed(cs, gain, lap)
        assert speed == pytest.approx(_dense_rate(cs, gain, lap), rel=1e-8)
        values = closed_loop_spectrum(cs, gain, lap)
        nonzero = np.delete(values, np.argmin(np.abs(values)))
        assert speed == -nonzero.real.max()


def test_theoretical_speed_fixed_requires_rank_one(target, five_cycle):
    g = full_gain(target, mu=1.0, q1_matrix=np.eye(3), r_hat=1.0)
    with pytest.raises(errors.ValidationError,
                       match="the guaranteed-rate formula needs a rank-one"):
        theoretical_speed_fixed(target, g, laplacian(five_cycle))


def test_theoretical_speed_fixed_requires_spanning_tree(target, unit_gain):
    with pytest.raises(errors.ValidationError,
                       match="graph has no directed spanning tree"):
        theoretical_speed_fixed(target, unit_gain, laplacian(empty_graph(4)))


def test_theoretical_speed_switching_delegates(target, unit_gain):
    g1, g2 = default_switching_pair(5)
    mt = MarkovTopology(graphs=[g1, g2],
                        generator=np.array([[-1.0, 1.0], [1.0, -1.0]]))
    assert (theoretical_speed_switching(mt, unit_gain, target)
            == speed_bound(mt, unit_gain, target))

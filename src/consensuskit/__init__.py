"""Rank-one dynamic output-consensus synthesis and simulation.

The package designs a single low-rank coupling gain that drives the
outputs of heterogeneous nonlinear agents (different orders, different
dynamics) to agreement over a directed network, and simulates the closed
loop on fixed or Markov-switching topologies, with optional observer-based
output feedback.

Typical flow: pick a target pole set, synthesize the companion target and
the rank-one gain, wrap each agent with its degree-matching local
controller, then simulate.

    import consensuskit as ck

    agents = [ck.builtin(f"agent{i}") for i in (1, 2, 3, 4, 5)]
    cs = ck.design_companion([-1.0, -2.0])
    gain = ck.rank_one_gain(cs, mu=1.0, q1=1.0, r_hat=1.0)
    scen = ck.build_scenario(agents, cs, gain, ck.directed_cycle(5),
                             t_end=30.0, dt=1e-3, seed=42, init="random")
    traj = ck.simulate_fixed(scen)
"""

from .errors import (
    A4ViolatedError,
    AllZeroError,
    BetaNearZero,
    ConsensusKitError,
    ConvergenceFailure,
    DegreeExceedsTargetError,
    DimensionMismatchError,
    EmptyWindowError,
    FiniteEscape,
    InconsistentSpectraError,
    InvalidDimensionError,
    NonPositiveParameterError,
    NonPositiveSeriesError,
    NonSquareError,
    NoSpanningTreeError,
    NotConjugateClosedError,
    NotObservableError,
    NotRankOneError,
    NotStabilizableError,
    PlacementFailure,
    ReducibleChainError,
    ScenarioParseError,
    SingularSystemError,
    SynthesisError,
    UnknownAgentError,
    UnstableMatrixError,
    UnstablePoleError,
    ValidationError,
)
from .settings import NumericSettings, settings
from .rng import STREAM_INIT, STREAM_MODE_PATH, rng_for
from .linalg import eig, solve_care, solve_lyapunov
from .graph import (
    DiGraph,
    directed_cycle,
    empty_graph,
    graph_from_dict,
    has_spanning_tree,
    is_balanced,
    lambda_min_nonzero,
    laplacian,
    union,
)
from .agents import (
    AFFINE,
    AUGMENTED_GENERAL,
    NativePlant,
    NormalFormAgent,
    augment,
    builtin,
    eval_dynamics,
    linearizing_input,
)
from .synthesis import (
    CompanionSystem,
    ConsensusGain,
    LocalController,
    ObserverGain,
    SpectrumCheck,
    assemble_stacked,
    closed_loop_spectrum,
    design_companion,
    full_gain,
    local_controller,
    observer_gain,
    rank_one_gain,
)
from .switching import (
    A4Report,
    GraphCheck,
    MarkovTopology,
    check_A4,
    default_switching_pair,
    sample_path,
    speed_bound,
    stationary_distribution,
)
from .sim import (
    MonteCarloResult,
    SimScenario,
    Trajectory,
    build_scenario,
    monte_carlo_ms,
    simulate_fixed,
    simulate_switching,
    simulate_with_observer,
)
from .metrics import (
    RateFit,
    SpeedConventionWarning,
    disagreement,
    empirical_rate,
    theoretical_speed_fixed,
    theoretical_speed_switching,
)
from .scenario import load_scenario, parse_scenario

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

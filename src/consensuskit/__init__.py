"""Rank-one dynamic output-consensus synthesis and simulation.

The package designs a single low-rank coupling gain that drives the
outputs of heterogeneous nonlinear agents (different orders, different
dynamics) to agreement over a directed network, and simulates the closed
loop on fixed or Markov-switching topologies, with optional observer-based
output feedback.

Typical flow: pick a target pole set, synthesize the companion target and
the rank-one gain, then simulate.  Each agent's degree-matching local
controller makes its stacked chain obey the target exactly, so the
simulator runs the closed loop I (x) A - L (x) B K directly.

Every name is imported from its module; the package itself exports none.

    from consensuskit.agents import builtin
    from consensuskit.graph import directed_cycle
    from consensuskit.sim import SimScenario, simulate_fixed
    from consensuskit.synthesis import design_companion, rank_one_gain

    agents = [builtin(f"agent{i}") for i in (1, 2, 3, 4, 5)]
    cs = design_companion([-1.0, -2.0])
    gain = rank_one_gain(cs, mu=1.0, q1=1.0, r_hat=1.0)
    scen = SimScenario(agents, cs, gain, directed_cycle(5),
                       t_end=30.0, dt=1e-3, seed=42, init="random")
    traj = simulate_fixed(scen)
"""

__version__ = "0.1.0"

__all__ = []

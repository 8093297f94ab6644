"""Exception types raised across the toolkit.

There is one class per outcome a caller treats differently, and every
refusal the toolkit raises is one of them.  All derive from
:class:`ConsensusKitError`.  The CLI exits 1 on the first three (and on a
missing file) and 2 on the rest:

- :class:`ScenarioParseError`: the scenario file is not a JSON object.
- :class:`ValidationError`: an input breaks the design's stated
  assumptions or the schema (a shape, a non-positive parameter, an
  unstable pole, a graph without a spanning tree, A4 failing, ...).  It
  is also a ``ValueError``.
- :class:`SynthesisError`: valid input for which no controller could be
  designed (not observable or stabilizable, pole placement off, a gain
  that overflows).
- :class:`ConvergenceFailure`: a numerical computation on valid input
  gave no result (an eigenvalue or Riccati iteration, a singular or
  unstable Lyapunov system, spectra that disagree, a rate-fit window
  without data).
- :class:`FiniteEscape`: a simulated state left the divergence guard.
- :class:`BetaNearZero`: an agent's input gain beta fell below its floor.
"""


class ConsensusKitError(Exception):
    """Base class for all toolkit errors."""


class ScenarioParseError(ConsensusKitError):
    """The scenario file is not valid JSON, or not a JSON object."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(ConsensusKitError, ValueError):
    """An input that breaks the schema or the design's assumptions.

    ``field`` holds a dotted path into the scenario document, or the
    argument at fault, when one is known.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class SynthesisError(ConsensusKitError):
    """No controller could be designed for valid input."""


class ConvergenceFailure(ConsensusKitError):
    """A numerical computation on valid input gave no result."""


class FiniteEscape(ConsensusKitError):
    """A simulated state left the divergence guard ball.

    The trajectory recorded up to the abort time is attached.
    """

    def __init__(self, message, trajectory=None, t=None):
        super().__init__(message)
        self.trajectory = trajectory
        self.t = t


class BetaNearZero(ConsensusKitError):
    """The input gain beta dropped below the runtime floor.

    Carries the offending agent id and a state snapshot when raised from a
    simulation.
    """

    def __init__(self, message, agent_id=None, state=None):
        super().__init__(message)
        self.agent_id = agent_id
        self.state = state

"""Exception types raised across the toolkit.

Every error that callers are expected to distinguish gets its own class so
that tests and the CLI can react precisely.  All of them derive from
:class:`ConsensusKitError`.
"""


class ConsensusKitError(Exception):
    """Base class for all toolkit errors."""


# ---------------------------------------------------------------------------
# linear algebra

class NonSquareError(ConsensusKitError):
    """A square matrix was required."""


class ConvergenceFailure(ConsensusKitError):
    """An iterative solver did not reach its residual target."""


class UnstableMatrixError(ConsensusKitError):
    """A strictly stable (Hurwitz) matrix was required."""


class SingularSystemError(ConsensusKitError):
    """A linear system that had to be solved was (numerically) singular."""


class NotStabilizableError(ConsensusKitError):
    """No stabilizing gain could be produced for the given pair."""


# ---------------------------------------------------------------------------
# graphs

class DimensionMismatchError(ConsensusKitError):
    """Operands had incompatible sizes."""


class AllZeroError(ConsensusKitError):
    """A Laplacian had no eigenvalue besides its structural zero."""


# ---------------------------------------------------------------------------
# agents

class UnknownAgentError(ConsensusKitError):
    """No builtin agent is registered under the requested name."""


class InvalidDimensionError(ConsensusKitError):
    """Supplied agent data had inconsistent dimensions."""


class BetaNearZero(ConsensusKitError):
    """The input gain beta dropped below the runtime floor.

    Carries the offending agent id and a state snapshot when raised from a
    simulation.
    """

    def __init__(self, message, agent_id=None, state=None):
        super().__init__(message)
        self.agent_id = agent_id
        self.state = state


class FiniteEscape(ConsensusKitError):
    """A simulated state left the divergence guard ball.

    The trajectory recorded up to the abort time is attached.
    """

    def __init__(self, message, trajectory=None, t=None):
        super().__init__(message)
        self.trajectory = trajectory
        self.t = t


# ---------------------------------------------------------------------------
# synthesis

class NotConjugateClosedError(ConsensusKitError):
    """A pole multiset was not closed under complex conjugation."""


class UnstablePoleError(ConsensusKitError):
    """A strictly stable pole set was required."""


class NonPositiveParameterError(ConsensusKitError):
    """A design parameter was not positive and finite, or overflowed."""


class DegreeExceedsTargetError(ConsensusKitError):
    """An agent's relative degree exceeds the companion target degree."""


class NotObservableError(ConsensusKitError):
    """The pair (C, A) failed the observability gate."""


class PlacementFailure(ConsensusKitError):
    """Pole placement did not reproduce the requested spectrum."""


class InconsistentSpectraError(ConsensusKitError):
    """Analytic and direct closed-loop spectra disagree beyond tolerance."""


# ---------------------------------------------------------------------------
# switching

class ReducibleChainError(ConsensusKitError):
    """The Markov generator is not irreducible."""


class A4ViolatedError(ConsensusKitError):
    """The union graph lacks a spanning tree or is not weight balanced."""


class NotRankOneError(ConsensusKitError):
    """A rank-one cooperative gain was required."""


# ---------------------------------------------------------------------------
# metrics

class EmptyWindowError(ConsensusKitError):
    """The fit window contains no samples."""


class NonPositiveSeriesError(ConsensusKitError):
    """A log-domain fit needs at least one strictly positive value."""


class NoSpanningTreeError(ConsensusKitError):
    """The communication graph has no directed spanning tree."""


# ---------------------------------------------------------------------------
# scenario / CLI

class ScenarioParseError(ConsensusKitError):
    """The scenario file is not valid JSON."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(ConsensusKitError):
    """The scenario JSON violates the schema.

    ``field`` holds a dotted path into the document.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class SynthesisError(ConsensusKitError):
    """Controller synthesis for a scenario failed."""

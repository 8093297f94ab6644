"""Agent models in input-output normal form.

An agent of relative degree r with k internal states is

    xi_1' = xi_2, ..., xi_{r-1}' = xi_r,
    xi_r' = alpha(xi, eta) + beta(xi, eta) * u,
    eta'  = theta(xi, eta),
    y     = xi_1,

with |beta| bounded away from zero.  Applying u = (u_hat - alpha) / beta
turns the top chain into an exact integrator chain driven by the new input
u_hat; that cancellation is what every consensus design here builds on.

Builtin agents
--------------
Five third-order single-input plants ship under the names agent1..agent5.
Four of them (1, 2, 4, 5) have relative degree 2 with a one-dimensional
internal state obeying  eta' = -a*eta - eta**p + xi_1  for

    agent1: a=1, p=5    agent2: a=1, p=3    agent4: a=4, p=3    agent5: a=2, p=5

Agent 3 has full relative degree 3 and no internal state.  Its normal form
is reached through the coordinate map

    xi_1 = x_2,  xi_2 = x_2**2 + x_3,  xi_3 = 2 x_2 (x_2**2 + x_3) + x_1 + x_2 x_3.

Under its linearizing input it is an exact chain, so the simulator
integrates it in xi like every other agent.  Its model in the original x
coordinates (NativePlant) is the reference the tests check the chain
against, and maps a scenario's x0 into xi0.

Agents whose input enters non-affinely can be handled by driving the input
through an integrator, u' = w: :func:`augment` wraps the resulting normal
form (one degree higher) so the rest of the toolkit treats it uniformly.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import (
    BetaNearZero,
    InvalidDimensionError,
    UnknownAgentError,
)
from .settings import settings

__all__ = [
    "NormalFormAgent", "NativePlant", "builtin", "augment",
    "linearizing_input", "eval_dynamics", "AFFINE", "AUGMENTED_GENERAL",
]

AFFINE = "affine"
AUGMENTED_GENERAL = "augmented-general"

_EMPTY = np.empty(0)


@dataclass(frozen=True)
class NativePlant:
    """Original-coordinate model of an agent stated natively.

    ``deriv(x, u)`` is the full state derivative, ``xi_of(x)`` the forward
    coordinate map into the chain variables, and ``alpha_of`` / ``beta_of``
    evaluate the feedback-linearization data at a raw state.
    """

    x0: np.ndarray
    deriv: Callable[[np.ndarray, float], np.ndarray]
    xi_of: Callable[[np.ndarray], np.ndarray]
    alpha_of: Callable[[np.ndarray], float]
    beta_of: Callable[[np.ndarray], float]

    @property
    def dim(self):
        return self.x0.shape[0]


@dataclass(frozen=True)
class NormalFormAgent:
    agent_id: int
    r: int
    n_eta: int
    alpha: Callable[[np.ndarray, np.ndarray], float]
    beta: Callable[[np.ndarray, np.ndarray], float]
    theta: Callable[[np.ndarray, np.ndarray], np.ndarray]
    xi0: np.ndarray
    eta0: np.ndarray
    kind: str = AFFINE
    u0: float = 0.0  # initial physical input, augmented agents only
    native: Optional[NativePlant] = None

    def __post_init__(self):
        if self.r < 1:
            raise InvalidDimensionError("relative degree must be >= 1")
        if self.n_eta < 0:
            raise InvalidDimensionError("n_eta must be >= 0")
        xi0 = np.asarray(self.xi0, dtype=float).reshape(-1)
        eta0 = np.asarray(self.eta0, dtype=float).reshape(-1)
        if xi0.shape[0] != self.r:
            raise InvalidDimensionError(
                f"xi0 has length {xi0.shape[0]}, expected r = {self.r}")
        if eta0.shape[0] != self.n_eta:
            raise InvalidDimensionError(
                f"eta0 has length {eta0.shape[0]}, expected n_eta = {self.n_eta}")
        object.__setattr__(self, "xi0", xi0)
        object.__setattr__(self, "eta0", eta0)

    def with_initial(self, xi0=None, eta0=None, x0=None, u0=None):
        """Copy of this agent with replaced initial conditions."""
        out = self
        if x0 is not None:
            if out.native is None:
                raise InvalidDimensionError(
                    f"agent {out.agent_id} has no native coordinates")
            x0 = np.asarray(x0, dtype=float).reshape(-1)
            if x0.shape[0] != out.native.dim:
                raise InvalidDimensionError(
                    f"x0 has length {x0.shape[0]}, expected {out.native.dim}")
            out = replace(out, native=replace(out.native, x0=x0),
                          xi0=out.native.xi_of(x0))
        if xi0 is not None:
            if out.native is not None:
                raise InvalidDimensionError(
                    f"agent {out.agent_id} takes x0, not xi0")
            out = replace(out, xi0=np.asarray(xi0, dtype=float).reshape(-1))
        if eta0 is not None:
            out = replace(out, eta0=np.asarray(eta0, dtype=float).reshape(-1))
        if u0 is not None:
            out = replace(out, u0=float(u0))
        return out


def _const(value):
    return lambda xi, eta: value


def _no_internal(xi, eta):
    return _EMPTY


# The builtin maps run once per agent in every RK4 stage, so they unpack
# their arguments into Python floats: numpy scalar arithmetic costs several
# times as much per operation.  A Python float power raises OverflowError
# where numpy returns inf, so squares are products and theta's odd power
# falls back to a signed inf: a diverging run must still reach the
# finite-escape guard.

def _damped_internal(a, p):
    def theta(xi, eta):
        e = eta.item(0)
        try:
            ep = e ** p
        except OverflowError:
            ep = math.copysign(math.inf, e)
        return np.array([-a * e - ep + xi.item(0)])
    return theta


def _agent3_alpha_x(x):
    x1, x2, x3 = x.tolist()
    s = x2 * x2 + x3
    return (x1 * (x2 + x3)
            + (6.0 * (x2 * x2) + 3.0 * x3) * s
            + 3.0 * x2 * (x1 + x2 * x3))


def _agent3_xi_of(x):
    x1, x2, x3 = x.tolist()
    s = x2 * x2 + x3
    return np.array([x2, s, 2.0 * x2 * s + x1 + x2 * x3])


def _agent3_x_of_xi(xi):
    # exact inverse of the map above; evaluates alpha on the chain, once
    # per recorded sample
    x2, xi2, xi3 = xi.tolist()
    return np.array([xi3 - 3.0 * x2 * xi2 + x2 * x2 * x2, x2, xi2 - x2 * x2])


def _agent3_alpha_xi(xi, eta):
    return _agent3_alpha_x(_agent3_x_of_xi(xi))


def _agent3_deriv(x, u):
    x1, x2, x3 = x.tolist()
    return np.array([x1 * x2 + x1 * x3 + u, x2 * x2 + x3, x1 + x2 * x3])


_DAMPING = {"agent1": (1.0, 5), "agent2": (1.0, 3),
            "agent4": (4.0, 3), "agent5": (2.0, 5)}


def builtin(name):
    """One of the five demo agents, with all-zero initial conditions."""
    if name in _DAMPING:
        a, p = _DAMPING[name]
        return NormalFormAgent(
            agent_id=int(name[-1]), r=2, n_eta=1,
            alpha=_const(0.0), beta=_const(1.0), theta=_damped_internal(a, p),
            xi0=np.zeros(2), eta0=np.zeros(1))
    if name == "agent3":
        native = NativePlant(
            x0=np.zeros(3), deriv=_agent3_deriv, xi_of=_agent3_xi_of,
            alpha_of=_agent3_alpha_x, beta_of=lambda x: 1.0)
        return NormalFormAgent(
            agent_id=3, r=3, n_eta=0,
            alpha=_agent3_alpha_xi, beta=_const(1.0), theta=_no_internal,
            xi0=np.zeros(3), eta0=np.zeros(0), native=native)
    raise UnknownAgentError(f"no builtin agent named {name!r}")


def augment(r, alpha_tilde, beta_tilde, theta_tilde, xi0, eta0=(), u0=0.0,
            agent_id=0):
    """Wrap an input-augmented general agent as a normal-form agent.

    For a plant of relative degree ``r`` whose input enters non-affinely,
    driving the physical input through an integrator u' = w yields an
    affine system of relative degree r + 1.  The caller supplies the
    augmented normal-form data (alpha_tilde, beta_tilde, theta_tilde,
    a chain initial condition of length r + 1, the internal initial state,
    and the initial physical input).  The simulator integrates u' = w
    alongside and records u as the physical input.
    """
    xi0 = np.asarray(xi0, dtype=float).reshape(-1)
    if xi0.shape[0] != r + 1:
        raise InvalidDimensionError(
            f"augmented chain needs r + 1 = {r + 1} initial values, got {xi0.shape[0]}")
    eta0 = np.asarray(eta0, dtype=float).reshape(-1)
    return NormalFormAgent(
        agent_id=agent_id, r=r + 1, n_eta=eta0.shape[0],
        alpha=alpha_tilde, beta=beta_tilde,
        theta=theta_tilde if eta0.shape[0] else _no_internal,
        xi0=xi0, eta0=eta0, kind=AUGMENTED_GENERAL, u0=float(u0))


def linearizing_input(agent, xi, eta, u_hat):
    """Physical input u = (u_hat - alpha) / beta with the beta floor guard."""
    beta = agent.beta(xi, eta)
    if abs(beta) < settings.beta_floor:
        raise BetaNearZero(
            f"beta = {beta:.3e} below floor {settings.beta_floor:.1e}",
            agent_id=agent.agent_id, state=np.concatenate([xi, eta]))
    return (u_hat - agent.alpha(xi, eta)) / beta


def eval_dynamics(agent, xi, eta, u_hat):
    """Chain and internal derivatives under the linearizing input.

    Returns ``(dxi, deta, u)`` where u is the physical input actually
    applied.  Because the linearization cancels alpha exactly, the chain
    derivative is the shifted xi with u_hat in the last slot.
    """
    xi = np.asarray(xi, dtype=float).reshape(-1)
    eta = np.asarray(eta, dtype=float).reshape(-1)
    if xi.shape[0] != agent.r or eta.shape[0] != agent.n_eta:
        raise InvalidDimensionError(
            f"state sizes ({xi.shape[0]}, {eta.shape[0]}) do not match agent "
            f"({agent.r}, {agent.n_eta})")
    u = linearizing_input(agent, xi, eta, u_hat)
    dxi = np.empty(agent.r)
    dxi[:-1] = xi[1:]
    dxi[-1] = u_hat
    deta = np.asarray(agent.theta(xi, eta), dtype=float).reshape(-1)
    if deta.shape[0] != agent.n_eta:
        raise InvalidDimensionError(
            f"theta returned {deta.shape[0]} values, expected {agent.n_eta}")
    return dxi, deta, u

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

Each builtin is built once, at import: builtin(name) returns that one
frozen agent, and with_initial makes a new one with other initial
conditions.

Every map alpha, beta and theta is a polynomial held as a
:class:`TermTable`, so the simulator stacks the maps of all agents.  A
table is evaluated only as the Python source it writes, each power a
product of squares: the simulator runs the stacked rows it integrates in
Python floats (one RK4 block function), and the same expressions run on
numpy columns evaluate alpha and beta over the recorded states.  An agent
built in Python takes its maps as tables too: alpha and beta are tables of
one row, theta a table of one row per internal state, and the row count
is all an agent checks of a table's shape.

Agents whose input enters non-affinely can be handled by driving the input
through an integrator, u' = w: :func:`augment` wraps the resulting normal
form (one degree higher) so the rest of the toolkit treats it uniformly.
"""

import functools
import linecache
import types
import weakref
import zlib
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import BetaNearZero, ValidationError
from .linalg import _read_only

__all__ = [
    "NormalFormAgent", "NativePlant", "builtin", "augment",
    "linearizing_input", "eval_dynamics", "AFFINE", "AUGMENTED_GENERAL",
]

_BETA_FLOOR = 1e-9  # sim checks the recorded states against it too

AFFINE = "affine"
AUGMENTED_GENERAL = "augmented-general"


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
    __post_init__ = _read_only

    @property
    def dim(self):
        return self.x0.shape[0]


@dataclass(frozen=True)
class NormalFormAgent:
    """One agent in normal form; its maps are TermTables over (xi, eta),
    alpha and beta of one row each, theta of n_eta rows."""

    agent_id: int
    r: int
    n_eta: int
    alpha: "TermTable"
    beta: "TermTable"
    theta: "TermTable"
    xi0: np.ndarray
    eta0: np.ndarray
    kind: str = AFFINE
    u0: float = 0.0  # initial physical input, augmented agents only
    native: Optional[NativePlant] = None

    def __post_init__(self):
        if self.r < 1:
            raise ValidationError("relative degree must be >= 1")
        if self.n_eta < 0:
            raise ValidationError("n_eta must be >= 0")
        xi0 = np.asarray(self.xi0, dtype=float).reshape(-1)
        eta0 = np.asarray(self.eta0, dtype=float).reshape(-1)
        if xi0.shape[0] != self.r:
            raise ValidationError(
                f"xi0 has length {xi0.shape[0]}, expected r = {self.r}")
        if eta0.shape[0] != self.n_eta:
            raise ValidationError(
                f"eta0 has length {eta0.shape[0]}, expected n_eta = {self.n_eta}")
        for name, rows in (("alpha", 1), ("beta", 1),
                           ("theta", self.n_eta)):
            fn = getattr(self, name)
            if not isinstance(fn, TermTable):
                raise ValidationError(
                    f"{name} must be a TermTable, got {type(fn).__name__}")
            if fn.n_rows != rows:
                raise ValidationError(
                    f"{name} must be a table of {rows} rows, got "
                    f"{fn.n_rows} rows")
            if fn.n_vars > self.r + self.n_eta:
                raise ValidationError(
                    f"{name} reads variable {fn.n_vars}, past r + n_eta = "
                    f"{self.r + self.n_eta}")
        object.__setattr__(self, "xi0", xi0)
        object.__setattr__(self, "eta0", eta0)
        _read_only(self)

    def with_initial(self, xi0=None, eta0=None, x0=None):
        """Copy of this agent with replaced initial conditions."""
        changes = {}
        if x0 is not None:
            if self.native is None:
                raise ValidationError(
                    f"agent {self.agent_id} has no native coordinates")
            x0 = np.asarray(x0, dtype=float).reshape(-1)
            if x0.shape[0] != self.native.dim:
                raise ValidationError(
                    f"x0 has length {x0.shape[0]}, expected {self.native.dim}")
            changes.update(native=replace(self.native, x0=x0),
                           xi0=self.native.xi_of(x0))
        if xi0 is not None:
            if self.native is not None:
                raise ValidationError(
                    f"agent {self.agent_id} takes x0, not xi0")
            changes["xi0"] = xi0
        if eta0 is not None:
            changes["eta0"] = eta0
        return replace(self, **changes)


class TermTable:
    """A polynomial map over z = (xi_1..xi_r, eta_1..eta_k), held as data.

    ``rows`` has one entry per output row, each a list of terms (c, e): c a
    coefficient, e the exponents of z_1, z_2, ..., non-negative integers
    (trailing zeros may be left out); row k is the sum over its terms of
    c * prod_j z_j ** e_j, and a row without terms is zero.
    ``variables`` is the sorted tuple of the 0-based index of every
    variable some term reads, and ``n_vars`` is the number of leading
    variables the terms reach (the last z_j with a nonzero exponent).

    A table is evaluated only through the Python source :meth:`_source`
    writes, in which a power is a product of squares: the simulator runs
    it on Python floats in its cascade, and :meth:`at` runs it on numpy
    columns, the same IEEE operations in the same order, so both give the
    same bits.  :meth:`at` takes one state or a matrix of states, its
    function compiled on first use; called as fn(xi, eta) a table returns
    its rows at the state (xi, eta), one entry per row, so alpha and beta
    give a one-entry array.  :meth:`stack` joins the tables of several
    agents into one over a longer state vector.
    """

    def __init__(self, rows):
        terms = [(k, float(c), [(j, _power(p, k, t, j))
                                for j, p in enumerate(e) if p])
                 for k, row in enumerate(rows) for t, (c, e) in enumerate(row)]
        self._build(len(rows), terms)

    @classmethod
    def stack(cls, tables, places):
        """The rows of every table in turn, as one table over a vector that
        holds variable j of tables[i] at entry places[i][j]."""
        terms, n = [], 0
        for table, place in zip(tables, places):
            terms += [(n + k, c, [(place[j], p) for j, p in factors])
                      for k, c, factors in table._terms]
            n += table.n_rows
        out = cls.__new__(cls)
        out._build(n, terms)
        return out

    def _build(self, n_rows, terms):
        # terms: (row, c, [(variable, power > 0), ...]); the function that
        # evaluates them is compiled on first use, as loading a scenario to
        # synthesize it never evaluates a map
        self.n_rows, self._terms = n_rows, tuple(terms)
        self.variables = tuple(sorted({j for _, _, f in terms for j, _ in f}))
        self.n_vars = self.variables[-1] + 1 if self.variables else 0
        self._rows = self._columns = None

    def at(self, z):
        """The rows of the map at one state z (z_j = z[j]), or at every row
        of a matrix z (z_j = z[:, j]) as its columns."""
        if self._rows is None:
            self._rows = self._column_function()
            self._columns = np.array(self.variables, dtype=np.intp)
        z = np.asarray(z, dtype=float)  # int columns would wrap, not round
        out = np.empty((self.n_rows,) + z.shape[:-1])
        self._rows(z.T[self._columns], out)
        return out.T

    def _column_function(self):
        """rows(v, out) that sets out[k] to row k of the map, v holding the
        values of ``variables`` in order: numpy columns, or Python floats."""
        names = [f"z{j}" for j in range(self.n_vars)]
        coefs, squares = [], {}
        rows = self._source(names, coefs, squares)
        body = []
        if coefs:
            body.append("".join(f"c{t}, " for t in range(len(coefs))) + "= c")
        if self.variables:
            body.append("".join(names[j] + ", " for j in self.variables)
                        + "= v")
        body += squares.values()
        body += [f"out[{k}] = {row}" for k, row in enumerate(rows)]
        source = "\n".join(["def rows(v, out, c):"]
                           + ["    " + line for line in body or ["pass"]])
        return _function(source + "\n", (tuple(coefs),), _rows_code)

    def __call__(self, xi, eta):
        return self.at(np.concatenate((xi, eta)))

    def _source(self, names, coefs, squares):
        """Each row as a Python expression in which z_j is the name
        names[j].  Every coefficient is appended to `coefs` and read as the
        name c<t>, t its place there, so the source holds no float and the
        coefficients keep every bit.  A term is c<t> * (its factors in
        order), or c<t> alone without factors, z_j ** p the product of the
        squares z_j ** (2 ** i) at the set bits i of p, lowest first.  The
        square z_j ** (2 ** i), i > 0, is the name names[j]_sq<i>, made by
        the line squares[name] from the one before; the lines a row needs
        are added to the dict `squares`, in the order in which they must
        run, before the rows.

        A term with factors whose c is exactly 1.0 or -1.0 does not read
        its c<t>, which keeps its place in `coefs` all the same: it is (its
        factors), added, or subtracted (-(its factors) where it starts its
        row, or in a row long enough for _join to group).  IEEE makes that
        exact: 1.0 * x is x, -1.0 * x is -x and s + -x is s - x, bit for bit
        on every finite, zero and infinite value; only a NaN's sign bit can
        differ.  So the source depends on the table's shape and on which of
        its coefficients are +-1."""
        rows = [[] for _ in range(self.n_rows)]
        for k, c, factors in self._terms:
            mono = _join([f for j, p in factors
                          for f in _squares(names[j], p, squares)], " * ")
            if mono and abs(c) == 1.0:
                rows[k].append((c < 0.0, f"({mono})"))
            else:
                rows[k].append((False, f"c{len(coefs)} * ({mono})" if mono
                                else f"c{len(coefs)}"))
            coefs.append(c)
        for terms in rows:
            if not terms:
                terms.append((False, f"c{len(coefs)}"))
                coefs.append(0.0)
        return [_sum(terms) for terms in rows]


def _squares(name, p, squares):
    """The factors of name ** p: name ** (2 ** i) at the set bits i of p,
    lowest first, name_sq<i> for i > 0; the lines that make them from
    name, each squaring the one before, are added to `squares`."""
    factors, square = [], name
    for i in range(p.bit_length()):
        if i:
            last, square = square, f"{name}_sq{i}"
            squares.setdefault(square, f"{square} = {last} * {last}")
        if p >> i & 1:
            factors.append(square)
    return factors


def _power(p, k, t, j):
    """Exponent p of variable j in term t of row k, as an int: a map is a
    polynomial, so p must be a non-negative integer (2.0 is taken)."""
    try:
        q = int(p)
    except (TypeError, ValueError, OverflowError):
        q = None
    if q is None or q != p or q < 0:
        raise ValidationError(
            f"row {k}, term {t}: exponent {p!r} of variable {j} is not a "
            f"non-negative integer")
    return q


_GROUP = 256  # the terms or factors _join writes in one group


def _sum(terms):
    """The sum of the (negated, text) `terms` in order, a negated term
    subtracted, or -(text) where it starts the sum or the sum is long
    enough for _join to group it."""
    if len(terms) > _GROUP:
        return _join([f"-{t}" if neg else t for neg, t in terms], " + ")
    (neg, first), *rest = terms
    return "".join([f"-{first}" if neg else first]
                   + [f" - {t}" if neg else f" + {t}" for neg, t in rest])


def _join(items, op):
    # thousands of terms or factors nest too deep for the Python compiler:
    # join them _GROUP at a time, left to right inside each group
    while len(items) > _GROUP:
        items = ["(" + op.join(items[a:a + _GROUP]) + ")"
                 for a in range(0, len(items), _GROUP)]
    return op.join(items)


def _compiler(kind):
    """A cache of the code of the one function a source defines, compiled
    once per distinct source (the last 32) under the file name
    <kind:CRC-32 of the source>.  While that code lives, its source is in
    linecache, so tracebacks and profilers show its lines."""

    @functools.lru_cache(maxsize=32)
    def code(source):
        name = f"<{kind}:{zlib.crc32(source.encode()):08x}>"
        entry = linecache.cache[name] = (len(source), None,
                                         source.splitlines(True), name)
        made = compile(source, name, "exec").co_consts[0]
        weakref.finalize(made, _forget, name, entry)
        return made

    return code


def _forget(name, entry):
    # unless the same source was compiled again and registered anew
    if linecache.cache.get(name) is entry:
        del linecache.cache[name]


_code = _compiler("cascade")    # the simulator's cascade block functions
_rows_code = _compiler("rows")  # the column functions of TermTable.at


def _function(source, defaults, code=_code):
    """The function that `source` defines, its last parameters bound to
    `defaults`; its code is taken from the cache `code`."""
    code = code(source)
    return types.FunctionType(code, {}, code.co_name, tuple(defaults))


_ZERO = TermTable([[(0.0, ())]])
_ONE = TermTable([[(1.0, ())]])
_NO_INTERNAL = TermTable([])

# eta' = -a*eta - eta**p + xi_1 over (xi_1, xi_2, eta)
_DAMPED_THETA = {
    name: TermTable([[(-a, (0, 0, 1)), (-1.0, (0, 0, p)), (1.0, (1,))]])
    for name, (a, p) in {"agent1": (1.0, 5), "agent2": (1.0, 3),
                         "agent4": (4.0, 3), "agent5": (2.0, 5)}.items()}

# agent 3's alpha in chain coordinates: _agent3_alpha_x composed with the
# inverse map x = (xi_3 - 3 xi_1 xi_2 + xi_1**3, xi_1, xi_2 - xi_1**2),
# expanded
_AGENT3_ALPHA = TermTable([[
    (-1.0, (5, 0, 0)), (1.0, (4, 0, 0)), (4.0, (3, 1, 0)), (-6.0, (2, 1, 0)),
    (-1.0, (2, 0, 1)), (-3.0, (1, 2, 0)), (4.0, (1, 0, 1)), (3.0, (0, 2, 0)),
    (1.0, (0, 1, 1))]])


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


def _agent3_deriv(x, u):
    x1, x2, x3 = x.tolist()
    return np.array([x1 * x2 + x1 * x3 + u, x2 * x2 + x3, x1 + x2 * x3])


def _make_builtin(name):
    if name == "agent3":
        native = NativePlant(
            x0=np.zeros(3), deriv=_agent3_deriv, xi_of=_agent3_xi_of,
            alpha_of=_agent3_alpha_x, beta_of=lambda x: 1.0)
        return NormalFormAgent(
            agent_id=3, r=3, n_eta=0,
            alpha=_AGENT3_ALPHA, beta=_ONE, theta=_NO_INTERNAL,
            xi0=np.zeros(3), eta0=np.zeros(0), native=native)
    return NormalFormAgent(
        agent_id=int(name[-1]), r=2, n_eta=1,
        alpha=_ZERO, beta=_ONE, theta=_DAMPED_THETA[name],
        xi0=np.zeros(2), eta0=np.zeros(1))


_BUILTINS = {name: _make_builtin(name)
             for name in ("agent1", "agent2", "agent3", "agent4", "agent5")}


def builtin(name):
    """One of the five demo agents, with all-zero initial conditions.

    Each name gives the one agent built for it at import, shared by every
    caller: it is frozen and its arrays are read-only, and with_initial
    returns a new agent, so no caller can change what another sees.
    """
    if name not in _BUILTINS:
        raise ValidationError(f"no builtin agent named {name!r}")
    return _BUILTINS[name]


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
        raise ValidationError(
            f"augmented chain needs r + 1 = {r + 1} initial values, got {xi0.shape[0]}")
    eta0 = np.asarray(eta0, dtype=float).reshape(-1)
    return NormalFormAgent(
        agent_id=agent_id, r=r + 1, n_eta=eta0.shape[0],
        alpha=alpha_tilde, beta=beta_tilde,
        theta=theta_tilde if eta0.shape[0] else _NO_INTERNAL,
        xi0=xi0, eta0=eta0, kind=AUGMENTED_GENERAL, u0=float(u0))


def linearizing_input(agent, xi, eta, u_hat):
    """Physical input u = (u_hat - alpha) / beta with the beta floor guard."""
    beta = float(agent.beta(xi, eta)[0])
    if abs(beta) < _BETA_FLOOR:
        raise BetaNearZero(
            f"beta = {beta:.3e} below floor {_BETA_FLOOR:.1e}",
            agent_id=agent.agent_id, state=np.concatenate([xi, eta]))
    return (u_hat - float(agent.alpha(xi, eta)[0])) / beta


def eval_dynamics(agent, xi, eta, u_hat):
    """Chain and internal derivatives under the linearizing input.

    Returns ``(dxi, deta, u)`` where u is the physical input actually
    applied.  Because the linearization cancels alpha exactly, the chain
    derivative is the shifted xi with u_hat in the last slot.
    """
    xi = np.asarray(xi, dtype=float).reshape(-1)
    eta = np.asarray(eta, dtype=float).reshape(-1)
    if xi.shape[0] != agent.r or eta.shape[0] != agent.n_eta:
        raise ValidationError(
            f"state sizes ({xi.shape[0]}, {eta.shape[0]}) do not match agent "
            f"({agent.r}, {agent.n_eta})")
    u = linearizing_input(agent, xi, eta, u_hat)
    dxi = np.empty(agent.r)
    dxi[:-1] = xi[1:]
    dxi[-1] = u_hat
    return dxi, agent.theta(xi, eta), u

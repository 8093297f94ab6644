"""Seeded scenario documents for the design sweep and the short probes.

Every document is plain JSON in the format ``consensuskit.scenario`` parses.
The sweep is stratified: each cell of N x r x rank x topology x observer
gets the same number of designs, so the class mix (and with it the cost
mix and the share of designs that hit the rank-one r >= 4 fixed-graph
defect) is the same for every seed; the seed varies poles, weights, graphs
and agent dynamics inside each cell.
"""

import itertools
import json

import numpy as np

AGENT_COUNTS = (5, 10, 20)
TARGET_ORDERS = (3, 4, 5, 6)
RANKS = ("one", "full")
TOPOLOGIES = ("fixed", "switching")

BUILTINS = ("agent1", "agent2", "agent3", "agent4", "agent5")  # r <= 3


def design_class(doc):
    """(rank, topology, r) of a design document."""
    rank = doc["controller"]["rank"]
    topo = "fixed" if "graph" in doc else "switching"
    return rank, topo, len(doc["controller"]["poles"]) + 1


def _stable_poles(rng, count, lo, hi):
    """Conjugate-closed set of `count` poles with real parts in [-hi, -lo]."""
    poles = []
    while len(poles) < count:
        if count - len(poles) >= 2 and rng.random() < 0.4:
            re, im = -rng.uniform(lo, hi), rng.uniform(0.2, 1.5)
            poles += [[re, im], [re, -im]]
        else:
            poles.append(-rng.uniform(lo, hi))
    return poles


def _term(rng, nvars, max_degree):
    e = [0] * nvars
    for _ in range(int(rng.integers(0, max_degree + 1))):
        e[int(rng.integers(nvars))] += 1
    return {"c": float(rng.uniform(-1.0, 1.0)), "e": e}


def _custom_agent(rng, r_target):
    r = int(rng.integers(1, r_target + 1))
    n_eta = int(rng.integers(0, 3))
    nvars = r + n_eta
    alpha = [_term(rng, nvars, 3) for _ in range(int(rng.integers(0, 3)))]
    beta = [{"c": float(rng.uniform(1.0, 2.0)), "e": [0] * nvars}]
    theta = []
    for k in range(n_eta):
        decay = [0] * nvars
        decay[r + k] = 1
        theta.append([{"c": -float(rng.uniform(0.5, 2.0)), "e": decay},
                      _term(rng, nvars, 2)])
    return {"custom": {
        "r": r, "n_eta": n_eta, "alpha": alpha, "beta": beta, "theta": theta,
        "xi0": rng.uniform(-1.0, 1.0, r).tolist(),
        "eta0": rng.uniform(-1.0, 1.0, n_eta).tolist()}}


def _agents(rng, n, r_target):
    out = []
    for _ in range(n):
        if rng.random() < 0.5:
            out.append({"builtin": str(rng.choice(BUILTINS))})
        else:
            out.append(_custom_agent(rng, r_target))
    return out


def _controller(rng, r, rank):
    ctl = {"poles": _stable_poles(rng, r - 1, 0.3, 2.5),
           "mu": float(rng.uniform(0.5, 2.0)),
           "r_hat": float(rng.uniform(0.5, 2.0)), "rank": rank}
    if rank == "one":
        ctl["q1"] = float(rng.uniform(0.5, 5.0))
    elif rng.random() < 0.5:
        m = rng.uniform(-1.0, 1.0, (r, r))
        q = m @ m.T + 0.1 * np.eye(r)
        ctl["Q1"] = (0.5 * (q + q.T)).tolist()
    return ctl


def _fixed_graph(rng, n):
    """A random directed path through every node plus extra random edges."""
    order = rng.permutation(n)
    edges = [[int(order[k]) + 1, int(order[k + 1]) + 1,
              float(rng.uniform(0.5, 2.0))] for k in range(n - 1)]
    for _ in range(n // 2):
        frm, to = rng.choice(n, size=2, replace=False)
        edges.append([int(frm) + 1, int(to) + 1, float(rng.uniform(0.5, 2.0))])
    return {"n": n, "edges": edges}


def _switching(rng, n):
    """2-3 modes whose union is a sum of weighted Hamiltonian cycles.

    A weighted cycle is balanced and has a spanning tree, so the union
    meets the switching assumption while single modes usually do not.
    """
    edges = []
    for _ in range(int(rng.integers(1, 3))):
        order = rng.permutation(n)
        w = float(rng.uniform(0.5, 2.0))
        edges += [[int(order[k]) + 1, int(order[(k + 1) % n]) + 1, w]
                  for k in range(n)]
    modes = int(rng.integers(2, 4))
    owner = np.concatenate([np.arange(modes),
                            rng.integers(0, modes, len(edges) - modes)])
    rng.shuffle(owner)
    graphs = [{"n": n, "edges": [e for e, o in zip(edges, owner) if o == m]}
              for m in range(modes)]
    gen = rng.uniform(0.5, 2.0, (modes, modes))
    np.fill_diagonal(gen, 0.0)
    np.fill_diagonal(gen, -gen.sum(axis=1))
    return {"graphs": graphs, "generator": gen.tolist()}


def _observer(rng, r):
    """Output row e_1 (its observability matrix is the identity) and r
    distinct real poles.

    A random measurement row makes the observability matrix ill conditioned
    at r = 6, and the placement check then rightly rejects the design.
    """
    poles = sorted(-(2.0 + 0.8 * k + rng.uniform(0.0, 0.4)) for k in range(r))
    return {"C": [1.0] + [0.0] * (r - 1), "poles": poles, "init": "zero"}


def make_design(rng, n, r, rank, topology, observer):
    doc = {"agents": _agents(rng, n, r),
           "controller": _controller(rng, r, rank),
           "sim": {"t_end": 10.0, "dt": 0.01, "seed": 0, "init": "random"}}
    if topology == "fixed":
        doc["graph"] = _fixed_graph(rng, n)
    else:
        doc["switching"] = _switching(rng, n)
    if observer:
        doc["observer"] = _observer(rng, r)
    return doc


def sweep(seed, per_cell):
    """`per_cell` designs for every cell, in a seeded shuffled order."""
    rng = np.random.default_rng([seed, 1])
    cells = itertools.product(AGENT_COUNTS, TARGET_ORDERS, RANKS, TOPOLOGIES,
                              (False, True))
    docs = [make_design(rng, *cell) for cell in cells for _ in range(per_cell)]
    return [docs[k] for k in rng.permutation(len(docs))]


def probe_designs(seed):
    """One design per rank x topology x r class, cycling N and the observer."""
    rng = np.random.default_rng([seed, 2])
    classes = itertools.product(TARGET_ORDERS, RANKS, TOPOLOGIES)
    return [make_design(rng, AGENT_COUNTS[k % 3], r, rank, topo, k % 2 == 1)
            for k, (r, rank, topo) in enumerate(classes)]


def variant(path, t_end=None, dt=None, observer=None):
    """A shipped scenario with its relative output paths removed.

    Optionally shortens the horizon, changes the step, or adds an observer
    section.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.pop("output", None)
    if t_end is not None:
        doc["sim"]["t_end"] = t_end
    if dt is not None:
        doc["sim"]["dt"] = dt
    if observer is not None:
        doc["observer"] = observer
    return doc

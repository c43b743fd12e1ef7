"""Independent answers and output checks for the benchmark's operations.

Nothing here imports timelyck.  Scenario documents are read as plain JSON
dictionaries, and the program's outputs are checked as the plain documents
the CLI would print.

* Difference constraints.  With the never-run present, a protocol responds as
  a function of each agent's observation time.  So a solution picks one
  response time x[a, s] in [s, H] per agent a and observation time s.  Every
  triggered run adds x[j, s_j] <= x[i, s_i] + delta(i, j) for each bounded
  pair.  The benchmark solves these constraints with Floyd-Warshall.  The
  scenario is solvable exactly when they are feasible, and the earliest
  protocol is their least solution.
* Definition-direct descent.  This is timely common knowledge computed
  straight from its definition on explicit point sets.  It shares no code
  with `timelyck.events` or `timelyck.fixpoint`.

Each `check_*` function returns a list of problems; an empty list means the
output is correct.
"""

from __future__ import annotations

from itertools import product

import numpy as np

NEVER_RUN = "never"
INF_JSON = "inf"


# -- scenario documents ----------------------------------------------------------


def scenario_runs(doc: dict) -> list:
    """(run name, trigger time, {agent: observation time}) for every triggered run.

    The names follow the program's run naming: ``t<trigger>`` followed by
    ``_<agent><delay>`` per agent, in agent order.
    """
    agents = doc["agents"]
    windows = [range(doc["obs_delay"][a][0], doc["obs_delay"][a][1] + 1) for a in agents]
    runs = []
    for tau in sorted(set(doc["trigger_times"])):
        for delays in product(*windows):
            name = f"t{tau}" + "".join(f"_{a}{d}" for a, d in zip(agents, delays))
            runs.append((name, tau, {a: tau + d for a, d in zip(agents, delays)}))
    return runs


def scenario_horizon(doc: dict) -> int:
    """The explicit horizon, or the auto-sized one: the latest observation plus
    the largest positive finite bound plus one."""
    if doc.get("horizon") is not None:
        return int(doc["horizon"])
    latest = max(doc["trigger_times"], default=0) + max(hi for _, hi in doc["obs_delay"].values())
    positive = [v for v in doc["delta"].values() if v != INF_JSON and v > 0]
    return latest + max(positive, default=0) + 1


# -- difference constraints ------------------------------------------------------


class DifferenceConstraints:
    """The response-time constraints of one scenario, closed by Floyd-Warshall.

    ``least`` and ``greatest`` map (agent, observation time) to the least and
    greatest solution; both are None when the constraints are infeasible.
    """

    def __init__(self, doc: dict):
        self.doc = doc
        self.runs = scenario_runs(doc)
        self.horizon = scenario_horizon(doc)
        agents = doc["agents"]
        self.variables = sorted({(a, obs[a]) for _, _, obs in self.runs for a in agents},
                                key=lambda v: (agents.index(v[0]), v[1]))
        index = {v: k + 1 for k, v in enumerate(self.variables)}  # node 0 is time zero
        n = len(self.variables) + 1
        dist = np.full((n, n), np.inf)
        np.fill_diagonal(dist, 0)
        for (a, s), k in index.items():
            dist[0, k] = self.horizon  # x - 0 <= H
            dist[k, 0] = -s  # 0 - x <= -s
        for _, _, obs in self.runs:
            for i in agents:
                for j in agents:
                    d = doc["delta"][f"{i}->{j}"] if i != j else INF_JSON
                    if d != INF_JSON:
                        p, q = index[(i, obs[i])], index[(j, obs[j])]
                        dist[p, q] = min(dist[p, q], d)  # x_q - x_p <= d
        for k in range(n):
            dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
        self.feasible = bool(np.all(np.diag(dist) >= 0))
        if self.feasible:
            self.least = {v: int(-dist[k, 0]) for v, k in index.items()}
            self.greatest = {v: int(dist[0, k]) for v, k in index.items()}
        else:
            self.least = self.greatest = None

    def earliest_responses(self) -> dict:
        """Run name -> agent -> response time of the least solution, never-run included."""
        agents = self.doc["agents"]
        out = {name: {a: self.least[(a, obs[a])] for a in agents} for name, _, obs in self.runs}
        if self.doc.get("include_never_run", True):
            out[NEVER_RUN] = {a: None for a in agents}
        return out

    def result_document(self) -> dict:
        """The least solution in the result format `timelyck solve` writes."""
        return {"runs": {run: {"responses": per} for run, per in self.earliest_responses().items()}}


# -- definition-direct timely common knowledge -----------------------------------


def direct_timely_ck(agents, states: dict, psi, delta: dict) -> dict:
    """Greatest fixed point of x_i = K_i(psi and AND_j within(x_j, delta(i, j))).

    ``states[a]`` is a runs-by-times grid of agent a's local-state ids, ``psi``
    a set of (run, time) points and ``delta[(i, j)]`` an int or None for an
    unbounded pair.  Iterates from the full tuple by the definitions: a point
    is in within(e, d) when e holds in its run at some time <= t + d, and in
    K_i(e) when every point with the same state of agent i is in e.
    """
    n_runs, n_times = len(states[agents[0]]), len(states[agents[0]][0])
    points = [(r, t) for r in range(n_runs) for t in range(n_times)]
    classes = {}
    for a in agents:
        members: dict = {}
        for r, t in points:
            members.setdefault(states[a][r][t], []).append((r, t))
        classes[a] = {p: members[states[a][p[0]][p[1]]] for p in points}

    def within(event, d, r, t):
        return any((r, t2) in event for t2 in range(n_times) if d is None or t2 <= t + d)

    x = {a: set(points) for a in agents}
    while True:
        nxt = {}
        for i in agents:
            body = {
                (r, t)
                for r, t in points
                if (r, t) in psi
                and all(within(x[j], delta[(i, j)], r, t) for j in agents if j != i)
            }
            nxt[i] = {p for p in points if all(q in body for q in classes[i][p])}
        if nxt == x:
            return x
        x = nxt


# -- output checks -----------------------------------------------------------------


def _failed_checks(checks: dict) -> list:
    return [f"solution check {name} failed" for name, ok in checks.items() if not ok]


def check_solve(cons: DifferenceConstraints, out: dict) -> list:
    """`solve` output against the difference constraints."""
    problems = []
    solvable = out["verdict"]["solvable"]
    if solvable != cons.feasible:
        return [f"solvable={solvable} but the difference constraints are "
                f"{'feasible' if cons.feasible else 'infeasible'}"]
    expected = {name for name, _, _ in cons.runs} | {NEVER_RUN}
    if set(out["runs"]) != expected:
        problems.append(f"{len(out['runs'])} runs reported, {len(expected)} expected")
    if not solvable:
        return problems
    problems += _failed_checks(out["verdict"]["solution_checks"]["checks"])
    for run, per in cons.earliest_responses().items():
        got = out["runs"].get(run, {}).get("responses")
        if got != per:
            problems.append(f"run {run}: responses {got}, least solution {per}")
            break
    return problems


def check_verify(cons: DifferenceConstraints, routes, out: dict) -> list:
    """`verify --optimal` output against the least and greatest solutions and
    the routes the input is meant to run."""
    problems = _failed_checks(out["solution_checks"]["checks"])
    opt = out.get("optimality")
    if opt is None:
        return problems + ["no optimality report"]
    for flag in ("solvable_space", "optimal", "necessity"):
        if not opt[flag]:
            problems.append(f"optimality flag {flag} is false")
    missing = set(routes) - set(opt["methods"])
    if missing:
        problems.append(f"routes {sorted(missing)} did not run")
    for key, expected in (("earliest_response_per_class", cons.least),
                          ("latest_response_per_class", cons.greatest)):
        want = {f"{a}@{s}": t for (a, s), t in expected.items()}
        if opt[key] != want:
            problems.append(f"{key} differs from the difference constraints")
    if "exhaustive_enumeration" in routes and not opt["enumerated_solutions"]:
        problems.append("exhaustive enumeration counted no solutions")
    return problems


def check_oracle(cons: DifferenceConstraints, cases: int, out: dict) -> list:
    """`oracle` output: no mismatch, no failure, and an optimality sweep exactly
    when the scenario is solvable."""
    problems = []
    sweep, corr = out["fixed_point_sweep"], out["ensemble_correspondence"]
    if sweep != {"cases": cases, "mismatches": 0}:
        problems.append(f"fixed-point sweep {sweep}")
    if corr != {"cases": max(1, cases // 10), "failures": 0}:
        problems.append(f"ensemble correspondence {corr}")
    opt = out["optimality_sweep"]
    if cons.feasible == ("skipped" in opt):
        problems.append(f"optimality sweep {'skipped' if 'skipped' in opt else 'ran'} but "
                        f"the constraints are {'feasible' if cons.feasible else 'infeasible'}")
    elif cons.feasible and not (opt["solvable_space"] and opt["optimal"] and opt["necessity"]):
        problems.append("optimality sweep failed")
    return problems


def check_descent(agents, states: dict, psi, delta: dict, engine: dict) -> list:
    """The engine's timely common knowledge (agent -> set of points) against the
    definition-direct descent."""
    direct = direct_timely_ck(agents, states, psi, delta)
    return [f"coordinate {a} differs from the direct descent"
            for a in agents if engine[a] != direct[a]]

"""The two hot enumerations, as vectorized numpy sweeps.

The tuple-lattice sweep behind the fixed-point oracle and the solution-space
sweep behind the optimality oracle.  The solution sweep lists partial
assignments only up to the last variable that a constraint reads from a later
one, and counts the free variables after it by interval products, so its
memory follows the prefixes rather than the solutions.  The test suite checks
the tuple sweep against a tuple-by-tuple brute-force join and the solution
sweep against the depth-first reference in `tests/naive_reference.py`.
"""

from __future__ import annotations

import numpy as np

# -- tuple-lattice sweep -------------------------------------------------------
#
# A coordinate is a P-bit mask, so the tuples of k coordinates form a grid
# with one axis of 2^P masks per coordinate.  A tuple is below its own image
# iff every coordinate mask is a sub-mask of the mapped coordinate; the sweep
# tests every cell of the grid and ORs the passing tuples together (their
# join), one coordinate at a time from the cells that pass along its axis.

# Grid cells per block: the sweep takes the first coordinate's masks a block
# of rows at a time, at least one row of 2^(P * (k - 1)) cells.
_BLOCK = 1 << 16


def scan_postfixed_join(P, k, psi, within_tables, pair_index, knows_tables):
    """Join of every k-tuple x of P-bit masks with, for each i,
    x_i <= knows_i(psi & AND_{j != i} within_ij(x_j)).

    `within_tables[pair_index[i, j]]` and `knows_tables[i]` map every mask to
    its image; returns the k joined masks as an int64 array.
    """
    n = 1 << P
    dtype = np.uint8 if P <= 8 else np.uint16 if P <= 16 else np.uint32
    within_tables = np.asarray(within_tables).astype(dtype)
    knows_tables = np.asarray(knows_tables).astype(dtype)
    pair_index = np.asarray(pair_index).tolist()
    psi = dtype(psi)
    masks = np.arange(n, dtype=dtype)
    rows = max(1, _BLOCK >> (P * (k - 1)))

    def on_axis(values, j):  # coordinate j's values laid along grid axis j
        return values.reshape((1,) * j + (-1,) + (1,) * (k - 1 - j))

    others = [tuple(a for a in range(k) if a != j) for j in range(k)]
    join = np.zeros(k, dtype=np.int64)
    for start in range(0, n, rows):
        # each axis holds a contiguous run of masks, so the tables are sliced
        # to it: the first axis a block of rows, every other axis all masks
        span = [slice(start, start + rows)] + [slice(None)] * (k - 1)
        ok = None
        for i in range(k):
            body = psi
            for j in range(k):
                if j != i:
                    body = body & on_axis(within_tables[pair_index[i][j], span[j]], j)
            below = (on_axis(masks[span[i]], i) & ~knows_tables[i][body]) == 0
            if ok is None:
                ok = below
            else:
                ok &= below
        for j in range(k):
            join[j] |= int(np.bitwise_or.reduce(masks[span[j]][ok.any(axis=others[j])]))
    return join


# -- solution-space sweep ---------------------------------------------------------
#
# Variables with integer domains [lo_v, hi_v] and difference constraints
# t[q] <= t[p] + c (with p == q, one holds for every value if c >= 0 and for
# none if c < 0).  `split` is the largest min(p, q) over the constraints with
# p != q, so no constraint joins two variables after it.
#
# The prefix, variables 0..split, is listed: the sweep extends the partial
# assignments one variable at a time, testing every candidate value of the new
# variable against the constraints whose later variable it is.  Each level
# keeps its (parent, pick) pair and carries the prefix's columns, which the
# constraints of later variables read.
#
# The free suffix is counted: given a prefix, each later variable ranges over
# an interval [lower_v, upper_v], so the prefix has the product of the
# interval lengths as its number of solutions.  A suffix variable attains the
# union of its intervals over the prefixes with a solution.  The values each
# prefix variable takes in some solution are read at the end, walking the
# parents back from those prefixes.
#
# A strategy model orders its variables by agent and bounds only pairs of
# distinct agents, so its free suffix is the last agent's variables.

_INT64_MAX = int(np.iinfo(np.int64).max)


def _overflowed(V, n_vals):  # the result of a sweep the guard stopped
    return 0, np.full(V, 2**62, dtype=np.int64), np.zeros((V, n_vals), bool), True


def scan_solutions(lo, hi, constraints, n_vals, guard):
    """Count every solution; returns (count, mins, attained, overflowed).

    Overflows, returning no solutions, when the consistent assignments of the
    variables before some variable, times that variable's domain size, exceed
    `guard`.  Counts are int64, so a guard above the int64 range acts as its
    maximum.
    """
    V = len(lo)
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    guard = min(guard, _INT64_MAX)
    # per later variable: (earlier variable, c, later-is-upper-bounded)
    by_latest = [[] for _ in range(V)]
    contradicted = set()  # variables with t[v] <= t[v] + c for some c < 0
    split = -1
    for p, q, c in constraints:
        if p != q:
            by_latest[max(p, q)].append((min(p, q), int(c), q > p))
            split = max(split, min(p, q))
        elif c < 0:
            contradicted.add(p)

    cols: list = []  # cols[v][r] is variable v's value in prefix r

    def bounds(v, n_rows):  # t[v]'s interval per prefix, from the prefix's columns
        lower, upper = lo[v : v + 1].repeat(n_rows), hi[v : v + 1].repeat(n_rows)
        for o, c, caps_from_above in by_latest[v]:
            if caps_from_above:  # t[v] <= t[o] + c
                np.minimum(upper, cols[o] + c, out=upper)
            else:  # t[o] <= t[v] + c
                np.maximum(lower, cols[o] - c, out=lower)
        if v in contradicted:
            upper[:] = lo[v] - 1
        return lower, upper

    levels = []  # per prefix variable: (its candidate values, parent, pick)
    n_rows = 1
    for v in range(split + 1):
        vals = np.arange(lo[v], hi[v] + 1, dtype=np.int64)
        if n_rows * vals.shape[0] > guard:
            return _overflowed(V, n_vals)
        lower, upper = bounds(v, n_rows)
        parent, pick = np.nonzero((vals >= lower[:, None]) & (vals <= upper[:, None]))
        cols = [col[parent] for col in cols]
        cols.append(vals[pick])
        levels.append((vals, parent, pick))
        n_rows = parent.shape[0]

    # the free suffix: per prefix, each variable's interval, and the number
    # of assignments of the suffix so far, the product of the interval lengths
    per_prefix = np.ones(n_rows, dtype=np.int64)
    count, intervals = n_rows, []
    for v in range(split + 1, V):
        if count * max(int(hi[v] - lo[v]) + 1, 0) > guard:
            return _overflowed(V, n_vals)
        lower, upper = bounds(v, n_rows)
        per_prefix *= np.maximum(upper - lower + 1, 0)
        count = int(per_prefix.sum())
        intervals.append((v, lower, upper))
    cols.clear()  # every constraint has been read: free the columns

    mins = np.full(V, 2**62, dtype=np.int64)
    attained = np.zeros((V, n_vals), dtype=bool)
    if count:
        alive = per_prefix > 0
        for v, lower, upper in intervals:
            # the union of the intervals of the prefixes with a solution
            edges = np.bincount(lower[alive], minlength=n_vals + 1)
            edges -= np.bincount(upper[alive] + 1, minlength=n_vals + 1)
            attained[v] = edges[:n_vals].cumsum() > 0
            mins[v] = attained[v].argmax()
        # walk back from the prefixes with a solution: the prefixes at each
        # level that one of them extends, and the values they give its variable
        for v in range(split, -1, -1):
            vals, parent, pick = levels[v]
            attained[v] = np.bincount(vals[pick[alive]], minlength=n_vals) > 0
            mins[v] = attained[v].argmax()
            if v:
                extended = np.zeros(levels[v - 1][1].shape[0], dtype=bool)
                extended[parent[alive]] = True
                alive = extended
    return count, mins, attained, False

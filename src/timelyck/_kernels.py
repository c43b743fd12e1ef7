"""The two hot enumerations, as vectorized numpy sweeps.

The tuple-lattice sweep behind the fixed-point oracle and the solution-space
sweep behind the optimality oracle.  The test suite checks the tuple sweep
against a tuple-by-tuple brute-force join and the solution sweep against the
depth-first reference `naive.n_scan_solutions`.
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
# none if c < 0).  Extends the partial assignments one variable at a time,
# evaluating every candidate value of the new variable against the
# constraints whose later variable it is, and accumulates: solution count,
# per-variable minima, and the exact set of attained values per variable.
# The columns of the prefixes are carried from level to level except at the
# last level, which no later constraint reads; each level keeps its (parent,
# pick) pair, and the values each variable takes in some solution are read
# once at the end, walking the parents back from the full solutions.


def scan_solutions(lo, hi, constraints, n_vals, guard):
    """Enumerate all solutions; returns (count, mins, attained, overflowed).

    Overflows, returning no solutions, when the candidate partial assignments
    at some variable (the surviving prefixes times that variable's domain size)
    exceed `guard`.
    """
    V = len(lo)
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    # per later variable: (earlier variable, c, later-is-upper-bounded)
    by_latest = [[] for _ in range(V)]
    contradicted = set()  # variables with t[v] <= t[v] + c for some c < 0
    for p, q, c in constraints:
        if p != q:
            by_latest[max(p, q)].append((min(p, q), int(c), q > p))
        elif c < 0:
            contradicted.add(p)

    cols: list = []  # cols[v][r] is variable v's value in surviving prefix r
    levels = []  # per variable: (its candidate values, parent, pick)
    n_rows = 1
    for v in range(V):
        vals = np.arange(lo[v], hi[v] + 1, dtype=np.int64)
        if n_rows * vals.shape[0] > guard:
            return 0, np.full(V, 2**62, dtype=np.int64), np.zeros((V, n_vals), bool), True
        # each constraint bounds the new variable by the prefix's value of the other
        lower = np.full(n_rows, lo[v], dtype=np.int64)
        upper = np.full(n_rows, hi[v], dtype=np.int64)
        for o, c, caps_from_above in by_latest[v]:
            if caps_from_above:  # t[v] <= t[o] + c
                np.minimum(upper, cols[o] + c, out=upper)
            else:  # t[o] <= t[v] + c
                np.maximum(lower, cols[o] - c, out=lower)
        if v in contradicted:
            upper[:] = lo[v] - 1
        keep = (vals >= lower[:, None]) & (vals <= upper[:, None])
        parent, pick = np.nonzero(keep)
        if v + 1 < V:
            cols = [col[parent] for col in cols]
            cols.append(vals[pick])
        levels.append((vals, parent, pick))
        n_rows = parent.shape[0]

    mins = np.full(V, 2**62, dtype=np.int64)
    attained = np.zeros((V, n_vals), dtype=bool)
    if n_rows:
        # walk back from the full solutions: the prefixes at each level that
        # some solution extends, and the values they give that level's variable
        alive = np.ones(n_rows, dtype=bool)
        for v in range(V - 1, -1, -1):
            vals, parent, pick = levels[v]
            seen = vals[pick[alive]]
            mins[v] = seen.min()
            attained[v] = np.bincount(seen, minlength=n_vals) > 0
            if v:
                extended = np.zeros(levels[v - 1][1].shape[0], dtype=bool)
                extended[parent[alive]] = True
                alive = extended
    return n_rows, mins, attained, False

"""The two hot enumerations, as vectorized numpy sweeps.

The tuple-lattice sweep behind the fixed-point oracle and the solution-space
sweep behind the optimality oracle.  The test suite checks the solution sweep
against the depth-first reference `naive.n_scan_solutions`.
"""

from __future__ import annotations

import numpy as np

# -- tuple-lattice sweep -------------------------------------------------------
#
# Coordinates are P-bit masks packed side by side into one integer; a tuple is
# below its own image iff every coordinate mask is a sub-mask of the mapped
# coordinate.  The sweep ORs all such tuples together (their join).


# Tuples per vectorized block.  Blocks of 2^13 keep every int64 temporary at
# 64 KiB, under glibc's default mmap threshold, so each block reuses freed
# heap memory instead of mapping and faulting in fresh pages.
_CHUNK = 1 << 13


def scan_postfixed_join(P, k, psi, within_tables, pair_index, knows_tables):
    within_tables = np.ascontiguousarray(within_tables, dtype=np.int64)
    knows_tables = np.ascontiguousarray(knows_tables, dtype=np.int64)
    pair_index = np.ascontiguousarray(pair_index, dtype=np.int64)
    psi = int(psi)
    total = 1 << (P * k)
    coord_mask = (1 << P) - 1
    join = np.zeros(k, dtype=np.int64)
    for start in range(0, total, _CHUNK):
        u = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        coords = [(u >> (P * j)) & coord_mask for j in range(k)]
        ok = np.ones(u.shape[0], dtype=bool)
        for i in range(k):
            body = np.full(u.shape[0], psi, dtype=np.int64)
            for j in range(k):
                if j != i:
                    body &= within_tables[pair_index[i, j]][coords[j]]
            f_i = knows_tables[i][body]
            ok &= (coords[i] & ~f_i) == 0
        for i in range(k):
            sel = coords[i][ok]
            if sel.size:
                join[i] |= np.bitwise_or.reduce(sel)
    return join


# -- solution-space sweep ---------------------------------------------------------
#
# Variables with integer domains [lo_v, hi_v] and difference constraints
# t[q] <= t[p] + c (with p == q, one holds for every value if c >= 0 and for
# none if c < 0).  Extends the partial assignments one variable at a time,
# evaluating every candidate value of the new variable against the
# constraints whose later variable it is, and accumulates: solution count,
# per-variable minima, and the exact set of attained values per variable.


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
        cols = [col[parent] for col in cols]
        cols.append(vals[pick])
        n_rows = parent.shape[0]

    mins = np.full(V, 2**62, dtype=np.int64)
    attained = np.zeros((V, n_vals), dtype=bool)
    if n_rows:
        for v, col in enumerate(cols):
            mins[v] = col.min()
            attained[v] = np.bincount(col, minlength=n_vals) > 0
    return n_rows, mins, attained, False

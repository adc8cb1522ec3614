"""Independent brute-force oracles used to check the package.

Everything here is computed from first principles and stays independent of
the code paths under test: slopes are enumerated by scanning and reducing
all (p, q) pairs, adjacency is the raw cross determinant, and distances
come from level-by-level BFS over numpy masks.
"""

import math
from collections import deque
from fractions import Fraction

import numpy as np


def all_slopes(height):
    """All canonical (p, q) with max(|p|, q) <= height, as plain tuples."""
    out = {(1, 0)}
    for q in range(1, height + 1):
        for p in range(-height, height + 1):
            if math.gcd(abs(p), q) == 1:
                out.add((p, q))
    return sorted(out)


def raw_stern_brocot_key(pq):
    """The mediant-tree order by its definition: infinity first, then depth
    (the sum of the continued-fraction quotients of |p|/q), then numeric
    value as an exact fraction."""
    p, q = pq
    if q == 0:
        return (-1, Fraction(0))
    a, b, depth = abs(p), q, 0
    while b:
        depth += a // b
        a, b = b, a % b
    return (depth, Fraction(p, q))


def neighbors_bf(pq, height):
    """Farey neighbors by exhaustive scan."""
    p, q = pq
    return sorted(b for b in all_slopes(height) if abs(p * b[1] - q * b[0]) == 1)


def farey_distance_bf(src, dst, height_cap, max_d=50):
    """BFS distance over the scanned adjacency matrix; None beyond max_d."""
    verts = all_slopes(height_cap)
    index = {v: i for i, v in enumerate(verts)}
    P = np.array([v[0] for v in verts], dtype=np.int64)
    Q = np.array([v[1] for v in verts], dtype=np.int64)
    dist = np.full(len(verts), -1, dtype=np.int64)
    s, t = index[src], index[dst]
    dist[s] = 0
    frontier = [s]
    d = 0
    while frontier and d < max_d:
        d += 1
        mask = np.zeros(len(verts), dtype=bool)
        for i in frontier:
            mask |= np.abs(P[i] * Q - Q[i] * P) == 1
        mask &= dist < 0
        dist[mask] = d
        if dist[t] >= 0:
            return int(dist[t])
        frontier = np.nonzero(mask)[0].tolist()
    return int(dist[t]) if dist[t] >= 0 else None


def twisted_ball_bf(height_cap, radius, center=((0, 1), 0)):
    """Ball in the twist-decorated model by definitional adjacency.

    Vertices are (slope tuple, twist); edges join distinct vertices with
    cross determinant <= 1 and twist gap <= 1.
    """
    slopes = all_slopes(height_cap)

    def nbrs(v):
        (p, q), k = v
        out = []
        for b in slopes:
            if abs(p * b[1] - q * b[0]) <= 1:
                for dk in (-1, 0, 1):
                    w = (b, k + dk)
                    if w != v:
                        out.append(w)
        return out

    dist = {center: 0}
    queue = deque([center])
    while queue:
        v = queue.popleft()
        if dist[v] == radius:
            continue
        for w in nbrs(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


# Values frozen from runs of the oracles above (see also test assertions
# that recompute the smaller ones inline).
FIB_DISTANCE_H110 = 5  # farey_distance_bf((0,1), (34,55), 110)
TWISTED_BALL_R2_H3_SIZE = 80  # len(twisted_ball_bf(3, 2))
TWISTED_BALL_R2_H3_BY_DISTANCE = {0: 1, 1: 23, 2: 56}

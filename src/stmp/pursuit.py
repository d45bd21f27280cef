"""Greedy sparse coding with pluggable atom selection.

Two selectors answer "which atom best matches this residual": a scan of the
whole dictionary, and a descent through a shallow cluster tree that scores
child centroids level by level, keeps the ceil(alpha*k) most promising
children of each node, and scores the atoms of the surviving bottom nodes
(every atom at alpha = 1).  Matching pursuit peels one atom per iteration
off a (P, n) batch of residuals with either selector, each row stopping on
its own; single queries are batches of one.

Canonical scores decide every choice: a centroid or atom a scores
``a.dot(r)``, one ddot (``row_dots``), whatever the batch or block shape;
an atom's a is its float32 row, which that product upcasts exactly.  A
level keeps the children of largest |score|, ties to the lower child; the
pick is the atom of largest |score|, ties to the lowest index, and its
score is the coefficient.  So outputs depend on neither the batch nor the
kernel that found the candidates, and exact duplicates always tie.

Float32 GEMMs of the unit-scaled residuals only filter.  Two ways of summing
an n-term dot product differ by at most gamma_n * |a| * |r| (Higham,
Accuracy and Stability of Numerical Algorithms, 3.1), so whatever the
canonical choice keeps has a fast |score| within ``_band_for`` of the cut (a
row's best, or a parent's keep-th best); only entries in the band are scored
canonically, and a parent with no more of them than it keeps keeps them
unscored.  A row the filter cannot bound has every entry in its band.

Both batch selectors end in one leaf kernel of two halves.  ``_sift`` takes
each row's best from its fast |scores| over its slots (dead ones at -1), and
keeps the hits of only the rows whose runner-up reaches the band; ``_settle``
scores the picks and those hits canonically.  Exhaustive search is that step
over one node that holds all m atoms, as an IVF scan with one list is
(Johnson, Douze & Jegou, arXiv:1702.08734), and like an IVF scan it blocks
its own queries: ``ExactSelector`` sifts a batch of any size ``_SCAN_BLOCK``
rows at a time, each block one (rows x m) product against
``Dictionary.columns``, and settles the whole batch once.  The tree
descends a batch in blocks of rows whose leaf slots number at most a scan
block's ``_SCAN_BLOCK`` x m, and sifts the atoms of each row's surviving
leaves as one block.  Three forms stay outside the kernel, each measured
faster where it runs: the GEMM on the transposed ``columns`` (twice as fast
as a zero-level tree's node-major product, which also copies its block
back), ``exact_select``'s one-row filter (half the cost of a row through
the kernel) and ``_walk``'s one-row best.

Both tree searches read a node's children from its row of the depth's
``ClusterTree.child_blocks``: the (width, n) centroids below it, or at the
leaf its atom ids, zero-padded to the depth's largest child count where
nodes differ.  ``TreeSelector`` descends a batch node-major, as an IVF
index does: it keeps the float32 image of every block, groups a level's
(row, node) pairs by node, and scores each visited node's block against
all the rows that kept it in one ``np.dot`` into a contiguous block.  Above
the leaf, the filter's per-group steps run across groups, since numpy
reduces a block of short rows one row at a time: the keep-1 cut reduces
the transposed block, whose rows are whole columns, and one
``flatnonzero`` gives every group's candidates in order, their counts (a
``bincount``) and the places of an uncrowded parent's candidates, with
dead slots after them.  A lone query walks the tree instead and scores its
few dozen children per level canonically: checking a filter's band would
take more numpy calls than a cheaper product saves.  A level of its walk
is one gather of the frontier's blocks, one ``row_dots`` and index
arithmetic, whatever the number of frontier nodes.
"""

from dataclasses import dataclass, field
import functools
import math

import numpy as np

from .clustering import ClusterTree, check_fingerprint
from .dictionary import Dictionary, ScoreCounter, row_dots

# Nudge before the ceiling so products like 0.1 * 100, which land just above
# an integer in binary, do not inflate the retained-branch count.
_CEIL_NUDGE = 1e-9

# larger than any atom index; loses every lowest-index tie-break
_NO_ATOM = np.iinfo(np.int64).max
# 0, 1, 2, ...: sliced instead of calling np.arange on the per-query path;
# read-only, since the slices are views
_STEPS = np.arange(1 << 12)
_STEPS.flags.writeable = False
# unit roundoff of float32 and float64
_U32 = 2.0**-24
_U64 = 2.0**-53
# below this r.r, r / |r| loses bits to underflow; such rows skip the filter
_RR_MIN = 2.0**-1000
# rows per float32 block of the exhaustive scan, so a batch of any size holds
# one (64 x m) block.  Of 32-256 rows, 64 ran fastest at m = 4000 (n = 16,
# 64); 256 ran 10 % faster at m = 1e5, n = 64, but 1.4x slower at m = 4000, n = 16
_SCAN_BLOCK = 64


def _steps(count: int) -> np.ndarray:
    return _STEPS[:count] if count <= _STEPS.size else np.arange(count)


def check_alpha(alpha) -> float:
    """The retention fraction as a float; ValueError unless it lies in (0, 1]."""
    try:
        if isinstance(alpha, bool):  # float() would read a JSON true as 1.0
            raise TypeError
        alpha = float(alpha)
    except (TypeError, ValueError):
        raise ValueError(f"expected a number, got {alpha!r}") from None
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    return alpha


def retained_count(alpha: float, k: int) -> int:
    """How many of k children survive a level: ceil(alpha * k), at least 1."""
    return max(1, math.ceil(check_alpha(alpha) * k - _CEIL_NUDGE))


@functools.lru_cache(maxsize=64)
def _keeps(alpha: float, branching: tuple) -> tuple:
    """The retained count of every level, looked up once per shape and alpha."""
    return tuple(retained_count(alpha, k) for k in branching)


def predicted_ip_count(branching, alpha: float) -> int:
    """Centroid comparisons one tree descent performs on an exactly divisible tree.

    Level i scores all k_i children of every retained branch, so costs
    (prod of earlier retained counts) * k_i; summing over levels gives the
    total.  This is the ceiling-exact form of the real-valued summation
    sum_i alpha^(i-1) * k_1 * ... * k_i.
    """
    total = 0
    branches = 1
    for k in branching:
        k = int(k)
        total += branches * k
        branches *= retained_count(alpha, k)
    return total


@dataclass
class SearchParams:
    """Knobs shared by every coding run: sparsity and stopping.  The tree's
    retention fraction belongs to its selector (``TreeSelector``)."""

    K: int
    residual_tolerance: float | None = None

    def __post_init__(self):
        if self.K < 1:
            raise ValueError(f"sparsity K must be at least 1, got {self.K}")
        if self.residual_tolerance is not None and not self.residual_tolerance >= 0:
            raise ValueError(f"residual tolerance must be non-negative, got {self.residual_tolerance}")


@dataclass(eq=False)
class SparseCode:
    """Selected atoms with coefficients, in selection order.

    An atom may be selected more than once; ``combined`` folds the history
    into one coefficient per atom.  ``ip_count`` is the number of inner
    products spent producing this code.
    """

    m: int
    entries: list[tuple[int, float]] = field(default_factory=list)
    ip_count: int = 0

    def combined(self) -> list[tuple[int, float]]:
        totals: dict[int, float] = {}
        for index, coefficient in self.entries:
            totals[index] = totals.get(index, 0.0) + coefficient
        return list(totals.items())

    def to_text(self) -> str:
        return "".join(f"{index} {coefficient!r}\n" for index, coefficient in self.entries)


def _as_queries(X, n: int, rr=None) -> np.ndarray:
    """Queries as a C-contiguous float64 (P, n) matrix, checked finite once.
    Given ``rr``, the rows' r.r, only rows whose r.r is not finite are
    checked entry by entry."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n:
        raise ValueError(f"queries have shape {X.shape}, expected (P, {n})")
    if rr is None:
        _check_finite(X.ravel())
    elif not np.isfinite(rr).all():
        _check_finite(X[~np.isfinite(rr)].ravel())
    return X


def _as_query(v, n: int):
    """One query vector as a batch of one, and its r.r."""
    v = np.asarray(v, dtype=np.float64).ravel()
    if v.shape != (n,):
        raise ValueError(f"query has dimension {v.size}, expected {n}")
    return v[None], _check_finite(v)


def _check_finite(flat: np.ndarray) -> float:
    """flat . flat; ValueError unless every entry is finite."""
    rr = float(np.vdot(flat, flat))  # unlike ndarray.dot, no overflow warning
    # x.x is finite exactly when every entry is, unless it overflows
    if not math.isfinite(rr) and not np.isfinite(flat).all():
        raise ValueError("query contains NaN or infinity")
    return rr


def _best(scores, ids, valid):
    """Per row, the entry with maximal |score|, ties to the lowest atom id
    (``ids`` None: entry j is atom j), as (atom ids, scores)."""
    magnitudes = np.abs(scores)
    if valid is not None:
        magnitudes[~valid] = -1.0
    position = magnitudes.argmax(axis=1)  # the first maximum
    at = position  # flat positions
    if scores.shape[0] > 1:
        at = position + _steps(scores.shape[0]) * scores.shape[1]
    if ids is None:
        return position, scores.take(at)
    top = magnitudes.take(at)[:, None]
    if np.count_nonzero(magnitudes == top) > top.size:  # a tie somewhere
        at = at - position + np.where(magnitudes == top, ids, _NO_ATOM).argmin(axis=1)
    return ids.take(at), scores.take(at)


@functools.lru_cache(maxsize=64)
def _band_for(n: int, a: float) -> float:
    """How far below the cut a kept entry's fast |score| can lie, for atoms
    of norm at most ``a`` and residuals scaled to unit norm.

    Against the exact a . r / |r|, a fast score errs by at most
    (2 u32 + u64 + gamma_n(u32)) |a| (rounding the table row and the scaled
    query to float32, float32 summation) and a canonical one by
    gamma_n(u64) |a|; the band is twice their sum.  One more u32 covers
    rounding the threshold to float32, 1 % slack the rounding of the norms,
    and an absolute floor the products that underflow float32.
    """
    if n * _U32 >= 0.5:
        return math.inf
    gamma = n * _U32 / (1 - n * _U32) + n * _U64 / (1 - n * _U64)
    return 2.02 * a * (gamma + 3 * _U32 + _U64) + n * (a + 1) * 2.0**-124


def _unit32(R: np.ndarray, rr: np.ndarray | None) -> np.ndarray:
    """R's rows scaled to unit norm in float32, given their r.r (None: taken
    here); a row the filter cannot bound (r.r not finite or too small to
    scale by) is zero, all its band."""
    if rr is None:
        with np.errstate(over="ignore"):  # a finite row's r.r may overflow; it is then unsound
            rr = row_dots(R, R)
    norm = np.sqrt(rr)
    norm[~(rr >= _RR_MIN)] = math.inf  # an unsound row divides to zero
    return (R / norm[:, None]).astype(np.float32)


def _sift(fast: np.ndarray, keys, band, start: int = 0):
    """The leaf kernel's filter, on one block of rows, the first at row
    ``start`` of its batch: each row's pick by fast |score|, and the
    candidates of the rows whose runner-up reaches the band below it.

    ``fast`` holds each row's float32 |scores|, -1 at a dead slot, and is
    overwritten; slot j of row p is atom ``keys[p, j]`` (None: atom j).
    Returns the picks; with no ``keys``, the rows' floors, where 0 marks a
    row ``_settle`` scores against every atom in place (with ``keys``, None:
    such a row's candidates are every live slot); and the crowded rows'
    candidates as (batch row, atom) pairs, in row and slot order.
    """
    P, W = fast.shape
    top = fast.argmax(axis=1)
    at = top + _steps(P) * W
    floor = np.maximum(fast.take(at) - band, 0)  # a floor of 0 takes every live slot, no dead one
    fast.put(at, -1.0)  # a row's runner-up tells whether it has more candidates
    crowded = fast.max(axis=1) >= floor
    if keys is None:
        crowded &= floor > 0
    rows = crowded.nonzero()[0]
    picks, floors = (top, floor) if keys is None else (keys.take(at), None)
    if not rows.size:
        return picks, floors, rows, rows
    hit = fast[rows] >= floor[rows, None]
    hit[_steps(rows.size), top[rows]] = True
    p, slots = hit.nonzero()
    rows = rows.take(p)
    return picks, floors, rows + start, slots if keys is None else keys[rows, slots]


def _settle(picks, floors, rows, ids, R: np.ndarray, atoms: np.ndarray):
    """The leaf kernel's canonical half, once per batch: ``_sift``'s picks
    and their scores, with every atom scored in place for the rows whose
    floor is 0 and the best of its candidate ``ids`` for each crowded row
    in ``rows``."""
    scores = row_dots(atoms.take(picks, axis=0), R)
    if floors is not None and not floors.all():
        full = floors == 0
        picks[full], scores[full] = _best(row_dots(atoms, R[full, None]), None, None)
    if rows.size:
        count = np.bincount(rows)
        crowded = count.nonzero()[0]
        count = count.take(crowded)
        valid = _steps(int(count.max())) < count[:, None]
        padded = np.zeros(valid.shape, dtype=np.int64)  # dead slots read atom 0
        padded[valid] = ids
        scored = row_dots(atoms.take(padded, axis=0), R[crowded, None])
        picks[crowded], scores[crowded] = _best(scored, padded, valid)
    return picks, scores


def _node_major(table, nodes, live, Q: np.ndarray) -> np.ndarray:
    """Fast |scores| of every frontier entry's child slots, (P*F, width)
    float32: each visited node j's children, the (width, n) block
    ``table[j]``, are scored against all the rows of Q that kept it in one
    ``np.dot`` into a contiguous block.  Slots past a node's children and
    dead entries hold garbage."""
    P, F = nodes.shape
    flat = nodes.ravel()
    order = flat.argsort()  # in any order: the band covers every block's rounding
    if live is not None:
        order = order[live.ravel().take(order)]
    grouped = flat.take(order)
    edges = (np.flatnonzero(grouped[1:] != grouped[:-1]) + 1).tolist()
    starts, visited = [0] + edges, grouped.take([0] + edges)
    rows = Q.take(order // F, axis=0)
    part = np.empty((order.size, table.shape[1]), dtype=np.float32)
    for a, b, j in zip(starts, edges + [order.size], visited.tolist()):
        np.dot(rows[a:b], table[j].T, out=part[a:b])
    at = np.zeros(P * F, dtype=np.int64)  # dead entries read row 0
    at[order] = _steps(order.size)
    return np.abs(part, out=part).take(at, axis=0)


def _across_max(block: np.ndarray) -> np.ndarray:
    """``block.max(axis=1)``, taken across the rows of the transposed block:
    numpy reduces a (groups, width) block one short row at a time, several
    times slower than it reduces whole columns."""
    return np.ascontiguousarray(block.T).max(axis=0)


def _candidates(cand: np.ndarray):
    """A (groups, width) mask's entries, by group and in order within one, as
    flat positions and groups, and each group's count: ``cand.nonzero()``
    and ``np.count_nonzero(cand, axis=1)`` without numpy's per-row work."""
    at = np.flatnonzero(cand)
    g = at // cand.shape[1]
    return at, g, np.bincount(g, minlength=cand.shape[0])


def _descend(t: ClusterTree, d: Dictionary, R: np.ndarray, keeps, counter: ScoreCounter | None,
             tables, rr=None):
    """Tree picks for every row of R, all rows descending together.

    Each row keeps a frontier of nodes, and each node's children are its
    row of the depth's ``t.child_blocks``; parents with fewer children than
    the depth's widest leave empty slots, and frontier entries past a
    parent's children are dead, which ``live`` masks.  A node-major GEMM
    against ``TreeSelector``'s ``tables``, the float32 image of the blocks,
    filters each level.  Above the leaf, the filter's per-group steps run
    across groups, not along their short rows; the leaf kernel, ``_sift``
    and ``_settle`` on one block, picks among the leaf slots of each row's
    frontier.
    """
    P = R.shape[0]
    Q = _unit32(R, rr)
    nodes, live = np.zeros((P, 1), dtype=np.int64), None
    for depth, (block, sizes) in enumerate(t.child_blocks):
        width = block.shape[1]
        count = None if sizes is None else sizes.take(nodes)  # children per frontier entry
        if live is not None:
            count = live * (width if count is None else count)
        leaf = depth == t.levels
        if counter is not None:
            scored = nodes.size * width if count is None else count.sum()
            (counter.count_atoms if leaf else counter.count_centroids)(scored)
        table, band = tables[depth]
        fast = _node_major(table, nodes, live, Q)  # one group per frontier entry
        cand = None if count is None else _steps(width) < count.reshape(-1, 1)
        if cand is not None:
            fast[~cand] = -1.0
        if leaf:  # a row's atoms are the slots of its frontier
            keys = block.take(nodes, axis=0).reshape(P, -1)
            return _settle(*_sift(fast.reshape(P, -1), keys, band), R, d.atoms)
        keep = min(keeps[depth], width)
        cut = _across_max(fast) if keep == 1 else -np.partition(-fast, keep - 1, axis=1)[:, keep - 1]
        hit = fast >= (cut - band)[:, None]
        cand = hit if cand is None else hit & cand
        # a parent with no more candidates than it keeps keeps them, unscored
        at, g, counts = _candidates(cand)
        crowded = counts > keep
        # an uncrowded parent's candidates in order; one short of keep has all its children
        # among them, fewer than width, so slot width - 1 fills the rest dead
        free = ~crowded.take(g)
        rank = _steps(at.size) - (np.cumsum(counts) - counts).take(g)
        position = np.full((nodes.size, keep), width - 1)
        position[g[free], rank[free]] = (at - g * width)[free]
        at, g = at[~free], g[~free]
        first = t.offsets[depth].take(nodes).reshape(-1, 1)  # node j's children start here
        keys = first.take(g) + at - g * width
        rows = R.take(g // nodes.shape[1], axis=0)  # a parent's row
        scores = np.zeros(fast.shape)
        scores.put(at, row_dots(t.centroids[depth + 1].take(keys, axis=0), rows))
        # a crowded parent keeps its best by canonical |score|
        position[crowded] = _top(scores[crowded], cand[crowded], keep)
        nodes = (first + position).reshape(P, -1)
        if count is not None:
            live = (position < count.reshape(-1, 1)).reshape(P, -1)
            nodes *= live


def _walk(t: ClusterTree, d: Dictionary, r: np.ndarray, keeps, counter: ScoreCounter | None):
    """One query's descent, with the result ``_descend`` gives a batch of
    one.  Each level gathers the frontier's blocks of ``t.child_blocks`` and
    scores every child canonically in one ``row_dots``; padded slots are
    dead, and neither counted nor kept."""
    nodes = _steps(1)  # the root
    for depth, (block, counts) in enumerate(t.child_blocks):
        children = block.take(nodes, axis=0)
        live = None
        if counts is not None:
            counts = counts.take(nodes)
            live = _steps(block.shape[1]) < counts[:, None]
        leaf = depth == t.levels
        if counter is not None:
            scored = nodes.size * block.shape[1] if live is None else counts.sum()
            (counter.count_atoms if leaf else counter.count_centroids)(scored)
        if leaf:  # the first maximum; on a tie, the lowest atom id among them
            keys = children.ravel()
            scores = row_dots(d.atoms.take(keys, axis=0), r)
            magnitudes = np.abs(scores)
            if live is not None:
                magnitudes[~live.ravel()] = -1.0
            at = magnitudes.argmax()
            tied = magnitudes == magnitudes[at]
            if np.count_nonzero(tied) > 1:
                at = np.where(tied, keys, _NO_ATOM).argmin()
            return keys[at:at + 1], scores[at:at + 1]
        position = _top(row_dots(children, r), live, keeps[depth])
        first = t.offsets[depth].take(nodes)
        nodes = (first[:, None] + position).ravel()
        if live is not None:
            nodes = nodes[(position < counts[:, None]).ravel()]


def _top(scores: np.ndarray, cand, keep: int) -> np.ndarray:
    """Per row, the positions of the ``keep`` entries of largest |score|
    among ``cand`` (None: all), ties to the lower position."""
    magnitudes = np.abs(scores)
    if cand is not None:
        magnitudes[~cand] = -1
    if keep == 1:  # the first maximum, as the stable sort would pick
        return magnitudes.argmax(axis=1, keepdims=True)
    return (-magnitudes).argsort(axis=1, kind="stable")[:, :keep]


def exact_select(d: Dictionary, r, counter: ScoreCounter | None = None) -> tuple[int, float]:
    """Atom with maximal |d_i . r| over the whole dictionary; lowest index on ties."""
    R, rr = _as_query(r, d.n)
    if counter is not None:
        counter.count_atoms(d.m)
    if _RR_MIN <= rr < math.inf:  # _sift's filter, for the usual single candidate
        fast = (R[0] / math.sqrt(rr)).astype(np.float32).dot(d.columns)
        np.abs(fast, out=fast)
        best = int(fast.argmax())
        floor = float(fast[best]) - _band_for(d.n, d.max_norm)
        fast[best] = -1.0
        if floor > 0.0 and fast[fast.argmax()] < floor:
            return best, float(d.atoms[best].dot(R[0]))
    picks, scores = ExactSelector(d).pick(R)
    return int(picks[0]), float(scores[0])


def stmp_select(t: ClusterTree, d: Dictionary, r, alpha: float,
                counter: ScoreCounter | None = None) -> tuple[int, float]:
    """Tree descent returning the best atom over all explored branches.

    At every internal level all children of the current frontier are scored
    canonically against r and the ceil(alpha*k) strongest per node survive
    (ties to the lower child index).  Atoms inside the surviving bottom-level
    nodes are then scored, and the best one wins, ties to the lower atom index.
    """
    keeps = _keeps(alpha, t.branching)
    check_fingerprint(t, d)
    best, scores = _walk(t, d, _as_query(r, d.n)[0][0], keeps, counter)
    return int(best[0]), float(scores[0])


class ExactSelector:
    """Brute-force argmax |d_i . r| over the full dictionary."""

    def __init__(self, dictionary: Dictionary):
        self.dictionary = dictionary

    def pick(self, R: np.ndarray, counter: ScoreCounter | None = None, rr=None):
        """Picks and canonical scores for every row of a (P, n) matrix;
        ValueError unless it is finite.  ``rr``, if given, holds
        ``row_dots(R, R)``.  The rows are filtered ``_SCAN_BLOCK`` at a
        time in one reused (rows x m) float32 block, whatever the batch
        size, and scored canonically once, after the last block."""
        d = self.dictionary
        R = _as_queries(R, d.n, rr)
        P = R.shape[0]
        if counter is not None:
            counter.count_atoms(P * d.m)
        Q = _unit32(R, rr)
        band = np.float32(_band_for(d.n, d.max_norm))
        fast = np.empty((min(P, _SCAN_BLOCK), d.m), dtype=np.float32)
        parts = []
        for start in range(0, max(P, 1), _SCAN_BLOCK):  # an empty batch is one empty block
            q = Q[start:start + _SCAN_BLOCK]
            block = np.matmul(q, d.columns, out=fast[:q.shape[0]])
            parts.append(_sift(np.abs(block, out=block), None, band, start))
        sifted = parts[0] if len(parts) == 1 else [np.concatenate(part) for part in zip(*parts)]
        return _settle(*sifted, R, d.atoms)


class TreeSelector:
    """Tree-accelerated selection at a fixed retention fraction alpha."""

    def __init__(self, tree: ClusterTree, dictionary: Dictionary, alpha: float):
        self.alpha = check_alpha(alpha)
        check_fingerprint(tree, dictionary)
        self.tree = tree
        self.dictionary = dictionary
        self._keeps = _keeps(self.alpha, tree.branching)
        # the filter's float32 image of the tree's child blocks, padded slots and all (at the
        # leaf they read atom 0); the band covers rounding float64 centroids to float32
        blocks = [block for block, _ in tree.child_blocks]
        images = [b.astype(np.float32) for b in blocks[:-1]] + [dictionary.atoms.take(blocks[-1], axis=0)]
        norms = [np.sqrt(row_dots(c, c).max()) for c in tree.centroids[1:]] + [dictionary.max_norm]
        self._tables = [(image, np.float32(_band_for(tree.n, a))) for image, a in zip(images, norms)]
        # a row's leaf slots: its frontier's widest child blocks, as many as the levels keep
        widths = [block.shape[1] for block in blocks]
        slots = math.prod(min(keep, w) for keep, w in zip(self._keeps, widths)) * widths[-1]
        self._block = max(1, _SCAN_BLOCK * dictionary.m // slots)

    def pick(self, R: np.ndarray, counter: ScoreCounter | None = None, rr=None):
        """Picks and canonical scores for every row of a (P, n) matrix;
        ValueError unless it is finite.  ``rr``, if given, holds
        ``row_dots(R, R)``.  A lone row walks the tree as ``stmp_select``
        does, and an empty batch picks nothing.  A batch descends in blocks
        of rows: a row reaches at most the levels' kept counts times the
        leaf width in leaf slots, and a block holds no more of them than an
        exhaustive scan block's ``_SCAN_BLOCK`` x m."""
        R = _as_queries(R, self.dictionary.n, rr)
        P = R.shape[0]
        if not P:
            return np.empty(0, dtype=np.int64), np.empty(0)
        if P == 1:
            return _walk(self.tree, self.dictionary, R[0], self._keeps, counter)
        parts = [_descend(self.tree, self.dictionary, R[a:a + self._block], self._keeps, counter,
                          self._tables, None if rr is None else rr[a:a + self._block])
                 for a in range(0, P, self._block)]
        return parts[0] if len(parts) == 1 else tuple(np.concatenate(part) for part in zip(*parts))


@dataclass(eq=False)
class CodeBatch:
    """Sparse codes of P signals as (P, K) arrays, in selection order.

    Row p selected atoms ``indices[p, :lengths[p]]`` with coefficients
    ``coefficients[p, :lengths[p]]``; slots past a row's length hold zeros.
    ``ip_count`` is the number of inner products spent on the whole batch.
    """

    m: int
    indices: np.ndarray
    coefficients: np.ndarray
    lengths: np.ndarray
    ip_count: int = 0

    def entries(self, p: int) -> list[tuple[int, float]]:
        """Row p as (index, coefficient) pairs."""
        count = int(self.lengths[p])
        return list(zip(self.indices[p, :count].tolist(), self.coefficients[p, :count].tolist()))

    def check_range(self, m: int) -> np.ndarray:
        """The (P, K) mask of the slots that hold a selection; ValueError if
        one of them holds an index outside [0, m)."""
        used = np.arange(self.indices.shape[1]) < self.lengths[:, None]
        outside = used & ((self.indices < 0) | (self.indices >= m))
        if outside.any():
            raise ValueError(f"code index {self.indices[outside][0]} outside [0, {m})")
        return used


# r.r of a finite row overflows to inf for entries near 1e155 and more; such
# a row is still above any finite tolerance
@np.errstate(over="ignore")
def _pursue(selector, X: np.ndarray, params: SearchParams,
            counter: ScoreCounter | None) -> CodeBatch:
    """Matching pursuit on every row of a checked (P, n) matrix at once.

    Each row stops on its own, on the tolerance or on a zero best score, and
    stopped rows are neither scored nor counted again.  A coefficient that
    is not finite (a finite row whose inner product overflows) raises the
    ValueError a non-finite query does, whatever K is.
    """
    d = selector.dictionary
    own = counter if counter is not None else ScoreCounter()
    start = own.inner_products
    P = X.shape[0]
    if params.residual_tolerance is None:
        xx = row_dots(X, X)
        tolerance = 1e-6 * np.sqrt(xx)
        huge = (xx == math.inf).nonzero()[0]
        if huge.size:  # the norm of x scaled by its largest entry does not overflow
            top = np.abs(X[huge]).max(axis=1)
            scaled = X[huge] / top[:, None]
            tolerance[huge] = 1e-6 * top * np.sqrt(row_dots(scaled, scaled))
    else:
        tolerance = np.full(P, float(params.residual_tolerance))
    indices = np.zeros((P, params.K), dtype=np.int64)
    coefficients = np.zeros((P, params.K))
    lengths = np.zeros(P, dtype=np.int64)
    # the residuals of the rows still coding, compact and updated in place
    rows, r = np.arange(P), X.copy()
    step_atoms = np.empty_like(r)
    for step in range(params.K):
        rr = row_dots(r, r)
        going = ~(np.sqrt(rr) <= tolerance)
        if not going.all():
            rows, r, rr, tolerance = rows[going], r[going], rr[going], tolerance[going]
        if not rows.size:
            break
        picks, scores = selector.pick(r, own, rr)
        if not np.isfinite(scores).all():
            raise ValueError("query contains NaN or infinity")
        going = scores != 0.0
        if not going.all():
            rows, r, tolerance = rows[going], r[going], tolerance[going]
            picks, scores = picks[going], scores[going]
        indices[rows, step] = picks
        coefficients[rows, step] = scores
        lengths[rows] = step + 1
        r -= np.multiply(d.atoms.take(picks, axis=0), scores[:, None], out=step_atoms[:rows.size])
    return CodeBatch(d.m, indices, coefficients, lengths, own.inner_products - start)


def matching_pursuit_batch(selector, X, params: SearchParams,
                           counter: ScoreCounter | None = None) -> CodeBatch:
    """Matching pursuit on every row of a (P, n) matrix at once.

    Row p gets the code ``matching_pursuit(selector, X[p], params)`` gives
    it, bit for bit; ``ip_count`` and the counter hold the batch's total.
    The input is checked for NaN and infinity once, here.
    """
    return _pursue(selector, _as_queries(X, selector.dictionary.n), params, counter)


def matching_pursuit(selector, x, params: SearchParams, counter: ScoreCounter | None = None) -> SparseCode:
    """Greedy residual peeling: select, step, subtract, at most K times.

    The step coefficient is the selected atom's inner product with the
    residual, so with unit-norm atoms each iteration removes exactly that
    much squared energy.  Stops early once the residual norm falls to the
    tolerance (default 1e-6 times the input norm) or the best available
    score is exactly zero.
    """
    codes = _pursue(selector, _as_query(x, selector.dictionary.n)[0], params, counter)
    return SparseCode(m=codes.m, entries=codes.entries(0), ip_count=codes.ip_count)


def reconstruct_batch(d: Dictionary, codes: CodeBatch) -> np.ndarray:
    """Weighted sum of each row's coded atoms, as a float64 (P, n) matrix.

    Atoms are added one selection step at a time, in selection order, so
    a row's bits do not depend on the other rows of the batch.
    """
    codes.check_range(d.m)
    P = codes.indices.shape[0]
    out = np.zeros((P, d.n))
    for step in range(codes.indices.shape[1]):
        rows = (codes.lengths > step).nonzero()[0]
        if not rows.size:
            break
        if rows.size == P:  # every row still coding: no gather and scatter of out
            out += codes.coefficients[:, step, None] * d.atoms[codes.indices[:, step]]
            continue
        picks = codes.indices[rows, step]
        out[rows] += codes.coefficients[rows, step][:, None] * d.atoms[picks]
    return out

"""Greedy sparse coding with pluggable atom selection.

Two selectors answer "which atom best matches this residual": a brute-force
scan of the whole dictionary, and a descent through a shallow cluster tree
that scores child centroids level by level, keeps the ceil(alpha*k) most
promising children, and finally scores the atoms inside the surviving
bottom-level nodes.  With alpha = 1 the descent visits every atom.  Matching
pursuit then peels one atom per iteration off the residual regardless of
which selector is used.

Everything runs on a batch of residuals, one per row: matching pursuit
codes a (P, n) matrix at once, each row stopping on its own.  The
single-query functions are batches of one; ``exact_select`` adds a one-row
path that skips the batch bookkeeping.

One canonical score decides every pick: atom i scores
``d.scoring_atoms[i].dot(r)`` against a residual r, one ddot, the bits
``row_dots`` and ``_canonical`` give for any batch and block shape.  The pick
is the atom of maximal |score|, ties to the lowest index, and its score is
the pursuit coefficient.  So picks, coefficients and outputs depend on
neither the batch nor the kernel that found the candidates, and exactly
duplicated atoms always tie.

The scan finds its candidates with one float32 GEMM of the unit-scaled
residuals against the float32 atoms (``d.columns``).  Any two ways of
summing an n-term dot product differ by at most gamma_n * |a| * |r|, with
gamma_n = n*u / (1 - n*u) (Higham, Accuracy and Stability of Numerical
Algorithms, 3.1), so the canonical winner's fast |score| lies within
``_band`` of the row's best; only the atoms inside that band, usually one,
are scored canonically.  A row the
filter cannot bound (r.r not finite or too small to scale by, or a band that
reaches zero) is scored canonically against every atom.  The descent scores
its gathered leaf atoms canonically.  Its internal levels score child
centroids one gemv per row, over exactly the block a lone query would score,
because a gemv row's rounding depends on its block's shape; centroid ranks
then do not depend on the batch either.

A selection is a few dozen numpy calls on tiny arrays, each costing about a
microsecond, so the per-query path avoids reductions (``a.max()``,
``a.all()``), whose Python-level wrappers cost more than ``argmax``,
``take`` or ``count_nonzero``.
"""

from dataclasses import dataclass, field
import functools
import math

import numpy as np

from .clustering import ClusterTree, check_fingerprint
from .dictionary import Dictionary, ScoreCounter

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


def _steps(count: int) -> np.ndarray:
    return _STEPS[:count] if count <= _STEPS.size else np.arange(count)


def check_alpha(alpha) -> float:
    """The retention fraction as a float; ValueError unless it lies in (0, 1]."""
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    return alpha


def retained_count(alpha: float, k: int) -> int:
    """How many of k children survive a level: ceil(alpha * k), at least 1."""
    return max(1, math.ceil(check_alpha(alpha) * k - _CEIL_NUDGE))


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
        if self.residual_tolerance is not None and self.residual_tolerance < 0:
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


def _as_queries(X, n: int) -> np.ndarray:
    """Queries as a C-contiguous float64 (P, n) matrix, checked finite once."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n:
        raise ValueError(f"queries have shape {X.shape}, expected (P, {n})")
    _check_finite(X.ravel())
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


def row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A[p] . B[p] for every row p (B may be one shared vector).

    numpy runs this as one ddot per row, the bits of ``A[p].dot(B[p])``: the
    canonical score when A holds scoring atoms.  A gemv such as ``A @ b``
    would round differently.
    """
    return np.matmul(A[:, None, :], B[..., None])[:, 0, 0]


def _canonical(blocks: np.ndarray, R: np.ndarray) -> np.ndarray:
    """scores[p, j] = blocks[p, j] . R[p], one ddot per entry, as ``row_dots``.

    ``blocks`` is (P, L, n), or an (L, n) table that every row scores.  The
    bits of an entry do not depend on L or P.
    """
    return np.matmul(blocks[..., None, :], R[:, None, :, None])[:, :, 0, 0]


def _score(blocks: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Centroid scores: scores[p] = blocks[p] @ R[p], one gemv per row.

    ``blocks`` is (P, L, n), or an (L, n) table that scores every row.  A
    single row goes through ``ndarray.dot``, the same gemv with half the call
    overhead of ``np.matmul``.
    """
    if R.shape[0] == 1:
        return blocks.reshape(-1, R.shape[1]).dot(R[0])[None]
    return np.matmul(blocks, R[:, :, None])[:, :, 0]


def _score_rows(table, ids, valid, R) -> np.ndarray:
    """scores[p, j] = table[ids[p, j]] . R[p], zero where valid[p, j] is False.

    Row p is scored as one block of its valid ids in order, the block a lone
    query would score, so its bits do not depend on the batch; rows whose
    blocks differ in length go in separate calls.  ``valid`` None means every
    id is valid.  Ids are ascending and distinct, so a block of every table
    row is the table itself and is not copied.
    """
    if valid is None:
        if ids.shape[1] == table.shape[0]:
            return _score(table, R)
        return _score(table.take(ids, axis=0), R)
    scores = np.zeros(ids.shape)
    lengths = valid.sum(axis=1)
    for length in np.unique(lengths).tolist():
        rows = (lengths == length).nonzero()[0]
        mask = valid[rows]
        block_ids = ids[rows][mask].reshape(rows.size, length)
        part = scores[rows]
        part[mask] = _score_rows(table, block_ids, None, R[rows]).ravel()
        scores[rows] = part
    return scores


def _children(bounds: np.ndarray, nodes: np.ndarray, live):
    """The child slots of every frontier node, as (P, F*width) ids and a mask.

    Node j owns slots bounds[j]:bounds[j+1] of the depth below.  ``live``
    marks the frontier entries that hold a node (None: all of them).  Each
    node's slots are padded to the widest node's ``width``; the mask of the
    real ones is None when every node has exactly ``width`` children.
    Returns (first slot per node, child count per node, width, ids, mask).
    """
    first = bounds.take(nodes)
    count = bounds[1:].take(nodes)
    count -= first
    if live is not None:
        count *= live
    counts = count.ravel().tolist()
    width = max(counts)
    ids = (first[..., None] + _steps(width)).reshape(nodes.shape[0], -1)
    if live is None and counts.count(width) == len(counts):
        return first, count, width, ids, None
    valid = (_steps(width) < count[..., None]).reshape(nodes.shape[0], -1)
    return first, count, width, np.where(valid, ids, 0), valid


def _best(scores, ids, valid):
    """Per row, the entry with maximal |score| (ties to the lowest atom id).

    ``ids`` None means entry j is atom j.  Returns (atom ids, scores).
    """
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


def _band(d: Dictionary) -> float:
    """How far the canonical winner's fast |score| can lie below the row's
    best fast |score|, for residuals scaled to unit norm.

    Against the exact a . r / |r|, a fast score errs by at most
    (u32 + u64 + gamma_n(u32)) |a| (rounding the scaled query to float32,
    float32 summation) and a canonical one by gamma_n(u64) |a|; the band is
    twice their sum.  One more u32 covers rounding the threshold to float32,
    1 % slack the rounding of the norms, and an absolute floor the products
    that underflow float32.
    """
    return _band_for(d.n, d.max_norm)


@functools.lru_cache(maxsize=64)
def _band_for(n: int, a: float) -> float:
    if n * _U32 >= 0.5:
        return math.inf
    gamma = n * _U32 / (1 - n * _U32) + n * _U64 / (1 - n * _U64)
    return 2.02 * a * (gamma + 2 * _U32 + _U64) + n * (a + 1) * 2.0**-124


def _decide(d: Dictionary, ids: np.ndarray, valid, R: np.ndarray):
    """Per row, the canonical pick among the candidate atoms ``ids[p]``."""
    return _best(_canonical(d.scoring_atoms.take(ids, axis=0), R), ids, valid)


def _scan(d: Dictionary, R: np.ndarray, counter: ScoreCounter | None):
    """Exhaustive picks for every row of R: a float32 GEMM filter, then
    canonical scores for the atoms within ``_band`` of each row's best."""
    P = R.shape[0]
    if counter is not None:
        counter.count_atoms(P * d.m)
    with np.errstate(over="ignore"):  # a finite row's r.r may overflow; it is then unsound
        rr = row_dots(R, R)
    sound = (rr >= _RR_MIN) & (rr < math.inf)
    Q = np.zeros(R.shape, dtype=np.float32)  # unsound rows score zero: no band
    Q[sound] = R[sound] / np.sqrt(rr[sound])[:, None]
    fast = np.matmul(Q, d.columns)
    np.abs(fast, out=fast)
    top = fast.argmax(axis=1)
    at = top + _steps(P) * d.m
    floor = fast.take(at) - np.float32(_band(d))
    full = ~(floor > 0)  # rows scored canonically against every atom
    fast.put(at, -1.0)  # a row's runner-up tells whether it has more candidates
    crowded = (fast.max(axis=1) >= floor) & ~full
    ids, valid = top[:, None], None
    if crowded.any():
        rows = crowded.nonzero()[0]
        hit = fast[rows] >= floor[rows, None]
        hit[_steps(rows.size), top[rows]] = True
        width = int(np.count_nonzero(hit, axis=1).max())
        first = np.argsort(~hit, axis=1, kind="stable")[:, :width]  # hits, ascending
        ids = np.repeat(ids, width, axis=1)
        ids[rows] = first
        valid = np.zeros(ids.shape, dtype=bool)
        valid[:, 0] = True
        valid[rows] = np.take_along_axis(hit, first, axis=1)
    picks, scores = _decide(d, ids, valid, R)
    if full.any():
        picks[full], scores[full] = _best(_canonical(d.scoring_atoms, R[full]), None, None)
    return picks, scores


def _descend(t: ClusterTree, d: Dictionary, R: np.ndarray, keeps, counter: ScoreCounter | None):
    """Tree picks for every row of R, all rows descending together.

    Each row keeps its own frontier: the nodes of the current depth it has
    not pruned, ascending.  A level scores the children of every row's
    frontier, then keeps each parent's ``keep`` strongest children (a stable
    sort on -|s|, so ties go to the lower child).  A parent with fewer
    children than the widest leaves empty slots, which ``live`` masks.
    """
    P = R.shape[0]
    # the root's children are the whole of depth 1, scored against every row
    first = np.zeros((P, 1), dtype=np.int64)
    count, width, valid, live = None, t.centroids[1].shape[0], None, None
    scores = _score(t.centroids[1], R)
    for depth, keep in enumerate(keeps):
        if depth:
            first, count, width, ids, valid = _children(t.offsets[depth], nodes, live)
            scores = _score_rows(t.centroids[depth + 1], ids, valid, R)
        if counter is not None:
            counter.count_centroids(scores.size if valid is None else np.count_nonzero(valid))
        magnitudes = np.abs(scores).reshape(first.shape + (width,))
        if valid is not None:
            magnitudes[~valid.reshape(magnitudes.shape)] = -1.0
        if keep == 1:  # the first maximum, as the stable sort below would pick
            nodes = first + magnitudes.argmax(axis=2)  # a dead entry stays dead
            continue
        order = (-magnitudes).argsort(axis=2, kind="stable")[:, :, :keep]
        order.sort(axis=2)
        nodes = (first[..., None] + order).reshape(P, -1)
        if valid is not None:
            live = (order < count[..., None]).reshape(P, -1)
            nodes *= live
    first, count, width, slots, valid = _children(t.offsets[t.levels], nodes, live)
    ids = t.atoms.take(slots)
    if counter is not None:
        counter.count_atoms(ids.size if valid is None else np.count_nonzero(valid))
    return _decide(d, ids, valid, R)


def exact_select(d: Dictionary, r, counter: ScoreCounter | None = None) -> tuple[int, float]:
    """Atom with maximal |d_i . r| over the whole dictionary; lowest index on ties."""
    R, rr = _as_query(r, d.n)
    if counter is not None:
        counter.count_atoms(d.m)
    if _RR_MIN <= rr < math.inf:  # _scan's filter, for the usual single candidate
        fast = (R[0] / math.sqrt(rr)).astype(np.float32).dot(d.columns)
        np.abs(fast, out=fast)
        best = int(fast.argmax())
        floor = float(fast[best]) - _band(d)
        fast[best] = -1.0
        if floor > 0.0 and fast[fast.argmax()] < floor:
            return best, float(d.scoring_atoms[best].dot(R[0]))
    picks, scores = _scan(d, R, None)
    return int(picks[0]), float(scores[0])


def stmp_select(
    t: ClusterTree,
    d: Dictionary,
    r,
    alpha: float,
    counter: ScoreCounter | None = None,
) -> tuple[int, float]:
    """Tree descent returning the best atom over all explored branches.

    At every internal level all children of the current frontier are scored
    against r and the ceil(alpha*k) strongest per node survive (ties to the
    lower child index).  Atoms inside the surviving bottom-level nodes are
    then scored in full, and the best one wins, ties to the lower atom index.
    """
    keeps = [retained_count(alpha, k) for k in t.branching]
    check_fingerprint(t, d)
    best, scores = _descend(t, d, _as_query(r, d.n)[0], keeps, counter)
    return int(best[0]), float(scores[0])


class ExactSelector:
    """Brute-force argmax |d_i . r| over the full dictionary."""

    def __init__(self, dictionary: Dictionary):
        self.dictionary = dictionary

    def pick(self, R: np.ndarray, counter: ScoreCounter | None = None):
        """Picks and canonical scores for every row of a finite float64 (P, n) matrix."""
        return _scan(self.dictionary, R, counter)


class TreeSelector:
    """Tree-accelerated selection at a fixed retention fraction alpha."""

    def __init__(self, tree: ClusterTree, dictionary: Dictionary, alpha: float):
        check_alpha(alpha)
        check_fingerprint(tree, dictionary)
        self.tree = tree
        self.dictionary = dictionary
        self.alpha = alpha
        self._keeps = [retained_count(alpha, k) for k in tree.branching]

    def pick(self, R: np.ndarray, counter: ScoreCounter | None = None):
        """Picks and canonical scores for every row of a finite float64 (P, n) matrix."""
        return _descend(self.tree, self.dictionary, R, self._keeps, counter)


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

    @classmethod
    def of(cls, code: SparseCode) -> "CodeBatch":
        """One code as a batch of one."""
        indices = np.array([[index for index, _ in code.entries]], dtype=np.int64)
        coefficients = np.array([[c for _, c in code.entries]], dtype=np.float64)
        lengths = np.array([len(code.entries)], dtype=np.int64)
        return cls(code.m, indices, coefficients, lengths, code.ip_count)

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
    stopped rows are neither scored nor counted again.
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
    residuals = X.copy()
    atoms = d.scoring_atoms
    indices = np.zeros((P, params.K), dtype=np.int64)
    coefficients = np.zeros((P, params.K))
    lengths = np.zeros(P, dtype=np.int64)
    rows = np.arange(P)
    for step in range(params.K):
        r = residuals[rows]
        going = ~(np.sqrt(row_dots(r, r)) <= tolerance[rows])
        rows, r = rows[going], r[going]
        if not rows.size:
            break
        picks, scores = selector.pick(r, own)
        going = scores != 0.0
        rows, r, picks, scores = rows[going], r[going], picks[going], scores[going]
        indices[rows, step] = picks
        coefficients[rows, step] = scores
        lengths[rows] = step + 1
        residuals[rows] = r - scores[:, None] * atoms[picks]
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
    every row gets the bits ``reconstruct`` gives its own code.
    """
    codes.check_range(d.m)
    out = np.zeros((codes.indices.shape[0], d.n))
    atoms = d.scoring_atoms
    for step in range(codes.indices.shape[1]):
        rows = (codes.lengths > step).nonzero()[0]
        if not rows.size:
            break
        picks = codes.indices[rows, step]
        out[rows] += codes.coefficients[rows, step][:, None] * atoms[picks]
    return out


def reconstruct(d: Dictionary, code: SparseCode) -> np.ndarray:
    """Weighted sum of the coded atoms, as a float64 n-vector."""
    return reconstruct_batch(d, CodeBatch.of(code))[0]

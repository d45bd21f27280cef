"""Greedy sparse coding with pluggable atom selection.

Two selectors answer "which atom best matches this residual": a brute-force
scan of the whole dictionary, and a descent through a shallow cluster tree
that scores child centroids level by level, keeps the ceil(alpha*k) most
promising children, and finally scores the atoms inside the surviving
bottom-level nodes.  With alpha = 1 the descent visits everything and is
exactly the brute-force answer.  Matching pursuit then peels one atom per
iteration off the residual regardless of which selector is used.

All scoring runs on one shared float64 copy of the atoms so both selectors
see bit-identical inner products.  A selection is a handful of small numpy
calls, so the selectors use ndarray methods (``a.argmax()``), which dispatch
faster than the ``np.argmax`` module functions.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .clustering import ClusterTree, check_fingerprint
from .dictionary import Dictionary, ScoreCounter

# Nudge before the ceiling so products like 0.1 * 100, which land just above
# an integer in binary, do not inflate the retained-branch count.
_CEIL_NUDGE = 1e-9


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
    """Knobs shared by every coding run: sparsity, retention, stopping."""

    K: int
    alpha: float = 1.0
    residual_tolerance: float | None = None

    def __post_init__(self):
        if self.K < 1:
            raise ValueError(f"sparsity K must be at least 1, got {self.K}")
        check_alpha(self.alpha)
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


def _as_query(v, n: int) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64).ravel()
    if v.shape != (n,):
        raise ValueError(f"query has dimension {v.size}, expected {n}")
    # v.v is finite exactly when every entry is, unless it overflows
    if not math.isfinite(v.dot(v)) and not np.isfinite(v).all():
        raise ValueError("query contains NaN or infinity")
    return v


def _rows(array: np.ndarray, bounds: list[int], nodes: list[int]) -> np.ndarray:
    """Rows bounds[j]:bounds[j+1] of array for each node j, stacked in node order.

    Node ids come ascending and without repeats, so as many ids as there are
    nodes means every node, whose rows are the whole array.
    """
    if len(nodes) == len(bounds) - 1:
        return array
    if len(nodes) == 1:
        return array[bounds[nodes[0]] : bounds[nodes[0] + 1]]
    return np.concatenate([array[bounds[j] : bounds[j + 1]] for j in nodes])


def exact_select(d: Dictionary, r, counter: ScoreCounter | None = None) -> tuple[int, float]:
    """Atom with maximal |d_i . r| over the whole dictionary; lowest index on ties."""
    r = _as_query(r, d.n)
    scores = d.scoring_atoms @ r
    if counter is not None:
        counter.count_atoms(d.m)
    best = int(np.abs(scores).argmax())
    return best, float(scores[best])


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
    r = _as_query(r, d.n)
    frontier = [0]
    for depth, keep in enumerate(keeps):
        bounds = t.offsets[depth]
        block = _rows(t.centroids[depth + 1], bounds, frontier)
        scores = block @ r
        if counter is not None:
            counter.count_centroids(block.shape[0])
        survivors: list[int] = []
        offset = 0
        for j in frontier:
            lo, hi = bounds[j], bounds[j + 1]
            if keep >= hi - lo:
                survivors.extend(range(lo, hi))
            else:
                here = scores[offset : offset + hi - lo]
                order = (-np.abs(here)).argsort(kind="stable")[:keep]
                survivors.extend(lo + i for i in sorted(order.tolist()))
            offset += hi - lo
        frontier = survivors
    indices = _rows(t.atoms, t.offsets[t.levels], frontier)
    scores = d.scoring_atoms[indices] @ r
    if counter is not None:
        counter.count_atoms(indices.size)
    magnitudes = np.abs(scores)
    candidates = (magnitudes == magnitudes.max()).nonzero()[0]
    position = candidates[indices[candidates].argmin()]
    return int(indices[position]), float(scores[position])


class ExactSelector:
    """Brute-force argmax |d_i . r| over the full dictionary."""

    def __init__(self, dictionary: Dictionary):
        self.dictionary = dictionary

    def select(self, r, counter: ScoreCounter | None = None) -> tuple[int, float]:
        return exact_select(self.dictionary, r, counter)


class TreeSelector:
    """Tree-accelerated selection at a fixed retention fraction alpha."""

    def __init__(self, tree: ClusterTree, dictionary: Dictionary, alpha: float):
        check_alpha(alpha)
        check_fingerprint(tree, dictionary)
        self.tree = tree
        self.dictionary = dictionary
        self.alpha = alpha

    def select(self, r, counter: ScoreCounter | None = None) -> tuple[int, float]:
        return stmp_select(self.tree, self.dictionary, r, self.alpha, counter)


def matching_pursuit(selector, x, params: SearchParams, counter: ScoreCounter | None = None) -> SparseCode:
    """Greedy residual peeling: select, step, subtract, at most K times.

    The step coefficient is the selected atom's inner product with the
    residual, so with unit-norm atoms each iteration removes exactly that
    much squared energy.  Stops early once the residual norm falls to the
    tolerance (default 1e-6 times the input norm) or the best available
    score is exactly zero.
    """
    d = selector.dictionary
    x = _as_query(x, d.n)
    own = counter if counter is not None else ScoreCounter()
    start = own.inner_products
    tolerance = params.residual_tolerance
    if tolerance is None:
        tolerance = 1e-6 * float(np.linalg.norm(x))
    residual = x.copy()
    atoms = d.scoring_atoms
    entries: list[tuple[int, float]] = []
    for _ in range(params.K):
        if float(np.linalg.norm(residual)) <= tolerance:
            break
        index, score = selector.select(residual, own)
        if score == 0.0:
            break
        entries.append((index, score))
        residual -= score * atoms[index]
    return SparseCode(m=d.m, entries=entries, ip_count=own.inner_products - start)


def reconstruct(d: Dictionary, code: SparseCode) -> np.ndarray:
    """Weighted sum of the coded atoms, as a float64 n-vector."""
    out = np.zeros(d.n, dtype=np.float64)
    atoms = d.scoring_atoms
    for index, coefficient in code.entries:
        if not 0 <= index < d.m:
            raise ValueError(f"code index {index} outside [0, {d.m})")
        out += coefficient * atoms[index]
    return out


def omp_refit(d: Dictionary, support, x) -> np.ndarray:
    """Least-squares coefficients over a fixed support, via ridge-stabilized
    normal equations; the baseline comparator for plain matching pursuit."""
    support = [int(i) for i in support]
    for i in support:
        if not 0 <= i < d.m:
            raise ValueError(f"support index {i} outside [0, {d.m})")
    x = _as_query(x, d.n)
    if not support:
        return np.zeros(0, dtype=np.float64)
    if len(support) > d.n:
        raise ValueError(f"support size {len(support)} exceeds atom dimension {d.n}")
    chosen = d.scoring_atoms[support]
    gram = chosen @ chosen.T
    gram[np.diag_indices_from(gram)] += 1e-8
    return np.linalg.solve(gram, chosen @ x)

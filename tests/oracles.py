"""Independent reference implementations used to check the package.

Everything here is written the slow, obvious way (python loops, lstsq,
per-element accumulation) so that the vectorized package code can be
compared against logic that shares none of its structure.  Expected
values frozen into the tests were produced by these functions.
"""

import math

import numpy as np


def fnv1a64_reference(data: bytes) -> int:
    """Byte-at-a-time FNV-1a, 64-bit."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) % (1 << 64)
    return h


def axis_origins_reference(extent: int, patch: int, stride: int) -> list[int]:
    """Walk one axis start by start; the last window always touches the border."""
    last = extent - patch
    origins = []
    pos = 0
    while pos < last:
        origins.append(pos)
        pos += stride
    origins.append(last)
    return origins


def patch_count_reference(shape, patch, stride) -> int:
    count = 1
    for extent, p, s in zip(shape, patch, stride):
        count *= len(axis_origins_reference(extent, p, s))
    return count


def extract_reference(tensor, patch, stride):
    """Nested-loop patch extraction in origin order."""
    axes = [axis_origins_reference(e, p, s) for e, p, s in zip(tensor.shape, patch, stride)]
    rows = []
    for origin in _product(axes):
        window = tensor[tuple(slice(o, o + p) for o, p in zip(origin, patch))]
        rows.append(np.asarray(window, dtype=np.float64).ravel())
    return np.array(rows)


def aggregate_reference(rows, shape, patch, stride):
    """Nested-loop overlap-averaging: one slice addition per patch, so each
    cell sums its patches in float64 in origin order."""
    acc = np.zeros(shape, dtype=np.float64)
    cnt = np.zeros(shape, dtype=np.int64)
    axes = [axis_origins_reference(e, p, s) for e, p, s in zip(shape, patch, stride)]
    for row, origin in zip(rows, _product(axes)):
        region = tuple(slice(o, o + p) for o, p in zip(origin, patch))
        acc[region] += np.asarray(row, dtype=np.float64).reshape(patch)
        cnt[region] += 1
    return acc / cnt


def _product(axes):
    if not axes:
        yield ()
        return
    for head in axes[0]:
        for tail in _product(axes[1:]):
            yield (head,) + tail


def canonical_scores_reference(atoms, query):
    """Every atom's canonical score against the query: one float64 dot
    product per atom, ``atoms[i].dot(query)``, as a list."""
    q = np.asarray(query, dtype=np.float64).ravel()
    return [float(np.dot(atoms[i].astype(np.float64), q)) for i in range(atoms.shape[0])]


def nearest_atom_reference(atoms, query):
    """Exhaustive scan over the canonical scores: maximal |score|, lowest
    index on ties."""
    best_index = 0
    best_score = 0.0
    best_mag = -1.0
    for i, s in enumerate(canonical_scores_reference(atoms, query)):
        if abs(s) > best_mag:
            best_index, best_score, best_mag = i, s, abs(s)
    return best_index, best_score


def matching_pursuit_reference(atoms, x, K, tol=None):
    """Plain greedy pursuit; returns ordered (index, coefficient) steps."""
    x = np.asarray(x, dtype=np.float64).ravel()
    r = x.copy()
    if tol is None:
        tol = 1e-6 * math.sqrt(float(np.dot(x, x)))
    entries = []
    for _ in range(K):
        if math.sqrt(float(np.dot(r, r))) <= tol:
            break
        index, score = nearest_atom_reference(atoms, r)
        if score == 0.0:
            break
        entries.append((index, score))
        r = r - score * atoms[index].astype(np.float64)
    return entries, r


def psnr_reference(reference, test, peak=1.0):
    err = 0.0
    count = 0
    for a, b in zip(np.ravel(reference).tolist(), np.ravel(test).tolist()):
        err += (a - b) ** 2
        count += 1
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak * count / err)


def snr_reference(reference, test):
    signal = 0.0
    err = 0.0
    for a, b in zip(np.ravel(reference).tolist(), np.ravel(test).tolist()):
        signal += a * a
        err += (a - b) ** 2
    if err == 0.0:
        return math.inf
    if signal == 0.0:
        return -math.inf
    return 10.0 * math.log10(signal / err)


def predicted_centroid_count_reference(branching, alpha):
    """Level-by-level comparison count with explicit retained-branch bookkeeping."""
    total = 0
    branches = 1
    for k in branching:
        total += branches * k
        kept = math.ceil(alpha * k - 1e-9)
        branches *= max(1, kept)
    return total


def _tree_walk(tree, scoring_atoms, query, alpha):
    """Depth-first descent one node at a time over the tree's per-depth arrays.

    Each node ranks its own children and the ceil(alpha*k) strongest survive
    (ties to the lower child).  Returns the (atom, score) pairs of every
    surviving bottom node in visiting order, and the centroid inner products.
    Centroids and atoms alike get their canonical scores.
    """
    r = np.asarray(query, dtype=np.float64).ravel()
    level_scores = [None] + [canonical_scores_reference(rows, r) for rows in tree.centroids[1:]]
    atom_scores = canonical_scores_reference(scoring_atoms, r)
    candidates = []
    centroid_ips = 0

    def visit(depth, node):
        nonlocal centroid_ips
        lo, hi = tree.offsets[depth][node], tree.offsets[depth][node + 1]
        if depth == len(tree.branching):
            atoms = tree.atoms[lo:hi].tolist()
            candidates.extend((atom, atom_scores[atom]) for atom in atoms)
            return
        scores = level_scores[depth + 1][lo:hi]
        centroid_ips += hi - lo
        keep = max(1, math.ceil(alpha * tree.branching[depth] - 1e-9))
        ranked = sorted(range(hi - lo), key=lambda i: (-abs(scores[i]), i))
        for child in sorted(ranked[:keep]):
            visit(depth + 1, lo + child)

    visit(0, 0)
    return candidates, centroid_ips


def tree_select_reference(tree, scoring_atoms, query, alpha):
    """The tree's pick: the best atom over every surviving bottom node (ties
    to the lower atom index).  Returns (index, score, centroid inner
    products, atom inner products)."""
    candidates, centroid_ips = _tree_walk(tree, scoring_atoms, query, alpha)
    best_index, best_score = candidates[0]
    for index, score in candidates[1:]:
        if abs(score) > abs(best_score) or (abs(score) == abs(best_score) and index < best_index):
            best_index, best_score = index, score
    return best_index, best_score, centroid_ips, len(candidates)

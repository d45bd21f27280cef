"""Independent reference implementations used to check the package.

Everything here is written the slow, obvious way (python loops, lstsq,
per-element accumulation) so that the vectorized package code can be
compared against logic that shares none of its structure.  Expected
values frozen into the tests were produced by these functions.
"""

import math

import numpy as np

from stmp import _binio
from stmp.clustering import (
    _DEGENERATE_NORM,
    _TREE_MAGIC,
    _TREE_VERSION,
    ClusterTree,
    _check_branching,
    _csr,
    _derived_seed,
    _seed_sequence,
)
from stmp.dictionary import Dictionary
from stmp.errors import FormatError, UnsupportedFormatError


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


def _tree_walk(tree, atoms, query, alpha):
    """Depth-first descent one node at a time over the tree's per-depth arrays.

    Each node ranks its own children and the ceil(alpha*k) strongest survive
    (ties to the lower child).  Returns the (atom, score) pairs of every
    surviving bottom node in visiting order, and the centroid inner products.
    Centroids and atoms alike get their canonical scores.
    """
    r = np.asarray(query, dtype=np.float64).ravel()
    level_scores = [None] + [canonical_scores_reference(rows, r) for rows in tree.centroids[1:]]
    atom_scores = canonical_scores_reference(atoms, r)
    candidates = []
    centroid_ips = 0

    def visit(depth, node):
        nonlocal centroid_ips
        lo, hi = tree.offsets[depth][node], tree.offsets[depth][node + 1]
        if depth == len(tree.branching):
            candidates.extend((atom, atom_scores[atom]) for atom in tree.atoms[lo:hi].tolist())
            return
        scores = level_scores[depth + 1][lo:hi]
        centroid_ips += hi - lo
        keep = max(1, math.ceil(alpha * tree.branching[depth] - 1e-9))
        ranked = sorted(range(hi - lo), key=lambda i: (-abs(scores[i]), i))
        for child in sorted(ranked[:keep]):
            visit(depth + 1, lo + child)

    visit(0, 0)
    return candidates, centroid_ips


def tree_select_reference(tree, atoms, query, alpha):
    """The tree's pick: the best atom over every surviving bottom node (ties
    to the lower atom index).  Returns (index, score, centroid inner
    products, atom inner products)."""
    candidates, centroid_ips = _tree_walk(tree, atoms, query, alpha)
    best_index, best_score = candidates[0]
    for index, score in candidates[1:]:
        if abs(score) > abs(best_score) or (abs(score) == abs(best_score) and index < best_index):
            best_index, best_score = index, score
    return best_index, best_score, centroid_ips, len(candidates)


# The per-node clustering that ``stmp.clustering`` ran before it batched a
# tree depth's k-means together, kept as the reference its centroids,
# offsets, atoms and ``.tree`` bytes are pinned to.  Like the package, it
# starts every balanced round after a node's first from the centroids of the
# clusters the round before did not freeze.

def _squared_distances(vectors: np.ndarray, sq_norms: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d2 = sq_norms[:, None] - 2.0 * (vectors @ centroids.T) + (centroids * centroids).sum(axis=1)[None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2


def _kmeanspp_init(vectors: np.ndarray, sq_norms: np.ndarray, k: int,
                   rng: np.random.Generator) -> np.ndarray:
    """D^2 seeding over the Lloyd step's squared distances.  A chosen row's
    own distance is exactly 0, so it is never drawn again; when no mass is
    left (total == 0), the first unchosen row is taken."""
    count = vectors.shape[0]
    chosen = [int(rng.integers(count))]
    d2 = np.full(count, np.inf)
    for _ in range(1, k):
        fresh = _squared_distances(vectors, sq_norms, vectors[chosen[-1:]])[:, 0]
        np.minimum(d2, fresh, out=d2)
        d2[chosen[-1]] = 0.0
        total = d2.sum()
        if total == 0.0:
            taken = np.zeros(count, dtype=bool)
            taken[chosen] = True
            nxt = int(np.flatnonzero(~taken)[0])
        else:
            nxt = int(rng.choice(count, p=d2 / total))
        chosen.append(nxt)
    return vectors[chosen].copy()


def _group_means(vectors: np.ndarray, assignments: np.ndarray, counts: np.ndarray,
                 old: np.ndarray) -> np.ndarray:
    k, n = old.shape
    # bin (c, j) adds column j of cluster c's rows in row order, as a per-column bincount would
    bins = (assignments[:, None] * n + np.arange(n)).ravel()
    sums = np.bincount(bins, weights=vectors.ravel(), minlength=k * n).reshape(k, n)
    centroids = old.copy()
    nonempty = counts > 0
    centroids[nonempty] = (sums[nonempty] / counts[nonempty, None]).astype(np.float32)
    return centroids


def kmeans(vectors, k: int, seed=None, max_iters: int = 25,
           start=None) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd iterations from k-means++ centroids drawn with ``seed``, or from
    the (k, n) centroids ``start`` with no random draw.

    Returns (centroids, assignments).  Empty clusters are re-seeded at the
    point currently farthest from its own centroid.  All tie-breaks go to the
    lowest index, so the output is a pure function of (vectors, k, seed or
    start).
    """
    vectors = np.ascontiguousarray(vectors, dtype=np.float32)
    if vectors.ndim != 2:
        raise ValueError(f"expected 2-D vectors, got shape {vectors.shape}")
    count = vectors.shape[0]
    if not 1 <= k <= count:
        raise ValueError(f"cluster count {k} must be in [1, {count}]")
    if k == count:
        return vectors.copy(), np.arange(count, dtype=np.int64)
    sq_norms = (vectors.astype(np.float64) ** 2).sum(axis=1).astype(np.float32)
    if start is None:
        centroids = _kmeanspp_init(vectors, sq_norms, k,
                                   np.random.default_rng(_seed_sequence(seed)))
    else:
        centroids = np.array(start, dtype=np.float32)
        if centroids.shape != (k, vectors.shape[1]):
            raise ValueError(f"start centroids have shape {centroids.shape}, expected ({k}, n)")
    previous = None
    assignments = np.zeros(count, dtype=np.int64)
    for _ in range(max_iters):
        d2 = _squared_distances(vectors, sq_norms, centroids)
        assignments = d2.argmin(axis=1).astype(np.int64)
        counts = np.bincount(assignments, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            own = d2[np.arange(count), assignments].astype(np.float64)
            for c in empties:
                far = int(np.argmax(own))
                centroids[c] = vectors[far]
                assignments[far] = c
                own[far] = -np.inf
            counts = np.bincount(assignments, minlength=k)
        if previous is not None and np.array_equal(assignments, previous):
            break
        previous, d2 = assignments, None  # frees d2 before the means and the next distances
        centroids = _group_means(vectors, assignments, counts, centroids)
    return centroids, assignments


def _unit_mean(block: np.ndarray) -> np.ndarray:
    mean = block.astype(np.float64).mean(axis=0)
    norm = float(np.linalg.norm(mean))
    if norm < _DEGENERATE_NORM:
        # members cancel; fall back to a fixed unit vector
        fallback = np.zeros(block.shape[1], dtype=np.float32)
        fallback[0] = 1.0
        return fallback
    return (mean / norm).astype(np.float32)


def balanced_cluster(atoms, k: int, seed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partition atoms into at most k clusters of capacity C = ceil(m/k).

    Rounds of k-means over the not-yet-frozen atoms; every cluster that
    reaches capacity is frozen with its C members nearest to the centroid.
    If a round produces no such cluster, the largest one is frozen anyway,
    topped up with the nearest leftover atoms, so the loop always finishes.
    The first round seeds k-means++ from ``seed``; every later one starts
    from the centroids of the clusters the round before did not freeze.
    Cluster ids are issued in freezing order; the final cluster holds the
    last 1..C atoms.  Returns (assignments, centroids, sizes): each atom's
    cluster id, and each cluster's unit-norm float32 centroid and size.
    """
    atoms = np.ascontiguousarray(atoms, dtype=np.float32)
    if atoms.ndim != 2 or atoms.shape[0] == 0:
        raise ValueError(f"expected non-empty 2-D atoms, got shape {atoms.shape}")
    if k < 1:
        raise ValueError(f"cluster count must be positive, got {k}")
    m = atoms.shape[0]
    capacity = math.ceil(m / k)
    remaining = np.arange(m, dtype=np.int64)
    clusters: list[np.ndarray] = []
    start = None  # the centroids of the last round's unfrozen clusters
    while remaining.size > capacity:
        k_round = min(k - len(clusters), remaining.size)
        sub = atoms[remaining]
        if start is None:
            cents, assign = kmeans(sub, k_round, _seed_sequence(seed, 0))
        else:
            cents, assign = kmeans(sub, k_round, start=start)
        sizes = np.bincount(assign, minlength=k_round)
        large = np.flatnonzero(sizes >= capacity)
        taken = np.zeros(remaining.size, dtype=bool)
        start = np.delete(cents, large if large.size else int(np.argmax(sizes)), axis=0)
        if large.size:
            for c in large:
                members = np.flatnonzero(assign == c)
                diff = sub[members].astype(np.float64) - cents[c].astype(np.float64)
                dist = (diff * diff).sum(axis=1)
                keep = members[np.argsort(dist, kind="stable")[:capacity]]
                keep.sort()
                clusters.append(remaining[keep])
                taken[keep] = True
        else:
            c = int(np.argmax(sizes))
            members = np.flatnonzero(assign == c)
            others = np.flatnonzero(assign != c)
            diff = sub[others].astype(np.float64) - cents[c].astype(np.float64)
            dist = (diff * diff).sum(axis=1)
            pad = others[np.argsort(dist, kind="stable")[: capacity - members.size]]
            keep = np.sort(np.concatenate([members, pad]))
            clusters.append(remaining[keep])
            taken[keep] = True
        remaining = remaining[~taken]
    if remaining.size:
        clusters.append(remaining)
    assignments = np.empty(m, dtype=np.int64)
    centroids = np.empty((len(clusters), atoms.shape[1]), dtype=np.float32)
    sizes = np.empty(len(clusters), dtype=np.int64)
    for cid, members in enumerate(clusters):
        assignments[members] = cid
        centroids[cid] = _unit_mean(atoms[members])
        sizes[cid] = members.size
    return assignments, centroids, sizes


def build_tree(d: Dictionary, branching, seed) -> ClusterTree:
    """Balanced-cluster the dictionary level by level into a shallow tree.

    Each node is split with a seed derived from its path of cluster ids, so
    no split depends on the order in which nodes are visited.
    """
    branching = _check_branching(branching)
    atoms = d.atoms
    members = [np.arange(d.m, dtype=np.int64)]
    paths = [()]
    centroids = [_unit_mean(atoms[members[0]])[None, :]]
    offsets = []
    for depth, k in enumerate(branching):
        below, below_paths, rows, counts = [], [], [], []
        for node, path in zip(members, paths):
            assignments, cents, sizes = balanced_cluster(atoms[node], k, _derived_seed(seed, *path))
            rows.append(cents)
            counts.append(sizes.size)
            for cid in range(sizes.size):
                below.append(node[assignments == cid])
                below_paths.append(path + (cid,))
        centroids.append(np.concatenate(rows))
        offsets.append(_csr(counts))
        members, paths = below, below_paths
    offsets.append(_csr(node.size for node in members))
    return ClusterTree(
        branching=branching,
        dictionary_fingerprint=d.fingerprint(),
        n=d.n,
        centroids=[rows.astype(np.float64) for rows in centroids],
        offsets=offsets,
        atoms=np.concatenate(members),
    )


def load_tree_reference(path) -> ClusterTree:
    """Value-by-value reader of a v3 ``.tree``: each section is checked to
    fit in the file, then read one child count, centroid and leaf id at a
    time through a sequential Reader."""
    with open(path, "rb") as fh:
        reader = _binio.Reader(fh.read(), source=str(path))
    reader.magic(_TREE_MAGIC)
    version = reader.u32("version")
    if version != _TREE_VERSION:
        raise UnsupportedFormatError(
            f"{path}: unsupported tree format version {version} at offset 8; "
            "rebuild the tree with stmp build-tree"
        )
    fingerprint = reader.u64("dictionary fingerprint")
    n = reader.u64("atom dimension")
    if n == 0:
        raise FormatError(f"{path}: zero atom dimension at offset 20")
    levels = reader.u32("level count")
    if levels == 0:
        raise FormatError(f"{path}: zero level count at offset 28")
    branching = tuple(reader.u32(f"branching of level {i}") for i in range(levels))
    if any(k < 2 for k in branching):
        raise FormatError(f"{path}: branching {branching} has an entry below 2")

    def section(size, what):
        """Check that the file holds the next ``size`` bytes; read none of them."""
        start = reader.offset
        reader.take(size, what)
        reader.offset = start

    rows, counts = [], []
    nodes = 1
    for depth in range(levels + 1):
        section(4 * nodes, f"depth {depth} child counts")
        counts.append([])
        for j in range(nodes):
            at = reader.offset
            count = reader.u32("child count")
            if count == 0:
                raise FormatError(
                    f"{path}: internal node {j} at depth {depth} has no children at offset {at}"
                )
            counts[depth].append(count)
        section(4 * n * nodes, f"depth {depth} centroids")
        rows.append([np.frombuffer(reader.take(4 * n, "centroid"), "<f4") for _ in range(nodes)])
        nodes = sum(counts[depth])
    section(8 * nodes, "leaf atom ids")
    atoms = []
    for _ in range(nodes):
        at = reader.offset
        atom = reader.u64("leaf atom id")
        if atom >= 1 << 63:
            raise FormatError(f"{path}: leaf atom index out of range at offset {at}")
        atoms.append(atom)
    reader.expect_end()
    return ClusterTree(
        branching=branching,
        dictionary_fingerprint=fingerprint,
        n=n,
        centroids=[np.array(level).astype(np.float64) for level in rows],
        offsets=[_csr(level) for level in counts],
        atoms=np.array(atoms, dtype=np.int64),
    )

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
    _LEAF_RECORD,
    _TREE_MAGIC,
    _TREE_VERSION,
    BalancedPartition,
    ClusterTree,
    _check_branching,
    _csr,
    _derived_seed,
    _seed_sequence,
)
from stmp.dictionary import Dictionary
from stmp.errors import FormatError, UnsupportedFormatError


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


# The per-node clustering that ``stmp.clustering`` ran before it batched a
# tree depth's k-means together, kept unchanged as the reference its
# centroids, offsets, atoms and ``.tree`` bytes are pinned to.

def _squared_distances(vectors: np.ndarray, sq_norms: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d2 = sq_norms[:, None] - 2.0 * (vectors @ centroids.T) + (centroids * centroids).sum(axis=1)[None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2


def _kmeanspp_init(vectors: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    count = vectors.shape[0]
    chosen = [int(rng.integers(count))]
    wide = vectors.astype(np.float64)
    diff = wide - wide[chosen[0]]
    d2 = (diff * diff).sum(axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining mass sits on already-chosen duplicates
            taken = np.zeros(count, dtype=bool)
            taken[chosen] = True
            nxt = int(np.flatnonzero(~taken)[0])
        else:
            nxt = int(rng.choice(count, p=d2 / total))
        chosen.append(nxt)
        np.subtract(wide, wide[nxt], out=diff)
        np.minimum(d2, np.square(diff, out=diff).sum(axis=1), out=d2)
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


def kmeans(vectors, k: int, seed, max_iters: int = 25) -> tuple[np.ndarray, np.ndarray]:
    """Seeded Lloyd iterations with k-means++ initialization.

    Returns (centroids, assignments).  Empty clusters are re-seeded at the
    point currently farthest from its own centroid.  All tie-breaks go to the
    lowest index, so the output is a pure function of (vectors, k, seed).
    """
    vectors = np.ascontiguousarray(vectors, dtype=np.float32)
    if vectors.ndim != 2:
        raise ValueError(f"expected 2-D vectors, got shape {vectors.shape}")
    count = vectors.shape[0]
    if not 1 <= k <= count:
        raise ValueError(f"cluster count {k} must be in [1, {count}]")
    if k == count:
        return vectors.copy(), np.arange(count, dtype=np.int64)
    rng = np.random.default_rng(_seed_sequence(seed))
    centroids = _kmeanspp_init(vectors, k, rng)
    sq_norms = (vectors.astype(np.float64) ** 2).sum(axis=1).astype(np.float32)
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


def balanced_cluster(atoms, k: int, seed) -> BalancedPartition:
    """Partition atoms into at most k clusters of capacity C = ceil(m/k).

    Rounds of k-means over the not-yet-frozen atoms; every cluster that
    reaches capacity is frozen with its C members nearest to the centroid.
    If a round produces no such cluster, the largest one is frozen anyway,
    topped up with the nearest leftover atoms, so the loop always finishes.
    Cluster ids are issued in freezing order; the final cluster holds the
    last 1..C atoms.
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
    round_no = 0
    while remaining.size > capacity:
        k_round = min(k - len(clusters), remaining.size)
        sub = atoms[remaining]
        cents, assign = kmeans(sub, k_round, _seed_sequence(seed, round_no))
        sizes = np.bincount(assign, minlength=k_round)
        large = np.flatnonzero(sizes >= capacity)
        taken = np.zeros(remaining.size, dtype=bool)
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
        round_no += 1
    if remaining.size:
        clusters.append(remaining)
    assignments = np.empty(m, dtype=np.int64)
    centroids = np.empty((len(clusters), atoms.shape[1]), dtype=np.float32)
    sizes = np.empty(len(clusters), dtype=np.int64)
    for cid, members in enumerate(clusters):
        assignments[members] = cid
        centroids[cid] = _unit_mean(atoms[members])
        sizes[cid] = members.size
    return BalancedPartition(k=k, assignments=assignments, centroids=centroids, sizes=sizes)


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
            part = balanced_cluster(atoms[node], k, _derived_seed(seed, *path))
            rows.append(part.centroids)
            counts.append(part.sizes.size)
            for cid in range(part.sizes.size):
                below.append(node[part.assignments == cid])
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


def _read_leaf_run(reader: _binio.Reader, count: int, levels: int, path) -> np.ndarray:
    """Atom indices of one bottom node's `count` leaf records, read as one block."""
    start = reader.offset
    size = _LEAF_RECORD.itemsize
    whole = min(count, (len(reader.data) - start) // size)
    records = np.frombuffer(reader.data, dtype=_LEAF_RECORD, count=whole, offset=start)
    bad = np.flatnonzero((records["tag"] != 1) | (records["index"] >= 1 << 63))
    if bad.size:
        tag = int(records["tag"][bad[0]])
        what = {0: f"internal node below level {levels}", 1: "leaf atom index out of range"}
        raise FormatError(
            f"{path}: {what.get(tag, f'bad node tag {tag}')} at offset {start + size * int(bad[0])}"
        )
    if whole < count:
        raise FormatError(
            f"{path}: leaf run of {count} atoms cut short after {whole} "
            f"at offset {start + size * whole}"
        )
    reader.take(size * count, "leaf run")
    return records["index"]


def load_tree_reference(path) -> ClusterTree:
    """Node-by-node reader of a v1 ``.tree``: each record's tag, centroid and
    child count through a sequential Reader, each leaf run as one block."""
    with open(path, "rb") as fh:
        reader = _binio.Reader(fh.read(), source=str(path))
    reader.magic(_TREE_MAGIC)
    version = reader.u32("version")
    if version != _TREE_VERSION:
        raise UnsupportedFormatError(
            f"{path}: unsupported tree format version {version} at offset 8"
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

    rows = [[] for _ in range(levels + 1)]
    counts = [[] for _ in range(levels + 1)]
    runs = []
    pending = [1]  # nodes still to read at depth len(pending) - 1, in preorder
    while pending:
        if not pending[-1]:
            pending.pop()
            continue
        pending[-1] -= 1
        depth = len(pending) - 1
        at = reader.offset
        tag = reader.take(1, "node tag")[0]
        if tag == 1:
            raise FormatError(
                f"{path}: leaf at depth {depth} at offset {at}, expected leaves at depth {levels + 1}"
            )
        if tag != 0:
            raise FormatError(f"{path}: bad node tag {tag} at offset {at}")
        rows[depth].append(reader.take(4 * n, "centroid"))
        count = reader.u32("child count")
        if count == 0:
            raise FormatError(f"{path}: internal node with no children at offset {at}")
        counts[depth].append(count)
        if depth < levels:
            pending.append(count)
        else:
            runs.append(_read_leaf_run(reader, count, levels, path))
    reader.expect_end()
    return ClusterTree(
        branching=branching,
        dictionary_fingerprint=fingerprint,
        n=n,
        centroids=[
            np.frombuffer(b"".join(level), dtype="<f4").reshape(-1, n).astype(np.float64)
            for level in rows
        ],
        offsets=[_csr(level) for level in counts],
        atoms=np.concatenate(runs).astype(np.int64),
    )

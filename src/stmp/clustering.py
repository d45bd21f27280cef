"""Balanced k-means over atoms and construction of shallow cluster trees.

The tree has L internal levels with high fan-out, given by ``branching``;
below level L every atom hangs as its own leaf, so leaves sit at depth L+1.
Each level is produced by a capacity-constrained variant of k-means: clusters
that reach the capacity C = ceil(count/k) are frozen with their C members
nearest to the centroid, everything left over is re-clustered, and the final
stragglers (at most C of them) form the last cluster.

On unit-norm vectors squared Euclidean distance and inner product induce the
same ordering (|u - v|^2 = 2 - 2 u.v), which is what lets a distance-based
clustering serve an inner-product-based search.

In memory (``ClusterTree``) nodes are numbered per depth, root first, and
each node's children form one contiguous range of the depth below.
``centroids[d]`` holds the centroids of the internal nodes at depth
d = 0..L as float64 rows with float32 values.  Node j at depth d owns rows
``offsets[d][j]:offsets[d][j+1]`` (int64 arrays, so a whole frontier's
child ranges are one fancy index) of depth d+1, or of ``atoms``, the
leaves' atom indices in preorder, when d = L.

Tree file layout, v1 (little-endian):

    magic "STMPTREE" | u32 version=1 | u64 dictionary fingerprint | u64 n |
    u32 L | L x u32 branching | preorder node records

Node records: u8 is_leaf; leaves carry u64 atom_index, internal nodes carry
n x float32 centroid and u32 child_count.  Leaf centroids are not stored;
they are the dictionary atoms themselves.  The child_count leaf records
(9 bytes each) after a node at depth L are written and read as one block.
"""

from dataclasses import dataclass
import itertools
import math

import numpy as np

from . import _binio
from .dictionary import Dictionary
from .errors import FormatError, StaleTreeError, UnsupportedFormatError

_TREE_MAGIC = b"STMPTREE"
_TREE_VERSION = 1
_DEGENERATE_NORM = 1e-12

CENTROID_NORM_TOL = 1e-5

# one leaf record of the v1 file: u8 tag (always 1) then u64 atom index
_LEAF_RECORD = np.dtype([("tag", "u1"), ("index", "<u8")])


def _seed_sequence(seed, *key) -> np.random.SeedSequence:
    """Derive a child seed stream; accepts a plain int or a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            entropy=seed.entropy, spawn_key=tuple(seed.spawn_key) + key
        )
    return np.random.SeedSequence(entropy=int(seed), spawn_key=key)


def _derived_seed(seed, *key) -> int:
    """Collapse a seed path to a fresh 64-bit integer seed."""
    return int(_seed_sequence(seed, *key).generate_state(1, np.uint64)[0])


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


@dataclass(eq=False)
class BalancedPartition:
    """Capacity-constrained clustering of one batch of atoms."""

    k: int
    assignments: np.ndarray
    centroids: np.ndarray
    sizes: np.ndarray

    @property
    def capacity(self) -> int:
        return math.ceil(self.assignments.size / self.k)


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


@dataclass(eq=False)
class ClusterTree:
    """A shallow cluster tree held as per-depth arrays (layout in the module docstring)."""

    branching: tuple[int, ...]
    dictionary_fingerprint: int
    n: int
    centroids: list[np.ndarray]
    offsets: list[np.ndarray]
    atoms: np.ndarray

    def __post_init__(self):
        self.offsets = [np.asarray(b, dtype=np.int64) for b in self.offsets]

    @property
    def levels(self) -> int:
        return len(self.branching)


@dataclass
class TreeReport:
    """Outcome of validate_tree: ok, or the first violation found."""

    ok: bool
    violation: str = ""


def check_fingerprint(t: ClusterTree, d: Dictionary) -> None:
    """Raise StaleTreeError unless the tree was built over this dictionary."""
    if t.dictionary_fingerprint != d.fingerprint():
        raise StaleTreeError(
            f"tree fingerprint {t.dictionary_fingerprint:#018x} does not match "
            f"dictionary fingerprint {d.fingerprint():#018x}"
        )


def _check_branching(branching) -> tuple[int, ...]:
    branching = tuple(int(k) for k in branching)
    if not branching:
        raise ValueError("branching must name at least one level")
    for level, k in enumerate(branching):
        if k < 2:
            raise ValueError(f"branching entry {k} at level {level} must be at least 2")
    return branching


def _csr(counts) -> list[int]:
    """Child counts per node -> offsets."""
    return list(itertools.accumulate(counts, initial=0))


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


def validate_tree(t: ClusterTree, d: Dictionary) -> TreeReport:
    """Structural audit of a tree against its dictionary.

    Trees are bound to a dictionary by fingerprint; a mismatch raises
    StaleTreeError.  Everything else (array shapes, child ranges, centroid
    norms, balance, and coverage of every atom by exactly one leaf) is
    reported as the first violation found, checked depth by depth.
    """
    check_fingerprint(t, d)
    violation = _first_violation(t, d)
    return TreeReport(not violation, violation)


def _first_violation(t: ClusterTree, d: Dictionary) -> str:
    if t.n != d.n:
        return f"tree atom dimension {t.n} != dictionary dimension {d.n}"
    levels = t.levels
    if len(t.centroids) != levels + 1 or len(t.offsets) != levels + 1:
        return f"tree stores {len(t.centroids)} centroid depths, expected {levels + 1}"
    counts = [1] + [rows.shape[0] for rows in t.centroids[1:]] + [t.atoms.size]
    bounds = [np.asarray(b, dtype=np.int64) for b in t.offsets]
    for depth, (rows, b) in enumerate(zip(t.centroids, bounds)):
        if rows.shape != (counts[depth], t.n):
            return f"centroids at depth {depth} have shape {rows.shape}, expected ({counts[depth]}, {t.n})"
        if b.shape != (counts[depth] + 1,) or b[0] != 0 or b[-1] != counts[depth + 1]:
            return f"child offsets at depth {depth} do not span the {counts[depth + 1]} nodes below"
        empty = np.flatnonzero(np.diff(b) < 1)
        if empty.size:
            return f"internal node {empty[0]} at depth {depth} has no children"
        norms = np.linalg.norm(rows, axis=1)
        bad = np.flatnonzero(np.abs(norms - 1.0) > CENTROID_NORM_TOL)
        if bad.size:
            return f"internal centroid {bad[0]} at depth {depth} has norm {norms[bad[0]]:.8f}"
    if not np.array_equal(np.sort(t.atoms), np.arange(d.m)):
        return f"leaves cover {t.atoms.size} atoms, expected all {d.m} exactly once"
    # Every child holds C = ceil(size/k) atoms except at most one, which holds
    # fewer; a node with more than k children always breaks this.  Every node
    # has a child by now, so each range start below is a valid reduceat index.
    sizes = np.diff(bounds[levels])
    for depth in reversed(range(levels)):
        b = bounds[depth]
        parents = np.add.reduceat(sizes, b[:-1])
        cap = np.repeat(-(-parents // t.branching[depth]), np.diff(b))
        off = np.add.reduceat((sizes != cap).astype(np.int64), b[:-1])
        bad = np.flatnonzero((off > 1) | np.logical_or.reduceat(sizes > cap, b[:-1]))
        if bad.size:
            lo, hi = b[bad[0]], b[bad[0] + 1]
            return (
                f"unbalanced split at depth {depth}: sizes {sizes[lo:hi].tolist()} "
                f"with capacity {cap[lo]}"
            )
        sizes = parents
    return ""


def save_tree(t: ClusterTree, path) -> None:
    parts = [
        _TREE_MAGIC,
        _binio.u32(_TREE_VERSION),
        _binio.u64(t.dictionary_fingerprint),
        _binio.u64(t.n),
        _binio.u32(t.levels),
    ]
    parts.extend(_binio.u32(k) for k in t.branching)
    rows = [np.ascontiguousarray(c, dtype="<f4") for c in t.centroids]
    if any(level.shape[1:] != (t.n,) for level in rows):
        raise ValueError(f"centroid rows must have {t.n} entries")
    records = np.empty(t.atoms.size, dtype=_LEAF_RECORD)
    records["tag"] = 1
    records["index"] = t.atoms
    leaves = records.tobytes()
    size = _LEAF_RECORD.itemsize
    offsets = [b.tolist() for b in t.offsets]
    stack = [(0, 0)]
    while stack:
        depth, j = stack.pop()
        lo, hi = offsets[depth][j], offsets[depth][j + 1]
        parts += [_binio.u8(0), rows[depth][j].tobytes(), _binio.u32(hi - lo)]
        if depth == t.levels:
            parts.append(leaves[size * lo : size * hi])
        else:
            stack.extend((depth + 1, child) for child in reversed(range(lo, hi)))
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


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


def load_tree(path) -> ClusterTree:
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
        tag = reader.u8("node tag")
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

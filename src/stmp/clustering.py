"""Balanced k-means over atoms and construction of shallow cluster trees.

The tree has L internal levels with high fan-out, given by ``branching``;
below level L every atom hangs as its own leaf, so leaves sit at depth L+1.
Each level is produced by a capacity-constrained variant of k-means: clusters
that reach the capacity C = ceil(count/k) are frozen with their C members
nearest to the centroid, and everything left over is re-clustered by Lloyd
iterations that start from the centroids of the clusters that did not
freeze, until the final stragglers (at most C of them) form the last
cluster.  Only a node's first round seeds by k-means++ and draws random
numbers (Malinen & Franti, Balanced K-Means for Clustering, S+SSPR 2014).

All nodes of one depth split together.  Their rounds run in lockstep, and
in each round the nodes whose k-means input has the same (rows, k) shape
form one stack: the distance GEMM (``np.matmul`` on the 3-D stack) and the
counts are one numpy call for the whole stack, and nodes leave it as they
converge.  Since every frozen cluster holds exactly C atoms, a depth has
few shapes.  Lloyd's passes and k-means++'s draws take their squared
distances from one kernel, ``_distances``: (|v|^2 - 2 v.c) + |c|^2 with
v.c one float32 GEMM over the stack, as an (S, k, rows) block.  Below 64
centroids the block is k-major in memory, so every elementwise pass runs
along whole rows of the stack, not along k short entries.  ``_nearest``
assigns each row to its first nearest centroid, ties to the lowest, as
``argmin`` over k would; on a k-major block that is the least distance
across k, then one pass per centroid.  The means work on one column-major
(n, S, rows) float64 copy of the stack, one weighted ``bincount`` per
coordinate over whole (S, rows) rows.  Stacks are never padded to one
shape: OpenBLAS rounds a padded product differently, a changed ulp can flip
an assignment, and a node's split, like the ``.tree`` bytes, must not
depend on which nodes share its stack.  Each node keeps its own seeded
generator for its first round and its own unfrozen centroids for the next,
and every node's arithmetic is its lone run's, so a tree is the one the
nodes split one at a time would give.

On unit-norm vectors squared Euclidean distance and inner product induce the
same ordering (|u - v|^2 = 2 - 2 u.v), which is what lets a distance-based
clustering serve an inner-product-based search.

In memory (``ClusterTree``) nodes are numbered per depth, root first, and
each node's children form one contiguous range of the depth below.
``centroids[d]`` holds the float32 centroids of the internal nodes at
depth d = 0..L, as the file does.  Node j at depth d owns rows
``offsets[d][j]:offsets[d][j+1]`` (int64 arrays, so a whole frontier's
child ranges are one fancy index) of depth d+1, or of ``atoms``, the
leaves' atom indices in preorder, when d = L.

Tree file layout, v3 (little-endian); its sections are these arrays:

    magic "STMPTREE" | u32 version=3 | u64 dictionary fingerprint | u64 n |
    u32 L | L x u32 branching |
    for d = 0..L: N_d x u32 child counts | N_d x n float32 centroids |
    N_{L+1} x u64 leaf atom ids

N_0 = 1 and N_{d+1} is the sum of depth d's child counts, so ``offsets[d]``
is their cumulative sum from 0.  Leaf centroids are not stored; they are the
dictionary atoms themselves.  The fingerprint is
``Dictionary.fingerprint()``: the first 8 bytes of the SHA-256 of the
dictionary's float32 atom payload.  Loading reads each section as one view
of the file bytes, once the file is known to hold all of it, and the tree
keeps those views: it holds the file's bytes once, plus its int64 offsets.
Versions 1 (a 64-bit FNV-1a fingerprint) and 2 (preorder node records) are
not read; ``stmp build-tree`` rebuilds such a tree.
"""

from dataclasses import dataclass
from functools import cached_property
import itertools

import numpy as np

from . import _binio
from .dictionary import Dictionary, _squared_norms, row_dots
from .errors import FormatError, StaleTreeError, UnsupportedFormatError

_TREE_MAGIC = b"STMPTREE"
_TREE_VERSION = 3
_DEGENERATE_NORM = 1e-12

CENTROID_NORM_TOL = 1e-5

# Lloyd's distance block is k-major below this many centroids (``_distances``).  With
# fewer, rows of k entries would make numpy's elementwise passes and argmin run short
# inner loops.  From here on, the k-major first minimum's pass per centroid costs more
# than one argmin along rows of k: timed on a 2-core Xeon, a whole k-major Lloyd step took
# 0.9-1.15x the row-major one at k = 64 and 1.16x at k = 1000 (rows = 1e5, n = 64).
_K_MAJOR_BELOW = 64


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


def _bincounts(assignments: np.ndarray, k: int) -> np.ndarray:
    """Cluster sizes of every node of an (S, rows) assignment stack, as (S, k)."""
    S = assignments.shape[0]
    bins = assignments + k * np.arange(S)[:, None]
    return np.bincount(bins.ravel(), minlength=S * k).reshape(S, k)


def _draw(d2: np.ndarray, total: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Per row, the index ``rng.choice(len(d2[r]), p=d2[r] / total[r])`` picks
    when ``rng.random()`` gives ``uniforms[r]``: the first whose entry of
    the normalized cumsum of p exceeds it."""
    cdf = np.cumsum(d2 / total[:, None], axis=1)
    cdf /= cdf[:, -1:]
    return np.count_nonzero(cdf <= uniforms[:, None], axis=1)


def _distances(vectors: np.ndarray, sq_norms: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """The (S, k, rows) float32 squared distances of every row of an (S,
    rows, n) stack to each of its node's (S, k, n) centroids, given the
    rows' (S, rows) squared norms: (sq - 2 v.c) + c.c in place, the bits of
    the unfused sum, clamped at 0.

    Below ``_K_MAJOR_BELOW`` centroids the block is k-major in memory, so
    each elementwise pass runs along a whole row of the stack rather than
    along k short entries; from there on it is an (S, k, rows) view of an
    (S, rows, k) block, whose rows of k are long enough already."""
    if centroids.shape[1] < _K_MAJOR_BELOW:
        d2 = np.matmul(centroids, vectors.transpose(0, 2, 1))
    else:
        d2 = np.matmul(vectors, centroids.transpose(0, 2, 1)).transpose(0, 2, 1)
    d2 *= -2.0
    d2 += sq_norms[:, None, :]
    d2 += np.square(centroids).sum(axis=2)[:, :, None]
    return np.maximum(d2, 0.0, out=d2)


def _nearest(d2: np.ndarray) -> np.ndarray:
    """The (S, rows) index of each row's first least distance in an (S, k,
    rows) block of finite distances, ties to the lowest centroid, as
    ``argmin`` over k gives.  A block stored with k innermost takes that
    one argmin; a k-major one takes the least distance across k, then one
    pass per centroid from the last down, each writing only the rows it
    hits."""
    S, k, rows = d2.shape
    if d2.strides[1] == d2.itemsize:
        return d2.argmin(axis=1)
    low = d2.min(axis=1)
    index = np.full((S, rows), k - 1, dtype=np.int64)
    hit = np.empty((S, rows), dtype=bool)
    flat_index, flat_hit = index.reshape(-1), hit.reshape(-1)
    for c in range(k - 2, -1, -1):
        np.equal(d2[:, c], low, out=hit)
        flat_index[flat_hit.nonzero()] = c
    return index


def _kmeanspp(vectors: np.ndarray, sq_norms: np.ndarray, k: int, seeds) -> np.ndarray:
    """k-means++ centroids of every node of an (S, rows, n) stack, (S, k, n).

    Node s draws from its own generator ``default_rng(seeds[s])``: a first
    row from ``integers(rows)``, then each next one as ``choice(rows,
    p=d2 / total)`` would (``_draw``), where d2 is each row's least
    ``_distances`` to the centres chosen so far and a chosen row's own d2 is
    exactly 0, so no row is chosen twice.  A node whose total is 0 draws
    nothing and takes its first unchosen row.
    """
    S, rows, _ = vectors.shape
    chosen = np.empty((S, k), dtype=np.int64)
    uniforms = np.empty((S, k - 1))
    for s, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        chosen[s, 0] = rng.integers(rows)
        uniforms[s] = rng.random(k - 1)  # the draws k-1 random() calls give
    at = np.arange(S)
    d2 = np.full((S, rows), np.inf)
    drawn = np.zeros(S, dtype=np.int64)
    for j in range(1, k):
        # fold in centre j-1: only draws read d2, so the last centre is never folded in
        last = chosen[:, j - 1]
        np.minimum(d2, _distances(vectors, sq_norms, vectors[at, last, None])[:, 0], out=d2)
        d2[at, last] = 0.0
        total = d2.sum(axis=1)
        spread = np.flatnonzero(total > 0.0)
        chosen[spread, j] = _draw(d2[spread], total[spread], uniforms[spread, drawn[spread]])
        drawn[spread] += 1
        for s in np.flatnonzero(~(total > 0.0)).tolist():
            taken = np.zeros(rows, dtype=bool)
            taken[chosen[s, :j]] = True
            chosen[s, j] = np.flatnonzero(~taken)[0]
    return vectors[at[:, None], chosen]


def _means(cols: np.ndarray, assignments: np.ndarray, counts: np.ndarray,
           old: np.ndarray) -> np.ndarray:
    """The float32 mean of every cluster of a column-major (n, S, rows)
    float64 stack; an empty cluster keeps its ``old`` centroid."""
    n, S, _ = cols.shape
    k = old.shape[1]
    # bin (s, c) of column j adds node s's cluster c in row order, as a per-node bincount would
    bins = (assignments + k * np.arange(S)[:, None]).ravel()
    sums = np.empty((n, S * k))
    for j in range(n):
        sums[j] = np.bincount(bins, weights=cols[j].ravel(), minlength=S * k)
    sums = sums.T.reshape(S, k, n)
    centroids = old.copy()
    nonempty = counts > 0
    centroids[nonempty] = (sums[nonempty] / counts[nonempty][:, None]).astype(np.float32)
    return centroids


def _kmeans(atoms: np.ndarray, index: np.ndarray, k: int, seeds=(),
            max_iters: int = 25, *, start=None) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd iterations on every node of a stack at once: node s clusters
    the float32 rows ``atoms[index[s]]``, of one count for all nodes.

    Lloyd starts from the k-means++ centroids node s draws with
    ``seeds[s]``, or, given ``start``, from the (S, k, n) float32 centroids
    ``start[s]`` with no random draw.  Returns (S, k, n) centroids and (S,
    rows) assignments; node s gets what a lone run on its rows from the same
    seed or start gives, bit for bit.  Nodes leave the stack as they
    converge.  With k == rows every row is its own cluster.
    """
    vectors = atoms[index]
    S, rows, n = vectors.shape
    if k == rows:
        return vectors.copy(), np.tile(np.arange(rows, dtype=np.int64), (S, 1))
    # the float64 row sums, cast to float32; the float64 columns only the means read are
    # built after k-means++, so they never sit beside these squares
    sq_norms = np.square(vectors, dtype=np.float64).sum(axis=2).astype(np.float32)
    centroids = (_kmeanspp(vectors, sq_norms, k, seeds) if start is None
                 else np.array(start, dtype=np.float32))
    cols = np.ascontiguousarray(vectors.transpose(2, 0, 1), dtype=np.float64)
    done_c = np.empty((S, k, n), dtype=np.float32)
    done_a = np.empty((S, rows), dtype=np.int64)
    live = np.arange(S)
    previous = None
    assignments = np.zeros((S, rows), dtype=np.int64)
    for _ in range(max_iters):
        d2 = _distances(vectors, sq_norms, centroids)
        assignments = _nearest(d2)
        counts = _bincounts(assignments, k)
        for s in np.flatnonzero((counts == 0).any(axis=1)).tolist():
            # re-seed each empty cluster at the point farthest from its own centroid
            own = d2[s, assignments[s], np.arange(rows)].astype(np.float64)
            for c in np.flatnonzero(counts[s] == 0).tolist():
                far = int(np.argmax(own))
                centroids[s, c] = vectors[s, far]
                assignments[s, far] = c
                own[far] = -np.inf
            counts[s] = np.bincount(assignments[s], minlength=k)
        d2 = None  # frees the distances before the means
        if previous is not None:
            settled = (assignments == previous).all(axis=1)
            if settled.any():
                done_c[live[settled]] = centroids[settled]
                done_a[live[settled]] = assignments[settled]
                going = ~settled
                if not going.any():
                    return done_c, done_a
                kept = np.flatnonzero(going).tolist()
                for dst, src in enumerate(kept):  # in place: a copy would double the peak memory
                    vectors[dst], cols[:, dst] = vectors[src], cols[:, src]
                vectors, cols = vectors[:len(kept)], cols[:, :len(kept)]
                live, sq_norms, centroids, assignments, counts = (
                    a[going] for a in (live, sq_norms, centroids, assignments, counts)
                )
        previous = assignments
        centroids = _means(cols, assignments, counts, centroids)
    done_c[live] = centroids
    done_a[live] = assignments
    return done_c, done_a


def _unit_means(atoms: np.ndarray, members: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The unit-norm float32 mean of each run of ``members`` (run lengths
    ``sizes``), summed in member order; runs of one length are one stack."""
    starts = np.cumsum(sizes) - sizes
    means = np.empty((sizes.size, atoms.shape[1]))
    for size in np.unique(sizes).tolist():
        runs = np.flatnonzero(sizes == size)
        block = atoms[members[starts[runs, None] + np.arange(size)]]
        means[runs] = block.astype(np.float64).mean(axis=1)
    norms = np.sqrt(row_dots(means, means))  # np.linalg.norm's ddot
    flat = norms < _DEGENERATE_NORM  # members cancel; a fixed unit vector stands in
    means[flat] = 0.0
    means[flat, 0] = norms[flat] = 1.0
    return (means / norms[:, None]).astype(np.float32)


def _freeze(atoms: np.ndarray, rows: np.ndarray, centroids: np.ndarray, assignments: np.ndarray,
            capacity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One round's frozen clusters for every node of a k-means stack, whose
    row j of node s is ``atoms[rows[s, j]]``.

    Each cluster of at least its node's capacity is frozen with the
    capacity's worth of members nearest its centroid.  A node with no such
    cluster freezes its largest one, topped up with the other atoms nearest
    its centroid.  Distance ties go to the lower row, as a stable sort
    would.  Returns the (S, rows) rank among the node's clusters frozen this
    round of every atom frozen (-1 elsewhere), and the (S, k) mask of the
    clusters frozen.
    """
    k = centroids.shape[1]
    sizes = _bincounts(assignments, k)
    frozen = sizes >= capacity[:, None]
    target = np.where(np.take_along_axis(frozen, assignments, axis=1), assignments, -1)
    late = np.zeros(assignments.shape, dtype=bool)  # the top-up comes after the members
    short = np.flatnonzero(~frozen.any(axis=1))
    if short.size:
        largest = sizes[short].argmax(axis=1)
        frozen[short, largest] = True
        target[short] = largest[:, None]
        late[short] = assignments[short] != largest[:, None]
    s, i = np.nonzero(target >= 0)
    c = target[s, i]
    diff = atoms[rows[s, i]].astype(np.float64)
    diff -= centroids[s, c]
    dist = np.square(diff, out=diff).sum(axis=1)
    ranked = np.lexsort((dist, late[s, i], c, s))  # stable: ties keep row order
    s, i, c = s[ranked], i[ranked], c[ranked]
    group = s * k + c
    first = np.flatnonzero(np.concatenate(([True], group[1:] != group[:-1])))
    place = np.arange(group.size) - np.repeat(first, np.diff(np.append(first, group.size)))
    keep = place < capacity[s]
    ranks = np.full(assignments.shape, -1, dtype=np.int64)
    ranks[s[keep], i[keep]] = (np.cumsum(frozen, axis=1) - 1)[s[keep], c[keep]]
    return ranks, frozen


def _split(atoms: np.ndarray, members: np.ndarray, sizes: np.ndarray, k: int,
           seeds) -> tuple[np.ndarray, np.ndarray]:
    """Balanced clusters of every node of one tree depth, rounds in lockstep.

    Node j owns the next ``sizes[j]`` entries of ``members`` (atom indices,
    ascending) and splits with seed ``seeds[j]`` (None if it has no more
    atoms than k, and so draws nothing).  Its first round seeds k-means++
    from ``_seed_sequence(seeds[j], 0)``; every later round starts Lloyd
    from the centroids, in cluster order, of its previous round's clusters
    that did not freeze.  There are as many of them as the round's k, except
    in a round with k == rows, which needs no start.  Each round, the nodes
    whose k-means input has one (rows, k) shape run as one stack.  Returns
    every member's cluster id within its node and each node's cluster count.
    """
    nodes = sizes.size
    owner = np.repeat(np.arange(nodes), sizes)
    capacity = -(-sizes // k)
    labels = np.full(members.size, -1, dtype=np.int64)
    issued = np.zeros(nodes, dtype=np.int64)
    left = sizes.copy()
    unfrozen = [None] * nodes  # each node's centroids of its last round's unfrozen clusters
    for round_no in itertools.count():
        active = np.flatnonzero(left > capacity)
        if not active.size:
            break
        shapes = np.stack([left[active], np.minimum(k - issued[active], left[active])], axis=1)
        for rows, k_round in np.unique(shapes, axis=0).tolist():
            group = active[(shapes == (rows, k_round)).all(axis=1)]
            in_group = np.zeros(nodes, dtype=bool)
            in_group[group] = True
            at = np.flatnonzero(in_group[owner] & (labels < 0)).reshape(group.size, rows)
            index = members[at]
            if k_round == rows:
                centroids, assignments = _kmeans(atoms, index, k_round)
            elif round_no:
                start = np.stack([unfrozen[j] for j in group.tolist()])
                centroids, assignments = _kmeans(atoms, index, k_round, start=start)
            else:
                round_seeds = [_seed_sequence(seeds[j], 0) for j in group.tolist()]
                centroids, assignments = _kmeans(atoms, index, k_round, round_seeds)
            ranks, frozen = _freeze(atoms, index, centroids, assignments, capacity[group])
            for j, node_centroids, mask in zip(group.tolist(), centroids, frozen):
                unfrozen[j] = node_centroids[~mask]
            hit = ranks >= 0
            labels[at[hit]] = (ranks + issued[group, None])[hit]
            issued[group] += np.count_nonzero(frozen, axis=1)
            left[group] -= np.count_nonzero(hit, axis=1)
    rest = labels < 0  # the last 1..C atoms of a node form its last cluster
    labels[rest] = issued[owner[rest]]
    return labels, issued + (left > 0)


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
        self.centroids = [np.ascontiguousarray(rows, dtype=np.float32) for rows in self.centroids]
        self.offsets = [np.asarray(b, dtype=np.int64) for b in self.offsets]

    @property
    def levels(self) -> int:
        return len(self.branching)

    @cached_property
    def child_blocks(self) -> list:
        """Per depth d, (block, counts): node j's children are ``block[j]``,
        the (nodes, width, n) centroid rows of depth d+1, or at d = L the
        (nodes, width) atom ids.  ``width`` is the depth's largest child
        count.  Where every node has that many, the block is a view of
        ``centroids[d+1]`` (or ``atoms``) and counts is None; otherwise it is
        a zero-padded copy and counts holds each node's child count.  Both
        tree searches read their children from here, and ``TreeSelector``'s
        filter reads the centroid blocks themselves."""
        return [_child_block(rows, bounds)
                for rows, bounds in zip(self.centroids[1:] + [self.atoms], self.offsets)]


def _child_block(rows: np.ndarray, bounds: np.ndarray):
    counts = np.diff(bounds)
    width = int(counts.max())
    if (counts == width).all():
        return rows.reshape(counts.size, width, *rows.shape[1:]), None
    block = np.zeros((counts.size, width) + rows.shape[1:], dtype=rows.dtype)
    block[np.arange(width) < counts[:, None]] = rows
    return block, counts


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
    no split depends on the order in which nodes are visited.  All nodes of
    a depth split together (``_split``).
    """
    branching = _check_branching(branching)
    atoms = d.atoms
    members = np.arange(d.m, dtype=np.int64)  # each node's atoms, ascending, node after node
    sizes = np.array([d.m])
    paths = [()]
    centroids = [_unit_means(atoms, members, sizes)]
    offsets = []
    for depth, k in enumerate(branching):
        seeds = [_derived_seed(seed, *path) if size > k else None
                 for path, size in zip(paths, sizes.tolist())]
        labels, counts = _split(atoms, members, sizes, k, seeds)
        key = np.repeat(k * np.arange(sizes.size), sizes) + labels
        members = members[np.argsort(key, kind="stable")]
        sizes = np.bincount(key, minlength=k * sizes.size)
        sizes = sizes[sizes > 0]
        centroids.append(_unit_means(atoms, members, sizes))
        offsets.append(_csr(counts.tolist()))
        if depth + 1 < len(branching):
            paths = [path + (cid,) for path, count in zip(paths, counts.tolist()) for cid in range(count)]
    offsets.append(_csr(sizes.tolist()))
    return ClusterTree(branching, d.fingerprint(), d.n, centroids, offsets, members)


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
    violation = _layout_violation(t)
    if violation:
        return violation
    for depth, rows in enumerate(t.centroids):
        norms = np.sqrt(_squared_norms(rows))
        bad = np.flatnonzero(~(np.abs(norms - 1.0) <= CENTROID_NORM_TOL))  # NaN fails too
        if bad.size:
            return f"internal centroid {bad[0]} at depth {depth} has norm {norms[bad[0]]:.8f}"
    atoms = t.atoms
    if (atoms.size != d.m or atoms.min() < 0 or atoms.max() >= d.m
            or not (np.bincount(atoms, minlength=d.m) == 1).all()):
        return f"leaves cover {atoms.size} atoms, expected all {d.m} exactly once"
    # Every child holds C = ceil(size/k) atoms except at most one, which holds
    # fewer; a node with more than k children always breaks this.  Every node
    # has a child by now, so each range start below is a valid reduceat index.
    bounds = [np.asarray(b, dtype=np.int64) for b in t.offsets]
    levels = t.levels
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


def _layout_violation(t: ClusterTree) -> str:
    """The first way, depth by depth, in which the tree's arrays do not fit
    together as the sections of a ``.tree`` file, or "": array shapes, child
    ranges that do not span the depth below, and child counts outside
    1..2^32-1."""
    levels = t.levels
    if len(t.centroids) != levels + 1 or len(t.offsets) != levels + 1:
        return f"tree stores {len(t.centroids)} centroid depths, expected {levels + 1}"
    counts = [1] + [rows.shape[0] for rows in t.centroids[1:]] + [t.atoms.size]
    for depth, (rows, b) in enumerate(zip(t.centroids, t.offsets)):
        b = np.asarray(b, dtype=np.int64)
        if rows.shape != (counts[depth], t.n):
            return f"centroids at depth {depth} have shape {rows.shape}, expected ({counts[depth]}, {t.n})"
        if b.shape != (counts[depth] + 1,) or b[0] != 0 or b[-1] != counts[depth + 1]:
            return f"child offsets at depth {depth} do not span the {counts[depth + 1]} nodes below"
        children = np.diff(b)
        bad = np.flatnonzero((children < 1) | (children >= 1 << 32))
        if bad.size:
            j = int(bad[0])
            if children[j] < 1:
                return f"internal node {j} at depth {depth} has no children"
            return f"internal node {j} at depth {depth} has {children[j]} children, more than a u32 count"
    return ""


def save_tree(t: ClusterTree, path) -> None:
    """Write the tree in the v3 layout, one ``tobytes`` per array.

    Raises ValueError, writing nothing, for arrays that would not read back
    as this tree (``_layout_violation``).  Leaf atom ids are written as they
    are: ``validate_tree`` refuses one outside the dictionary, and
    ``load_tree`` one below 0, which is written as a u64 of 2^63 or more.
    """
    violation = _layout_violation(t)
    if violation:
        raise ValueError(f"cannot write this tree: {violation}")
    parts = [
        _TREE_MAGIC,
        _binio.u32(_TREE_VERSION),
        _binio.u64(t.dictionary_fingerprint),
        _binio.u64(t.n),
        _binio.u32(t.levels),
    ]
    parts.extend(_binio.u32(k) for k in t.branching)
    for rows, bounds in zip(t.centroids, t.offsets):
        parts += [np.diff(bounds).astype("<u4").tobytes(), _binio.f32_bytes(rows)]
    parts.append(np.ascontiguousarray(t.atoms, dtype="<i8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_tree(path) -> ClusterTree:
    """Read a v3 ``.tree`` file; raises FormatError naming the first bad offset.

    Any other version, v1 and v2 included, raises UnsupportedFormatError at
    offset 8: such a tree must be rebuilt.  Each section is one view of the
    file bytes, taken once the file is known to hold all of it, so a
    truncated section is named at its start; its values are then checked in
    one vectorized pass, and the first zero child count or leaf id of 2^63
    or more is named at its own offset.
    """
    reader = _binio.Reader.of_file(path, align_end=8)  # the leaf ids close the file
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

    centroids, offsets = [], []
    nodes = 1
    for depth in range(levels + 1):
        at = reader.offset
        counts = reader.array("<u4", nodes, f"depth {depth} child counts")
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            j = int(empty[0])
            raise FormatError(
                f"{path}: internal node {j} at depth {depth} has no children at offset {at + 4 * j}"
            )
        offsets.append(np.concatenate(([0], np.cumsum(counts, dtype=np.int64))))
        centroids.append(reader.array("<f4", nodes * n, f"depth {depth} centroids").reshape(nodes, n))
        nodes = int(offsets[-1][-1])
    at = reader.offset
    atoms = reader.array("<i8", nodes, "leaf atom ids")
    wrapped = np.flatnonzero(atoms < 0)  # u64 ids of 2^63 or more
    if wrapped.size:
        raise FormatError(
            f"{path}: leaf atom index out of range at offset {at + 8 * int(wrapped[0])}"
        )
    reader.expect_end()
    return ClusterTree(branching, fingerprint, n, centroids, offsets, atoms)

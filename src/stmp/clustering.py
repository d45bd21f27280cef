"""Balanced k-means over atoms and construction of shallow cluster trees.

The tree has L internal levels with high fan-out, given by ``branching``;
below level L every atom hangs as its own leaf, so leaves sit at depth L+1.
Each level is produced by a capacity-constrained variant of k-means: clusters
that reach the capacity C = ceil(count/k) are frozen with their C members
nearest to the centroid, everything left over is re-clustered, and the final
stragglers (at most C of them) form the last cluster.

All nodes of one depth split together.  Their rounds run in lockstep, and
in each round the nodes whose k-means input has the same (rows, k) shape
form one stack: k-means++, the distance GEMM (``np.matmul`` on the 3-D
stack), argmin and counts are one numpy call for the whole stack, the means
one weighted ``bincount`` per coordinate, and nodes leave it as they
converge.  Since every frozen cluster holds exactly C atoms, a depth has
few shapes.  Stacks are never padded to one shape: OpenBLAS rounds a
padded product differently, a changed ulp can flip an argmin, and a node's
split, like the ``.tree`` bytes, must not depend on which nodes share its
stack.  Each node keeps its own seeded generator, and every node's
arithmetic is its lone run's, so a tree is the one the nodes split one at
a time would give.

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

Tree file layout, v2 (little-endian):

    magic "STMPTREE" | u32 version=2 | u64 dictionary fingerprint | u64 n |
    u32 L | L x u32 branching | preorder node records

The fingerprint is ``Dictionary.fingerprint()``: the first 8 bytes of the
SHA-256 of the dictionary's float32 atom payload.  Version 1 had the same
layout with a 64-bit FNV-1a fingerprint and is not read; ``stmp build-tree``
rebuilds such a tree.

Node records: u8 is_leaf; leaves carry u64 atom_index, internal nodes carry
n x float32 centroid and u32 child_count.  Leaf centroids are not stored;
they are the dictionary atoms themselves.  The child_count leaf records
(9 bytes each) after a node at depth L are written as one block.  Loading
walks the records by offset once, reading only tags and child counts and
stepping over leaf runs; each depth's centroids and all leaf records are
then one gather from the file bytes, and the leaf tags and indices are
checked in one vectorized pass.
"""

from dataclasses import dataclass
from functools import cached_property
import itertools
import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _binio
from .dictionary import Dictionary, row_dots
from .errors import FormatError, StaleTreeError, UnsupportedFormatError

_TREE_MAGIC = b"STMPTREE"
_TREE_VERSION = 2
_DEGENERATE_NORM = 1e-12

CENTROID_NORM_TOL = 1e-5

# one leaf record of the file: u8 tag (always 1) then u64 atom index
_LEAF_RECORD = np.dtype([("tag", "u1"), ("index", "<u8")])
_U32 = struct.Struct("<I")


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


def _kmeanspp(vectors: np.ndarray, wide: np.ndarray, k: int, seeds) -> np.ndarray:
    """k-means++ centroids of every node of an (S, rows, n) stack, (S, k, n).

    Node s draws from its own generator ``default_rng(seeds[s])``: a first
    row from ``integers(rows)``, then each next one as ``choice(rows,
    p=d2 / total)`` would (``_draw``).  A node whose remaining mass is 0
    (only chosen duplicates left) draws nothing and takes its first
    unchosen row.
    """
    S, rows, _ = vectors.shape
    chosen = np.empty((S, k), dtype=np.int64)
    uniforms = np.empty((S, k - 1))
    for s, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        chosen[s, 0] = rng.integers(rows)
        uniforms[s] = rng.random(k - 1)  # the draws k-1 random() calls give
    at = np.arange(S)
    diff = wide - wide[at, chosen[:, 0]][:, None, :]
    d2 = np.square(diff, out=diff).sum(axis=2)
    drawn = np.zeros(S, dtype=np.int64)
    for j in range(1, k):
        total = d2.sum(axis=1)
        spread = np.flatnonzero(total > 0.0)
        chosen[spread, j] = _draw(d2[spread], total[spread], uniforms[spread, drawn[spread]])
        drawn[spread] += 1
        for s in np.flatnonzero(~(total > 0.0)).tolist():
            taken = np.zeros(rows, dtype=bool)
            taken[chosen[s, :j]] = True
            chosen[s, j] = np.flatnonzero(~taken)[0]
        np.subtract(wide, wide[at, chosen[:, j]][:, None, :], out=diff)
        np.minimum(d2, np.square(diff, out=diff).sum(axis=2), out=d2)
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


def _kmeans(atoms: np.ndarray, index: np.ndarray, k: int, seeds,
            max_iters: int = 25) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd iterations on every node of a stack at once: node s clusters
    the float32 rows ``atoms[index[s]]``, of one count for all nodes.

    Returns (S, k, n) centroids and (S, rows) assignments; node s gets what
    a lone run on its rows seeded by ``seeds[s]`` gives, bit for bit.
    Nodes leave the stack as they converge.
    """
    vectors = atoms[index]
    S, rows, n = vectors.shape
    if k == rows:
        return vectors.copy(), np.tile(np.arange(rows, dtype=np.int64), (S, 1))
    wide = vectors.astype(np.float64)
    centroids = _kmeanspp(vectors, wide, k, seeds)
    sq_norms = np.square(wide).sum(axis=2).astype(np.float32)
    cols = np.ascontiguousarray(wide.transpose(2, 0, 1))  # the means sum whole columns
    wide = None  # frees the row-major copy before the Lloyd iterations
    done_c = np.empty((S, k, n), dtype=np.float32)
    done_a = np.empty((S, rows), dtype=np.int64)
    live = np.arange(S)
    previous = None
    assignments = np.zeros((S, rows), dtype=np.int64)
    for _ in range(max_iters):
        # squared distances in place: (sq - 2 v.c) + c.c, the bits of the unfused sum
        d2 = np.matmul(vectors, centroids.transpose(0, 2, 1))
        d2 *= -2.0
        d2 += sq_norms[:, :, None]
        d2 += np.square(centroids).sum(axis=2)[:, None, :]
        np.maximum(d2, 0.0, out=d2)
        assignments = d2.argmin(axis=2)
        counts = _bincounts(assignments, k)
        for s in np.flatnonzero((counts == 0).any(axis=1)).tolist():
            # re-seed each empty cluster at the point farthest from its own centroid
            own = d2[s, np.arange(rows), assignments[s]].astype(np.float64)
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
    round of every atom frozen (-1 elsewhere), and their count per node.
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
    return ranks, np.count_nonzero(frozen, axis=1)


def _split(atoms: np.ndarray, members: np.ndarray, sizes: np.ndarray, k: int,
           seeds) -> tuple[np.ndarray, np.ndarray]:
    """Balanced clusters of every node of one tree depth, rounds in lockstep.

    Node j owns the next ``sizes[j]`` entries of ``members`` (atom indices,
    ascending) and splits with seed ``seeds[j]`` (None if it has no more
    atoms than k, and so draws nothing).  Each round, the nodes whose
    k-means input has one (rows, k) shape run as one stack.  Returns every
    member's cluster id within its node and each node's cluster count.
    """
    nodes = sizes.size
    owner = np.repeat(np.arange(nodes), sizes)
    capacity = -(-sizes // k)
    labels = np.full(members.size, -1, dtype=np.int64)
    issued = np.zeros(nodes, dtype=np.int64)
    left = sizes.copy()
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
            round_seeds = ([_seed_sequence(seeds[j], round_no) for j in group.tolist()]
                           if k_round < rows else ())
            centroids, assignments = _kmeans(atoms, index, k_round, round_seeds)
            ranks, added = _freeze(atoms, index, centroids, assignments, capacity[group])
            hit = ranks >= 0
            labels[at[hit]] = (ranks + issued[group, None])[hit]
            issued[group] += added
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
        tree searches read their children from here; ``TreeSelector`` keeps
        the blocks' float32 image for its filter."""
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
    return ClusterTree(
        branching=branching,
        dictionary_fingerprint=d.fingerprint(),
        n=d.n,
        centroids=[rows.astype(np.float64) for rows in centroids],
        offsets=offsets,
        atoms=members,
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
        norms = np.sqrt(row_dots(rows, rows))
        bad = np.flatnonzero(np.abs(norms - 1.0) > CENTROID_NORM_TOL)
        if bad.size:
            return f"internal centroid {bad[0]} at depth {depth} has norm {norms[bad[0]]:.8f}"
    atoms = t.atoms
    if (atoms.size != d.m or atoms.min() < 0 or atoms.max() >= d.m
            or not (np.bincount(atoms, minlength=d.m) == 1).all()):
        return f"leaves cover {atoms.size} atoms, expected all {d.m} exactly once"
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


def _walk(data: bytes, at: int, n: int, levels: int, path, starts: list, counts: list) -> None:
    """Step through the preorder node records from offset `at`, reading only
    tags and child counts; leaf runs are stepped over unread.

    Appends each internal record's offset and child count to ``starts`` and
    ``counts`` of its depth as it goes, so on a FormatError they hold what
    came before it; a run cut short by the end of the file counts only its
    whole records.
    """
    size = len(data)
    record = 4 * n + 5  # u8 tag, n x f32 centroid, u32 child count
    leaf = _LEAF_RECORD.itemsize
    pending = [1]  # nodes still to read at depth len(pending) - 1, in preorder
    while pending:
        if not pending[-1]:
            pending.pop()
            continue
        pending[-1] -= 1
        depth = len(pending) - 1
        if at >= size:
            raise _binio.truncated(str(path), "node tag", at, 1, size)
        tag = data[at]
        if tag == 1:
            raise FormatError(
                f"{path}: leaf at depth {depth} at offset {at}, expected leaves at depth {levels + 1}"
            )
        if tag:
            raise FormatError(f"{path}: bad node tag {tag} at offset {at}")
        if at + record > size:
            if at + 1 + 4 * n > size:
                raise _binio.truncated(str(path), "centroid", at + 1, 4 * n, size)
            raise _binio.truncated(str(path), "child count", at + record - 4, 4, size)
        count = _U32.unpack_from(data, at + record - 4)[0]
        if not count:
            raise FormatError(f"{path}: internal node with no children at offset {at}")
        starts[depth].append(at)
        at += record
        if depth < levels:
            counts[depth].append(count)
            pending.append(count)
            continue
        whole = min(count, (size - at) // leaf)
        counts[depth].append(whole)
        if whole < count:
            raise FormatError(
                f"{path}: leaf run of {count} atoms cut short after {whole} "
                f"at offset {at + leaf * whole}"
            )
        at += leaf * count
    if at != size:
        raise FormatError(f"{path}: {size - at} unexpected trailing bytes at offset {at}")


def _leaf_atoms(buf: np.ndarray, bottom: list, counts: list, record: int, levels: int,
                path) -> np.ndarray:
    """The atom indices of every leaf run, gathered and checked in one pass.

    Run j holds ``counts[j]`` leaf records right after the depth-L record at
    offset ``bottom[j]`` (``record`` bytes long).  Raises on the first leaf
    record, in file order, whose tag is not 1 or whose index overflows int64.
    """
    size = _LEAF_RECORD.itemsize
    counts = np.array(counts, dtype=np.int64)
    first = np.cumsum(counts) - counts
    # leaf j of run r sits at bottom[r] + record + size * (j - first[r]), j counted over all runs
    at = np.arange(0, size * int(counts.sum()), size, dtype=np.int64)
    at += np.repeat(np.array(bottom, dtype=np.int64) + record - size * first, counts)
    records = sliding_window_view(buf, size)[at].view(_LEAF_RECORD)[:, 0]
    bad = np.flatnonzero((records["tag"] != 1) | (records["index"] >= 1 << 63))
    if bad.size:
        tag = int(records["tag"][bad[0]])
        what = {0: f"internal node below level {levels}", 1: "leaf atom index out of range"}
        raise FormatError(f"{path}: {what.get(tag, f'bad node tag {tag}')} at offset {at[bad[0]]}")
    return records["index"].astype(np.int64)


def load_tree(path) -> ClusterTree:
    """Read a v2 ``.tree`` file; raises FormatError naming the first bad offset.

    Any other version, v1 included, raises UnsupportedFormatError at offset
    8: a v1 tree carries the old fingerprint and must be rebuilt.

    One walk over the records finds every internal record and leaf run;
    each depth's centroids and all leaf records are then one gather from
    the file bytes.  A bad leaf record before the point where the walk
    stopped is reported first, as a record-by-record reader would.
    """
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

    starts = [[] for _ in range(levels + 1)]
    counts = [[] for _ in range(levels + 1)]
    try:
        _walk(reader.data, reader.offset, n, levels, path, starts, counts)
        error = None
    except FormatError as exc:
        error = exc  # raised once the leaf records walked over are checked
    buf = np.frombuffer(reader.data, dtype=np.uint8)
    atoms = _leaf_atoms(buf, starts[levels], counts[levels], 4 * n + 5, levels, path)
    if error is not None:
        raise error
    rows = sliding_window_view(buf, 4 * n)
    return ClusterTree(
        branching=branching,
        dictionary_fingerprint=fingerprint,
        n=n,
        centroids=[
            rows[np.array(level, dtype=np.int64) + 1].view("<f4").astype(np.float64)
            for level in starts
        ],
        offsets=[_csr(level) for level in counts],
        atoms=atoms,
    )

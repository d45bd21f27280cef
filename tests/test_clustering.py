import gc
import math
import re
import struct
import tracemalloc

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from stmp import (
    ClusterTree,
    FormatError,
    StaleTreeError,
    TreeSelector,
    UnsupportedFormatError,
    build_tree,
    load_tree,
    normalize_columns,
    save_tree,
    stmp_select,
    validate_tree,
)
from stmp import clustering
from stmp.clustering import (
    _distances,
    _draw,
    _kmeans,
    _kmeanspp,
    _nearest,
    _seed_sequence,
    _split,
    _unit_means,
)
from stmp.dictionary import Dictionary

import oracles


def _random_dictionary(m, n, seed):
    rng = np.random.default_rng(seed)
    return normalize_columns(rng.standard_normal((m, n)))


def _lone_kmeans(vectors, k, seed, max_iters=25):
    """One node's k-means: a stack of one through the kernel build_tree runs."""
    vectors = np.ascontiguousarray(vectors, dtype=np.float32)
    centroids, assignments = _kmeans(vectors, np.arange(len(vectors))[None], k,
                                     [_seed_sequence(seed)], max_iters)
    return centroids[0], assignments[0]


def _balanced(atoms, k, seed):
    """One node's balanced split as build_tree runs it: each atom's cluster
    id, and each cluster's size and unit-norm centroid."""
    atoms = np.ascontiguousarray(atoms, dtype=np.float32)
    m = atoms.shape[0]
    labels, count = _split(atoms, np.arange(m), np.array([m]), k, [seed])
    sizes = np.bincount(labels, minlength=int(count[0]))
    return labels, sizes, _unit_means(atoms, np.argsort(labels, kind="stable"), sizes)


def test_kmeans_k_equals_count():
    rng = np.random.default_rng(0)
    vectors = rng.standard_normal((6, 3)).astype(np.float32)
    centroids, assignments = _lone_kmeans(vectors, 6, seed=1)
    np.testing.assert_array_equal(assignments, np.arange(6))
    np.testing.assert_array_equal(centroids, vectors)


def test_kmeans_separated_clouds():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((40, 4)) * 0.05 + np.array([10.0, 0, 0, 0])
    b = rng.standard_normal((40, 4)) * 0.05 - np.array([10.0, 0, 0, 0])
    vectors = np.vstack([a, b]).astype(np.float32)
    _, assignments = _lone_kmeans(vectors, 2, seed=3)
    assert len(set(assignments[:40])) == 1
    assert len(set(assignments[40:])) == 1
    assert assignments[0] != assignments[40]


def test_kmeans_deterministic():
    rng = np.random.default_rng(2)
    vectors = rng.standard_normal((100, 8)).astype(np.float32)
    c1, a1 = _lone_kmeans(vectors, 7, seed=5)
    c2, a2 = _lone_kmeans(vectors, 7, seed=5)
    assert c1.tobytes() == c2.tobytes()
    np.testing.assert_array_equal(a1, a2)


def test_balanced_quadruplets():
    rng = np.random.default_rng(4)
    corners = np.array(
        [[10, 0, 0], [-10, 0, 0], [0, 10, 0], [0, 0, 10]], dtype=np.float64
    )
    atoms = np.repeat(corners, 3, axis=0) + rng.standard_normal((12, 3)) * 0.01
    labels, sizes, _ = _balanced(atoms, 4, seed=0)
    assert sizes.tolist() == [3, 3, 3, 3]
    # group labels must match the generating quadruplets
    groups = [set(np.flatnonzero(labels == c) // 3) for c in range(4)]
    assert all(len(g) == 1 for g in groups)


def test_balanced_sizes_m10_k3():
    atoms = _random_dictionary(10, 5, seed=6).atoms
    _, sizes, _ = _balanced(atoms, 3, seed=1)
    assert sizes.tolist() == [4, 4, 2]


def test_balanced_singletons():
    atoms = _random_dictionary(5, 4, seed=7).atoms
    _, sizes, _ = _balanced(atoms, 5, seed=2)
    assert sizes.tolist() == [1, 1, 1, 1, 1]


def test_balanced_invariants_random():
    for seed in range(5):
        m = 17 + 9 * seed
        k = 2 + seed
        atoms = _random_dictionary(m, 6, seed=seed + 10).atoms
        labels, sizes, centroids = _balanced(atoms, k, seed=seed)
        capacity = -(-m // k)
        assert sizes.size <= k
        assert sizes[:-1].tolist() == [capacity] * (sizes.size - 1)
        assert 1 <= sizes[-1] <= capacity
        norms = np.linalg.norm(centroids.astype(np.float64), axis=1)
        assert np.abs(norms - 1.0).max() < 1e-5
        want_labels, want_centroids, want_sizes = oracles.balanced_cluster(atoms, k, seed)
        assert labels.tolist() == want_labels.tolist() and sizes.tolist() == want_sizes.tolist()
        assert centroids.tobytes() == want_centroids.tobytes()


def test_balanced_tolerates_duplicate_atoms():
    atoms = np.tile(normalize_columns(np.eye(4)).atoms, (5, 1))
    labels, sizes, _ = _balanced(atoms, 4, seed=3)
    assert sizes.tolist() == [5, 5, 5, 5]
    assert np.bincount(labels).tolist() == sizes.tolist()


def test_build_tree_rejects_small_branching():
    d = _random_dictionary(20, 4, seed=8)
    with pytest.raises(ValueError):
        build_tree(d, (4, 1), seed=0)
    with pytest.raises(ValueError):
        build_tree(d, (), seed=0)


def test_tree_structure_and_validation():
    d = _random_dictionary(120, 8, seed=9)
    tree = build_tree(d, (6, 5), seed=4)
    assert tree.levels == 2
    report = validate_tree(tree, d)
    assert report.ok, report.violation

    assert [rows.shape for rows in tree.centroids] == [(1, 8), (6, 8), (30, 8)]
    reached = []

    def walk(depth, node):
        lo, hi = tree.offsets[depth][node], tree.offsets[depth][node + 1]
        if depth == tree.levels:
            reached.extend((depth + 1, atom) for atom in tree.atoms[lo:hi].tolist())
            return
        for child in range(lo, hi):
            walk(depth + 1, child)

    walk(0, 0)
    assert {depth for depth, _ in reached} == {3}  # leaves exactly at L+1
    assert sorted(atom for _, atom in reached) == list(range(120))
    assert tree.atoms.dtype == np.int64


def test_validate_rejects_foreign_dictionary():
    d1 = _random_dictionary(40, 6, seed=11)
    d2 = _random_dictionary(40, 6, seed=12)
    tree = build_tree(d1, (4, 3), seed=0)
    with pytest.raises(StaleTreeError):
        validate_tree(tree, d2)


def test_validate_detects_tampering():
    d = _random_dictionary(60, 5, seed=13)

    def tampered(change):
        tree = build_tree(d, (5, 4), seed=0)
        change(tree)
        report = validate_tree(tree, d)
        assert not report.ok
        return report.violation

    def scale_centroid(tree):
        tree.centroids[1][0] *= 2.0

    def shift_boundary(tree):
        tree.offsets[2][1] += 1

    def repeat_atom(tree):
        tree.atoms[1] = tree.atoms[0]

    def drop_children(tree):
        tree.offsets[1][2] = tree.offsets[1][1]

    def nan_centroid(tree):  # |nan - 1| > tol is False: the check must fail NaN itself
        tree.centroids[1][0] = np.nan

    assert "norm" in tampered(scale_centroid)
    assert tampered(nan_centroid) == "internal centroid 0 at depth 1 has norm nan"
    assert "unbalanced" in tampered(shift_boundary)
    assert "exactly once" in tampered(repeat_atom)
    assert "no children" in tampered(drop_children)


def test_build_tree_deterministic():
    d = _random_dictionary(90, 7, seed=14)
    t1 = build_tree(d, (5, 3), seed=6)
    t2 = build_tree(d, (5, 3), seed=6)
    assert [c.tobytes() for c in t1.centroids] == [c.tobytes() for c in t2.centroids]
    assert [b.tolist() for b in t1.offsets] == [b.tolist() for b in t2.offsets]
    assert t1.atoms.tobytes() == t2.atoms.tobytes()
    assert [c.dtype for c in t1.centroids] == [np.dtype(np.float32)] * 3


def test_tree_round_trip(tmp_path):
    d = _random_dictionary(100, 6, seed=15)
    tree = build_tree(d, (5, 4), seed=7)
    path = tmp_path / "t.tree"
    save_tree(tree, path)
    back = load_tree(path)
    assert back.branching == tree.branching
    assert back.dictionary_fingerprint == tree.dictionary_fingerprint
    report = validate_tree(back, d)
    assert report.ok, report.violation


def test_full_depths_give_child_blocks_that_are_views(tmp_path):
    # m divides the branching product, so every node has all its children: the
    # lone query's blocks reshape the tree's own arrays, built or loaded, and copy none
    d = _random_dictionary(120, 6, seed=16)
    built = build_tree(d, (4, 3, 2), seed=8)
    save_tree(built, tmp_path / "t.tree")
    for tree in (built, load_tree(tmp_path / "t.tree")):
        blocks = tree.child_blocks
        for depth, (block, counts) in enumerate(blocks[:-1]):
            assert counts is None and block.shape == (math.prod(tree.branching[:depth]),
                                                      tree.branching[depth], 6)
            assert np.shares_memory(block, tree.centroids[depth + 1])
        block, counts = blocks[-1]
        assert counts is None and block.shape == (24, 5) and np.shares_memory(block, tree.atoms)


@pytest.mark.parametrize("branching", [(6, 4), (6, 4, 8)])
def test_uneven_depths_give_zero_padded_child_blocks(tmp_path, branching):
    # m = 203 divides neither shape: (6, 4) pads the leaf, (6, 4, 8) a centroid depth too
    d = _random_dictionary(203, 6, seed=16)
    built = build_tree(d, branching, seed=8)
    save_tree(built, tmp_path / "t.tree")
    for tree in (built, load_tree(tmp_path / "t.tree")):
        padded = 0
        for depth, (block, counts) in enumerate(tree.child_blocks):
            rows = tree.atoms if depth == tree.levels else tree.centroids[depth + 1]
            bounds = tree.offsets[depth]
            sizes = np.diff(bounds)
            width = block.shape[1]
            assert block.shape == (sizes.size, width) + rows.shape[1:] and width == sizes.max()
            if counts is None:
                assert (sizes == width).all()
            else:
                padded += 1
                np.testing.assert_array_equal(counts, sizes)
            for j, (lo, hi) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
                np.testing.assert_array_equal(block[j, :hi - lo], rows[lo:hi])
                assert not block[j, hi - lo:].any()
        assert padded == len(branching) - 1


def test_tree_file_corruption(tmp_path):
    d = _random_dictionary(30, 4, seed=16)
    tree = build_tree(d, (3, 2), seed=8)
    path = tmp_path / "t.tree"
    save_tree(tree, path)
    raw = path.read_bytes()

    bad = tmp_path / "bad.tree"
    bad.write_bytes(b"NOTATREE" + raw[8:])
    with pytest.raises(FormatError):
        load_tree(bad)

    bad.write_bytes(raw[:-3])
    with pytest.raises(FormatError):
        load_tree(bad)

    bad.write_bytes(raw + b"\0")
    with pytest.raises(FormatError):
        load_tree(bad)


def _atoms(m, n, distinct, zeros, seed):
    """m float32 atoms drawn from `distinct` unit rows, plus `zeros` all-zero
    rows (-0.0 in places), shuffled."""
    rng = np.random.default_rng(seed)
    base = normalize_columns(rng.standard_normal((distinct, n))).atoms
    rows = base[rng.integers(distinct, size=m - zeros)]
    blank = np.zeros((zeros, n), dtype=np.float32)
    blank[:, ::2] = -0.0
    return np.concatenate([rows, blank])[rng.permutation(m)]


def _assert_same_tree(got, want, tmp_path):
    assert [c.tobytes() for c in got.centroids] == [c.tobytes() for c in want.centroids]
    assert [b.tolist() for b in got.offsets] == [b.tolist() for b in want.offsets]
    assert got.atoms.tobytes() == want.atoms.tobytes()
    save_tree(got, tmp_path / "got.tree")
    save_tree(want, tmp_path / "want.tree")
    assert (tmp_path / "got.tree").read_bytes() == (tmp_path / "want.tree").read_bytes()


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(2, 400),
    n=st.integers(2, 64),
    branching=st.lists(st.integers(2, 12), min_size=1, max_size=3),
    distinct=st.integers(1, 400),
    zero_share=st.sampled_from([0.0, 0.0, 0.1, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
# n = 64 builds whose float32 distance bits matter: a copy that pads the
# GEMM's rows or centroids (and so changes those bits) fails one of these
@example(m=326, n=64, branching=[4, 9], distinct=12, zero_share=0.5, seed=2049427296)
@example(m=371, n=64, branching=[3, 7, 9], distinct=279, zero_share=0.0, seed=1051542348)
@example(m=65, n=64, branching=[5, 9, 11], distinct=260, zero_share=0.0, seed=1523092976)
@example(m=219, n=64, branching=[6, 6, 9], distinct=15, zero_share=0.0, seed=3644617559)
# k-means++ over float32 distances: this tree differs from one whose draws
# read exact float64 distances, so a change to either side's formula fails it
@example(m=80, n=43, branching=[8, 7, 6], distinct=45, zero_share=0.0, seed=3373123666)
@example(m=300, n=33, branching=[5, 3, 2], distinct=6, zero_share=0.1, seed=2)
@example(m=40, n=5, branching=[12, 3], distinct=3, zero_share=0.5, seed=3)
def test_batched_build_matches_the_per_node_reference(tmp_path_factory, m, n, branching,
                                                      distinct, zero_share, seed):
    """Every depth's nodes split together; each tree array and the file
    bytes equal the node-by-node build, on duplicated and all-zero atoms too."""
    atoms = _atoms(m, n, min(distinct, m), int(zero_share * m), seed)
    d = Dictionary(atoms)
    _assert_same_tree(build_tree(d, branching, seed), oracles.build_tree(d, branching, seed),
                      tmp_path_factory.mktemp("trees"))


@pytest.mark.parametrize("m, n, branching", [(2000, 64, (40, 10)), (997, 5, (7, 3)), (500, 9, (5, 4, 3)),
                                             (1500, 16, (100, 3))])  # a root with k innermost
def test_batched_build_matches_the_reference_at_size(tmp_path, m, n, branching):
    d = _random_dictionary(m, n, seed=m + n)
    _assert_same_tree(build_tree(d, branching, 11), oracles.build_tree(d, branching, 11), tmp_path)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 150), min_size=1, max_size=4),
    n=st.integers(2, 24),
    k=st.integers(2, 12),
    distinct=st.integers(1, 150),
    seed=st.integers(0, 2**32 - 1),
)
@example(sizes=[97, 100, 3], n=5, k=7, distinct=150, seed=0)  # 7 divides none of them
# duplicates, empty clusters; float32 distances leave copies of a chosen row
# a little mass, so k-means++ draws them and never finds the mass at zero
@example(sizes=[60, 60], n=3, k=4, distinct=2, seed=1)
def test_later_rounds_start_from_the_unfrozen_centroids(sizes, n, k, distinct, seed):
    """Every node's first round draws k-means++ from its seed; every later
    round starts Lloyd from exactly the centroids its node's previous round
    did not freeze (as many as the round's k), or takes the k == rows
    shortcut, and draws no random numbers.  The batched split equals the
    per-node reference bit for bit."""
    sizes = np.array(sizes)
    atoms = _atoms(int(sizes.sum()), n, min(distinct, int(sizes.sum())), 0, seed)
    owner = np.repeat(np.arange(sizes.size), sizes)
    seeds = [seed + j for j in range(sizes.size)]
    kmeans_, freeze, kmeanspp, seed_sequence = (
        clustering._kmeans, clustering._freeze, clustering._kmeanspp, clustering._seed_sequence)
    calls = []  # per _kmeans call: its nodes, their round, rows, k, start and the centroids it gave
    frozen, drawn_in, keys = [], [], []  # _freeze's masks, k-means++'s rounds, _seed_sequence's keys
    now = [None]  # the round of the _kmeans call running

    def recording_kmeans(atoms_, index, k_, seeds_=(), max_iters=25, *, start=None):
        nodes = owner[index[:, 0]].tolist()
        r = {sum(j in call[0] for call in calls) for j in nodes}
        assert len(r) == 1  # a stack's nodes are in one round
        now[0] = r.pop()
        centroids, assignments = kmeans_(atoms_, index, k_, seeds_, max_iters, start=start)
        calls.append((nodes, now[0], index.shape[1], k_, start, centroids))
        return centroids, assignments

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clustering, "_kmeans", recording_kmeans)
        mp.setattr(clustering, "_freeze", lambda *a: frozen.append(out := freeze(*a)) or out)
        mp.setattr(clustering, "_kmeanspp", lambda *a: drawn_in.append(now[0]) or kmeanspp(*a))
        mp.setattr(clustering, "_seed_sequence",
                   lambda s, *key: keys.append(key) or seed_sequence(s, *key))
        labels, counts = _split(atoms, np.arange(owner.size), sizes, k, seeds)
    seeded = 0
    last = {}  # per node, its previous round's unfrozen centroids
    for (nodes, r, rows, k_round, start, centroids), (_, mask) in zip(calls, frozen):
        for s, j in enumerate(nodes):
            if r == 0 or k_round == rows:
                assert start is None
                seeded += r == 0 and k_round < rows
            else:
                assert start is not None and last[j].shape[0] == k_round
                assert start[s].tobytes() == last[j].tobytes()
            last[j] = centroids[s][~mask[s]]
    assert drawn_in == [0] * len(drawn_in) and keys == [(0,)] * seeded
    for j in range(sizes.size):
        mine = owner == j
        want, _, want_sizes = oracles.balanced_cluster(atoms[mine], k, seeds[j])
        assert labels[mine].tolist() == want.tolist() and counts[j] == want_sizes.size


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(2, 80),
    n=st.integers(2, 64),
    k_share=st.floats(0.0, 1.0),
    nodes=st.integers(1, 5),
    distinct=st.integers(1, 80),
    max_iters=st.sampled_from([1, 2, 3, 25]),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=6, n=3, k_share=0.6, nodes=3, distinct=2, max_iters=25, seed=0)  # zero mass, empties
@example(rows=9, n=4, k_share=1.0, nodes=2, distinct=9, max_iters=25, seed=1)  # k == count
@example(rows=64, n=64, k_share=0.2, nodes=4, distinct=64, max_iters=2, seed=2)  # max_iters exit
@example(rows=80, n=16, k_share=0.9, nodes=3, distinct=80, max_iters=25, seed=3)  # k innermost
def test_stacked_kmeans_matches_the_lone_reference(rows, n, k_share, nodes, distinct, max_iters, seed):
    """A stack of same-shape nodes gives each node the lone reference run's
    centroid and assignment bits, whichever nodes converge first."""
    k = 1 + round(k_share * (rows - 1))
    stack = np.stack([_atoms(rows, n, min(distinct, rows), 0, seed + s) for s in range(nodes)])
    seeds = [_seed_sequence(seed, s) for s in range(nodes)]
    index = np.arange(nodes * rows).reshape(nodes, rows)
    centroids, assignments = _kmeans(stack.reshape(-1, n), index, k, seeds, max_iters)
    for s in range(nodes):
        want_c, want_a = oracles.kmeans(stack[s], k, seeds[s], max_iters)
        assert centroids[s].tobytes() == want_c.tobytes()
        assert assignments[s].tolist() == want_a.tolist()
    lone_c, lone_a = _lone_kmeans(stack[0], k, seeds[0], max_iters)
    assert lone_c.tobytes() == centroids[0].tobytes() and lone_a.tolist() == assignments[0].tolist()


def test_kmeans_duplicates_take_the_zero_mass_and_reseeding_paths(monkeypatch):
    """Two distinct points whose float32 distances are exact, and k = 4:
    after one draw no mass is left, so the last two seeds take the first
    unchosen rows; Lloyd's first pass leaves clusters empty to re-seed."""
    vectors = np.repeat(np.eye(2, 3, dtype=np.float32), 5, axis=0)
    calls, drawn = [], []
    original, draw = oracles._squared_distances, clustering._draw
    monkeypatch.setattr(oracles, "_squared_distances",
                        lambda *a: calls.append(d2 := original(*a)) or d2)
    monkeypatch.setattr(clustering, "_draw", lambda d2, *a: drawn.append(len(d2)) or draw(d2, *a))
    want_c, want_a = oracles.kmeans(vectors, 4, seed=0)
    got_c, got_a = _lone_kmeans(vectors, 4, seed=0)
    assert got_c.tobytes() == want_c.tobytes() and got_a.tolist() == want_a.tolist()
    assert drawn == [1, 0, 0]  # zero mass ran: draws 2 and 3 drew nothing
    lloyd = [d2 for d2 in calls if d2.shape[1] == 4]  # k-means++ scores one centre at a time
    assert np.bincount(lloyd[0].argmin(axis=1), minlength=4).min() == 0  # re-seeding ran


def test_kmeanspp_never_draws_a_chosen_row_twice():
    """A row whose GEMM distance to itself rounds above 0 has no mass once
    chosen: beside four exact copies of e1, every node draws it once and,
    with no mass left, takes the first unchosen row rather than it again."""
    vectors = np.array([[1 / 3, 2 / 3, 2 / 3]] + [[1, 0, 0]] * 4, dtype=np.float32)
    sq_norms = (vectors.astype(np.float64) ** 2).sum(axis=1).astype(np.float32)
    assert clustering._distances(vectors[None], sq_norms[None], vectors[None, :1])[0, 0, 0] > 0
    seeds = [_seed_sequence(s) for s in range(40)]
    centres = _kmeanspp(np.tile(vectors, (40, 1, 1)), np.tile(sq_norms, (40, 1)), 3, seeds)
    for s, seed in enumerate(seeds):
        want = oracles._kmeanspp_init(vectors, sq_norms, 3, np.random.default_rng(seed))
        assert centres[s].tobytes() == want.tobytes()
        assert (centres[s] == vectors[0]).all(axis=1).sum() == 1
    assert (centres[:, 0] == vectors[0]).all(axis=1).any()  # some nodes start from that row


def test_kmeans_keeps_no_buffer_and_no_row_major_copy():
    """With the cyclic collector off, _kmeans hands back all it allocated
    but its outputs, and its peak stays under five float32 stacks: the
    stack, its float64 columns and Lloyd's distance block.  The norms'
    float64 squares and k-means++'s (S, rows) sums are freed before the
    columns are built."""
    atoms = _random_dictionary(30000, 16, seed=40).atoms
    index = np.arange(30000)[None]
    stack_bytes = atoms.nbytes
    gc.disable()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        centroids, assignments = _kmeans(atoms, index, 10, [_seed_sequence(41)])
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert current - base <= centroids.nbytes + assignments.nbytes + 64 * 1024
    assert peak - base < 5 * stack_bytes


@pytest.mark.parametrize("count", [4, 6, 40])
def test_kmeanspp_draw_matches_rng_choice(count):
    rng = np.random.default_rng(count)
    for trial in range(200):
        d2 = rng.random(count) * (rng.random(count) < 0.5)  # p with zeros
        d2[rng.integers(count)] = rng.random() + 0.1
        if trial % 3 == 0:
            d2 *= 1e-300  # denormal-scale mass
        total = d2.sum()
        want = np.random.default_rng(trial).choice(count, p=d2 / total)
        got = _draw(d2[None], np.array([total]), np.array([np.random.default_rng(trial).random()]))
        assert got.tolist() == [want]
        assert d2[want] > 0


def _sq_norms(vectors):
    return np.square(vectors, dtype=np.float64).sum(axis=2).astype(np.float32)


@settings(max_examples=30, deadline=None)
@given(
    S=st.integers(1, 6),
    rows=st.integers(2, 200),
    n=st.sampled_from([2, 16, 43, 64]),
    k=st.integers(1, 100),
    copies=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# shapes where a row-blocked GEMM was seen to lose bits against the whole product
@example(S=100, rows=1000, n=64, k=10, copies=False, seed=0)
@example(S=1, rows=5003, n=43, k=50, copies=False, seed=1)
@example(S=3, rows=40, n=16, k=1, copies=True, seed=2)  # k-means++'s one-centre product
@example(S=2, rows=300, n=16, k=clustering._K_MAJOR_BELOW - 1, copies=True, seed=3)
@example(S=2, rows=300, n=16, k=clustering._K_MAJOR_BELOW, copies=True, seed=4)
def test_distances_are_the_row_major_reference_node_by_node(S, rows, n, k, copies, seed):
    """Node by node, the (S, k, rows) block is the transpose of the oracle's
    (rows, k) float32 distances, and its first minimum across k is the
    oracle's argmin.  Below ``_K_MAJOR_BELOW`` centroids the block is
    k-major in memory, from there on k is innermost."""
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((S, rows, n)).astype(np.float32)
    if copies:  # centroids that are rows: clamped self-distances and duplicated centroids
        centroids = vectors[:, rng.integers(rows, size=k)]
    else:
        centroids = rng.standard_normal((S, k, n)).astype(np.float32)
    sq_norms = _sq_norms(vectors)
    d2 = _distances(vectors, sq_norms, centroids)
    assert d2.shape == (S, k, rows) and d2.dtype == np.float32
    k_major = k < clustering._K_MAJOR_BELOW
    assert (d2 if k_major else d2.transpose(0, 2, 1)).flags.c_contiguous
    nearest = _nearest(d2)
    for s in range(S):
        want = oracles._squared_distances(vectors[s], sq_norms[s], centroids[s])
        assert d2[s].T.tobytes() == want.tobytes()
        assert nearest[s].tolist() == want.argmin(axis=1).tolist()


@pytest.mark.parametrize("S", [1, 3, 300])
@pytest.mark.parametrize("k", [2, 3, 10, 101, 1000])
def test_nearest_breaks_exact_ties_as_argmin_does(S, k):
    """On blocks full of exact ties, ``_nearest`` equals ``np.argmin`` over k
    on the row-major transpose: the lowest tied centroid wins, whichever
    axis the block stores innermost.  One block holds a few distinct rows,
    each many times, against centroids drawn from them with repeats, so
    distances tie across duplicated centroids and a row's distance to its
    own copy is clamped at 0; the others hold small whole numbers."""
    rng = np.random.default_rng(1000 * S + k)
    rows = max(4, 60000 // (S * k))
    base = normalize_columns(rng.standard_normal((max(2, k // 3), 8))).atoms
    vectors = base[rng.integers(len(base), size=(S, rows))]
    picks = rng.integers(len(base), size=(S, k))
    picks[:, -1] = picks[:, 0]  # every node has a duplicated centroid
    centroids = base[picks]
    counted = rng.integers(0, 3, size=(S, k, rows)).astype(np.float32)
    blocks = (_distances(vectors, _sq_norms(vectors), centroids), counted,
              np.ascontiguousarray(counted.transpose(0, 2, 1)).transpose(0, 2, 1))
    for d2 in blocks:
        tied = (d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) > 1
        assert tied.any() and (d2 == 0).any()
        got = _nearest(d2)
        assert got.dtype == np.int64
        assert got.tolist() == np.ascontiguousarray(d2.transpose(0, 2, 1)).argmin(axis=2).tolist()


# A hand-checked 3-atom tree, n = 2, branching (2,): the root splits into
# node A (atoms 0 and 2) and node B (atom 1).
_FINGERPRINT = 0x0123456789ABCDEF
_TREE_BYTES = (
    b"STMPTREE" + struct.pack("<IQQII", 3, _FINGERPRINT, 2, 1, 2)  # header, 36 bytes
    + struct.pack("<I2f", 2, 1.0, 0.0)  # depth 0: the root's child count at 36, centroid at 40
    + struct.pack("<2I", 2, 1)  # depth 1: A's and B's child counts at 48 and 52
    + struct.pack("<4f", 0.6, 0.8, 0.0, 1.0)  # A's and B's centroids at 56 and 64
    + struct.pack("<3Q", 0, 2, 1)  # leaf atom ids at 72, 80 and 88
)


def _hand_tree():
    return ClusterTree(
        branching=(2,),
        dictionary_fingerprint=_FINGERPRINT,
        n=2,
        centroids=[
            np.array([[1.0, 0.0]]),
            np.array([[0.6, 0.8], [0.0, 1.0]], dtype=np.float32).astype(np.float64),
        ],
        offsets=[[0, 2], [0, 2, 3]],
        atoms=np.array([0, 2, 1], dtype=np.int64),
    )


def test_tree_v3_bytes_pinned(tmp_path):
    assert len(_TREE_BYTES) == 96
    path = tmp_path / "hand.tree"
    save_tree(_hand_tree(), path)
    assert path.read_bytes() == _TREE_BYTES
    back = load_tree(path)
    want = _hand_tree()
    assert (back.branching, back.dictionary_fingerprint, back.n) == ((2,), _FINGERPRINT, 2)
    assert [c.tobytes() for c in back.centroids] == [c.tobytes() for c in want.centroids]
    assert [b.tolist() for b in back.offsets] == [[0, 2], [0, 2, 3]]
    assert all(b.dtype == np.int64 for b in back.offsets)
    assert back.atoms.tolist() == [0, 2, 1] and back.atoms.dtype == np.int64


# The same hand tree in v2, which stored preorder node records: a node
# tag, centroid and child count for each internal node, then a tag and
# atom id per leaf.
_TREE_V2_BYTES = (
    b"STMPTREE" + struct.pack("<IQQII", 2, _FINGERPRINT, 2, 1, 2)  # header, 36 bytes
    + b"\x00" + struct.pack("<2fI", 1.0, 0.0, 2)  # root at 36
    + b"\x00" + struct.pack("<2fI", 0.6, 0.8, 2)  # A at 49
    + b"\x01" + struct.pack("<Q", 0) + b"\x01" + struct.pack("<Q", 2)  # A's leaf run at 62
    + b"\x00" + struct.pack("<2fI", 0.0, 1.0, 1)  # B at 80
    + b"\x01" + struct.pack("<Q", 1)  # B's leaf run at 93
)


def test_tree_v2_bytes_pinned(tmp_path):
    # a v2 file is rebuilt, not read: its version is refused before any record
    assert len(_TREE_V2_BYTES) == 102
    path = tmp_path / "v2.tree"
    path.write_bytes(_TREE_V2_BYTES)
    message = "version 2 at offset 8; rebuild the tree with stmp build-tree"
    with pytest.raises(UnsupportedFormatError, match=message):
        load_tree(path)


def test_tree_v1_is_refused_at_offset_8(tmp_path):
    # v1 had the FNV-1a fingerprint; it is rebuilt, not read
    path = tmp_path / "old.tree"
    path.write_bytes(_patched(8, struct.pack("<I", 1)))
    message = "version 1 at offset 8; rebuild the tree with stmp build-tree"
    with pytest.raises(UnsupportedFormatError, match=message):
        load_tree(path)


def _patched(at, new):
    raw = bytearray(_TREE_BYTES)
    raw[at : at + len(new)] = new
    return bytes(raw)


@pytest.mark.parametrize(
    "data, message",
    [
        # root-leaf, shallow-leaf, bad-tag and bad-leaf-tag keep the names of the
        # v2 record faults they replace: a root or A with no children, the byte 7
        # over A's first field, and B's leaf out of range
        (_patched(36, struct.pack("<I", 0)),
         "internal node 0 at depth 0 has no children at offset 36"),
        (_patched(48, struct.pack("<I", 0)),
         "internal node 0 at depth 1 has no children at offset 48"),
        (_patched(48, b"\x07"),
         "truncated while reading leaf atom ids at offset 72 (need 64 bytes, have 24)"),
        (_patched(88, struct.pack("<Q", 1 << 63)), "leaf atom index out of range at offset 88"),
        (_patched(52, struct.pack("<I", 0)),
         "internal node 1 at depth 1 has no children at offset 52"),
        (_patched(80, struct.pack("<Q", 1 << 63)), "leaf atom index out of range at offset 80"),
        (_patched(88, struct.pack("<Q", 2**64 - 1)) + b"\0",
         "leaf atom index out of range at offset 88"),
        (_TREE_BYTES[:54],
         "truncated while reading depth 1 child counts at offset 48 (need 8 bytes, have 6)"),
        (_TREE_BYTES[:60],
         "truncated while reading depth 1 centroids at offset 56 (need 16 bytes, have 4)"),
        (_TREE_BYTES[:84],
         "truncated while reading leaf atom ids at offset 72 (need 24 bytes, have 12)"),
        (_TREE_BYTES[:72],
         "truncated while reading leaf atom ids at offset 72 (need 24 bytes, have 0)"),
        (_patched(52, struct.pack("<I", 2)),
         "truncated while reading leaf atom ids at offset 72 (need 32 bytes, have 24)"),
        (_patched(36, struct.pack("<I", 2**32 - 1)),
         "truncated while reading depth 1 child counts at offset 48 "
         "(need 17179869180 bytes, have 48)"),
        (_patched(20, struct.pack("<Q", 2**40)),
         "truncated while reading depth 0 centroids at offset 40 "
         "(need 4398046511104 bytes, have 56)"),
        (_TREE_BYTES + b"\0\0", "2 unexpected trailing bytes at offset 96"),
        # a bad value is named before a fault in a later section, but a section the
        # file cannot hold is named at its start, before a bad value inside it
        (_patched(52, struct.pack("<I", 0)) + b"\0",
         "internal node 1 at depth 1 has no children at offset 52"),
        (_patched(48, struct.pack("<I", 0))[:90],
         "internal node 0 at depth 1 has no children at offset 48"),
        (_patched(48, struct.pack("<I", 0))[:54],
         "truncated while reading depth 1 child counts at offset 48 (need 8 bytes, have 6)"),
        (_patched(72, struct.pack("<Q", 1 << 63))[:90],
         "truncated while reading leaf atom ids at offset 72 (need 24 bytes, have 18)"),
    ],
    ids=[
        "root-leaf", "shallow-leaf", "bad-tag", "bad-leaf-tag", "zero-children", "index-overflow", "overflow-before-trailing",
        "truncated-node", "centroids-cut", "run-cut-short", "run-missing", "counts-past-file",
        "huge-count", "huge-dimension", "trailing", "zero-before-trailing", "zero-before-cut",
        "cut-after-zero", "cut-after-overflow",
    ],
)
def test_tree_load_errors_name_offset(tmp_path, data, message):
    path = tmp_path / "bad.tree"
    path.write_bytes(data)
    with pytest.raises(FormatError, match=re.escape(message)):
        load_tree(path)
    assert _load_outcome(oracles.load_tree_reference, path) == ("FormatError", f"{path}: {message}")


@pytest.mark.parametrize(
    "offsets, message",
    [
        ([[0, 2], [0, 2, 2]], "child offsets at depth 1 do not span the 3 nodes below"),
        ([[0, 1], [0, 2, 3]], "child offsets at depth 0 do not span the 2 nodes below"),
        ([[0, 2], [0, 3, 3]], "internal node 1 at depth 1 has no children"),
        ([[0, 2], [0, 4, 3]], "internal node 1 at depth 1 has no children"),
        ([[0, 2], [0, 2**32, 3]], "internal node 0 at depth 1 has 4294967296 children"),
    ],
    ids=["span-short", "root-span-short", "zero-count", "negative-count", "count-past-u32"],
)
def test_save_tree_refuses_a_tree_it_cannot_write(tmp_path, offsets, message):
    """A count that would wrap in its u32 field, or child ranges that do not
    span the depth below, would write sections of the wrong size."""
    tree = _hand_tree()
    tree.offsets = [np.array(b) for b in offsets]
    path = tmp_path / "t.tree"
    with pytest.raises(ValueError, match=re.escape(message)):
        save_tree(tree, path)
    assert not path.exists()


def _load_outcome(load, path):
    """A loader's arrays as bytes, or its error's type and message."""
    try:
        t = load(path)
    except FormatError as exc:
        return type(exc).__name__, str(exc)
    return (t.branching, t.dictionary_fingerprint, t.n,
            [(c.dtype.str, c.shape, c.tobytes()) for c in t.centroids],
            [(b.dtype.str, b.tobytes()) for b in t.offsets],
            (t.atoms.dtype.str, t.atoms.tobytes()))


def _field_offsets(tree):
    """File offsets of every child count and leaf atom id of ``tree``'s file."""
    at = 32 + 4 * tree.levels
    counts = []
    for bounds in tree.offsets:
        nodes = len(bounds) - 1
        counts.extend(range(at, at + 4 * nodes, 4))
        at += 4 * nodes * (1 + tree.n)
    return counts, list(range(at, at + 8 * tree.atoms.size, 8))


_FIELD_VALUES = {
    "count": st.one_of(st.sampled_from([0, 1, 2, 3, 2**32 - 1]),
                       st.integers(0, 2**32 - 1)).map(lambda v: struct.pack("<I", v)),
    "index": st.one_of(st.sampled_from([0, 1, 2**63 - 1, 2**63, 2**64 - 1]),
                       st.integers(0, 2**64 - 1)).map(lambda v: struct.pack("<Q", v)),
}


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(3, 40),
    n=st.integers(1, 4),
    branching=st.lists(st.integers(2, 5), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@example(m=7, n=2, branching=[3, 2], seed=0, data=None)
def test_load_tree_matches_the_record_by_record_reference(tmp_path_factory, m, n, branching,
                                                         seed, data):
    """Every truncation and random corruptions of child counts and leaf ids:
    the loader gives the reference reader's arrays or its error."""
    if m % math.prod(branching) == 0:
        m += 1  # uneven cluster sizes at every level
    tmp = tmp_path_factory.mktemp("trees")
    d = _random_dictionary(m, n, seed=seed % 1000)
    tree = build_tree(d, branching, seed)
    path = tmp / "t.tree"
    save_tree(tree, path)
    raw = path.read_bytes()
    got = load_tree(path)
    assert _load_outcome(lambda _: got, path) == _load_outcome(oracles.load_tree_reference, path)
    save_tree(got, tmp / "again.tree")
    assert (tmp / "again.tree").read_bytes() == raw

    bad = tmp / "bad.tree"
    for length in range(len(raw)):
        bad.write_bytes(raw[:length])
        assert _load_outcome(load_tree, bad) == _load_outcome(oracles.load_tree_reference, bad)

    if data is None:
        return
    fields = dict(zip(("count", "index"), _field_offsets(tree)))
    assert ([int.from_bytes(raw[at : at + 4], "little") for at in fields["count"]]
            == np.concatenate([np.diff(b) for b in tree.offsets]).tolist())
    assert [int.from_bytes(raw[at : at + 8], "little") for at in fields["index"]] == tree.atoms.tolist()
    for _ in range(8):
        corrupt = bytearray(raw)
        for _ in range(data.draw(st.integers(1, 3))):
            kind = data.draw(st.sampled_from(sorted(fields)))
            at = data.draw(st.sampled_from(fields[kind]))
            value = data.draw(_FIELD_VALUES[kind])
            corrupt[at : at + len(value)] = value
        # the whole file, a random cut, or a cut just past the last corrupted field
        cut = data.draw(st.sampled_from([len(corrupt), data.draw(st.integers(0, len(corrupt))),
                                         at + len(value) + data.draw(st.integers(0, 17))]))
        bad.write_bytes(bytes(corrupt[:cut]))
        assert _load_outcome(load_tree, bad) == _load_outcome(oracles.load_tree_reference, bad)


@pytest.mark.parametrize("field", ["root", "last"])
def test_load_tree_allocates_no_more_than_the_file_on_a_huge_count(tmp_path, field):
    """A child count of 2^32 - 1 at the root, or one whose depth's sum runs
    past the file, is refused at the section it cannot hold, and the load
    allocates a few times the file's bytes at most, not the section's."""
    d = _random_dictionary(3000, 8, seed=19)
    tree = build_tree(d, (10, 10), seed=2)
    path = tmp_path / "t.tree"
    save_tree(tree, path)
    raw = bytearray(path.read_bytes())
    counts, ids = _field_offsets(tree)
    at = counts[0] if field == "root" else counts[-1]
    raw[at : at + 4] = struct.pack("<I", 2**32 - 1)
    path.write_bytes(bytes(raw))
    what, start = ("depth 1 child counts", counts[1]) if field == "root" else ("leaf atom ids", ids[0])
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=f"truncated while reading {what} at offset {start} "):
            load_tree(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(raw)


def _arrays(value):
    """Every array held in ``value``, through lists and tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (list, tuple)):
        return [a for item in value for a in _arrays(item)]
    return []


def _buffer(array):
    """The object whose memory an array views, through array bases and memoryviews."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    base = array.base
    return base.obj if isinstance(base, memoryview) else array if base is None else base


def test_loaded_tree_holds_the_file_once(tmp_path):
    """A loaded tree keeps each section as its view of the file's bytes: the
    load allocates the file once, plus the int64 offsets.  TreeSelector
    filters on the tree's own centroid blocks, and no pick leaves a float64
    array on the tree."""
    d = _random_dictionary(4003, 64, seed=20)
    path = tmp_path / "t.tree"
    save_tree(build_tree(d, (30, 30, 3), seed=3), path)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        tree = load_tree(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * size + sum(b.nbytes for b in tree.offsets)
    owners = {id(_buffer(rows)): _buffer(rows) for rows in tree.centroids + [tree.atoms]}
    assert len(owners) == 1
    whole = np.frombuffer(*owners.values(), np.uint8)
    assert whole.size < size + 8
    assert all(np.shares_memory(rows, whole) for rows in tree.centroids + [tree.atoms])
    selector = TreeSelector(tree, d, 0.4)
    blocks = tree.child_blocks
    assert [counts is None for _, counts in blocks] == [True, False, False, False]  # padded copies
    for (table, _), (block, _) in zip(selector._tables[:-1], blocks[:-1]):
        assert np.shares_memory(table, block)
    Q = np.random.default_rng(21).standard_normal((40, 64))
    selector.pick(Q)
    selector.pick(Q[:1])
    stmp_select(tree, d, Q[0], 0.4)
    held = _arrays(list(vars(tree).values()))
    assert len(held) > 2 * len(blocks)  # the centroids, offsets, atoms and child blocks
    assert all(a.dtype != np.float64 for a in held)


@pytest.mark.parametrize("n", [4, 64, 100])
def test_validate_tree_decides_centroid_norms_at_the_tolerance_in_float64(n):
    # centroids scaled to just inside and just outside 1 +- tol: held in
    # float32, their norms are taken in float64, so each accept or reject, and
    # the first rejected centroid's message, is the one float64 norms give
    rng = np.random.default_rng(n)
    base = rng.standard_normal((2001, n))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    edge = clustering.CENTROID_NORM_TOL + np.linspace(-3e-7, 3e-7, 2001)
    root = np.eye(1, n, dtype=np.float32)
    pair = Dictionary(np.eye(2, n, dtype=np.float32))
    wide = Dictionary(base.astype(np.float32))
    for sign in (1.0, -1.0):
        rows = (base * (1.0 + sign * edge)[:, None]).astype(np.float32)
        norms = np.sqrt(np.array([row.dot(row) for row in rows.astype(np.float64)]))
        outside = np.abs(norms - 1.0) > clustering.CENTROID_NORM_TOL
        assert 0 < np.count_nonzero(outside) < outside.size
        for row, norm, out in zip(rows, norms, outside):
            tree = ClusterTree((2,), pair.fingerprint(), n, [root, np.vstack([row, root])],
                               [[0, 2], [0, 1, 2]], np.arange(2))
            want = f"internal centroid 0 at depth 1 has norm {norm:.8f}" if out else ""
            assert validate_tree(tree, pair).violation == want
        tree = ClusterTree((rows.shape[0],), wide.fingerprint(), n, [root, rows],
                           [[0, rows.shape[0]], np.arange(rows.shape[0] + 1)], np.arange(rows.shape[0]))
        first = int(np.flatnonzero(outside)[0])
        assert validate_tree(tree, wide).violation == (
            f"internal centroid {first} at depth 1 has norm {norms[first]:.8f}")


@pytest.mark.parametrize("atom", [-1, 12])
def test_validate_reports_leaves_outside_the_dictionary(atom):
    d = _random_dictionary(12, 3, seed=17)
    tree = build_tree(d, (3,), seed=0)
    tree.atoms[4] = atom
    assert validate_tree(tree, d).violation == "leaves cover 12 atoms, expected all 12 exactly once"


@pytest.mark.parametrize("leaf_fault", [b"\x00"])
@pytest.mark.parametrize("later", ["cut-in-run", "zero-children", "bad-tag", "truncated", "trailing"])
def test_load_tree_reports_a_bad_leaf_before_a_later_fault(tmp_path, leaf_fault, later):
    """A bottom node's leaf run left empty, by ``leaf_fault`` written over the
    low end of its child count, is named before any fault later in the file,
    as in a value-by-value read: a cut in the leaf ids or in the bottom
    centroids, a later empty run, a leaf id of 2^63 or trailing bytes."""
    d = _random_dictionary(11, 2, seed=18)
    tree = build_tree(d, (3, 2), seed=1)
    path = tmp_path / "t.tree"
    save_tree(tree, path)
    raw = bytearray(path.read_bytes())
    counts, ids = _field_offsets(tree)
    bottom = counts[-(len(tree.offsets[-1]) - 1):]
    leaf = bottom[0]
    assert raw[leaf] > 0 and raw[leaf + 1 : leaf + 4] == b"\0\0\0"
    raw[leaf : leaf + len(leaf_fault)] = leaf_fault
    if later == "cut-in-run":
        raw = raw[: ids[1] + 4]
    elif later == "zero-children":
        raw[bottom[1] : bottom[1] + 4] = struct.pack("<I", 0)
    elif later == "bad-tag":  # v3 has no node tags; this is its other bad field value
        raw[ids[-1] : ids[-1] + 8] = struct.pack("<Q", 1 << 63)
    elif later == "truncated":
        raw = raw[: ids[0] - 2]
    else:
        raw += b"\0"
    path.write_bytes(bytes(raw))
    want = _load_outcome(oracles.load_tree_reference, path)
    assert want[0] == "FormatError" and f"has no children at offset {leaf}" in want[1]
    assert _load_outcome(load_tree, path) == want

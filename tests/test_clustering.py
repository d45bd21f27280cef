import struct

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from stmp import (
    ClusterTree,
    FormatError,
    StaleTreeError,
    balanced_cluster,
    build_tree,
    kmeans,
    load_tree,
    normalize_columns,
    save_tree,
    validate_tree,
)
from stmp.clustering import _draw, _kmeans, _seed_sequence
from stmp.dictionary import Dictionary

import oracles


def _random_dictionary(m, n, seed):
    rng = np.random.default_rng(seed)
    return normalize_columns(rng.standard_normal((m, n)))


def test_kmeans_k_equals_count():
    rng = np.random.default_rng(0)
    vectors = rng.standard_normal((6, 3)).astype(np.float32)
    centroids, assignments = kmeans(vectors, 6, seed=1)
    np.testing.assert_array_equal(assignments, np.arange(6))
    np.testing.assert_array_equal(centroids, vectors)


def test_kmeans_separated_clouds():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((40, 4)) * 0.05 + np.array([10.0, 0, 0, 0])
    b = rng.standard_normal((40, 4)) * 0.05 - np.array([10.0, 0, 0, 0])
    vectors = np.vstack([a, b]).astype(np.float32)
    _, assignments = kmeans(vectors, 2, seed=3)
    assert len(set(assignments[:40])) == 1
    assert len(set(assignments[40:])) == 1
    assert assignments[0] != assignments[40]


def test_kmeans_deterministic():
    rng = np.random.default_rng(2)
    vectors = rng.standard_normal((100, 8)).astype(np.float32)
    c1, a1 = kmeans(vectors, 7, seed=5)
    c2, a2 = kmeans(vectors, 7, seed=5)
    assert c1.tobytes() == c2.tobytes()
    np.testing.assert_array_equal(a1, a2)


def test_kmeans_k_too_large():
    with pytest.raises(ValueError):
        kmeans(np.zeros((3, 2), dtype=np.float32), 4, seed=0)


def test_balanced_quadruplets():
    rng = np.random.default_rng(4)
    corners = np.array(
        [[10, 0, 0], [-10, 0, 0], [0, 10, 0], [0, 0, 10]], dtype=np.float64
    )
    atoms = np.repeat(corners, 3, axis=0) + rng.standard_normal((12, 3)) * 0.01
    part = balanced_cluster(atoms.astype(np.float32), 4, seed=0)
    assert part.capacity == 3
    assert part.sizes.tolist() == [3, 3, 3, 3]
    # group labels must match the generating quadruplets
    groups = [set(np.flatnonzero(part.assignments == c) // 3) for c in range(part.k)]
    assert all(len(g) == 1 for g in groups)


def test_balanced_sizes_m10_k3():
    atoms = _random_dictionary(10, 5, seed=6).atoms
    part = balanced_cluster(atoms, 3, seed=1)
    assert part.capacity == 4
    assert part.sizes.tolist() == [4, 4, 2]


def test_balanced_singletons():
    atoms = _random_dictionary(5, 4, seed=7).atoms
    part = balanced_cluster(atoms, 5, seed=2)
    assert part.sizes.tolist() == [1, 1, 1, 1, 1]


def test_balanced_invariants_random():
    for seed in range(5):
        m = 17 + 9 * seed
        k = 2 + seed
        atoms = _random_dictionary(m, 6, seed=seed + 10).atoms
        part = balanced_cluster(atoms, k, seed=seed)
        capacity = -(-m // k)
        assert part.k <= k
        assert part.sizes[:-1].tolist() == [capacity] * (part.k - 1)
        assert 1 <= part.sizes[-1] <= capacity
        assert np.bincount(part.assignments, minlength=part.k).tolist() == part.sizes.tolist()
        norms = np.linalg.norm(part.centroids.astype(np.float64), axis=1)
        assert np.abs(norms - 1.0).max() < 1e-5


def test_balanced_tolerates_duplicate_atoms():
    atoms = np.tile(normalize_columns(np.eye(4)).atoms, (5, 1))
    part = balanced_cluster(atoms, 4, seed=3)
    assert part.sizes.sum() == 20


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

    assert "norm" in tampered(scale_centroid)
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
    assert [c.dtype for c in t1.centroids] == [np.dtype(np.float64)] * 3
    for rows in t1.centroids:  # float64 rows that hold float32 values
        np.testing.assert_array_equal(rows, rows.astype(np.float32))


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


@pytest.mark.parametrize("m, n, branching", [(2000, 64, (40, 10)), (997, 5, (7, 3)), (500, 9, (5, 4, 3))])
def test_batched_build_matches_the_reference_at_size(tmp_path, m, n, branching):
    d = _random_dictionary(m, n, seed=m + n)
    _assert_same_tree(build_tree(d, branching, 11), oracles.build_tree(d, branching, 11), tmp_path)


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
    public_c, public_a = kmeans(stack[0], k, seeds[0], max_iters)
    assert public_c.tobytes() == centroids[0].tobytes() and public_a.tolist() == assignments[0].tolist()


def test_kmeans_duplicates_take_the_zero_mass_and_reseeding_paths(monkeypatch):
    """Two distinct points and k = 4: the third seed has no mass left to draw
    from, and Lloyd's first pass leaves clusters empty to re-seed."""
    vectors = np.repeat(np.eye(2, 3, dtype=np.float32), 5, axis=0)
    calls = []
    original = oracles._squared_distances
    monkeypatch.setattr(oracles, "_squared_distances",
                        lambda *a: calls.append(d2 := original(*a)) or d2)
    want_c, want_a = oracles.kmeans(vectors, 4, seed=0)
    got_c, got_a = kmeans(vectors, 4, seed=0)
    assert got_c.tobytes() == want_c.tobytes() and got_a.tolist() == want_a.tolist()
    assert np.bincount(calls[0].argmin(axis=1), minlength=4).min() == 0  # re-seeding ran


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


# A hand-checked 3-atom tree, n = 2, branching (2,): the root splits into
# node A (atoms 0 and 2) and node B (atom 1).
_FINGERPRINT = 0x0123456789ABCDEF
_V1_BYTES = (
    b"STMPTREE" + struct.pack("<IQQII", 1, _FINGERPRINT, 2, 1, 2)  # header, 36 bytes
    + b"\x00" + struct.pack("<2fI", 1.0, 0.0, 2)  # root at 36
    + b"\x00" + struct.pack("<2fI", 0.6, 0.8, 2)  # A at 49
    + b"\x01" + struct.pack("<Q", 0) + b"\x01" + struct.pack("<Q", 2)  # A's leaf run at 62
    + b"\x00" + struct.pack("<2fI", 0.0, 1.0, 1)  # B at 80
    + b"\x01" + struct.pack("<Q", 1)  # B's leaf run at 93
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


def test_tree_v1_bytes_pinned(tmp_path):
    assert len(_V1_BYTES) == 102
    path = tmp_path / "hand.tree"
    save_tree(_hand_tree(), path)
    assert path.read_bytes() == _V1_BYTES
    back = load_tree(path)
    want = _hand_tree()
    assert (back.branching, back.dictionary_fingerprint, back.n) == ((2,), _FINGERPRINT, 2)
    assert [c.tobytes() for c in back.centroids] == [c.tobytes() for c in want.centroids]
    assert [b.tolist() for b in back.offsets] == [[0, 2], [0, 2, 3]]
    assert all(b.dtype == np.int64 for b in back.offsets)
    assert back.atoms.tolist() == [0, 2, 1] and back.atoms.dtype == np.int64


def _patched(at, new):
    raw = bytearray(_V1_BYTES)
    raw[at : at + len(new)] = new
    return bytes(raw)


@pytest.mark.parametrize(
    "data, message",
    [
        (_patched(49, b"\x07"), "bad node tag 7 at offset 49"),
        (_patched(49, b"\x01"), "leaf at depth 1 at offset 49"),
        (_patched(36, b"\x01"), "leaf at depth 0 at offset 36"),
        (_patched(71, b"\x00"), "internal node below level 1 at offset 71"),
        (_patched(93, b"\x05"), "bad node tag 5 at offset 93"),
        (_patched(58, struct.pack("<I", 0)), "internal node with no children at offset 49"),
        (_V1_BYTES[:75], "leaf run of 2 atoms cut short after 1 at offset 71"),
        (_V1_BYTES[:62], "leaf run of 2 atoms cut short after 0 at offset 62"),
        (_patched(63, struct.pack("<Q", 1 << 63)), "out of range at offset 62"),
        (_V1_BYTES[:60], "truncated while reading child count at offset 58"),
    ],
    ids=[
        "bad-tag", "shallow-leaf", "root-leaf", "internal-below-L", "bad-leaf-tag",
        "zero-children", "run-cut-short", "run-missing", "index-overflow", "truncated-node",
    ],
)
def test_tree_load_errors_name_offset(tmp_path, data, message):
    path = tmp_path / "bad.tree"
    path.write_bytes(data)
    with pytest.raises(FormatError, match=message):
        load_tree(path)

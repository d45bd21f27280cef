import tracemalloc

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

import stmp.pipelines

from stmp import (
    CodeBatch,
    Dictionary,
    ExactSelector,
    ScoreCounter,
    SearchParams,
    SparseCode,
    StaleTreeError,
    TreeSelector,
    build_tree,
    exact_select,
    lift_codes,
    matching_pursuit,
    matching_pursuit_batch,
    normalize_columns,
    predicted_ip_count,
    project_dictionary,
    reconstruct_batch,
    retained_count,
    row_select_operator,
    stmp_select,
)
from oracles import (
    canonical_scores_reference,
    matching_pursuit_reference,
    nearest_atom_reference,
    predicted_centroid_count_reference,
    tree_select_reference,
)


def _random_dictionary(m, n, seed):
    rng = np.random.default_rng(seed)
    return normalize_columns(rng.standard_normal((m, n)))


def test_retained_count_rounding():
    assert retained_count(1.0, 10) == 10
    assert retained_count(0.1, 100) == 10  # not 11 from float ceil
    assert retained_count(0.1, 10) == 1
    assert retained_count(0.05, 10) == 1
    assert retained_count(0.25, 10) == 3


def test_predicted_single_level():
    for alpha in (0.05, 0.1, 0.5, 1.0):
        assert predicted_ip_count((7,), alpha) == 7


def test_predicted_three_level_value():
    assert predicted_ip_count((100, 10, 10), 0.1) == 300
    assert predicted_ip_count((100, 10), 0.1) == 200
    assert predicted_ip_count((100, 10, 10, 10), 0.1) == 400


def test_predicted_matches_bookkeeping_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        depth = rng.integers(1, 5)
        branching = tuple(int(k) for k in rng.integers(2, 30, size=depth))
        alpha = float(rng.uniform(0.02, 1.0))
        assert predicted_ip_count(branching, alpha) == predicted_centroid_count_reference(
            branching, alpha
        )


def test_exact_select_identity_basis():
    d = Dictionary(np.eye(3, dtype=np.float32))
    counter = ScoreCounter()
    index, score = exact_select(d, np.array([0.0, 0.0, 5.0]), counter)
    assert (index, score) == (2, 5.0)
    assert counter.inner_products == 3


def test_exact_select_tie_breaks_low_index():
    base = normalize_columns(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])).atoms
    d = Dictionary(base)
    index, _ = exact_select(d, np.array([1.0, 0.0]), ScoreCounter())
    assert index == 0
    # sign must not matter for the tie either
    flipped = base.copy()
    flipped[0] = -flipped[0]
    index, score = exact_select(Dictionary(flipped), np.array([1.0, 0.0]), ScoreCounter())
    assert index == 0 and score == -1.0


def test_exact_select_matches_scan_oracle():
    d = _random_dictionary(200, 12, seed=1)
    rng = np.random.default_rng(2)
    for _ in range(50):
        q = rng.standard_normal(12)
        index, score = exact_select(d, q, ScoreCounter())
        ref_index, ref_score = nearest_atom_reference(d.atoms, q)
        assert index == ref_index
        assert abs(score - ref_score) < 1e-9


def test_stmp_alpha_one_equals_exact():
    d = _random_dictionary(500, 10, seed=3)
    tree = build_tree(d, (10, 5), seed=4)
    rng = np.random.default_rng(5)
    for _ in range(100):
        q = rng.standard_normal(10)
        ie, se = exact_select(d, q, ScoreCounter())
        it, st = stmp_select(tree, d, q, 1.0, ScoreCounter())
        assert ie == it
        assert se == st  # bitwise: same matrix, same arithmetic


def test_stmp_separated_clusters_exact_hit():
    # 8 clouds around orthogonal directions, far apart relative to jitter
    rng = np.random.default_rng(6)
    atoms = []
    for i in range(8):
        center = np.zeros(32)
        center[i] = 1.0
        for _ in range(8):
            atoms.append(center + rng.standard_normal(32) * 0.01)
    d = normalize_columns(np.array(atoms))
    tree = build_tree(d, (8,), seed=7)
    for index in range(d.m):
        got, _ = stmp_select(tree, d, d.atoms[index], 0.1, ScoreCounter())
        assert got == index


def test_stmp_counter_split():
    d = _random_dictionary(1000, 16, seed=8)
    tree = build_tree(d, (100, 10), seed=9)
    counter = ScoreCounter()
    stmp_select(tree, d, np.ones(16), 0.1, counter)
    assert counter.centroid_inner_products == 200  # 100 roots + 10x10 children
    assert counter.inner_products == 210  # plus 10 leaf atoms


def test_stmp_rejects_foreign_tree():
    d1 = _random_dictionary(100, 8, seed=10)
    d2 = _random_dictionary(100, 8, seed=11)
    tree = build_tree(d1, (5, 4), seed=12)
    with pytest.raises(StaleTreeError):
        stmp_select(tree, d2, np.ones(8), 0.5, ScoreCounter())
    with pytest.raises(StaleTreeError):
        TreeSelector(tree, d2, 0.5)


def test_stmp_alpha_validation():
    d = _random_dictionary(20, 4, seed=13)
    tree = build_tree(d, (4,), seed=14)
    for alpha in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            stmp_select(tree, d, np.ones(4), alpha, ScoreCounter())


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 70),
    n=st.integers(2, 6),
    branching=st.lists(st.integers(2, 7), min_size=1, max_size=3),
    distinct=st.integers(1, 70),
    alpha=st.sampled_from([0.05, 0.1, 0.2, 0.25, 0.35, 0.5, 0.75, 1.0]),
    seed=st.integers(0, 2**16),
)
@example(m=48, n=3, branching=[4, 3], distinct=48, alpha=0.35, seed=5)  # every depth full
def test_stmp_select_matches_per_node_reference(m, n, branching, distinct, alpha, seed):
    # m rarely divides the branching, so last clusters come out short and the
    # lone query's child blocks are padded; drawing atoms from fewer distinct
    # rows than m duplicates some of them (exact ties)
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((min(distinct, m), n))
    d = normalize_columns(base[rng.integers(0, base.shape[0], size=m)])
    tree = build_tree(d, branching, seed=seed)
    queries = np.vstack([rng.standard_normal((4, n)), d.atoms[rng.integers(0, m)]])
    for q in queries:
        counter = ScoreCounter()
        index, score = stmp_select(tree, d, q, alpha, counter)
        ref_index, ref_score, ref_centroids, ref_atoms = tree_select_reference(
            tree, d.scoring_atoms, q, alpha
        )
        assert index == ref_index
        assert np.float64(score).tobytes() == np.float64(ref_score).tobytes()
        assert counter.centroid_inner_products == ref_centroids
        assert counter.inner_products - counter.centroid_inner_products == ref_atoms


def _pursuit_reference(select, atoms, x, K, tol):
    """Per-patch matching pursuit around a single-query selection function
    returning (index, score, inner products); stops like the package does."""
    r = np.asarray(x, dtype=np.float64).copy()
    if tol is None:
        tol = 1e-6 * float(np.sqrt(np.dot(r, r)))
    entries, ips, stop = [], 0, "K"
    for _ in range(K):
        if float(np.sqrt(np.dot(r, r))) <= tol:
            stop = "tolerance"
            break
        index, score, spent = select(r)
        ips += spent
        if score == 0.0:
            stop = "zero score"
            break
        entries.append((index, score))
        r = r - score * atoms[index]
    return entries, ips, stop


def _check_codes(codes, p, entries):
    assert codes.lengths[p] == len(entries)
    assert codes.indices[p, : len(entries)].tolist() == [i for i, _ in entries]
    np.testing.assert_allclose(
        codes.coefficients[p, : len(entries)], [c for _, c in entries], rtol=1e-12, atol=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(2, 60),
    n=st.integers(3, 6),
    branching=st.lists(st.integers(2, 6), min_size=1, max_size=3),
    distinct=st.integers(2, 60),
    unusable=st.integers(0, 3),
    project=st.booleans(),
    alpha=st.sampled_from([0.1, 0.25, 0.5, 1.0]),
    K=st.integers(1, 5),
    tolerance=st.sampled_from([None, 0.0, 0.5]),
    seed=st.integers(0, 2**16),
)
def test_batched_pursuit_matches_per_patch_references(
    m, n, branching, distinct, unusable, project, alpha, K, tolerance, seed
):
    # Usable atoms repeat ``distinct`` rows (exact ties) and leave the last
    # coordinate empty, so a query along it scores exactly zero everywhere.
    # With ``project`` the atoms live in n + 2 dimensions, the last two are
    # dropped, and ``unusable`` atoms lie only there, so the projected
    # dictionary holds zero rows.  Trees rarely divide m, so last clusters
    # come out short.  Two or more distinct usable rows keep residuals off the
    # rounding floor.
    rng = np.random.default_rng(seed)
    full = n + 2 if project else n
    unusable = min(unusable, m - 2) if project else 0
    rows = min(distinct, m - unusable)
    base = rng.standard_normal((rows, full))
    usable = base[np.r_[np.arange(rows), rng.integers(0, rows, size=m - unusable - rows)]]
    hidden = np.zeros((unusable, full))
    hidden[:, n:] = rng.standard_normal((unusable, full - n))
    raw = np.vstack([usable, hidden])[rng.permutation(m)]
    raw[:, n - 1] = 0.0
    d = normalize_columns(raw)
    if project:
        d = project_dictionary(d, row_select_operator(full, range(n))).dictionary
    tree = build_tree(d, branching, seed=seed)
    X = np.vstack([
        rng.standard_normal((5, n)),
        np.eye(n)[n - 1],  # orthogonal to every atom: stops on a zero score
        np.zeros(n),
    ])
    if tolerance != 0.0:  # one atom stops on the tolerance (with none, its residual hits the floor)
        X = np.vstack([X, d.atoms[rng.integers(0, m)]])
    params = SearchParams(K=K, residual_tolerance=tolerance)

    def tree_ref(r):
        index, score, centroid_ips, atom_ips = tree_select_reference(
            tree, d.scoring_atoms, r, alpha
        )
        return index, score, centroid_ips + atom_ips

    def exact_ref(r):
        index, score = nearest_atom_reference(d.atoms, r)
        return index, score, d.m

    stops = set()
    batches = {}
    for name, selector, ref in [
        ("tree", TreeSelector(tree, d, alpha), tree_ref),
        ("exact", ExactSelector(d), exact_ref),
    ]:
        counter = ScoreCounter()
        codes = matching_pursuit_batch(selector, X, params, counter)
        assert codes.ip_count == counter.inner_products
        batches[name] = codes
        total = 0
        for p, x in enumerate(X):
            entries, ips, stop = _pursuit_reference(ref, d.scoring_atoms, x, K, tolerance)
            _check_codes(codes, p, entries)
            stops.add(stop)
            total += ips
            # a batch of one is the same code, bit for bit
            alone = ScoreCounter()
            code = matching_pursuit(selector, x, params, alone)
            assert code.entries == codes.entries(p)
            assert alone.inner_products == ips
            row = CodeBatch(d.m, codes.indices[p:p + 1], codes.coefficients[p:p + 1],
                            codes.lengths[p:p + 1])
            assert reconstruct_batch(d, row)[0].tobytes() == reconstruct_batch(d, codes)[p].tobytes()
        assert counter.inner_products == total
    assert "zero score" in stops
    if tolerance is None:
        assert "tolerance" in stops
    if alpha == 1.0:  # the tree visits every atom and must equal exhaustive search
        for field in ("indices", "coefficients", "lengths"):
            got, want = getattr(batches["tree"], field), getattr(batches["exact"], field)
            assert got.tobytes() == want.tobytes()


def test_batch_helpers_match_single_code_forms():
    # every row lifts and reconstructs to the bits it gets in a batch of one
    d = _random_dictionary(30, 6, seed=40)
    rng = np.random.default_rng(41)
    pd = project_dictionary(d, row_select_operator(6, [0, 2, 3, 5]))
    codes = matching_pursuit_batch(ExactSelector(pd.dictionary), rng.standard_normal((7, 4)),
                                   SearchParams(K=3))
    lifted = lift_codes(pd, codes)
    full = reconstruct_batch(d, lifted)
    for p in range(7):
        one = lift_codes(pd, CodeBatch(30, codes.indices[p:p + 1], codes.coefficients[p:p + 1],
                                       codes.lengths[p:p + 1]))
        assert one.entries(0) == lifted.entries(p)
        assert reconstruct_batch(d, one)[0].tobytes() == full[p].tobytes()
    bad = CodeBatch(30, np.array([[3, 30]]), np.ones((1, 2)), np.array([2]))
    with pytest.raises(ValueError, match="code index 30 outside"):
        reconstruct_batch(d, bad)
    with pytest.raises(ValueError, match="code index 30 outside"):
        lift_codes(pd, bad)
    short = CodeBatch(30, np.array([[3, 30]]), np.ones((1, 2)), np.array([1]))
    alone = CodeBatch(30, np.array([[3]]), np.ones((1, 1)), np.array([1]))
    assert reconstruct_batch(d, short)[0].tobytes() == reconstruct_batch(d, alone)[0].tobytes()


@pytest.mark.parametrize("n", [16, 64])
def test_coefficients_have_the_canonical_ddot_bits(n):
    # Every coefficient is the canonical score d.scoring_atoms[pick].dot(q), in
    # a batch or alone, for the scan and for the descent.  At these n a gemv
    # row's bits depend on its block's length, so any other kernel would move
    # some of them.  997 atoms make every level uneven.  Each bottom node's
    # last atom, as a query, tends to win from the tail of its leaf block.
    d = _random_dictionary(997, n, seed=42)
    tree = build_tree(d, (7, 5), seed=43)
    last = tree.atoms[tree.offsets[tree.levels][1:] - 1]
    Q = np.vstack([np.random.default_rng(44).standard_normal((30, n)), d.atoms[last]])
    for alpha in (0.1, 0.35, 1.0):
        for selector, select in [
            (TreeSelector(tree, d, alpha), lambda q: stmp_select(tree, d, q, alpha)),
            (ExactSelector(d), lambda q: exact_select(d, q)),
        ]:
            codes = matching_pursuit_batch(selector, Q, SearchParams(K=1))
            for q, pick, score in zip(Q, codes.indices[:, 0], codes.coefficients[:, 0]):
                want = d.scoring_atoms[pick].dot(q)
                assert score.tobytes() == want.tobytes()
                assert select(q) == (pick, want)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(2, 70),
    n=st.integers(2, 64),
    copies=st.integers(1, 5),
    branching=st.lists(st.integers(2, 7), min_size=1, max_size=3),
    seed=st.integers(0, 2**16),
)
@example(m=40, n=2, copies=1, branching=[2], seed=40)
def test_duplicated_atoms_tie_to_the_lowest_index(m, n, copies, branching, seed):
    # Exact copies of an atom have equal canonical scores wherever they sit,
    # so the first copy wins, for the scan and for the descent at alpha = 1.
    # (OpenBLAS's gemv rounds the last L mod 4 rows of an L-row block
    # differently at n >= 8, so a copy there could score one ulp higher.)
    rng = np.random.default_rng(seed)
    atoms = normalize_columns(rng.standard_normal((m, n))).atoms.copy()
    source = int(rng.integers(0, m))
    group = np.unique(np.r_[source, rng.integers(0, m, size=copies), m - 1])
    atoms[group] = atoms[source]
    # The query a must be won by the group: re-draw every other atom whose
    # |score| against a reaches a.a (in few dimensions one can lie almost
    # parallel to a with a larger float32 norm, and then rightly wins).
    a = atoms[source].astype(np.float64)
    while True:
        reach = np.abs(canonical_scores_reference(atoms, a)) >= a.dot(a)
        close = np.setdiff1d(np.flatnonzero(reach), group)
        if not close.size:
            break
        atoms[close] = normalize_columns(rng.standard_normal((close.size, n))).atoms
    d = Dictionary(atoms)
    tree = build_tree(d, branching, seed=seed)
    a = d.scoring_atoms[source]
    queries = np.array([a, -a, a + 1e-3 * rng.standard_normal(n), 1e-30 * a])
    picks, scores = ExactSelector(d).pick(queries)
    found, tree_scores = TreeSelector(tree, d, 1.0).pick(queries)
    assert found.tolist() == picks.tolist() and tree_scores.tobytes() == scores.tobytes()
    won = 0
    for q, pick, score in zip(queries, picks, scores):
        want = nearest_atom_reference(d.atoms, q)  # in few dimensions another atom may win
        assert want[0] not in group[1:]
        won += want[0] == group[0]
        assert exact_select(d, q) == want == (pick, score)
        assert stmp_select(tree, d, q, 1.0) == want
    assert won


def test_duplicated_atom_at_n16_ties_to_the_lower_index():
    # 6 atoms in 16 dimensions, atom 5 a copy of atom 1, queries near atom 1:
    # per-row gemv scoring picked atom 5 for about a fifth of them.
    rng = np.random.default_rng(7)
    atoms = normalize_columns(rng.standard_normal((6, 16))).atoms.copy()
    atoms[5] = atoms[1]
    d = Dictionary(atoms)
    Q = d.scoring_atoms[1] + 0.05 * rng.standard_normal((500, 16))
    assert {exact_select(d, q)[0] for q in Q} == {1}
    picks, _ = ExactSelector(d).pick(Q)
    assert set(picks.tolist()) == {1}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(1, 60),
    n=st.integers(1, 64),
    near=st.integers(1, 6),
    scale=st.sampled_from([1.0, 1e-30, 1e200, 1e-160]),
    seed=st.integers(0, 2**16),
)
def test_scan_filter_agrees_with_the_canonical_reference(m, n, near, scale, seed):
    # The float32 filter may only narrow the candidates, never lose the
    # canonical winner.  Atoms one float32 ulp from the winner in every
    # coordinate sit inside the filter's rounding error; at 1e200 r.r overflows and at 1e-160 it
    # underflows, so those rows are scored against every atom; a residual
    # orthogonal to every atom scores exactly zero everywhere.
    rng = np.random.default_rng(seed)
    full = n + 1  # the last coordinate stays empty
    atoms = np.zeros((m, full), dtype=np.float32)
    atoms[:, :n] = normalize_columns(rng.standard_normal((m, n))).atoms
    q = np.r_[rng.standard_normal(n), 0.0]
    winner, _ = nearest_atom_reference(atoms, q)
    for j in rng.integers(0, m, size=near):  # each coordinate one ulp up or down
        away = (rng.choice([-1.0, 1.0], size=n) * np.inf).astype(np.float32)
        atoms[j, :n] = np.nextafter(atoms[winner, :n], away)
    d = Dictionary(atoms)
    tree = build_tree(d, (3, 2), seed=seed)
    Q = np.vstack([q, d.scoring_atoms[winner], np.eye(full)[n]]) * scale
    picks, scores = ExactSelector(d).pick(Q)
    found, tree_scores = TreeSelector(tree, d, 1.0).pick(Q)
    assert found.tolist() == picks.tolist() and tree_scores.tobytes() == scores.tobytes()
    for p, x in enumerate(Q):
        want = nearest_atom_reference(d.atoms, x)
        assert exact_select(d, x) == want
        assert (int(picks[p]), scores[p].tobytes()) == (want[0], np.float64(want[1]).tobytes())
        assert stmp_select(tree, d, x, 1.0) == want
    assert scores[2] == 0.0 and picks[2] == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exact_pick_does_not_depend_on_the_scan_block():
    # ExactSelector.pick filters its rows in blocks of its own and scores
    # them canonically after the last one.  Rows the filter crowds (an exact
    # duplicate, an ulp twin), cannot bound (1e200, 1e-160) or finds all
    # zero sit past the first block, so each batch size cuts them into
    # different blocks; picks and score bits must not move.
    rng = np.random.default_rng(60)
    m, n = 300, 12
    atoms = np.zeros((m, n + 1), dtype=np.float32)  # the last coordinate stays empty
    atoms[:, :n] = normalize_columns(rng.standard_normal((m, n))).atoms
    atoms[200] = atoms[17]
    away = (rng.choice([-1.0, 1.0], size=n) * np.inf).astype(np.float32)
    atoms[250, :n] = np.nextafter(atoms[40, :n], away)
    d = Dictionary(atoms)
    Q = np.zeros((1024, n + 1))
    Q[:, :n] = rng.standard_normal((1024, n))
    special = {
        70: d.scoring_atoms[17], 130: d.scoring_atoms[40], 131: d.scoring_atoms[250],
        200: Q[200] * 1e200, 640: Q[640] * 1e-160, 700: np.eye(n + 1)[n], 1000: np.zeros(n + 1),
        1001: d.scoring_atoms[200] + 1e-3 * Q[1001],
    }
    for p, row in special.items():
        Q[p] = row
    selector = ExactSelector(d)
    counter = ScoreCounter()
    picks, scores = selector.pick(Q, counter)
    assert counter.inner_products == Q.shape[0] * m
    for p in special:
        want = nearest_atom_reference(d.atoms, Q[p])
        assert (int(picks[p]), scores[p].tobytes()) == (want[0], np.float64(want[1]).tobytes())
    assert picks[70] == picks[1001] == 17  # the duplicate ties to the lower index
    assert scores[700] == scores[1000] == 0.0
    for size in (1, 63, 64, 65, 129):
        parts = [selector.pick(Q[start:start + size]) for start in range(0, len(Q), size)]
        got, got_scores = (np.concatenate(part) for part in zip(*parts))
        assert got.tolist() == picks.tolist() and got_scores.tobytes() == scores.tobytes()
    with np.errstate(over="ignore"):  # row 200's r.r is inf, as matching pursuit hands it over
        rr = (Q * Q).sum(axis=1)
    got, got_scores = selector.pick(Q, None, rr)
    assert got.tolist() == picks.tolist() and got_scores.tobytes() == scores.tobytes()


def test_exact_pick_memory_does_not_grow_with_the_batch():
    # A 1024-row pick filters in blocks of its own, so it never holds the
    # (1024 x m) float32 product of the whole batch.
    d = _random_dictionary(4000, 16, seed=62)
    Q = np.random.default_rng(63).standard_normal((1024, 16))
    selector = ExactSelector(d)
    selector.pick(Q[:2])  # builds the dictionary's cached tables
    tracemalloc.start()
    try:
        selector.pick(Q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < Q.shape[0] * d.m * 4 / 4


@pytest.mark.parametrize("K", [2, 3])
@pytest.mark.parametrize("kind", ["exact", "tree"])
def test_a_residual_that_overflows_is_refused(kind, K):
    # Entries of +-1.7e308 are finite, but the first step's residual is
    # not: the next pick must refuse it rather than code NaN.
    d = _random_dictionary(40, 5, seed=30)
    tree = build_tree(d, (4, 3), seed=31)
    selector = ExactSelector(d) if kind == "exact" else TreeSelector(tree, d, 0.5)
    x = 1.7e308 * np.array([1.0, -1.0, 1.0, 1.0, -1.0])
    with pytest.raises(ValueError, match="query contains NaN or infinity"):
        matching_pursuit(selector, x, SearchParams(K=K))
    with pytest.raises(ValueError, match="query contains NaN or infinity"):
        matching_pursuit_batch(selector, np.vstack([np.ones(5), x]), SearchParams(K=K))


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(2, 90),
    n=st.integers(1, 64),
    branching=st.lists(st.integers(2, 7), min_size=1, max_size=3),
    alpha=st.sampled_from([0.1, 0.35, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_descent_decides_every_level_on_canonical_scores(m, n, branching, alpha, seed):
    # In every parent with two or more children, one child copies its first
    # sibling's centroid exactly, or lies one float32 ulp from it in every
    # coordinate; a copy must tie to the lower child, and an ulp twin sits
    # inside the fast filter's rounding, so only the canonical scores can
    # rank it.  Queries along centroids and atoms put the twins at the cut.
    # m rarely divides the branching, so the trees come out uneven.
    rng = np.random.default_rng(seed)
    d = _random_dictionary(m, n, seed)
    tree = build_tree(d, branching, seed=seed)
    near = []
    for depth in range(1, tree.levels + 1):
        rows = tree.centroids[depth]
        for lo, hi in zip(tree.offsets[depth - 1][:-1], tree.offsets[depth - 1][1:]):
            if hi - lo < 2:
                continue
            twin = rows[lo].astype(np.float32)
            if rng.random() < 0.5:
                twin = np.nextafter(twin, (rng.choice([-1.0, 1.0], size=n) * np.inf).astype(np.float32))
            rows[lo + 1] = twin
            near.append(rows[lo])
    Q = np.vstack([rng.standard_normal((6, n)), d.scoring_atoms[rng.integers(0, m, size=3)]]
                  + [np.asarray(near).reshape(-1, n)[:6]])
    want = [tree_select_reference(tree, d.scoring_atoms, q, alpha) for q in Q]
    for q, (index, score, centroids, atoms) in zip(Q, want):
        counter = ScoreCounter()
        assert stmp_select(tree, d, q, alpha, counter) == (index, score)
        assert counter.centroid_inner_products == centroids
        assert counter.inner_products == centroids + atoms
    selector = TreeSelector(tree, d, alpha)

    def coded(size):
        counter = ScoreCounter()
        parts = [selector.pick(Q[start:start + size], counter) for start in range(0, len(Q), size)]
        codes = [matching_pursuit_batch(selector, Q[start:start + size], SearchParams(K=3))
                 for start in range(0, len(Q), size)]
        picks, scores = (np.concatenate(part) for part in zip(*parts))
        assert picks.tolist() == [w[0] for w in want]
        assert scores.tobytes() == np.array([w[1] for w in want]).tobytes()
        assert counter.centroid_inner_products == sum(w[2] for w in want)
        assert counter.inner_products == sum(w[2] + w[3] for w in want)
        return [np.concatenate([getattr(c, field) for c in codes]).tobytes()
                for field in ("indices", "coefficients", "lengths")] + [sum(c.ip_count for c in codes)]

    runs = [coded(size) for size in (1, 7, 64, stmp.pipelines._CHUNK)]
    assert all(run == runs[0] for run in runs)


def test_descent_over_float64_centroids_matches_the_reference():
    # A hand-made ClusterTree may hold centroids float32 cannot represent;
    # the filter rounds them to float32, and its band must cover that.  Each
    # odd child copies its elder sibling up to 1e-13, below a float32 ulp,
    # so the two look equal to the filter and only canonical scores rank them.
    rng = np.random.default_rng(52)
    d = _random_dictionary(150, 12, seed=52)
    tree = build_tree(d, (6, 5), seed=53)
    for rows in tree.centroids[1:]:
        rows += rng.standard_normal(rows.shape) * 1e-3
        rows[1::2] = rows[0:-1:2] + rng.standard_normal(rows[1::2].shape) * 1e-13
        assert (rows.astype(np.float32) != rows).any()
    Q = np.vstack([rng.standard_normal((8, 12)), tree.centroids[1][:4], tree.centroids[2][:8]])
    for alpha in (0.1, 0.35, 1.0):
        want = [tree_select_reference(tree, d.scoring_atoms, q, alpha) for q in Q]
        selector = TreeSelector(tree, d, alpha)
        for size in (1, len(Q)):
            for start in range(0, len(Q), size):
                counter = ScoreCounter()
                picks, scores = selector.pick(Q[start:start + size], counter)
                part = want[start:start + size]
                assert picks.tolist() == [w[0] for w in part]
                assert scores.tobytes() == np.array([w[1] for w in part]).tobytes()
                assert counter.centroid_inner_products == sum(w[2] for w in part)
        assert [stmp_select(tree, d, q, alpha) for q in Q] == [w[:2] for w in want]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(3, 80),
    n=st.integers(1, 12),
    branching=st.lists(st.integers(2, 7), min_size=1, max_size=3),
    alpha=st.sampled_from([0.1, 0.35, 1.0]),
    seed=st.integers(0, 2**16),
)
@example(m=74, n=7, branching=[7, 6], alpha=1.0, seed=41436)  # a node of 4 children keeps 6
@example(m=77, n=8, branching=[6, 6, 4], alpha=0.35, seed=57354)  # nodes of 1 child keep 2
def test_batched_descent_fills_short_parents_with_dead_slots(m, n, branching, alpha, seed):
    # m rarely divides the branching, so some nodes have fewer children than
    # their level keeps: such a parent keeps them all, unscored, and its other
    # kept slots must stay dead.  Rows at 1e200 (r.r overflows) and 1e-160
    # (r.r underflows) have every entry in the filter's band.
    rng = np.random.default_rng(seed)
    d = _random_dictionary(m, n, seed)
    tree = build_tree(d, branching, seed=seed)
    Q = np.vstack([rng.standard_normal((120, n)), d.scoring_atoms[rng.integers(0, m, size=20)]])
    Q[rng.integers(0, len(Q), size=12)] *= 1e200
    Q[rng.integers(0, len(Q), size=12)] *= 1e-160
    want = [tree_select_reference(tree, d.scoring_atoms, q, alpha) for q in Q]
    selector = TreeSelector(tree, d, alpha)
    for size in (2, 7, 130):  # 140 rows: no batch of one, which would walk the tree
        counter = ScoreCounter()
        parts = [selector.pick(Q[start:start + size], counter) for start in range(0, len(Q), size)]
        picks, scores = (np.concatenate(part) for part in zip(*parts))
        assert picks.tolist() == [w[0] for w in want]
        assert scores.tobytes() == np.array([w[1] for w in want]).tobytes()
        assert counter.centroid_inner_products == sum(w[2] for w in want)
        assert counter.inner_products == sum(w[2] + w[3] for w in want)


def test_across_group_helpers_match_numpy_row_reductions():
    # Filter blocks hold |scores| >= 0 with exact ties, -1.0 in masked slots,
    # whole rows of zeros and whole masked rows.
    rng = np.random.default_rng(61)
    for width in range(1, 65):
        for groups in (1, 2, 7, 300):
            block = (np.floor(rng.random((groups, width)) * 8) / 8).astype(np.float32)
            block[rng.random(block.shape) < 0.2] = -1.0
            block[rng.random(groups) < 0.1] = 0.0
            block[rng.random(groups) < 0.1] = -1.0
            top = stmp.pursuit._across_max(block)
            want = block.max(axis=1)
            assert (top.dtype, top.tobytes()) == (want.dtype, want.tobytes())
            mask = block >= (top - np.float32(0.2))[:, None]
            mask[rng.random(groups) < 0.1] = False
            at, g, count = stmp.pursuit._candidates(mask)
            want = np.count_nonzero(mask, axis=1)
            assert (count.dtype, count.tobytes()) == (want.dtype, want.tobytes())
            rows, entries = mask.nonzero()
            assert g.tolist() == rows.tolist()
            assert at.tolist() == (rows * width + entries).tolist()


def test_selectors_pick_nothing_from_an_empty_batch():
    d = _random_dictionary(40, 5, seed=30)
    tree = build_tree(d, (4, 3), seed=31)
    for selector in (ExactSelector(d), TreeSelector(tree, d, 0.5)):
        counter = ScoreCounter()
        picks, scores = selector.pick(np.empty((0, 5)), counter)
        assert picks.shape == scores.shape == (0,)
        assert picks.dtype == np.int64 and scores.dtype == np.float64
        assert counter.inner_products == counter.centroid_inner_products == 0


_NON_FINITE = "query contains NaN or infinity"
_BAD_BATCHES = {
    "nan-row": (np.full((1, 5), np.nan), _NON_FINITE),
    "nan-in-three": (np.array([[1.0] * 5, [1.0, np.nan, 0, 0, 0], [2.0] * 5]), _NON_FINITE),
    "inf-in-three": (np.array([[1.0] * 5, [1.0, -np.inf, 0, 0, 0], [2.0] * 5]), _NON_FINITE),
    "too-wide": (np.ones((2, 6)), r"queries have shape \(2, 6\), expected \(P, 5\)"),
    "one-dimensional": (np.ones(5), r"queries have shape \(5,\), expected \(P, 5\)"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("batch", _BAD_BATCHES)
@pytest.mark.parametrize("kind", ["exact", "tree"])
def test_selectors_refuse_a_bad_batch(kind, batch):
    # with or without the rows' r.r, as matching pursuit passes it
    d = _random_dictionary(40, 5, seed=0)
    selector = ExactSelector(d) if kind == "exact" else TreeSelector(build_tree(d, (4, 3), seed=1), d, 0.5)
    R, message = _BAD_BATCHES[batch]
    with np.errstate(invalid="ignore"):
        rr = (R * R).sum(axis=-1)
    for given in (None, rr):
        with pytest.raises(ValueError, match=message):
            selector.pick(R, ScoreCounter(), given)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_query_rejected_by_every_selector(bad):
    d = _random_dictionary(40, 5, seed=30)
    tree = build_tree(d, (4, 3), seed=31)
    q = np.ones(5)
    q[2] = bad
    calls = [
        lambda: exact_select(d, q),
        lambda: stmp_select(tree, d, q, 0.5),
        lambda: matching_pursuit(ExactSelector(d), q, SearchParams(K=2)),
        lambda: matching_pursuit(TreeSelector(tree, d, 0.5), q, SearchParams(K=2)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="query contains NaN or infinity"):
            call()
    q[2] = 1e200  # finite, though q.q overflows
    assert exact_select(d, q) == stmp_select(tree, d, q, 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_query_whose_norm_overflows_is_coded_like_the_unscaled_one():
    # At 1e200, q.q overflows to inf; the default tolerance 1e-6 * |q| used
    # to be inf too, so the code came back empty.
    d = _random_dictionary(40, 8, seed=32)
    tree = build_tree(d, (4, 3), seed=33)
    rng = np.random.default_rng(34)
    Q = rng.standard_normal((3, 8))
    for selector in (ExactSelector(d), TreeSelector(tree, d, 0.5)):
        for q in Q:
            plain = matching_pursuit(selector, q, SearchParams(K=3)).entries
            huge = matching_pursuit(selector, q * 1e200, SearchParams(K=3)).entries
            assert [i for i, _ in huge] == [i for i, _ in plain] and len(plain) == 3
            np.testing.assert_allclose([c for _, c in huge], [1e200 * c for _, c in plain],
                                       rtol=1e-12)
        # rows whose q.q is finite keep their codes, bit for bit, beside huge ones
        mixed = matching_pursuit_batch(selector, np.vstack([Q[0], Q[1] * 1e200]), SearchParams(K=3))
        alone = matching_pursuit_batch(selector, Q[:1], SearchParams(K=3))
        assert mixed.entries(0) == alone.entries(0)
        assert [i for i, _ in mixed.entries(1)] == [
            i for i, _ in matching_pursuit(selector, Q[1], SearchParams(K=3)).entries]


def test_search_params_validation():
    with pytest.raises(ValueError):
        SearchParams(K=0)
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            SearchParams(K=3, residual_tolerance=bad)


def test_mp_orthonormal_two_atoms():
    d = Dictionary(np.eye(4, dtype=np.float32))
    x = 2.0 * d.atoms[0] + 3.0 * d.atoms[1]
    codes = matching_pursuit_batch(ExactSelector(d), x[None], SearchParams(K=2))
    assert [(i, round(c, 6)) for i, c in codes.entries(0)] == [(1, 3.0), (0, 2.0)]
    residual = x - reconstruct_batch(d, codes)[0]
    assert np.linalg.norm(residual) < 1e-6


def test_mp_single_atom_early_stop():
    d = _random_dictionary(50, 9, seed=15)
    code = matching_pursuit(ExactSelector(d), d.atoms[5], SearchParams(K=10))
    assert len(code.entries) == 1
    index, coeff = code.entries[0]
    assert index == 5
    assert abs(coeff - 1.0) < 1e-6


def test_mp_zero_input_returns_empty():
    d = _random_dictionary(10, 3, seed=16)
    code = matching_pursuit(ExactSelector(d), np.zeros(3), SearchParams(K=4))
    assert code.entries == []


def test_mp_matches_reference_runs():
    rng = np.random.default_rng(17)
    d = _random_dictionary(80, 10, seed=18)
    for _ in range(20):
        x = rng.standard_normal(10)
        codes = matching_pursuit_batch(ExactSelector(d), x[None], SearchParams(K=6))
        ref_entries, ref_residual = matching_pursuit_reference(d.atoms, x, 6)
        assert [i for i, _ in codes.entries(0)] == [i for i, _ in ref_entries]
        got = np.array([c for _, c in codes.entries(0)])
        ref = np.array([c for _, c in ref_entries])
        np.testing.assert_allclose(got, ref, atol=1e-5)
        residual = x - reconstruct_batch(d, codes)[0]
        np.testing.assert_allclose(residual, ref_residual, atol=1e-5)


def test_mp_energy_ledger():
    # telescoped decrease: ||x||^2 - sum s^2 == ||final residual||^2
    rng = np.random.default_rng(19)
    d = _random_dictionary(120, 14, seed=20)
    for _ in range(10):
        x = rng.standard_normal(14)
        codes = matching_pursuit_batch(ExactSelector(d), x[None], SearchParams(K=8))
        spent = sum(c * c for _, c in codes.entries(0))
        left = float(np.linalg.norm(x - reconstruct_batch(d, codes)[0]) ** 2)
        total = float(np.dot(x, x))
        assert abs((total - spent) - left) < 1e-4 * total


def test_mp_tree_selector_cost_accounting():
    d = _random_dictionary(1000, 16, seed=21)
    tree = build_tree(d, (100, 10), seed=22)
    params = SearchParams(K=3, residual_tolerance=0.0)
    counter = ScoreCounter()
    code = matching_pursuit(TreeSelector(tree, d, 0.1), np.ones(16), params, counter)
    assert code.ip_count == counter.inner_products
    assert counter.inner_products == 3 * 210


def test_sparse_code_combined_accumulates():
    code = SparseCode(m=10, entries=[(4, 1.5), (2, -0.5), (4, 0.25)], ip_count=0)
    assert code.combined() == [(4, 1.75), (2, -0.5)]


def test_sparse_code_text_format():
    code = SparseCode(m=10, entries=[(4, 1.5), (2, -0.5)], ip_count=0)
    lines = code.to_text().splitlines()
    assert lines[0].split() == ["4", "1.5"]
    assert lines[1].split() == ["2", "-0.5"]


def test_reconstruct_basics():
    d = _random_dictionary(30, 6, seed=23)
    empty = reconstruct_batch(d, CodeBatch(30, np.zeros((1, 0), dtype=np.int64), np.zeros((1, 0)),
                                           np.array([0])))
    np.testing.assert_array_equal(empty, np.zeros((1, 6)))
    codes = CodeBatch(30, np.array([[7, 0], [7, 3]]), np.array([[1.0, 0.0], [1.0, -2.0]]),
                      np.array([1, 2]))
    got = reconstruct_batch(d, codes)
    np.testing.assert_allclose(got[0], d.atoms[7], atol=1e-7)
    np.testing.assert_allclose(got[1], d.atoms[7] - 2.0 * d.atoms[3], atol=1e-6)
    with pytest.raises(ValueError):
        reconstruct_batch(d, CodeBatch(30, np.array([[30]]), np.ones((1, 1)), np.array([1])))



@pytest.mark.parametrize("selector_kind", ["exact", "tree"])
def test_mp_takes_each_residual_norm_once(monkeypatch, selector_kind):
    """A pursuit step's r.r serves both the tolerance test and the selector's
    unit scaling: one self product per step, besides the input's x.x."""
    d = _random_dictionary(120, 8, seed=61)
    if selector_kind == "exact":
        selector = ExactSelector(d)
    else:
        selector = TreeSelector(build_tree(d, (6, 4), seed=2), d, 0.5)
    X = np.random.default_rng(62).standard_normal((20, 8))
    want = matching_pursuit_batch(selector, X, SearchParams(K=4))
    calls = []
    original = stmp.pursuit.row_dots
    monkeypatch.setattr(stmp.pursuit, "row_dots", lambda A, B: calls.append(A is B) or original(A, B))
    got = matching_pursuit_batch(selector, X, SearchParams(K=4))
    assert sum(calls) == 1 + 4
    assert got.indices.tolist() == want.indices.tolist()
    assert got.coefficients.tobytes() == want.coefficients.tobytes()

"""Trade search accuracy for inner products with a cluster tree.

Builds one over-complete dictionary and its two-level tree, then answers
the same queries exhaustively and through the tree at several retention
fractions, printing measured costs next to the closed-form prediction.
Last, it times a tree pick per row: lone ``stmp_select`` calls, and
``TreeSelector.pick`` on batches of 1, 7, 64 and 1024 rows, on that tree
and on one of the same shape over 5003 atoms, whose leaves are uneven; and
the 1024-row pick at alpha 1, where every row's leaves hold every atom.
"""

import math
import time

import numpy as np

from stmp import (
    ScoreCounter,
    TreeSelector,
    build_tree,
    exact_select,
    normalize_columns,
    predicted_ip_count,
    stmp_select,
)


def main():
    rng = np.random.default_rng(7)
    m, n = 5000, 32
    d = normalize_columns(rng.standard_normal((m, n)))
    branching = (50, 10)
    tree = build_tree(d, branching, seed=8)
    queries = rng.standard_normal((200, n))

    print(f"dictionary m={m}, tree branching {branching}")
    print("alpha  agree   centroid ip  predicted  total ip  exact ip")
    for alpha in (1.0, 0.5, 0.2, 0.1, 0.05):
        agree = 0
        tree_counter = ScoreCounter()
        exact_counter = ScoreCounter()
        for q in queries:
            best, _ = exact_select(d, q, exact_counter)
            found, _ = stmp_select(tree, d, q, alpha, tree_counter)
            agree += int(found == best)
        predicted = predicted_ip_count(branching, alpha)
        per_query_centroid = tree_counter.centroid_inner_products // len(queries)
        per_query_total = tree_counter.inner_products // len(queries)
        print(f"{alpha:5.2f}  {agree / len(queries):5.2f}  "
              f"{per_query_centroid:11d}  {predicted:9d}  "
              f"{per_query_total:8d}  {exact_counter.inner_products // len(queries):8d}")

    print("\ncentroid comparisons match the prediction at every alpha;")
    print("the total adds the atoms scored inside surviving leaves.")

    alpha = 0.1
    rows = rng.standard_normal((1024, n))
    # 5003 atoms do not divide into 50 x 10 leaves of equal size, so nodes of
    # one depth have unequal child counts and the search reads padded blocks
    d_uneven = normalize_columns(rng.standard_normal((m + 3, n)))
    cases = [(tree, d), (build_tree(d_uneven, branching, seed=8), d_uneven)]
    print(f"\nwall time per tree pick at alpha {alpha}, best of 3 runs, in microseconds:")
    print(f"                        m={m:<6d} m={m + 3}")
    lone = [_us_per_row(lambda: [stmp_select(t, dd, q, alpha) for q in rows[:200]], 200)
            for t, dd in cases]
    print("  lone stmp_select    " + "".join(f"{us:9.1f}" for us in lone))
    selectors = [TreeSelector(t, dd, alpha) for t, dd in cases]
    for size in (1, 7, 64, 1024):
        batched = [_us_per_row(lambda: [s.pick(rows[start:start + size])
                                        for start in range(0, len(rows), size)], len(rows))
                   for s in selectors]
        print(f"  pick, batch of {size:4d}" + "".join(f"{us:9.1f}" for us in batched))
    # at alpha 1 every leaf survives, so a row's leaf frontier is the whole dictionary
    wide = [TreeSelector(t, dd, 1.0) for t, dd in cases]
    print("  pick, 1024, alpha 1" + "".join(f"{_us_per_row(lambda: s.pick(rows), len(rows)):9.1f}"
                                            for s in wide))


def _us_per_row(call, count: int) -> float:
    """The fastest of 3 timed runs of ``call()``, in microseconds per row."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return 1e6 * best / count


if __name__ == "__main__":
    main()

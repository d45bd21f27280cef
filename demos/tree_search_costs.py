"""Trade search accuracy for inner products with a cluster tree.

Builds one over-complete dictionary and its two-level tree, then answers
the same queries exhaustively and through the tree at several retention
fractions, printing measured costs next to the closed-form prediction.
Last, it times a tree pick per row: lone ``stmp_select`` calls, and
``TreeSelector.pick`` on batches of 1, 7, 64 and 1024 rows.
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
    selector = TreeSelector(tree, d, alpha)
    print(f"\nwall time per tree pick at alpha {alpha}, best of 3 runs, in microseconds:")
    lone = _us_per_row(lambda: [stmp_select(tree, d, q, alpha) for q in rows[:200]], 200)
    print(f"  lone stmp_select      {lone:8.1f}")
    for size in (1, 7, 64, 1024):
        batched = _us_per_row(lambda: [selector.pick(rows[start:start + size])
                                       for start in range(0, len(rows), size)], len(rows))
        print(f"  pick, batch of {size:4d}  {batched:8.1f}")


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

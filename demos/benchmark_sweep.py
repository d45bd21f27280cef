"""Sweep dictionary size and retention, tabulating cost and agreement.

For each dictionary size a fresh tree is built and a batch of random
queries is answered both exhaustively and through the tree.  Agreement is
the fraction of queries where both return the same atom.
"""

import numpy as np

from stmp import ScoreCounter, build_tree, exact_select, normalize_columns, stmp_select


def main():
    dim, queries = 24, 100
    print(f"{queries} random queries per row, dimension {dim}")
    print("      m  branching      alpha  exact ip   stmp ip  agreement")
    for i, (m, branching) in enumerate([(1000, (40, 5)), (4000, (80, 5)), (16000, (160, 10))]):
        rng = np.random.default_rng(1000 + i)
        d = normalize_columns(rng.standard_normal((m, dim)))
        tree = build_tree(d, branching, seed=2000 + i)
        batch = rng.standard_normal((queries, dim))
        exact_counter = ScoreCounter()
        exact = [exact_select(d, q, exact_counter)[0] for q in batch]
        for alpha in (0.05, 0.2, 1.0):
            tree_counter = ScoreCounter()
            agree = sum(stmp_select(tree, d, q, alpha, tree_counter)[0] == best
                        for q, best in zip(batch, exact))
            print(f"{m:7d}  {str(branching):>10s}  {alpha:5.2f}  "
                  f"{exact_counter.inner_products // queries:8d}  "
                  f"{tree_counter.inner_products // queries:8d}  "
                  f"{agree / queries:9.2f}")


if __name__ == "__main__":
    main()

"""Code a single image patch greedily and watch the residual shrink.

Builds a small dictionary from the patches of a synthetic texture, then
runs matching pursuit on one held-out patch at increasing sparsity levels
and prints the residual energy after each atom.
"""

import numpy as np

from stmp import (
    ExactSelector,
    SearchParams,
    build_from_patches,
    extract_patches,
    matching_pursuit,
    matching_pursuit_batch,
    reconstruct_batch,
)


def texture(size=96, seed=0):
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:size, 0:size].astype(np.float64) / size
    img = 0.4 * np.sin(2 * np.pi * (2.0 * x + 3.0 * y))
    img += 0.3 * np.sin(2 * np.pi * (5.0 * x - 1.0 * y + 0.1))
    img += 0.05 * rng.standard_normal((size, size))
    return (0.5 + 0.4 * img).astype(np.float32)


def main():
    img = texture()
    _, patches = extract_patches(img, (8, 8), (4, 4))
    print(f"{patches.shape[0]} patches of dimension {patches.shape[1]}")

    d = build_from_patches(patches[:-1], 128, seed=1)
    print(f"dictionary: m={d.m} atoms, n={d.n}\n")

    x = patches[-1].astype(np.float64)
    x0 = x - x.mean()  # dictionary atoms are mean-free, code the AC part
    total = float(x0 @ x0)
    print(f"query energy {total:.6f}")
    for K in (1, 2, 4, 8):
        codes = matching_pursuit_batch(ExactSelector(d), x0[None], SearchParams(K=K))
        r = x0 - reconstruct_batch(d, codes)[0]
        kept = 1.0 - float(r @ r) / total
        print(f"K={K}: {codes.lengths[0]} picks, "
              f"{codes.ip_count} inner products, "
              f"{100.0 * kept:.2f}% of energy captured")

    code = matching_pursuit(ExactSelector(d), x0, SearchParams(K=4))
    print("\ncode at K=4 (atom index, coefficient):")
    print(code.to_text())


if __name__ == "__main__":
    main()

"""Restore an image whose even rows were never captured.

Row-selection recovery treats the missing half of every patch as unknown
coordinates: patches are coded against the projected dictionary built
from the visible rows only, and the full atoms repaint both halves.
"""

import numpy as np

from stmp import (
    TaskConfig,
    build_from_patches,
    extract_patches,
    masked_recover,
    psnr,
    row_select_operator,
)


def scene(size=128):
    y, x = np.mgrid[0:size, 0:size].astype(np.float64) / size
    img = 0.4 * np.sin(2 * np.pi * (2.2 * x + 1.1 * y))
    img += 0.3 * np.sin(2 * np.pi * (0.9 * x - 3.0 * y + 0.4))
    img += 0.15 * (x + y > 1.1)
    return (0.5 + 0.5 * img / np.abs(img).max()).astype(np.float32)


def main():
    clean = scene()
    _, pool = extract_patches(clean, (8, 8), (2, 2))
    d = build_from_patches(pool, 800, seed=30)

    # drop every second image row; within an 8x8 patch that is rows 1,3,5,7
    patch_rows = np.arange(64).reshape(8, 8)[0::2].reshape(-1)
    op = row_select_operator(64, np.sort(patch_rows))

    damaged = clean.copy()
    damaged[1::2, :] = 0.0
    print(f"damaged input: {psnr(clean, damaged):.2f} dB PSNR")

    cfg = TaskConfig(patch_shape=(8, 8), stride=(2, 2), K=6, selector="exact")
    out, report = masked_recover(damaged, op, d, None, cfg, reference=clean)
    print(f"recovered:     {report.psnr_db:.2f} dB PSNR "
          f"({report.patches} patches, {report.inner_products:,} inner products)")


if __name__ == "__main__":
    main()

"""Patch-based denoising, exhaustive search against the tree shortcut.

Corrupts a synthetic image down to 10 dB SNR, denoises it twice with the
same dictionary (once coding each patch exhaustively, once through a
cluster tree keeping 10% of each node's children), and prints the quality
and the inner-product bill side by side.
"""

import numpy as np

from stmp import TaskConfig, add_noise_to_snr, build_from_patches, build_tree, denoise, extract_patches, psnr


def scene(size=128):
    y, x = np.mgrid[0:size, 0:size].astype(np.float64) / size
    img = 0.35 * np.sin(2 * np.pi * (3.1 * x + 0.8 * y))
    img += 0.25 * np.sin(2 * np.pi * (1.3 * x - 2.4 * y + 0.25))
    img += 0.25 * (x > 0.55) - 0.2 * (y > 0.7)
    return (0.5 + 0.5 * img / np.abs(img).max()).astype(np.float32)


def main():
    clean = scene()
    _, pool = extract_patches(clean, (16, 16), (2, 2))
    d = build_from_patches(pool, 1500, seed=5)
    tree = build_tree(d, (100, 10), seed=7)
    noisy = add_noise_to_snr(clean, 10.0, seed=6)
    print(f"noisy input: {psnr(clean, noisy):.2f} dB PSNR")

    base = dict(patch_shape=(16, 16), stride=(4, 4), K=10)
    for label, cfg in (
        ("exact", TaskConfig(**base, selector="exact")),
        ("stmp ", TaskConfig(**base, selector="stmp", alpha=0.1)),
    ):
        out, report = denoise(noisy, d, tree if label.strip() == "stmp" else None,
                              cfg, reference=clean)
        print(f"{label}: {report.psnr_db:.2f} dB PSNR, "
              f"{report.inner_products:,} inner products, "
              f"{report.patches} patches in {report.seconds:.2f}s")


if __name__ == "__main__":
    main()

"""Upscale a 4x-downsampled image by coding against averaged atoms.

The dictionary is learned on high-resolution patches of one region of a
synthetic scene.  A different region is block-averaged down 4x, coded in
the low-resolution space against the block-averaged atoms, and the codes
are lifted back onto the full-resolution atoms.
"""

import numpy as np

from stmp import TaskConfig, build_from_patches, extract_patches, psnr, super_resolve


def scene(size=256, seed=3):
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:size, 0:size].astype(np.float64) / size
    img = 0.4 * np.sin(2 * np.pi * (1.7 * x + 2.3 * y))
    img += 0.3 * np.sin(2 * np.pi * (4.0 * x * y + 0.3))
    img += 0.2 * (np.hypot(x - 0.5, y - 0.5) < 0.3)
    img += 0.02 * rng.standard_normal((size, size))
    return (0.5 + 0.4 * img / np.abs(img).max()).astype(np.float32)


def downsample(img, factor):
    h, w = img.shape
    return img.reshape(h // factor, factor, w // factor, factor).mean(axis=(1, 3))


def main():
    factor = 4
    full = scene()
    train, test = full[:, :128], full[:, 128:]
    _, pool = extract_patches(train, (16, 16), (2, 2))
    d = build_from_patches(pool, 1200, seed=4)

    low = downsample(test, factor).astype(np.float32)
    print(f"low-res input {low.shape}, target {test.shape}")

    cfg = TaskConfig(patch_shape=(16, 16), stride=(1, 1), K=6, selector="exact")
    out, report = super_resolve(low, d, None, cfg, factor=factor, reference=test)
    up = np.repeat(np.repeat(low, factor, axis=0), factor, axis=1)
    print(f"nearest-neighbor upscale: {psnr(test, up):.2f} dB PSNR")
    print(f"sparse-coded upscale:     {report.psnr_db:.2f} dB PSNR "
          f"({report.patches} patches, {report.inner_products:,} inner products)")


if __name__ == "__main__":
    main()

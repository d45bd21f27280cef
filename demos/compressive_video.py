"""Recover video frames from coded-exposure measurements.

A per-pixel shutter keeps each sensor site open for a short random run
inside every 4-frame window, so the camera records one frame where the
video had four.  Patches of the measurement are coded against the
projected dictionary and the codes synthesize the missing frames.
"""

import numpy as np

from stmp import (
    TaskConfig,
    build_from_patches,
    coded_exposure_operator,
    compressive_recover,
    extract_patches,
    random_exposure_mask,
    simulate_coded_exposure,
    snr,
)


def moving_blob(size=32, frames=8, seed=0):
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:size, 0:size].astype(np.float64) / size
    cy, cx = rng.uniform(0.2, 0.8, size=2)
    vy, vx = rng.uniform(-0.4, 0.4, size=2)
    video = np.empty((size, size, frames), dtype=np.float32)
    for f in range(frames):
        t = f / frames
        blob = np.exp(-(((y - cy - vy * t) ** 2 + (x - cx - vx * t) ** 2) / 0.02))
        video[:, :, f] = 0.2 + 0.6 * blob
    return video


def main():
    patch = (8, 8, 4)
    pool = []
    for seed in range(6):
        _, p = extract_patches(moving_blob(seed=seed), patch, (4, 4, 2))
        pool.append(p)
    d = build_from_patches(np.concatenate(pool), 600, seed=10)

    video = moving_blob(seed=99)
    mask = random_exposure_mask(patch[:2], patch[2], 2, seed=11)
    op = coded_exposure_operator(mask)
    measured = simulate_coded_exposure(video, op)
    print(f"video {video.shape} -> measurements {measured.shape} "
          f"({video.size // measured.size}x compression)")

    cfg = TaskConfig(patch_shape=patch, stride=patch, K=8, selector="exact")
    out, report = compressive_recover(measured, op, d, None, cfg, reference=video)
    baseline = np.repeat(measured / mask.sum(axis=-1, keepdims=True).mean(), 4, axis=-1)
    print(f"repeat-measurement baseline: {snr(video, baseline.astype(np.float32)):.2f} dB SNR")
    print(f"sparse recovery:             {report.snr_db:.2f} dB SNR "
          f"({report.patches} patches, {report.inner_products:,} inner products)")


if __name__ == "__main__":
    main()

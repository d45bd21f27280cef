"""Patch-based restoration tasks: denoising, super-resolution, compressive
and masked recovery.

Every task follows the same skeleton: slide a patch grid over the input,
split each measured patch into its flat (DC) component and the rest, sparse
code the rest against the (projected) dictionary, lift the code back to full
patch space, re-add the flat component, and average the overlapping restored
patches into the output.  The flat component is handled through the
operator: with c = op(all-ones patch), the measurement's DC coefficient is
<y, c> / |c|^2, which reduces to the patch mean when nothing is projected.

Patches are coded batched, in one thread: matching pursuit runs on a chunk
of up to 1024 patches at a time with either selector (the exhaustive
selector blocks its own scan), and every patch is coded exactly as it would
be alone, so outputs and counter totals do not depend on the chunk size.
"""

from collections.abc import Callable
from dataclasses import dataclass
import math
import time

import numpy as np

from .clustering import ClusterTree, validate_tree
from .dictionary import Dictionary, ScoreCounter
from .operators import (
    CODED_EXPOSURE,
    IDENTITY,
    ROW_SELECT,
    ObservationOperator,
    apply_batch,
    block_average_operator,
    identity_operator,
    lift_codes,
    project_dictionary,
)
from .pursuit import (
    ExactSelector,
    SearchParams,
    TreeSelector,
    check_alpha,
    matching_pursuit_batch,
    reconstruct_batch,
    row_dots,
)
from .tensor import PatchLayout, extract_patches, aggregate_patches

EXACT = "exact"
STMP = "stmp"

# Patches coded per batch, with either selector: the tree's node-major GEMMs
# want large batches, and the exhaustive scan blocks its own rows.
_CHUNK = 1024

# a task's tree over the dictionary its operator projects, or a builder of one from that Dictionary
TreeSource = ClusterTree | Callable[[Dictionary], ClusterTree] | None

CSV_HEADER = "task, m, n, K, alpha, selector, psnr_db, snr_db, inner_products, patches, seconds"


@dataclass
class TaskConfig:
    """Shared restoration parameters; ranks follow the input tensor."""

    patch_shape: tuple[int, ...]
    stride: tuple[int, ...]
    K: int
    alpha: float = 0.1
    residual_tolerance: float | None = None
    selector: str = STMP

    def __post_init__(self):
        self.patch_shape = tuple(int(e) for e in self.patch_shape)
        self.stride = tuple(int(e) for e in self.stride)
        if len(self.patch_shape) != len(self.stride):
            raise ValueError(
                f"patch shape {self.patch_shape} and stride {self.stride} have different ranks"
            )
        self.search_params()  # checks K and the tolerance
        self.alpha = check_alpha(self.alpha)
        if self.selector not in (EXACT, STMP):
            raise ValueError(f"selector must be '{EXACT}' or '{STMP}', got {self.selector!r}")

    def search_params(self) -> SearchParams:
        return SearchParams(K=self.K, residual_tolerance=self.residual_tolerance)


@dataclass
class TaskReport:
    """One restoration run: fidelity, cost, and the configuration echo."""

    task: str
    m: int
    n: int
    K: int
    alpha: float
    selector: str
    psnr_db: float | None
    snr_db: float | None
    inner_products: int
    patches: int
    seconds: float

    def csv_row(self) -> str:
        return ", ".join(
            [
                self.task,
                str(self.m),
                str(self.n),
                str(self.K),
                f"{self.alpha:g}",
                self.selector,
                _metric(self.psnr_db),
                _metric(self.snr_db),
                str(self.inner_products),
                str(self.patches),
                f"{self.seconds:.3f}",
            ]
        )


def _metric(value: float | None) -> str:
    if value is None:
        return ""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.6f}"


def add_noise_to_snr(t, target_snr_db, seed) -> np.ndarray:
    """Add seeded white Gaussian noise scaled to hit the target SNR.

    Passing None or an infinite target returns the tensor unchanged; a NaN
    target raises ValueError.
    """
    t = np.asarray(t, dtype=np.float32)
    if target_snr_db is None or math.isinf(target_snr_db):
        return t.copy()
    if math.isnan(target_snr_db):
        raise ValueError("target SNR must not be NaN")
    energy = float((t.astype(np.float64) ** 2).sum())
    if energy == 0.0:
        raise ValueError("cannot scale noise against an all-zero signal")
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    noise = rng.standard_normal(t.shape)
    scale = math.sqrt(energy) / (float(np.linalg.norm(noise)) * 10.0 ** (target_snr_db / 20.0))
    return (t.astype(np.float64) + scale * noise).astype(np.float32)


def psnr(reference, test, peak: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB; infinite for identical inputs."""
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise ValueError(f"shape mismatch: {reference.shape} vs {test.shape}")
    mse = float(((reference - test) ** 2).mean())
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


def snr(reference, test) -> float:
    """Signal-to-noise ratio in dB of test against reference."""
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise ValueError(f"shape mismatch: {reference.shape} vs {test.shape}")
    noise_energy = float(((reference - test) ** 2).sum())
    if noise_energy == 0.0:
        return math.inf
    signal_energy = float((reference ** 2).sum())
    if signal_energy == 0.0:
        return -math.inf
    return 10.0 * math.log10(signal_energy / noise_energy)


def _selector_for(dictionary: Dictionary, tree, cfg: TaskConfig):
    if cfg.selector == EXACT:
        return ExactSelector(dictionary)
    if tree is None:
        raise ValueError("the stmp selector needs a cluster tree")
    report = validate_tree(tree, dictionary)
    if not report.ok:
        raise ValueError(f"cluster tree does not fit the dictionary: {report.violation}")
    return TreeSelector(tree, dictionary, cfg.alpha)


def _code_patches(
    measured: np.ndarray,
    dc_meas: np.ndarray,
    selector,
    pd,
    params: SearchParams,
) -> tuple[np.ndarray, ScoreCounter]:
    """Code measurement patches and synthesize full-space patches.

    Returns the (N, n_full) synthesis matrix and the counter.  Chunks of
    ``_CHUNK`` rows go through batched matching pursuit, lift and
    reconstruction, whatever the selector; a row's arithmetic is that of any
    chunk.
    """
    measured = np.ascontiguousarray(measured, dtype=np.float64)
    denom = float(dc_meas @ dc_meas)
    out = np.empty((measured.shape[0], pd.base.n), dtype=np.float64)
    counter = ScoreCounter()
    for start in range(0, measured.shape[0], _CHUNK):
        y = measured[start : start + _CHUNK]
        dc = row_dots(y, dc_meas) / denom
        codes = matching_pursuit_batch(selector, y - dc[:, None] * dc_meas, params, counter)
        full = reconstruct_batch(pd.base, lift_codes(pd, codes))
        out[start : start + _CHUNK] = full + dc[:, None]
    return out, counter


def _restore(task, start, d, op, tree, cfg, measured, out_layout, reference):
    """The skeleton every task shares: code the measurement patches (one per
    row of ``measured``) against ``d`` as ``op`` measures it, average the
    restored full-space patches on ``out_layout``, and report.  ``start`` is
    the task's start time, so the reported seconds cover its extraction, but
    not the build when ``tree`` is a builder."""
    pd = project_dictionary(d, op)
    if callable(tree) and cfg.selector == STMP:
        built = time.perf_counter()
        tree = tree(pd.dictionary)
        start += time.perf_counter() - built
    selector = _selector_for(pd.dictionary, tree, cfg)
    dc_meas = apply_batch(op, np.ones((1, d.n)))[0]
    full, counter = _code_patches(measured, dc_meas, selector, pd, cfg.search_params())
    restored = aggregate_patches(out_layout, full.astype(np.float32))
    seconds = time.perf_counter() - start
    return restored, TaskReport(
        task=task,
        m=d.m,
        n=d.n,
        K=cfg.K,
        alpha=cfg.alpha,
        selector=cfg.selector,
        psnr_db=None if reference is None else psnr(reference, restored),
        snr_db=None if reference is None else snr(reference, restored),
        inner_products=counter.inner_products,
        patches=measured.shape[0],
        seconds=seconds,
    )


def denoise(noisy, d: Dictionary, tree: TreeSource, cfg: TaskConfig, reference=None):
    """Code every patch of a noisy tensor and average the reconstructions.

    Sparse approximation against the dictionary is the only prior: whatever
    the K chosen atoms cannot express is treated as noise and dropped.
    """
    start = time.perf_counter()
    layout, patches = extract_patches(noisy, cfg.patch_shape, cfg.stride)
    op = identity_operator(d.n)
    return _restore("denoise", start, d, op, tree, cfg, apply_batch(op, patches), layout, reference)


def masked_recover(observed, op: ObservationOperator, d: Dictionary,
                   tree: TreeSource, cfg: TaskConfig, reference=None):
    """Complete unobserved patch coordinates from a row selection.

    The observed tensor keeps its full shape; only the coordinates the
    operator retains are trusted, and the synthesis fills in the rest.  The
    tree, when used, must be built on the projected dictionary.
    """
    start = time.perf_counter()
    if op.kind not in (ROW_SELECT, IDENTITY):
        raise ValueError(f"masked recovery expects a row-selection operator, got {op.kind}")
    layout, patches = extract_patches(observed, cfg.patch_shape, cfg.stride)
    return _restore("maskrecover", start, d, op, tree, cfg, apply_batch(op, patches), layout,
                    reference)


def super_resolve(lowres, d: Dictionary, tree: TreeSource, cfg: TaskConfig,
                  factor: int = 4, reference=None):
    """Upscale by coding low-resolution patches against block-averaged atoms.

    cfg.patch_shape is the high-resolution (dictionary) patch; cfg.stride
    walks the low-resolution grid.  Codes found in measurement space are
    lifted onto the full atoms and aggregated on the scaled-up grid, whose
    origins land exactly ``factor`` times the low-resolution ones.
    """
    start = time.perf_counter()
    lowres = np.asarray(lowres, dtype=np.float32)
    hr_patch = cfg.patch_shape
    factors = (int(factor),) * lowres.ndim
    if len(hr_patch) != lowres.ndim:
        raise ValueError(f"patch shape {hr_patch} does not match input rank {lowres.ndim}")
    op = block_average_operator(hr_patch, factors)  # checks that the factor divides the patch
    lr_patch = tuple(e // f for e, f in zip(hr_patch, factors))
    _, lr_patches = extract_patches(lowres, lr_patch, cfg.stride)
    hr_shape = tuple(e * f for e, f in zip(lowres.shape, factors))
    hr_stride = tuple(s * f for s, f in zip(cfg.stride, factors))
    hr_layout = PatchLayout(hr_shape, hr_patch, hr_stride)
    return _restore("superres", start, d, op, tree, cfg, lr_patches, hr_layout, reference)


def compressive_recover(measurements, op: ObservationOperator, d: Dictionary,
                        tree: TreeSource, cfg: TaskConfig, reference=None):
    """Recover a video from coded-exposure measurement frames.

    Measurement patches tile the measurement volume exactly (stride equals
    the patch), so every patch shares the operator's mask; the lifted codes
    synthesize full spatio-temporal patches on the corresponding video grid.
    """
    start = time.perf_counter()
    if op.kind != CODED_EXPOSURE:
        raise ValueError(f"compressive recovery expects a coded-exposure operator, got {op.kind}")
    measurements = np.asarray(measurements, dtype=np.float32)
    if tuple(cfg.patch_shape) != op.in_shape:
        raise ValueError(f"patch shape {cfg.patch_shape} does not match operator input {op.in_shape}")
    spatial = op.mask.shape[:-1]
    frames = op.mask.shape[-1]
    meas_patch = spatial + (1,)
    if measurements.ndim != len(meas_patch):
        raise ValueError(f"measurement rank {measurements.ndim} does not fit patch {meas_patch}")
    for axis, (extent, p) in enumerate(zip(measurements.shape, meas_patch)):
        if extent % p != 0:
            raise ValueError(
                f"measurement extent {extent} on axis {axis} is not a multiple of "
                f"the patch extent {p}; patches must tile the mask period"
            )
    _, m_patches = extract_patches(measurements, meas_patch, meas_patch)
    video_shape = measurements.shape[:-1] + (measurements.shape[-1] * frames,)
    v_layout = PatchLayout(video_shape, op.in_shape, op.in_shape)
    return _restore("csrecover", start, d, op, tree, cfg, m_patches, v_layout, reference)

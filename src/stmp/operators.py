"""Linear observation operators and measurement-space dictionary projection.

An operator maps a full patch (dimension n_in) to its measured coordinates
(dimension n_out): keeping a subset of rows, averaging blocks down to a
coarser grid, or integrating frames through a per-pixel binary exposure
mask.  Coding happens in measurement space against the projected dictionary;
``lift_codes`` maps the coefficients back to the full-space atoms.

Row selections serialize as magic "STMPRSEL" | u64 count | count x u64
indices; exposure masks are ordinary tensors and use the tensor format.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import _binio
from .dictionary import Dictionary
from .errors import DegenerateOperatorError, FormatError
from .pursuit import CodeBatch

_ROWS_MAGIC = b"STMPRSEL"

# projected atoms below this norm carry no usable signal
UNUSABLE_NORM = 1e-6

IDENTITY = "identity"
ROW_SELECT = "row_select"
CODED_EXPOSURE = "coded_exposure"
BLOCK_AVERAGE = "block_average"


@dataclass(eq=False)
class ObservationOperator:
    """One linear measurement map; build via the constructor helpers below."""

    kind: str
    n_in: int
    n_out: int
    row_indices: np.ndarray | None = None
    mask: np.ndarray | None = None
    in_shape: tuple[int, ...] | None = None
    factors: tuple[int, ...] | None = None


def identity_operator(n: int) -> ObservationOperator:
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    return ObservationOperator(kind=IDENTITY, n_in=n, n_out=n)


def row_select_operator(n_in: int, rows) -> ObservationOperator:
    """Keep the listed coordinates of the patch vector."""
    rows = np.asarray(rows, dtype=np.int64).ravel()
    if rows.size == 0:
        raise ValueError("row selection keeps no coordinates")
    if rows[0] < 0 or rows[-1] >= n_in or np.any(np.diff(rows) <= 0):
        raise ValueError(
            f"row indices must be strictly increasing within [0, {n_in}), "
            f"got range [{rows.min()}, {rows.max()}]"
        )
    return ObservationOperator(kind=ROW_SELECT, n_in=int(n_in), n_out=rows.size, row_indices=rows)


def coded_exposure_operator(mask) -> ObservationOperator:
    """Integrate the patch's temporal axis through a binary per-pixel mask.

    The mask's shape is the patch's (spatial axes, then time), and each
    pixel's frames sum to one measurement, so n_out = n_in / temporal_extent.
    """
    mask = np.ascontiguousarray(mask, dtype=np.float32)
    if mask.ndim < 2:
        raise ValueError(f"mask needs spatial axes plus a temporal axis, got shape {mask.shape}")
    if not np.isin(mask, (0.0, 1.0)).all():
        raise ValueError("mask must be binary")
    if (mask.sum(axis=-1) < 1).any():
        raise ValueError("every pixel must be open in at least one frame")
    return ObservationOperator(
        kind=CODED_EXPOSURE,
        n_in=mask.size,
        n_out=math.prod(mask.shape[:-1]),
        mask=mask,
        in_shape=mask.shape,
    )


def block_average_operator(in_shape, factors) -> ObservationOperator:
    """Average non-overlapping blocks, shrinking each axis by its factor."""
    in_shape = tuple(int(e) for e in in_shape)
    factors = tuple(int(f) for f in factors)
    if len(in_shape) != len(factors):
        raise ValueError(f"rank mismatch: shape {in_shape} vs factors {factors}")
    for extent, f in zip(in_shape, factors):
        if f < 1 or extent % f != 0:
            raise ValueError(f"factor {f} must divide extent {extent}")
    out_shape = tuple(e // f for e, f in zip(in_shape, factors))
    return ObservationOperator(
        kind=BLOCK_AVERAGE,
        n_in=math.prod(in_shape),
        n_out=math.prod(out_shape),
        in_shape=in_shape,
        factors=factors,
    )


def apply_batch(op: ObservationOperator, patches) -> np.ndarray:
    """Measure a stack of patch vectors; rows in, rows out, float64."""
    patches = np.asarray(patches, dtype=np.float64)
    if patches.ndim != 2 or patches.shape[1] != op.n_in:
        raise ValueError(
            f"expected patches of dimension {op.n_in}, got array of shape {patches.shape}"
        )
    count = patches.shape[0]
    if op.kind == IDENTITY:
        return patches.copy()
    if op.kind == ROW_SELECT:
        return patches[:, op.row_indices]
    if op.kind == CODED_EXPOSURE:
        cube = patches.reshape((count,) + op.mask.shape)
        return (cube * op.mask).sum(axis=-1).reshape(count, op.n_out)
    if op.kind == BLOCK_AVERAGE:
        shape = [count]
        reduce_axes = []
        for axis, (extent, f) in enumerate(zip(op.in_shape, op.factors)):
            shape.extend((extent // f, f))
            reduce_axes.append(2 * axis + 2)
        blocks = patches.reshape(shape)
        return blocks.mean(axis=tuple(reduce_axes)).reshape(count, op.n_out)
    raise ValueError(f"unknown operator kind {op.kind!r}")


@dataclass(eq=False)
class ProjectedDictionary:
    """Measurement-space image of a dictionary, renormalized atom by atom.

    ``dictionary`` holds the unit-norm projected atoms (zero rows where the
    projection annihilated the atom); ``scale`` is each atom's norm before
    renormalization, the factor that maps measurement-space coefficients
    back to full-space ones.  Indices stay aligned with the base dictionary.
    """

    base: Dictionary
    operator: ObservationOperator
    dictionary: Dictionary
    scale: np.ndarray
    usable: np.ndarray


def project_dictionary(d: Dictionary, op: ObservationOperator) -> ProjectedDictionary:
    if op.n_in != d.n:
        raise ValueError(f"operator expects dimension {op.n_in}, dictionary atoms have {d.n}")
    if op.kind == IDENTITY or (op.kind == ROW_SELECT and op.n_out == op.n_in):
        # the measurement is the patch itself: score the base dictionary, so
        # its fingerprint, max norm and float32 columns are computed once per run
        return ProjectedDictionary(
            base=d,
            operator=op,
            dictionary=d,
            scale=np.ones(d.m, dtype=np.float64),
            usable=np.ones(d.m, dtype=bool),
        )
    projected = apply_batch(op, d.atoms)
    scale = np.linalg.norm(projected, axis=1)
    usable = scale >= UNUSABLE_NORM
    if not usable.any():
        raise DegenerateOperatorError(
            f"{op.kind} operator annihilates all {d.m} dictionary atoms"
        )
    atoms_out = np.zeros_like(projected)
    atoms_out[usable] = projected[usable] / scale[usable, None]
    return ProjectedDictionary(
        base=d,
        operator=op,
        dictionary=Dictionary(atoms_out.astype(np.float32)),
        scale=scale,
        usable=usable,
    )


def lift_codes(pd: ProjectedDictionary, codes: CodeBatch) -> CodeBatch:
    """Map measurement-space coefficients onto the full-space atoms.

    Dividing by the recorded scale makes applying the operator to the lifted
    reconstruction reproduce the measurement-space reconstruction.
    """
    used = codes.check_range(pd.base.m)
    picks = np.where(used, codes.indices, 0)
    unusable = used & ~pd.usable[picks]
    if unusable.any():
        raise RuntimeError(
            f"atom {codes.indices[unusable][0]} is unusable under the {pd.operator.kind} "
            "operator; the selector should never have produced it"
        )
    coefficients = np.where(used, codes.coefficients / pd.scale[picks], 0.0)
    return CodeBatch(pd.base.m, codes.indices, coefficients, codes.lengths, codes.ip_count)


def random_exposure_mask(spatial_shape, frames: int, open_length: int, seed) -> np.ndarray:
    """Per-pixel mask with one contiguous open run of the given length."""
    spatial_shape = tuple(int(e) for e in spatial_shape)
    if frames < 1 or not 1 <= open_length <= frames:
        raise ValueError(f"need 1 <= open_length <= frames, got {open_length} of {frames}")
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    starts = rng.integers(0, frames - open_length + 1, size=spatial_shape)
    t = np.arange(frames)
    mask = (t >= starts[..., None]) & (t < (starts + open_length)[..., None])
    return mask.astype(np.float32)


def simulate_coded_exposure(video, op: ObservationOperator) -> np.ndarray:
    """Integrate a video through the operator's mask, tiled over space.

    The mask repeats periodically across the spatial axes and every
    ``frames`` consecutive frames collapse into one measurement frame, so a
    length-T video yields T / frames measurement frames.
    """
    if op.kind != CODED_EXPOSURE:
        raise ValueError(f"expected a {CODED_EXPOSURE} operator, got {op.kind}")
    video = np.asarray(video, dtype=np.float32)
    spatial = op.mask.shape[:-1]
    frames = op.mask.shape[-1]
    if video.ndim != len(spatial) + 1:
        raise ValueError(f"video rank {video.ndim} does not fit mask shape {op.mask.shape}")
    for axis, extent in enumerate(spatial):
        if video.shape[axis] % extent != 0:
            raise ValueError(
                f"video extent {video.shape[axis]} on axis {axis} is not a multiple "
                f"of the mask extent {extent}"
            )
    if video.shape[-1] % frames != 0:
        raise ValueError(
            f"video length {video.shape[-1]} is not a multiple of the window length {frames}"
        )
    reps = tuple(v // s for v, s in zip(video.shape, spatial)) + (1,)
    tiled = np.tile(op.mask, reps)
    blocks = video.shape[-1] // frames
    cube = video.reshape(video.shape[:-1] + (blocks, frames)).astype(np.float64)
    meas = (cube * tiled[..., np.newaxis, :]).sum(axis=-1)
    return meas.astype(np.float32)


def view_selection_rows(patch_shape, kept_views) -> np.ndarray:
    """Coordinates of whole views in a patch whose last two axes index a view grid."""
    patch_shape = tuple(int(e) for e in patch_shape)
    if len(patch_shape) < 3:
        raise ValueError(f"patch shape {patch_shape} has no view-grid axes")
    grid = patch_shape[-2:]
    seen = set()
    flat = np.arange(math.prod(patch_shape), dtype=np.int64).reshape(patch_shape)
    picked = []
    for view in kept_views:
        u, v = (int(view[0]), int(view[1]))
        if not (0 <= u < grid[0] and 0 <= v < grid[1]):
            raise ValueError(f"view ({u}, {v}) outside grid {grid}")
        if (u, v) in seen:
            raise ValueError(f"view ({u}, {v}) listed twice")
        seen.add((u, v))
        picked.append(flat[..., u, v].ravel())
    if not picked:
        raise ValueError("no views kept")
    return np.sort(np.concatenate(picked))


def save_row_selection(rows, path) -> None:
    rows = np.asarray(rows, dtype=np.int64).ravel()
    if rows.size and (rows[0] < 0 or np.any(np.diff(rows) <= 0)):
        raise ValueError("row indices must be non-negative and strictly increasing")
    with open(path, "wb") as fh:
        fh.write(_ROWS_MAGIC)
        fh.write(_binio.u64(rows.size))
        fh.write(b"".join(_binio.u64(int(r)) for r in rows))


def load_row_selection(path) -> np.ndarray:
    reader = _binio.Reader.of_file(path)
    reader.magic(_ROWS_MAGIC)
    count = reader.u64("row count")
    if count == 0:
        raise FormatError(f"{path}: empty row selection")
    rows = np.array([reader.u64(f"row {i}") for i in range(count)], dtype=np.uint64)
    big = np.flatnonzero(rows >= 1 << 63)
    if big.size:
        raise FormatError(f"{path}: row index {rows[big[0]]} out of range at offset {16 + 8 * big[0]}")
    reader.expect_end()
    rows = rows.astype(np.int64)
    if np.any(np.diff(rows) <= 0):
        raise FormatError(f"{path}: row indices are not strictly increasing")
    return rows

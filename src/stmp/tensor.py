"""Dense tensors, sliding-window patch geometry, and tensor/image file I/O.

Tensors are plain numpy ``float32`` arrays of any rank; intensities are
nominally in [0, 1] for images.  A :class:`PatchLayout` describes a
sliding-window grid over a tensor: windows start at every multiple of the
stride on each axis, and the final valid start position is always included
so that borders are covered even when the stride does not divide evenly.

Binary tensor file layout (all integers little-endian):

    magic "STMPTNSR" | u32 version=1 | u32 dtype code (1 = float32) |
    u32 rank | rank x u64 extents | row-major float32 payload

8-bit binary grayscale PGM ("P5", maxval 255) is supported for image
ingestion; bytes map to intensities via v / 255.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from . import _binio
from .errors import FormatError, UnsupportedFormatError

DTYPE = np.float32

_TENSOR_MAGIC = b"STMPTNSR"
_TENSOR_VERSION = 1
_DTYPE_F32 = 1
# patches added per np.add.at call in aggregate_patches; bounds its index arrays
_AGGREGATE_CHUNK = 1024


def _as_shape(value, name: str) -> tuple[int, ...]:
    shape = tuple(int(v) for v in value)
    if not shape or any(v <= 0 for v in shape):
        raise ValueError(f"{name} must be a non-empty sequence of positive ints, got {value!r}")
    return shape


def _axis_starts(extent: int, patch: int, stride: int) -> np.ndarray:
    """Window start positions along one axis, final valid start forced in."""
    last = extent - patch
    starts = list(range(0, last + 1, stride))
    if starts[-1] != last:
        starts.append(last)
    return np.asarray(starts, dtype=np.int64)


@dataclass
class PatchLayout:
    """Sliding-window geometry: which windows of a tensor become patches."""

    tensor_shape: tuple[int, ...]
    patch_shape: tuple[int, ...]
    stride: tuple[int, ...]
    axis_starts: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        self.tensor_shape = _as_shape(self.tensor_shape, "tensor_shape")
        self.patch_shape = _as_shape(self.patch_shape, "patch_shape")
        self.stride = _as_shape(self.stride, "stride")
        rank = len(self.tensor_shape)
        if len(self.patch_shape) != rank or len(self.stride) != rank:
            raise ValueError(
                f"rank mismatch: tensor rank {rank}, patch rank "
                f"{len(self.patch_shape)}, stride rank {len(self.stride)}"
            )
        for axis, (extent, patch, step) in enumerate(
            zip(self.tensor_shape, self.patch_shape, self.stride)
        ):
            if patch > extent:
                raise ValueError(
                    f"patch extent {patch} exceeds tensor extent {extent} on axis {axis}"
                )
            if step > patch:
                # a stride wider than the window would leave cells uncovered
                raise ValueError(
                    f"stride {step} exceeds patch extent {patch} on axis {axis}"
                )
        self.axis_starts = tuple(
            _axis_starts(e, p, s)
            for e, p, s in zip(self.tensor_shape, self.patch_shape, self.stride)
        )

    @property
    def patch_dim(self) -> int:
        return math.prod(self.patch_shape)

    @property
    def num_patches(self) -> int:
        return math.prod(len(s) for s in self.axis_starts)

    @property
    def origins(self) -> np.ndarray:
        """All window start coordinates, row-major (first axis slowest)."""
        grids = np.meshgrid(*self.axis_starts, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)


def extract_patches(t: np.ndarray, patch_shape, stride) -> tuple[PatchLayout, np.ndarray]:
    """Copy every layout window of ``t`` into a row of an (N, n) patch matrix."""
    t = np.asarray(t, dtype=DTYPE)
    layout = PatchLayout(t.shape, patch_shape, stride)
    windows = np.lib.stride_tricks.sliding_window_view(t, layout.patch_shape)
    grid = windows[np.ix_(*layout.axis_starts)]
    patches = grid.reshape(layout.num_patches, layout.patch_dim)
    return layout, np.ascontiguousarray(patches, dtype=DTYPE)


def aggregate_patches(layout: PatchLayout, patches: np.ndarray) -> np.ndarray:
    """Average overlapping patches back into a tensor.

    Each output cell is the arithmetic mean of every patch value covering it.
    Sums accumulate in float64, each cell adding its patches in origin order
    (``np.add.at`` applies its indices in sequence, and they are listed
    patch by patch), so results are run-to-run identical.
    """
    patches = np.asarray(patches)
    if patches.shape != (layout.num_patches, layout.patch_dim):
        raise ValueError(
            f"expected {layout.num_patches} patches of dimension {layout.patch_dim}, "
            f"got array of shape {patches.shape}"
        )
    shape = layout.tensor_shape
    size = math.prod(shape)
    acc = np.zeros(size, dtype=np.float64)
    cnt = np.zeros(size, dtype=np.int64)
    # flat offsets of a window's cells from its origin, in patch row-major order
    cells = np.ravel_multi_index(np.indices(layout.patch_shape).reshape(len(shape), -1), shape)
    bases = np.ravel_multi_index(tuple(layout.origins.T), shape)
    for start in range(0, bases.size, _AGGREGATE_CHUNK):
        chunk = slice(start, start + _AGGREGATE_CHUNK)
        flat = (bases[chunk, None] + cells).ravel()
        # values of acc's dtype keep np.add.at on its fast path, ~20x faster
        np.add.at(acc, flat, patches[chunk].astype(np.float64).ravel())
        cnt += np.bincount(flat, minlength=size)
    # layout invariant: every cell is covered by at least one window
    out = acc / cnt
    return out.reshape(shape).astype(DTYPE)


def save_tensor(t: np.ndarray, path) -> None:
    t = np.asarray(t, dtype=DTYPE)
    if not np.isfinite(t).all():
        raise ValueError("tensor contains NaN or Inf")
    parts = [
        _TENSOR_MAGIC,
        _binio.u32(_TENSOR_VERSION),
        _binio.u32(_DTYPE_F32),
        _binio.u32(t.ndim),
    ]
    parts.extend(_binio.u64(e) for e in t.shape)
    parts.append(_binio.f32_bytes(t))
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_tensor(path) -> np.ndarray:
    reader = _binio.Reader.of_file(path)
    reader.magic(_TENSOR_MAGIC)
    version = reader.u32("version")
    if version != _TENSOR_VERSION:
        raise UnsupportedFormatError(
            f"{path}: unsupported tensor format version {version} at offset 8"
        )
    dtype_code = reader.u32("dtype code")
    if dtype_code != _DTYPE_F32:
        raise UnsupportedFormatError(
            f"{path}: unsupported dtype code {dtype_code} at offset 12"
        )
    rank = reader.u32("rank")
    if rank == 0:
        raise FormatError(f"{path}: zero rank at offset 16")
    shape = tuple(reader.u64(f"extent of axis {axis}") for axis in range(rank))
    if any(e == 0 for e in shape):
        raise FormatError(f"{path}: zero extent in shape {shape}")
    count = math.prod(shape)
    data = reader.array("<f4", count, "payload")
    reader.expect_end()
    t = data.reshape(shape)
    if not np.isfinite(t).all():
        raise FormatError(f"{path}: payload contains NaN or Inf")
    return t


def save_pgm(t: np.ndarray, path) -> None:
    """Write a rank-2 tensor as binary 8-bit PGM, clamping intensities to [0, 1]."""
    t = np.asarray(t, dtype=DTYPE)
    if t.ndim != 2:
        raise ValueError(f"PGM output requires a rank-2 tensor, got rank {t.ndim}")
    pixels = np.rint(np.clip(t, 0.0, 1.0) * 255.0).astype(np.uint8)
    height, width = t.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def _pgm_tokens(data: bytes):
    """Header tokens of a PGM file, honoring '#' comments; yields (token, start, end)."""
    i = 0
    while i < len(data):
        c = data[i:i + 1]
        if c in b" \t\r\n":
            i += 1
        elif c == b"#":
            while i < len(data) and data[i:i + 1] != b"\n":
                i += 1
        else:
            start = i
            while i < len(data) and data[i:i + 1] not in b" \t\r\n#":
                i += 1
            yield data[start:i], start, i


def load_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = _pgm_tokens(data)
    try:
        magic, _, _ = next(tokens)
    except StopIteration:
        raise FormatError(f"{path}: empty file") from None
    if magic != b"P5":
        raise UnsupportedFormatError(
            f"{path}: only binary PGM ('P5') is supported, got {magic!r}"
        )
    fields = []
    end = 0
    while len(fields) < 3:
        try:
            token, start, end = next(tokens)
        except StopIteration:
            raise FormatError(
                f"{path}: truncated header, expected width/height/maxval"
            ) from None
        if not token.isdigit():
            raise FormatError(f"{path}: non-numeric header token {token!r} at offset {start}")
        fields.append(int(token))
    width, height, maxval = fields
    if maxval != 255:
        raise UnsupportedFormatError(f"{path}: only maxval 255 is supported, got {maxval}")
    if width <= 0 or height <= 0:
        raise FormatError(f"{path}: bad dimensions {width}x{height}")
    # exactly one whitespace byte separates maxval from the payload
    payload_start = end + 1
    payload = data[payload_start:payload_start + width * height]
    if len(payload) < width * height:
        raise FormatError(
            f"{path}: truncated payload at offset {payload_start + len(payload)} "
            f"(expected {width * height} pixels)"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    return (pixels.astype(DTYPE) / DTYPE(255.0)).astype(DTYPE)

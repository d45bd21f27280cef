"""Over-complete dictionaries of unit-norm atoms: construction, scoring, I/O.

Atoms are stored atom-major, one contiguous float32 row per atom, so that
scoring a query is a sequential scan, and no float64 copy is kept: an atom's
canonical score against a float64 residual is one ddot of its row upcast to
float64 (``row_dots``).  The conventional mathematical object is the
n x m matrix D whose columns are the atoms; ``normalize_columns`` keeps that
name even though the in-memory layout is transposed.

Dictionary file layout (little-endian):

    magic "STMPDICT" | u32 version=1 | u64 n | u64 m | m*n float32, atom-major

A dictionary's fingerprint, which binds cluster trees to it, is the first
8 bytes, read as a little-endian u64, of the SHA-256 digest of that float32
payload: the bytes after the file's 28-byte header.
"""

from dataclasses import dataclass
from functools import cached_property
import hashlib
import math

import numpy as np

from . import _binio
from .errors import FormatError, InsufficientDataError, UnsupportedFormatError

_DICT_MAGIC = b"STMPDICT"
_DICT_VERSION = 1

UNIT_NORM_TOL = 1e-5
# centered patches with norm at or below this are treated as constant
_ZERO_VARIANCE_TOL = 1e-6

_VECDOT = getattr(np, "vecdot", None)  # numpy >= 2
_NORM_BLOCK = 1024  # rows upcast to float64 at a time for their norms


def row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A[..., p, :] . B[..., p, :] for every row p, broadcast: with B = R[:, None]
    row p of R scores every row of A[p] (or of a shared table A).  numpy runs
    this as one ddot per row, the bits of ``A[p].dot(B[p])`` whatever the
    shapes: the canonical score when A holds atoms.  A gemv such as
    ``A @ b`` would round differently.  numpy 2's ``vecdot`` runs the same
    ddot with less overhead than ``matmul``."""
    if _VECDOT is not None:
        return _VECDOT(A, B)
    return np.matmul(A[..., None, :], B[..., :, None])[..., 0, 0]


@dataclass(eq=False)
class ScoreCounter:
    """Tally of n-dimensional inner products spent answering queries.

    ``centroid_inner_products`` counts the subset spent scoring tree-node
    centroids, so tree-search cost can be compared against the closed-form
    prediction; ``inner_products`` is the total including atom-level scoring.
    """

    inner_products: int = 0
    centroid_inner_products: int = 0

    def count_atoms(self, count: int) -> None:
        self.inner_products += int(count)

    def count_centroids(self, count: int) -> None:
        self.inner_products += int(count)
        self.centroid_inner_products += int(count)


@dataclass(eq=False)
class Dictionary:
    """m unit-norm atoms of dimension n, one per row of ``atoms``."""

    atoms: np.ndarray

    def __post_init__(self):
        atoms = np.ascontiguousarray(self.atoms, dtype=np.float32)
        if atoms.ndim != 2 or atoms.shape[0] == 0 or atoms.shape[1] == 0:
            raise ValueError(f"atoms must form a non-empty 2-D array, got shape {atoms.shape}")
        self.atoms = atoms

    @property
    def m(self) -> int:
        return self.atoms.shape[0]

    @property
    def n(self) -> int:
        return self.atoms.shape[1]

    @cached_property
    def columns(self) -> np.ndarray:
        """The n x m float32 matrix D whose columns are the atoms, contiguous.

        The exhaustive scan's float32 products run on this layout: a single
        query's product with every atom takes half the time it takes on the
        atom-major rows at n = 16.
        """
        return np.ascontiguousarray(self.atoms.T)

    @cached_property
    def max_norm(self) -> float:
        """The largest atom norm, which scales the rounding error of every score."""
        return float(np.sqrt(_squared_norms(self.atoms).max()))

    def payload_bytes(self) -> bytes:
        return _binio.f32_bytes(self.atoms)

    def fingerprint(self) -> int:
        """SHA-256 of the atom payload, its first 8 bytes as a little-endian
        u64; binds cluster trees to this dictionary.  Hashed from the atom
        buffer itself, once per object."""
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> int:
        payload = np.ascontiguousarray(self.atoms, dtype="<f4")
        return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")

    def validate(self) -> None:
        """Raise ValueError on the first invariant violation.

        Each atom's norm is decided, and reported, in float64.  The float32
        norms only filter: only atoms whose float32 norm lies within its
        rounding band of 1 +- ``UNIT_NORM_TOL`` are taken again in float64.
        Where that band is as wide as the tolerance, every atom is, so the
        float32 pass is skipped.
        """
        if not np.isfinite(self.atoms).all():
            raise ValueError("dictionary contains NaN or Inf")
        band = _norm_band(self.n)
        unsure = None  # every atom
        if band < UNIT_NORM_TOL:
            with np.errstate(over="ignore"):  # a large finite atom's r.r may overflow float32
                fast = np.sqrt(row_dots(self.atoms, self.atoms))
            unsure = np.flatnonzero(~(np.abs(fast - 1.0) < UNIT_NORM_TOL - band))
        norms = np.sqrt(_squared_norms(self.atoms if unsure is None else self.atoms.take(unsure, axis=0)))
        bad = np.flatnonzero(np.abs(norms - 1.0) > UNIT_NORM_TOL)
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"atom {i if unsure is None else int(unsure[i])} has norm {norms[i]:.8f}, "
                             f"expected 1 within {UNIT_NORM_TOL}")


def _squared_norms(atoms: np.ndarray) -> np.ndarray:
    """Each float32 row's r.r in float64, without an m x n float64 copy: the
    rows are upcast ``_NORM_BLOCK`` at a time into one reused block."""
    out = np.empty(atoms.shape[0])
    block = np.empty((min(atoms.shape[0], _NORM_BLOCK), atoms.shape[1]))
    for a in range(0, atoms.shape[0], _NORM_BLOCK):
        w = block[:min(_NORM_BLOCK, atoms.shape[0] - a)]
        np.copyto(w, atoms[a:a + _NORM_BLOCK])
        out[a:a + _NORM_BLOCK] = row_dots(w, w)
    return out


def _norm_band(n: int) -> float:
    """How far the float32 norm of an n-vector of norm at most 2 can lie from
    its float64 norm, plus a u32 for rounding the threshold to float32.

    A sum of n squares errs by at most gamma_n |x|^2 (Higham, Accuracy and
    Stability of Numerical Algorithms, 3.1), so its sqrt by gamma_n |x|, and
    the sqrt itself by a unit roundoff: the band is twice gamma_n(u32) +
    gamma_n(u64) + 2 u32 + u64, plus a floor for squares that underflow
    float32.  From n of about 80 up it exceeds ``UNIT_NORM_TOL``, and
    ``Dictionary.validate`` takes every atom in float64 alone.
    """
    u32, u64 = 2.0**-24, 2.0**-53
    if n * u32 >= 0.5:
        return math.inf
    gamma = n * u32 / (1 - n * u32) + n * u64 / (1 - n * u64)
    return 2 * (gamma + 2 * u32 + u64) + n * 2.0**-126


def normalize_columns(raw_atoms) -> Dictionary:
    """Scale each atom to unit Euclidean norm, preserving order."""
    raw = np.asarray(raw_atoms, dtype=np.float64)
    if raw.ndim != 2:
        raise ValueError(f"expected a 2-D atom array, got shape {raw.shape}")
    norms = np.linalg.norm(raw, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"atom {int(zero[0])} is the zero vector and cannot be normalized")
    return Dictionary((raw / norms[:, None]).astype(np.float32))


def build_from_patches(patches, m: int, seed: int) -> Dictionary:
    """Sample m distinct patches, remove each patch's mean, and normalize.

    Constant (zero-variance) patches are unusable and skipped.  The selection
    is a seeded draw without replacement; chosen patches keep their original
    relative order.
    """
    pool = np.asarray(patches, dtype=np.float32)
    if pool.ndim != 2 or pool.shape[0] == 0:
        raise ValueError(f"expected a non-empty 2-D patch array, got shape {pool.shape}")
    if m < 1:
        raise ValueError(f"atom count must be positive, got {m}")
    centered = pool.astype(np.float64)
    centered -= centered.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(centered, axis=1)
    usable = np.flatnonzero(norms > _ZERO_VARIANCE_TOL)
    if usable.size < m:
        raise InsufficientDataError(
            f"insufficient data: need {m} usable patches, have {usable.size} "
            f"of {pool.shape[0]} after discarding constant patches"
        )
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    chosen = np.sort(rng.permutation(usable)[:m])
    return Dictionary((centered[chosen] / norms[chosen, None]).astype(np.float32))


def save_dictionary(d: Dictionary, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_DICT_MAGIC)
        fh.write(_binio.u32(_DICT_VERSION))
        fh.write(_binio.u64(d.n))
        fh.write(_binio.u64(d.m))
        fh.write(d.payload_bytes())


def load_dictionary(path) -> Dictionary:
    reader = _binio.Reader.of_file(path)
    reader.magic(_DICT_MAGIC)
    version = reader.u32("version")
    if version != _DICT_VERSION:
        raise UnsupportedFormatError(
            f"{path}: unsupported dictionary format version {version} at offset 8"
        )
    n = reader.u64("atom dimension")
    m = reader.u64("atom count")
    if n == 0 or m == 0:
        raise FormatError(f"{path}: degenerate dictionary shape ({m} atoms of dimension {n})")
    data = reader.array("<f4", m * n, "atom payload")
    reader.expect_end()
    d = Dictionary(data.reshape(m, n))
    try:
        d.validate()
    except ValueError as exc:
        raise FormatError(f"{path}: invalid dictionary payload: {exc}") from None
    return d

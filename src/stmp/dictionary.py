"""Over-complete dictionaries of unit-norm atoms: construction, scoring, I/O.

Atoms are stored atom-major, one contiguous row per atom, so that scoring a
query is a sequential scan.  The conventional mathematical object is the
n x m matrix D whose columns are the atoms; ``normalize_columns`` keeps that
name even though the in-memory layout is transposed.

Dictionary file layout (little-endian):

    magic "STMPDICT" | u32 version=1 | u64 n | u64 m | m*n float32, atom-major
"""

from dataclasses import dataclass, field

import numpy as np

from . import _binio
from .errors import FormatError, InsufficientDataError, UnsupportedFormatError

_DICT_MAGIC = b"STMPDICT"
_DICT_VERSION = 1

UNIT_NORM_TOL = 1e-5
# centered patches with norm at or below this are treated as constant
_ZERO_VARIANCE_TOL = 1e-6

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of a byte string."""
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


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
    _fingerprint: int | None = field(default=None, init=False, repr=False)
    _scoring: np.ndarray | None = field(default=None, init=False, repr=False)

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

    @property
    def scoring_atoms(self) -> np.ndarray:
        """float64 copy of the atoms, shared by all scoring paths.

        Selection must produce identical scores whether atoms are scanned in
        full or gathered through a tree, so every dot product runs on this
        one matrix at one precision.
        """
        if self._scoring is None:
            self._scoring = self.atoms.astype(np.float64)
        return self._scoring

    def payload_bytes(self) -> bytes:
        return _binio.f32_bytes(self.atoms)

    def fingerprint(self) -> int:
        """FNV-1a hash of the atom payload; binds cluster trees to this dictionary."""
        if self._fingerprint is None:
            self._fingerprint = fnv1a64(self.payload_bytes())
        return self._fingerprint

    def validate(self) -> None:
        """Raise ValueError on the first invariant violation."""
        if not np.isfinite(self.atoms).all():
            raise ValueError("dictionary contains NaN or Inf")
        norms = np.linalg.norm(self.atoms.astype(np.float64), axis=1)
        bad = np.flatnonzero(np.abs(norms - 1.0) > UNIT_NORM_TOL)
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"atom {i} has norm {norms[i]:.8f}, expected 1 within {UNIT_NORM_TOL}")


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
    with open(path, "rb") as fh:
        reader = _binio.Reader(fh.read(), source=str(path))
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
    data = reader.f32_array(m * n, "atom payload")
    reader.expect_end()
    d = Dictionary(data.reshape(m, n))
    try:
        d.validate()
    except ValueError as exc:
        raise FormatError(f"{path}: invalid dictionary payload: {exc}") from None
    return d

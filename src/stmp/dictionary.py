"""Over-complete dictionaries of unit-norm atoms: construction, scoring, I/O.

Atoms are stored atom-major, one contiguous row per atom, so that scoring a
query is a sequential scan.  The conventional mathematical object is the
n x m matrix D whose columns are the atoms; ``normalize_columns`` keeps that
name even though the in-memory layout is transposed.

Dictionary file layout (little-endian):

    magic "STMPDICT" | u32 version=1 | u64 n | u64 m | m*n float32, atom-major

A dictionary's fingerprint, which binds cluster trees to it, is the first
8 bytes, read as a little-endian u64, of the SHA-256 digest of that float32
payload: the bytes after the file's 28-byte header.
"""

from dataclasses import dataclass, field
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

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
# bytes hashed per block; bounds the temporaries to about 1.5 MB
_FNV_BLOCK = 1 << 16
# one in the low bit of each byte of a 64-bit word
_BYTE_ONES = np.uint64(0x0101010101010101)
_VECDOT = getattr(np, "vecdot", None)  # numpy >= 2


def row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A[..., p, :] . B[..., p, :] for every row p, broadcast: with B = R[:, None]
    row p of R scores every row of A[p] (or of a shared table A).  numpy runs
    this as one ddot per row, the bits of ``A[p].dot(B[p])`` whatever the
    shapes: the canonical score when A holds scoring atoms.  A gemv such as
    ``A @ b`` would round differently.  numpy 2's ``vecdot`` runs the same
    ddot with less overhead than ``matmul``."""
    if _VECDOT is not None:
        return _VECDOT(A, B)
    return np.matmul(A[..., None, :], B[..., :, None])[..., 0, 0]


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of a byte string: h <- (h ^ b) * P mod 2^64 per byte.

    It no longer binds trees (``Dictionary.fingerprint`` is SHA-256), and no
    package code calls it.

    The value is that of the byte loop, computed in a few vectorized passes
    per block of ``_FNV_BLOCK`` bytes; ``h`` carries from block to block.

    *Low byte.*  With l_i = h_i mod 256, l_{i+1} = ((l_i ^ b_i) * 0xB3) mod
    256, since P mod 256 = 0xB3.  P is odd, so bit k of x * P is bit k of x
    XOR bit k of (x mod 2^k) * P.  Hence bit k of l_{i+1} is bit k of l_i
    XOR t_i, where t_i = bit k of b_i ^ ((l_i ^ b_i) mod 2^k) * 0xB3 needs
    only the bits below k.  Bit k of the whole l sequence is then an
    exclusive prefix XOR of t (Blelloch, Prefix Sums and Their Applications,
    CMU-CS-90-190), found after the bits below it: eight passes.  A pass
    XORs bytes that hold t in bit k: within each 64-bit word by three
    shift-and-XORs, across words by one ``bitwise_xor.accumulate``.

    *Whole word.*  b_i touches only the low byte, so h_i ^ b_i = h_i + e_i
    with e_i = (l_i ^ b_i) - l_i in [-255, 255].  Then after N bytes
    h_N = P^N * h_0 + sum_i P^(N-i) * e_i mod 2^64: one dot product against
    the powers of P.  numpy's uint64 array arithmetic wraps mod 2^64 without
    a warning; the running h is a Python int.
    """
    stream = np.frombuffer(data, dtype=np.uint8)
    h = _FNV_OFFSET
    if not stream.size:
        return h
    top = min(stream.size, _FNV_BLOCK)
    # P^top, ..., P^2, P^1; a block of length L uses the last L entries
    powers = np.multiply.accumulate(np.full(top, _FNV_PRIME, dtype=np.uint64))[::-1].copy()
    for start in range(0, stream.size, _FNV_BLOCK):
        b = stream[start:start + _FNV_BLOCK]
        L = b.size
        z = b.copy()  # l ^ b, with the bits of l found so far
        # t[i + 1] holds t_i in bit k, t[0] bit k of l_0; padded to whole words
        t = np.zeros(-(-(L + 1) // 8) * 8, dtype=np.uint8)
        words = t.view("<u8")
        for k in range(8):
            bit = 1 << k
            low = (z & (bit - 1)) * np.uint8(0xB3)
            np.bitwise_xor(low, z, out=t[1:L + 1])
            t[1:L + 1] &= bit
            t[0] = h & bit
            for shift in (8, 16, 32):
                words ^= words << shift
            carry = np.bitwise_xor.accumulate(words >> 56)
            words[1:] ^= carry[:-1] * _BYTE_ONES
            z ^= t[:L]  # t[i] is now bit k of l_i
        e = z.astype(np.int64)
        e -= z ^ b
        tail = powers[top - L:]
        h = (h * int(tail[0]) + int(np.dot(tail, e.view(np.uint64)))) & _MASK64
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
    _max_norm: float | None = field(default=None, init=False, repr=False)
    _columns: np.ndarray | None = field(default=None, init=False, repr=False)

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
        """float64 copy of the atoms: the canonical scores are its rows' dot
        products.

        Atom i's score against a float64 residual r is ``scoring_atoms[i].dot(r)``,
        one ddot, whatever kernel first filtered the candidates; every pick
        and coefficient is decided on those bits.
        """
        if self._scoring is None:
            self._scoring = self.atoms.astype(np.float64)
        return self._scoring

    @property
    def columns(self) -> np.ndarray:
        """The n x m float32 matrix D whose columns are the atoms, contiguous.

        The exhaustive scan's float32 products run on this layout: a single
        query's product with every atom takes half the time it takes on the
        atom-major rows at n = 16.
        """
        if self._columns is None:
            self._columns = np.ascontiguousarray(self.atoms.T)
        return self._columns

    @property
    def max_norm(self) -> float:
        """The largest atom norm, which scales the rounding error of every score."""
        if self._max_norm is None:
            w = self.scoring_atoms
            self._max_norm = float(np.sqrt(row_dots(w, w).max()))
        return self._max_norm

    def payload_bytes(self) -> bytes:
        return _binio.f32_bytes(self.atoms)

    def fingerprint(self) -> int:
        """SHA-256 of the atom payload, its first 8 bytes as a little-endian
        u64; binds cluster trees to this dictionary.  Hashed from the atom
        buffer itself, once per object."""
        if self._fingerprint is None:
            payload = np.ascontiguousarray(self.atoms, dtype="<f4")
            digest = hashlib.sha256(payload).digest()
            self._fingerprint = int.from_bytes(digest[:8], "little")
        return self._fingerprint

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
        w = (self.atoms if unsure is None else self.atoms.take(unsure, axis=0)).astype(np.float64)
        norms = np.sqrt(row_dots(w, w))
        bad = np.flatnonzero(np.abs(norms - 1.0) > UNIT_NORM_TOL)
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"atom {i if unsure is None else int(unsure[i])} has norm {norms[i]:.8f}, "
                             f"expected 1 within {UNIT_NORM_TOL}")


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

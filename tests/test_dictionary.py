import hashlib
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import stmp.dictionary
from stmp import (
    Dictionary,
    FormatError,
    InsufficientDataError,
    ScoreCounter,
    build_from_patches,
    exact_select,
    extract_patches,
    fnv1a64,
    load_dictionary,
    normalize_columns,
    save_dictionary,
)


def test_fnv1a64_reference_vectors():
    # frozen from the byte-loop oracle
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


@given(st.binary(max_size=1000))
def test_fnv1a64_matches_loop_oracle(data):
    from oracles import fnv1a64_reference

    assert fnv1a64(data) == fnv1a64_reference(data)


_BLOCK = 1 << 16


@pytest.mark.parametrize("fill", ["random"])
@pytest.mark.parametrize("size", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 63])
def test_fnv1a64_matches_loop_oracle_across_blocks(size, fill):
    # the hash carries from one block to the next; a short last block uses
    # the tail of the power table
    from oracles import fnv1a64_reference

    if fill == "random":
        data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
    else:
        data = (b"\x00" if fill == "zeros" else b"\xff") * size
    assert fnv1a64(data) == fnv1a64_reference(data)


def test_fnv1a64_matches_loop_oracle_on_a_float32_payload():
    from oracles import fnv1a64_reference

    d = normalize_columns(np.random.default_rng(11).standard_normal((4000, 64)))
    data = d.payload_bytes()
    assert len(data) == 1_024_000
    assert fnv1a64(data) == fnv1a64_reference(data)


def test_fingerprint_is_sha256_of_the_saved_payload(tmp_path):
    # the first 8 digest bytes, little-endian, of the bytes after the 28-byte header
    d = normalize_columns(np.random.default_rng(11).standard_normal((4000, 64)))
    path = tmp_path / "d.dict"
    save_dictionary(d, path)
    data = path.read_bytes()
    assert len(data) == 28 + 1_024_000
    want = int.from_bytes(hashlib.sha256(data[28:]).digest()[:8], "little")
    assert d.fingerprint() == want
    assert load_dictionary(path).fingerprint() == want


def test_normalize_three_four_five():
    d = normalize_columns(np.array([[3.0, 4.0]]))
    np.testing.assert_allclose(d.atoms[0], [0.6, 0.8], atol=1e-7)


def test_normalize_idempotent_on_unit_atoms():
    rng = np.random.default_rng(1)
    d = normalize_columns(rng.standard_normal((20, 8)))
    d2 = normalize_columns(d.atoms)
    np.testing.assert_allclose(d2.atoms, d.atoms, atol=1e-7)


def test_normalize_large_matrix_norms():
    rng = np.random.default_rng(2)
    d = normalize_columns(rng.standard_normal((500, 100)))
    norms = np.linalg.norm(d.atoms.astype(np.float64), axis=1)
    assert np.abs(norms - 1.0).max() < 1e-6
    d.validate()


def test_normalize_zero_atom_names_index():
    raw = np.ones((4, 3))
    raw[2] = 0.0
    with pytest.raises(ValueError, match="2"):
        normalize_columns(raw)


def test_build_from_patches_all_usable_keeps_order():
    rng = np.random.default_rng(3)
    patches = rng.standard_normal((10, 6)).astype(np.float32)
    d = build_from_patches(patches, 10, seed=0)
    assert d.m == 10
    # selection covers every patch; atoms stored in original patch order
    expected = patches.astype(np.float64)
    expected -= expected.mean(axis=1, keepdims=True)
    expected /= np.linalg.norm(expected, axis=1, keepdims=True)
    np.testing.assert_allclose(d.atoms, expected.astype(np.float32), atol=1e-7)


def test_build_from_patches_deterministic():
    rng = np.random.default_rng(4)
    patches = rng.standard_normal((300, 16)).astype(np.float32)
    a = build_from_patches(patches, 40, seed=9)
    b = build_from_patches(patches, 40, seed=9)
    assert a.atoms.tobytes() == b.atoms.tobytes()
    c = build_from_patches(patches, 40, seed=10)
    assert a.atoms.tobytes() != c.atoms.tobytes()


def test_build_from_patches_skips_flat_patches():
    rng = np.random.default_rng(5)
    patches = np.vstack(
        [np.ones((5, 8), dtype=np.float32), rng.standard_normal((6, 8)).astype(np.float32)]
    )
    d = build_from_patches(patches, 6, seed=0)
    d.validate()
    assert d.m == 6


def test_build_from_patches_insufficient():
    patches = np.ones((8, 4), dtype=np.float32)  # all zero-variance
    with pytest.raises(InsufficientDataError):
        build_from_patches(patches, 2, seed=0)


def test_build_from_image_invariants():
    rng = np.random.default_rng(6)
    img = rng.random((64, 64)).astype(np.float32)
    _, patches = extract_patches(img, (8, 8), (2, 2))
    d = build_from_patches(patches, 200, seed=1)
    d.validate()
    assert (d.m, d.n) == (200, 64)


# Scoring a query against every atom runs through exact_select's scan, the
# one kernel the pursuit shares; these pin the scores that scan produces.


def test_score_all_identity_basis():
    d = Dictionary(np.eye(3, dtype=np.float32))
    for i in range(3):
        counter = ScoreCounter()
        query = np.zeros(3)
        query[i] = 5.0
        assert exact_select(d, query, counter) == (i, 5.0)
        assert counter.inner_products == 3


def test_score_all_self_inner_product():
    rng = np.random.default_rng(7)
    d = normalize_columns(rng.standard_normal((50, 12)))
    index, score = exact_select(d, d.atoms[17], ScoreCounter())
    assert index == 17
    assert abs(score - 1.0) < 1e-6


def test_score_all_counter_delta():
    rng = np.random.default_rng(8)
    d = normalize_columns(rng.standard_normal((30, 5)))
    counter = ScoreCounter()
    for _ in range(4):
        before = counter.inner_products
        exact_select(d, rng.standard_normal(5), counter)
        assert counter.inner_products - before == 30


def test_score_all_dimension_mismatch():
    d = Dictionary(np.eye(3, dtype=np.float32))
    with pytest.raises(ValueError):
        exact_select(d, np.zeros(4), ScoreCounter())


def test_score_all_linear():
    # a one-atom dictionary's pick is that atom, so its score is d_i . x
    rng = np.random.default_rng(9)
    d = normalize_columns(rng.standard_normal((40, 10)))
    u, v = rng.standard_normal(10), rng.standard_normal(10)
    for i in range(d.m):
        atom = Dictionary(d.atoms[i : i + 1])
        score = lambda x: exact_select(atom, x, ScoreCounter())[1]  # noqa: E731
        np.testing.assert_allclose(
            score(2.0 * u - 3.0 * v), 2.0 * score(u) - 3.0 * score(v), atol=1e-4
        )


def test_dictionary_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    d = normalize_columns(rng.standard_normal((25, 9)))
    path = tmp_path / "d.dict"
    save_dictionary(d, path)
    back = load_dictionary(path)
    assert back.atoms.tobytes() == d.atoms.tobytes()
    assert back.fingerprint() == d.fingerprint()


def test_dictionary_corrupt_magic(tmp_path):
    path = tmp_path / "d.dict"
    save_dictionary(normalize_columns(np.eye(3)), path)
    raw = bytearray(path.read_bytes())
    raw[3] ^= 0x55
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_dictionary(path)


def test_dictionary_truncated_payload(tmp_path):
    path = tmp_path / "d.dict"
    save_dictionary(normalize_columns(np.eye(4)), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-2])
    with pytest.raises(FormatError):
        load_dictionary(path)


def test_dictionary_truncation_names_offset(tmp_path):
    path = tmp_path / "d.dict"
    save_dictionary(normalize_columns(np.eye(4)), path)
    path.write_bytes(path.read_bytes()[:-2])
    with pytest.raises(FormatError, match=r"truncated while reading atom payload at offset 28 "
                                          r"\(need 64 bytes, have 62\)"):
        load_dictionary(path)


def test_loaded_atoms_are_a_writable_copy(tmp_path):
    path = tmp_path / "d.dict"
    save_dictionary(normalize_columns(np.eye(4)), path)
    assert load_dictionary(path).atoms.flags.writeable  # not a view of the read-only file bytes


def test_dictionary_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "d.dict"
    save_dictionary(normalize_columns(np.eye(4)), path)
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(FormatError):
        load_dictionary(path)


def test_load_rejects_non_unit_atoms(tmp_path):
    d = normalize_columns(np.eye(3))
    path = tmp_path / "d.dict"
    save_dictionary(d, path)
    raw = bytearray(path.read_bytes())
    # scale the first payload float
    header = 8 + 4 + 8 + 8
    raw[header : header + 4] = np.array([2.5], dtype="<f4").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_dictionary(path)


def test_fingerprint_tracks_payload():
    a = normalize_columns(np.eye(4))
    b = normalize_columns(np.eye(4))
    assert a.fingerprint() == b.fingerprint()
    c = normalize_columns(np.eye(4)[::-1].copy())
    assert a.fingerprint() != c.fingerprint()


@pytest.mark.parametrize("n", [4, 64, 100])
def test_validate_decides_at_the_tolerance_in_float64(n):
    # atoms scaled to just inside and just outside 1 +- tol: float32 norms only
    # filter, so each accept or reject, and the first rejected atom's message,
    # is the one float64 norms give
    rng = np.random.default_rng(n)
    base = rng.standard_normal((2001, n))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    edge = stmp.dictionary.UNIT_NORM_TOL + np.linspace(-3e-7, 3e-7, 2001)
    for sign in (1.0, -1.0):
        atoms = (base * (1.0 + sign * edge)[:, None]).astype(np.float32)
        wide = atoms.astype(np.float64)
        norms = np.sqrt(np.array([row.dot(row) for row in wide]))
        outside = np.abs(norms - 1.0) > stmp.dictionary.UNIT_NORM_TOL
        assert 0 < np.count_nonzero(outside) < outside.size
        for i, row in enumerate(atoms):
            if outside[i]:
                with pytest.raises(ValueError, match=re.escape(f"atom 0 has norm {norms[i]:.8f},")):
                    Dictionary(row[None]).validate()
            else:
                Dictionary(row[None]).validate()
        first = int(np.flatnonzero(outside)[0])
        with pytest.raises(ValueError, match="^" + re.escape(f"atom {first} has norm {norms[first]:.8f},")):
            Dictionary(atoms).validate()


@pytest.mark.parametrize("n", [100, 256])
def test_validate_skips_float32_norms_where_their_band_spans_the_tolerance(n, monkeypatch):
    # From n = 82 up the float32 rounding band is as wide as
    # UNIT_NORM_TOL, so every atom would be taken again in float64: validate
    # takes them in float64 alone, with the same message.
    assert stmp.dictionary._norm_band(n) >= stmp.dictionary.UNIT_NORM_TOL
    rng = np.random.default_rng(n)
    rows = rng.standard_normal((3, n))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    rows[1] *= 1.0 + 2e-5
    atoms = rows.astype(np.float32)
    wide = atoms[1].astype(np.float64)
    message = (f"atom 1 has norm {np.sqrt(wide.dot(wide)):.8f}, "
               f"expected 1 within {stmp.dictionary.UNIT_NORM_TOL}")
    seen = []
    row_dots = stmp.dictionary.row_dots
    monkeypatch.setattr(stmp.dictionary, "row_dots", lambda A, B: seen.append(A.dtype) or row_dots(A, B))
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        Dictionary(atoms).validate()
    Dictionary(atoms[[0, 2]]).validate()
    assert seen == [np.float64, np.float64]

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stmp.tensor
from stmp import (
    FormatError,
    PatchLayout,
    UnsupportedFormatError,
    aggregate_patches,
    extract_patches,
    load_pgm,
    load_tensor,
    save_pgm,
    save_tensor,
)
from oracles import aggregate_reference, extract_reference, patch_count_reference


def test_exact_tiling_origins():
    layout = PatchLayout((4, 4), (2, 2), (2, 2))
    assert layout.num_patches == 4
    assert [tuple(o) for o in layout.origins] == [(0, 0), (0, 2), (2, 0), (2, 2)]


def test_border_forced_final_origin():
    layout = PatchLayout((5, 5), (2, 2), (2, 2))
    assert [list(s) for s in layout.axis_starts] == [[0, 2, 3], [0, 2, 3]]
    assert layout.num_patches == 9


def test_patch_count_matches_counting_oracle():
    # 321x481, 16x16 patches, stride 2: frozen from the loop oracle.
    assert patch_count_reference((321, 481), (16, 16), (2, 2)) == 36036
    layout = PatchLayout((321, 481), (16, 16), (2, 2))
    assert layout.num_patches == 36036


@given(
    extent=st.integers(2, 40),
    patch=st.integers(1, 12),
    stride=st.integers(1, 12),
)
def test_axis_starts_property(extent, patch, stride):
    patch = min(patch, extent)
    stride = min(stride, patch)
    layout = PatchLayout((extent,), (patch,), (stride,))
    starts = list(layout.axis_starts[0])
    assert starts[0] == 0
    assert starts[-1] == extent - patch
    assert starts == sorted(set(starts))
    # every cell covered
    covered = np.zeros(extent, dtype=bool)
    for s in starts:
        covered[s : s + patch] = True
    assert covered.all()


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        PatchLayout((4, 4), (2,), (2,))


def test_patch_larger_than_tensor_rejected():
    with pytest.raises(ValueError):
        PatchLayout((4, 4), (5, 2), (1, 1))


def test_stride_larger_than_patch_rejected():
    with pytest.raises(ValueError):
        PatchLayout((8, 8), (2, 2), (3, 3))


def test_extract_matches_loop_reference():
    rng = np.random.default_rng(11)
    t = rng.random((9, 7)).astype(np.float32)
    layout, patches = extract_patches(t, (3, 2), (2, 2))
    ref = extract_reference(t, (3, 2), (2, 2))
    assert patches.shape == ref.shape
    np.testing.assert_allclose(patches, ref, rtol=0, atol=0)


def test_extract_3d():
    rng = np.random.default_rng(3)
    t = rng.random((6, 6, 4)).astype(np.float32)
    layout, patches = extract_patches(t, (3, 3, 2), (3, 3, 2))
    assert patches.shape == (8, 18)
    np.testing.assert_array_equal(patches, extract_reference(t, (3, 3, 2), (3, 3, 2)))


def test_aggregate_overlap_averages():
    layout = PatchLayout((3, 2), (2, 2), (1, 1))
    patches = np.array([[0.0] * 4, [1.0] * 4], dtype=np.float32)
    out = aggregate_patches(layout, patches)
    # middle row covered by both patches, outer rows by one each
    np.testing.assert_allclose(out, [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])


def test_aggregate_matches_loop_reference():
    rng = np.random.default_rng(5)
    layout = PatchLayout((10, 9), (4, 3), (2, 2))
    patches = rng.random((layout.num_patches, layout.patch_dim)).astype(np.float32)
    out = aggregate_patches(layout, patches)
    ref = aggregate_reference(patches, (10, 9), (4, 3), (2, 2))
    np.testing.assert_allclose(out, ref, atol=1e-6)


@settings(max_examples=60)
@given(
    data=st.data(),
    rank=st.integers(1, 3),
    chunk=st.sampled_from([1, 2, 7, 1024]),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**16),
)
def test_aggregate_has_the_bits_of_the_loop_reference(data, rank, chunk, dtype, seed):
    # every cell sums its patches in origin order, whatever the chunk size
    shape = tuple(data.draw(st.integers(1, 9)) for _ in range(rank))
    patch = tuple(data.draw(st.integers(1, e)) for e in shape)
    stride = tuple(data.draw(st.integers(1, p)) for p in patch)
    layout = PatchLayout(shape, patch, stride)
    rng = np.random.default_rng(seed)
    patches = rng.standard_normal((layout.num_patches, layout.patch_dim)).astype(dtype)
    with mock.patch.object(stmp.tensor, "_AGGREGATE_CHUNK", chunk):
        out = aggregate_patches(layout, patches)
    ref = aggregate_reference(patches, shape, patch, stride).astype(np.float32)
    assert out.dtype == np.float32
    assert out.tobytes() == ref.tobytes()


def test_aggregate_count_mismatch_rejected():
    layout = PatchLayout((4, 4), (2, 2), (2, 2))
    with pytest.raises(ValueError):
        aggregate_patches(layout, np.zeros((3, 4), dtype=np.float32))


@settings(max_examples=40)
@given(
    rows=st.integers(2, 15),
    cols=st.integers(2, 15),
    ph=st.integers(1, 6),
    pw=st.integers(1, 6),
    sh=st.integers(1, 6),
    sw=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_extract_aggregate_round_trip(rows, cols, ph, pw, sh, sw, seed):
    ph, pw = min(ph, rows), min(pw, cols)
    sh, sw = min(sh, ph), min(sw, pw)
    t = np.random.default_rng(seed).random((rows, cols)).astype(np.float32)
    layout, patches = extract_patches(t, (ph, pw), (sh, sw))
    back = aggregate_patches(layout, patches)
    np.testing.assert_allclose(back, t, atol=1e-6)


def test_tensor_round_trip(tmp_path):
    t = np.random.default_rng(0).standard_normal((3, 4, 5)).astype(np.float32)
    path = tmp_path / "t.tnsr"
    save_tensor(t, path)
    back = load_tensor(path)
    assert back.shape == t.shape
    assert back.tobytes() == t.tobytes()


def test_tensor_bad_magic(tmp_path):
    path = tmp_path / "t.tnsr"
    save_tensor(np.ones((2, 2), dtype=np.float32), path)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_tensor(path)


def test_tensor_unknown_version(tmp_path):
    path = tmp_path / "t.tnsr"
    save_tensor(np.ones((2, 2), dtype=np.float32), path)
    raw = bytearray(path.read_bytes())
    raw[8] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedFormatError):
        load_tensor(path)


def test_tensor_truncation_names_offset(tmp_path):
    path = tmp_path / "t.tnsr"
    save_tensor(np.arange(10, dtype=np.float32).reshape(2, 5), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(FormatError, match="offset"):
        load_tensor(path)


def test_tensor_empty_file(tmp_path):
    path = tmp_path / "empty.tnsr"
    path.write_bytes(b"")
    with pytest.raises(FormatError):
        load_tensor(path)


def test_tensor_rejects_nonfinite():
    t = np.full((2, 2), np.nan, dtype=np.float32)
    with pytest.raises(ValueError):
        save_tensor(t, "/dev/null")


def test_pgm_zero_image(tmp_path):
    path = tmp_path / "z.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    t = load_pgm(path)
    np.testing.assert_array_equal(t, np.zeros((2, 2), dtype=np.float32))


def test_pgm_value_mapping(tmp_path):
    path = tmp_path / "v.pgm"
    path.write_bytes(b"P5\n2 1\n255\n" + bytes([255, 128]))
    t = load_pgm(path)
    np.testing.assert_allclose(t, [[1.0, np.float32(128 / 255)]])


def test_pgm_comment_and_whitespace(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5 # comment\n# another\n 2\t2 \n255\n" + bytes([0, 1, 2, 3]))
    t = load_pgm(path)
    assert t.shape == (2, 2)


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    raw = rng.integers(0, 256, size=(5, 6), dtype=np.uint8)
    path = tmp_path / "r.pgm"
    path.write_bytes(b"P5\n6 5\n255\n" + raw.tobytes())
    t = load_pgm(path)
    out = tmp_path / "out.pgm"
    save_pgm(t, out)
    assert out.read_bytes().split(b"\n", 3)[-1] == raw.tobytes()
    assert load_pgm(out).tobytes() == t.tobytes()


def test_pgm_rejects_ascii_variant(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(UnsupportedFormatError):
        load_pgm(path)


def test_pgm_rejects_wide_maxval(tmp_path):
    path = tmp_path / "w.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(UnsupportedFormatError):
        load_pgm(path)


def test_pgm_truncated_payload(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(3))
    with pytest.raises(FormatError):
        load_pgm(path)


def test_save_pgm_requires_rank_2():
    with pytest.raises(ValueError):
        save_pgm(np.zeros((2, 2, 2), dtype=np.float32), "/dev/null")

import numpy as np
import pytest

from stmp import (
    CodeBatch,
    DegenerateOperatorError,
    Dictionary,
    FormatError,
    apply_batch,
    block_average_operator,
    coded_exposure_operator,
    identity_operator,
    lift_codes,
    load_row_selection,
    normalize_columns,
    project_dictionary,
    random_exposure_mask,
    reconstruct_batch,
    row_select_operator,
    save_row_selection,
    simulate_coded_exposure,
    view_selection_rows,
)


def _random_dictionary(m, n, seed):
    rng = np.random.default_rng(seed)
    return normalize_columns(rng.standard_normal((m, n)))


def test_identity_apply_copies():
    op = identity_operator(6)
    x = np.arange(6.0)[None]
    out = apply_batch(op, x)
    np.testing.assert_array_equal(out, x)
    out[0, 0] = 9.0
    assert x[0, 0] == 0.0


def test_row_select_gathers():
    op = row_select_operator(5, [0, 2, 4])
    np.testing.assert_array_equal(
        apply_batch(op, np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])), [[1.0, 3.0, 5.0]]
    )


def test_row_select_validation():
    with pytest.raises(ValueError):
        row_select_operator(5, [2, 1])
    with pytest.raises(ValueError):
        row_select_operator(5, [0, 5])
    with pytest.raises(ValueError):
        row_select_operator(5, [])


def test_coded_exposure_all_open_sums_frames():
    spatial = (2, 2)
    frames = 9
    mask = np.ones(spatial + (frames,), dtype=np.float32)
    op = coded_exposure_operator(mask)
    patch = np.random.default_rng(0).random(spatial + (frames,)).astype(np.float32)
    out = apply_batch(op, patch.reshape(1, -1))
    np.testing.assert_allclose(out.reshape(spatial), patch.sum(axis=-1), atol=1e-6)
    assert op.n_out == op.n_in // frames


def test_coded_exposure_validation():
    bad = np.full((2, 2, 3), 0.5, dtype=np.float32)
    with pytest.raises(ValueError):
        coded_exposure_operator(bad)
    closed = np.ones((2, 2, 3), dtype=np.float32)
    closed[0, 1, :] = 0.0
    with pytest.raises(ValueError):
        coded_exposure_operator(closed)


def test_block_average_means():
    op = block_average_operator((4, 4), (2, 2))
    patch = np.arange(16, dtype=np.float32)
    out = apply_batch(op, patch[None])
    grid = patch.reshape(4, 4)
    expected = grid.reshape(2, 2, 2, 2).mean(axis=(1, 3))
    np.testing.assert_allclose(out.reshape(2, 2), expected, atol=1e-6)


def test_block_average_divisibility():
    with pytest.raises(ValueError):
        block_average_operator((4, 5), (2, 2))


def test_view_selection_dimension_192():
    rows = view_selection_rows((8, 8, 5, 5), [(0, 2), (4, 0), (4, 4)])
    assert len(rows) == 192
    op = row_select_operator(1600, rows)
    assert op.n_out == 192
    out = apply_batch(op, np.arange(1600, dtype=np.float32)[None])
    assert out.shape == (1, 192)


def test_view_selection_validation():
    with pytest.raises(ValueError):
        view_selection_rows((8, 8, 5, 5), [(0, 2), (0, 2)])
    with pytest.raises(ValueError):
        view_selection_rows((8, 8, 5, 5), [(5, 0)])


def test_project_identity_bitwise():
    d = _random_dictionary(20, 8, seed=1)
    pd = project_dictionary(d, identity_operator(8))
    assert pd.dictionary.atoms.tobytes() == d.atoms.tobytes()
    np.testing.assert_array_equal(pd.scale, np.ones(20))
    assert pd.usable.all()


def test_project_full_row_selection_bitwise():
    d = _random_dictionary(20, 8, seed=2)
    pd = project_dictionary(d, row_select_operator(8, range(8)))
    assert pd.dictionary.atoms.tobytes() == d.atoms.tobytes()


def test_project_flags_unsupported_atoms():
    atoms = np.zeros((3, 4), dtype=np.float32)
    atoms[0, 0] = 1.0
    atoms[1, 1] = 1.0
    atoms[2, 2] = 1.0
    d = Dictionary(atoms)
    pd = project_dictionary(d, row_select_operator(4, [0, 1]))
    assert pd.usable.tolist() == [True, True, False]
    np.testing.assert_array_equal(pd.dictionary.atoms[2], 0.0)


def test_project_all_unusable_degenerate():
    atoms = np.zeros((2, 4), dtype=np.float32)
    atoms[:, 0] = 1.0
    d = Dictionary(atoms)
    with pytest.raises(DegenerateOperatorError):
        project_dictionary(d, row_select_operator(4, [2, 3]))


def test_projection_scale_identity():
    d = _random_dictionary(50, 24, seed=3)
    op = row_select_operator(24, [0, 3, 5, 7, 11, 20])
    pd = project_dictionary(d, op)
    direct = apply_batch(op, d.atoms)
    via = pd.dictionary.atoms.astype(np.float64) * pd.scale[:, None]
    np.testing.assert_allclose(via, direct, atol=1e-5)


def test_lift_identity_keeps_code():
    d = _random_dictionary(30, 6, seed=4)
    pd = project_dictionary(d, identity_operator(6))
    codes = CodeBatch(30, np.array([[3, 8]]), np.array([[1.25, -0.5]]), np.array([2]), ip_count=7)
    lifted = lift_codes(pd, codes)
    assert lifted.entries(0) == codes.entries(0)
    assert lifted.ip_count == 7


def test_lift_commutation_single_and_multi():
    rng = np.random.default_rng(5)
    d = _random_dictionary(60, 18, seed=6)
    op = row_select_operator(18, [0, 2, 4, 6, 8, 10, 12])
    pd = project_dictionary(d, op)
    single = CodeBatch(60, np.array([[11]]), np.array([[2.5]]), np.array([1]))
    lhs = apply_batch(op, reconstruct_batch(d, lift_codes(pd, single)))
    rhs = reconstruct_batch(pd.dictionary, single)
    np.testing.assert_allclose(lhs, rhs, atol=1e-5)

    indices = np.array([rng.choice(60, size=4, replace=False) for _ in range(20)])
    multi = CodeBatch(60, indices, rng.standard_normal((20, 4)), np.full(20, 4))
    lhs = apply_batch(op, reconstruct_batch(d, lift_codes(pd, multi)))
    rhs = reconstruct_batch(pd.dictionary, multi)
    np.testing.assert_allclose(lhs, rhs, atol=1e-4)


def test_lift_rejects_unusable_atom():
    atoms = np.zeros((2, 4), dtype=np.float32)
    atoms[0, 0] = 1.0
    atoms[1, 2] = 1.0
    d = Dictionary(atoms)
    pd = project_dictionary(d, row_select_operator(4, [0, 1]))
    with pytest.raises(RuntimeError):
        lift_codes(pd, CodeBatch(2, np.array([[0, 1]]), np.ones((1, 2)), np.array([2])))


def test_apply_batch_matches_apply():
    mask = random_exposure_mask((2, 2), 3, 2, seed=8)
    op = coded_exposure_operator(mask)
    rows = np.random.default_rng(9).random((15, 12)).astype(np.float32)
    batch = apply_batch(op, rows)
    for i in range(15):
        assert apply_batch(op, rows[i:i + 1])[0].tobytes() == batch[i].tobytes()
        want = (rows[i].reshape(2, 2, 3) * mask).sum(axis=-1).ravel()
        np.testing.assert_allclose(batch[i], want, atol=1e-6)


def test_random_exposure_mask_contract():
    mask = random_exposure_mask((4, 5), 9, 3, seed=10)
    assert mask.shape == (4, 5, 9)
    assert set(np.unique(mask).tolist()) <= {0.0, 1.0}
    opens = mask.sum(axis=-1)
    np.testing.assert_array_equal(opens, np.full((4, 5), 3.0))
    # the open run is contiguous for every pixel
    for row in mask.reshape(-1, 9):
        on = np.flatnonzero(row)
        assert on[-1] - on[0] + 1 == on.size
    again = random_exposure_mask((4, 5), 9, 3, seed=10)
    assert again.tobytes() == mask.tobytes()


def test_simulate_coded_exposure_rate():
    video = np.random.default_rng(11).random((8, 8, 18)).astype(np.float32)
    mask = random_exposure_mask((4, 4), 9, 3, seed=12)
    op = coded_exposure_operator(mask)
    measured = simulate_coded_exposure(video, op)
    assert measured.shape == (8, 8, 2)
    assert measured.size * 9 == video.size


def test_simulate_all_open_sums():
    video = np.random.default_rng(13).random((4, 4, 6)).astype(np.float32)
    mask = np.ones((4, 4, 3), dtype=np.float32)
    op = coded_exposure_operator(mask)
    measured = simulate_coded_exposure(video, op)
    np.testing.assert_allclose(measured[..., 0], video[..., :3].sum(axis=-1), atol=1e-6)
    np.testing.assert_allclose(measured[..., 1], video[..., 3:].sum(axis=-1), atol=1e-6)


def test_row_selection_round_trip(tmp_path):
    rows = view_selection_rows((8, 8, 5, 5), [(0, 2), (4, 0), (4, 4)])
    path = tmp_path / "rows.rsel"
    save_row_selection(rows, path)
    back = load_row_selection(path)
    assert list(back) == list(rows)


def test_row_selection_rejects_disorder(tmp_path):
    path = tmp_path / "rows.rsel"
    save_row_selection([1, 5, 9], path)
    raw = bytearray(path.read_bytes())
    # swap the first two u64 entries after magic + count
    start = 8 + 8
    first = raw[start : start + 8]
    raw[start : start + 8] = raw[start + 8 : start + 16]
    raw[start + 8 : start + 16] = first
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_row_selection(path)


@pytest.mark.parametrize("index", [1 << 63, (1 << 64) - 1])
def test_row_selection_rejects_an_index_past_int64(tmp_path, index):
    path = tmp_path / "rows.rsel"
    save_row_selection([1, 5, 9], path)
    raw = bytearray(path.read_bytes())
    raw[24:32] = index.to_bytes(8, "little")  # the second row
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=f"row index {index} out of range at offset 24"):
        load_row_selection(path)
    # a file cut short still reports the truncation first
    path.write_bytes(bytes(raw[:-1]))
    with pytest.raises(FormatError, match="truncated while reading row 2 at offset 32"):
        load_row_selection(path)

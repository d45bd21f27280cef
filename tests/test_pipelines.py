import hashlib
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

import stmp.dictionary
import stmp.pipelines
from stmp import (
    CSV_HEADER,
    Dictionary,
    ScoreCounter,
    TaskConfig,
    TreeSelector,
    add_noise_to_snr,
    block_average_operator,
    build_from_patches,
    build_tree,
    coded_exposure_operator,
    compressive_recover,
    denoise,
    extract_patches,
    load_tensor,
    masked_recover,
    normalize_columns,
    project_dictionary,
    psnr,
    row_select_operator,
    save_dictionary,
    save_tensor,
    save_tree,
    simulate_coded_exposure,
    snr,
    stmp_select,
    super_resolve,
)
from stmp.cli import main
from oracles import psnr_reference, snr_reference


def _flat_field_dictionary(patch_dim, m, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((m, patch_dim))
    raw -= raw.mean(axis=1, keepdims=True)
    return normalize_columns(raw)


def test_csv_header_literal():
    assert CSV_HEADER == (
        "task, m, n, K, alpha, selector, psnr_db, snr_db, inner_products, patches, seconds"
    )


def test_task_config_validation():
    with pytest.raises(ValueError):
        TaskConfig(patch_shape=(4, 4), stride=(2,), K=3)
    with pytest.raises(ValueError):
        TaskConfig(patch_shape=(4, 4), stride=(2, 2), K=0)
    with pytest.raises(ValueError):
        TaskConfig(patch_shape=(4, 4), stride=(2, 2), K=3, alpha=0.0)
    with pytest.raises(ValueError):
        TaskConfig(patch_shape=(4, 4), stride=(2, 2), K=3, selector="other")
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError):
            TaskConfig(patch_shape=(4, 4), stride=(2, 2), K=3, residual_tolerance=bad)


def test_add_noise_hits_target():
    rng = np.random.default_rng(0)
    t = rng.random((32, 32)).astype(np.float32)
    noisy = add_noise_to_snr(t, 10.0, seed=1)
    realized = 10.0 * math.log10(
        float((t.astype(np.float64) ** 2).sum())
        / float(((noisy - t).astype(np.float64) ** 2).sum())
    )
    assert 9.9 <= realized <= 10.1


def test_add_noise_identity_sentinel():
    t = np.ones((4, 4), dtype=np.float32)
    assert add_noise_to_snr(t, None, seed=0).tobytes() == t.tobytes()
    assert add_noise_to_snr(t, math.inf, seed=0).tobytes() == t.tobytes()
    assert add_noise_to_snr(t, -math.inf, seed=0).tobytes() == t.tobytes()


def test_add_noise_deterministic():
    t = np.random.default_rng(2).random((8, 8)).astype(np.float32)
    a = add_noise_to_snr(t, 5.0, seed=3)
    b = add_noise_to_snr(t, 5.0, seed=3)
    assert a.tobytes() == b.tobytes()


def test_add_noise_rejects_zero_signal():
    with pytest.raises(ValueError):
        add_noise_to_snr(np.zeros((3, 3), dtype=np.float32), 10.0, seed=0)


def test_add_noise_rejects_nan_target():
    with pytest.raises(ValueError, match="NaN"):
        add_noise_to_snr(np.ones((3, 3), dtype=np.float32), math.nan, seed=0)


def test_psnr_snr_formulas():
    ref = np.zeros((10, 10), dtype=np.float32)
    test = np.full((10, 10), 0.1, dtype=np.float32)  # MSE = 0.01
    assert abs(psnr(ref, test) - 20.0) < 1e-6
    assert psnr(ref, ref) == math.inf
    assert snr(test, test) == math.inf
    assert snr(ref, test) == -math.inf


def test_metrics_match_loop_oracle():
    rng = np.random.default_rng(4)
    a = rng.random((6, 7)).astype(np.float32)
    b = rng.random((6, 7)).astype(np.float32)
    assert abs(psnr(a, b) - psnr_reference(a, b)) < 1e-9
    assert abs(snr(a, b) - snr_reference(a, b)) < 1e-9
    with pytest.raises(ValueError):
        psnr(a, b[:3])


def test_selector_monotone_in_alpha():
    d = _flat_field_dictionary(16, 300, seed=5)
    tree = build_tree(d, (20, 5), seed=6)
    rng = np.random.default_rng(7)
    for _ in range(25):
        q = rng.standard_normal(16)
        magnitudes = []
        for alpha in (0.1, 0.2, 1.0):
            _, score = stmp_select(tree, d, q, alpha, ScoreCounter())
            magnitudes.append(abs(score))
        assert magnitudes[0] <= magnitudes[1] + 1e-12
        assert magnitudes[1] <= magnitudes[2] + 1e-12


def test_denoise_representable_tiles_identity():
    # disjoint 4x4 tiles, each an atom plus its own mean: exactly representable
    d = _flat_field_dictionary(16, 16, seed=8)
    tiles = np.empty((16, 16), dtype=np.float32)
    index = 0
    for r in range(0, 16, 4):
        for c in range(0, 16, 4):
            tiles[r : r + 4, c : c + 4] = (
                d.atoms[index].reshape(4, 4) * 0.3 + 0.5 + 0.01 * index
            )
            index += 1
    cfg = TaskConfig(patch_shape=(4, 4), stride=(4, 4), K=1, selector="exact")
    out, report = denoise(tiles, d, None, cfg, reference=tiles)
    np.testing.assert_allclose(out, tiles, atol=1e-4)
    assert report.psnr_db == math.inf or report.psnr_db > 80.0
    assert report.patches == 16


def test_denoise_report_accounting():
    rng = np.random.default_rng(9)
    img = rng.random((24, 24)).astype(np.float32)
    d = _flat_field_dictionary(36, 100, seed=10)
    cfg = TaskConfig(
        patch_shape=(6, 6), stride=(3, 3), K=2, selector="exact", residual_tolerance=0.0
    )
    out, report = denoise(img, d, None, cfg, reference=img)
    assert out.shape == img.shape
    assert report.patches == 49
    # exact selector with no early stop scores every atom per iteration
    assert report.inner_products == 49 * 2 * 100
    assert report.task == "denoise"
    assert (report.m, report.n, report.K) == (100, 36, 2)
    assert report.selector == "exact"


def test_denoise_stmp_needs_tree():
    img = np.random.default_rng(11).random((12, 12)).astype(np.float32)
    d = _flat_field_dictionary(16, 20, seed=12)
    cfg = TaskConfig(patch_shape=(4, 4), stride=(4, 4), K=1, selector="stmp")
    with pytest.raises(ValueError):
        denoise(img, d, None, cfg)


@pytest.mark.parametrize("selector", ["exact", "stmp"])
def test_denoise_rejects_non_finite_pixel(selector):
    img = np.random.default_rng(11).random((12, 12)).astype(np.float32)
    img[5, 6] = np.nan
    d = _flat_field_dictionary(16, 20, seed=12)
    tree = build_tree(d, (4, 2), seed=13)
    cfg = TaskConfig(patch_shape=(4, 4), stride=(4, 4), K=1, selector=selector)
    with pytest.raises(ValueError, match="query contains NaN or infinity"):
        denoise(img, d, tree, cfg)


def test_denoise_thread_count_invisible(tmp_path):
    # the pipelines take no thread count; `stmp run --threads` is accepted
    # and must leave the output, the manifest and the report row unchanged
    rng = np.random.default_rng(13)
    img = rng.random((20, 20)).astype(np.float32)
    d = _flat_field_dictionary(25, 60, seed=14)
    tree = build_tree(d, (6, 2), seed=15)
    cfg = TaskConfig(patch_shape=(5, 5), stride=(2, 2), K=3, alpha=0.5, selector="stmp")
    save_tensor(img, tmp_path / "in.tnsr")
    save_dictionary(d, tmp_path / "d.dict")
    save_tree(tree, tmp_path / "d.tree")
    out, report = tmp_path / "out.tnsr", tmp_path / "report.csv"
    runs = []
    for threads in ("1", "4"):
        report.unlink(missing_ok=True)
        assert main([
            "run", "--task", "denoise", "--in", str(tmp_path / "in.tnsr"),
            "--dict", str(tmp_path / "d.dict"), "--tree", str(tmp_path / "d.tree"),
            "--selector", "stmp", "--alpha", "0.5", "--k", "3", "--patch", "5,5",
            "--stride", "2,2", "--reference", str(tmp_path / "in.tnsr"),
            "--report", str(report), "--out", str(out), "--threads", threads,
        ]) == 0
        row = report.read_text().splitlines()[1].rsplit(",", 1)[0]  # minus seconds
        runs.append((out.read_bytes(), (tmp_path / "out.tnsr.manifest.json").read_bytes(), row))
    assert runs[0] == runs[1]
    restored, rep = denoise(img, d, tree, cfg, reference=img)
    assert load_tensor(out).tobytes() == restored.tobytes()
    assert runs[0][2] == rep.csv_row().rsplit(",", 1)[0]


@pytest.mark.parametrize("side", [5, 13, 41], ids=["N=1", "N=25", "N=361"])
@pytest.mark.parametrize("selector", ["exact", "stmp"])
def test_chunking_invisible(monkeypatch, side, selector):
    # 1 patch, fewer patches than a chunk, and a count no chunk size divides
    # (superres codes side - 2 patches); the tree's chunk and one larger than
    # the patch count code a whole image at once; (7, 3) trees over 60 atoms
    # have short last clusters
    rng = np.random.default_rng(side)
    img = rng.random((side, side)).astype(np.float32)
    lowres = rng.random((side, side)).astype(np.float32)
    d = _flat_field_dictionary(25, 60, seed=14)
    tree = build_tree(d, (7, 3), seed=15)
    cfg = TaskConfig(patch_shape=(5, 5), stride=(2, 2), K=3, alpha=0.5, selector=selector)
    sr_d = _flat_field_dictionary(36, 60, seed=16)
    sr_pd = project_dictionary(sr_d, block_average_operator((6, 6), (2, 2)))
    sr_tree = build_tree(sr_pd.dictionary, (7, 3), seed=17)
    sr_cfg = TaskConfig(patch_shape=(6, 6), stride=(1, 1), K=2, alpha=0.5, selector=selector)
    synthesized = []  # the float64 patches, before the float32 output rounds them
    code_patches = stmp.pipelines._code_patches

    def spy(*args):
        full, counter = code_patches(*args)
        synthesized.append(full.tobytes())
        return full, counter

    monkeypatch.setattr(stmp.pipelines, "_code_patches", spy)
    runs = []
    for chunk in (stmp.pipelines._CHUNK, stmp.pipelines._TREE_CHUNK, 1, 7, side * side + 1):
        monkeypatch.setattr(stmp.pipelines, "_CHUNK", chunk)
        monkeypatch.setattr(stmp.pipelines, "_TREE_CHUNK", chunk)
        out, rep = denoise(img, d, tree, cfg, reference=img)
        up, sr_rep = super_resolve(lowres[:3], sr_d, sr_tree, sr_cfg, factor=2)
        runs.append((out.tobytes(), rep.inner_products, rep.psnr_db, rep.patches,
                     up.tobytes(), sr_rep.inner_products, *synthesized[-2:]))
    assert all(run == runs[0] for run in runs)


def test_denoise_hashes_dictionary_once(monkeypatch):
    img = np.random.default_rng(17).random((12, 12)).astype(np.float32)
    atoms = _flat_field_dictionary(16, 20, seed=18).atoms
    tree = build_tree(Dictionary(atoms.copy()), (4, 2), seed=19)
    hashed, sha256 = [], hashlib.sha256
    monkeypatch.setattr(stmp.dictionary, "hashlib", SimpleNamespace(
        sha256=lambda data: hashed.append(memoryview(data).nbytes) or sha256(data)))
    cfg = TaskConfig(patch_shape=(4, 4), stride=(2, 2), K=2, selector="stmp")
    denoise(img, Dictionary(atoms.copy()), tree, cfg)
    assert hashed == [atoms.nbytes]  # one hash of the whole payload


def test_tree_builder_gets_the_projection_and_is_not_timed():
    # A task's tree may be a builder: it is called once, on the projected
    # Dictionary the task codes against, and its build is left out of the
    # report's seconds.
    lowres = np.random.default_rng(23).random((6, 6)).astype(np.float32)
    d = _flat_field_dictionary(36, 60, seed=16)
    projected = project_dictionary(d, block_average_operator((6, 6), (2, 2))).dictionary
    cfg = TaskConfig(patch_shape=(6, 6), stride=(1, 1), K=2, alpha=0.5)
    built = []

    def builder(dictionary):
        built.append(dictionary.atoms.tobytes())
        time.sleep(0.3)
        return build_tree(dictionary, (7, 3), seed=17)

    up, report = super_resolve(lowres, d, builder, cfg, factor=2)
    assert built == [projected.atoms.tobytes()]
    assert report.seconds < 0.3
    want = super_resolve(lowres, d, build_tree(projected, (7, 3), seed=17), cfg, factor=2)[0]
    assert up.tobytes() == want.tobytes()


def test_csv_row_shape():
    rng = np.random.default_rng(16)
    img = rng.random((16, 16)).astype(np.float32)
    d = _flat_field_dictionary(16, 30, seed=17)
    cfg = TaskConfig(patch_shape=(4, 4), stride=(4, 4), K=1, selector="exact")
    _, report = denoise(img, d, None, cfg, reference=img)
    row = report.csv_row()
    fields = [f.strip() for f in row.split(",")]
    assert len(fields) == len(CSV_HEADER.split(","))
    assert fields[0] == "denoise"
    assert fields[1] == "30" and fields[2] == "16" and fields[3] == "1"
    float(fields[6])
    float(fields[8])
    # no reference -> empty metric fields
    _, blind = denoise(img, d, None, cfg)
    fields = [f.strip() for f in blind.csv_row().split(",")]
    assert fields[6] == "" and fields[7] == ""


def test_alpha_given_as_text_is_kept_as_a_float():
    rng = np.random.default_rng(16)
    img = rng.random((8, 8)).astype(np.float32)
    d = _flat_field_dictionary(16, 30, seed=17)
    tree = build_tree(d, (3, 2), seed=18)
    cfg = TaskConfig(patch_shape=(4, 4), stride=(2, 2), K=2, alpha="0.5")
    assert cfg.alpha == 0.5 and type(cfg.alpha) is float
    assert type(TreeSelector(tree, d, "0.5").alpha) is float
    _, report = denoise(img, d, tree, cfg)
    assert [f.strip() for f in report.csv_row().split(",")][4] == "0.5"


def test_super_resolve_shape_contract():
    rng = np.random.default_rng(18)
    low = rng.random((32, 32)).astype(np.float32)
    d = _flat_field_dictionary(256, 80, seed=19)
    tree = None
    cfg = TaskConfig(patch_shape=(16, 16), stride=(2, 2), K=3, selector="exact")
    out, report = super_resolve(low, d, tree, cfg, factor=4)
    assert out.shape == (128, 128)
    assert report.task == "superres"


def test_super_resolve_recovers_block_averaged_atom():
    d = _flat_field_dictionary(256, 40, seed=21)
    atom = d.atoms[7].reshape(16, 16)
    low = atom.reshape(4, 4, 4, 4).mean(axis=(1, 3)) + 0.25
    cfg = TaskConfig(patch_shape=(16, 16), stride=(4, 4), K=1, selector="exact")
    out, _ = super_resolve(low.astype(np.float32), d, None, cfg, factor=4)
    np.testing.assert_allclose(out, atom + 0.25, atol=1e-3)


def test_super_resolve_divisibility():
    d = _flat_field_dictionary(225, 40, seed=22)
    cfg = TaskConfig(patch_shape=(15, 15), stride=(2, 2), K=1, selector="exact")
    with pytest.raises(ValueError):
        super_resolve(np.zeros((30, 30), dtype=np.float32), d, None, cfg, factor=4)


def test_compressive_static_video():
    # static video (time-constant) that the dictionary contains as atom 0
    rng = np.random.default_rng(23)
    raw = rng.standard_normal((50, 48))
    spatial = rng.standard_normal((4, 4))
    spatial -= spatial.mean()
    raw[0] = np.repeat(spatial[:, :, None], 3, axis=2).ravel()
    raw -= raw.mean(axis=1, keepdims=True)
    d = normalize_columns(raw)
    video = (0.8 * d.atoms[0].reshape(4, 4, 3) + 0.5).astype(np.float32)
    mask = np.ones((4, 4, 3), dtype=np.float32)
    op = coded_exposure_operator(mask)
    measured = simulate_coded_exposure(video, op)
    assert measured.shape == (4, 4, 1)
    cfg = TaskConfig(patch_shape=(4, 4, 3), stride=(4, 4, 3), K=3, selector="exact")
    out, report = compressive_recover(measured, op, d, None, cfg, reference=video)
    assert out.shape == video.shape
    np.testing.assert_allclose(out, video, atol=1e-2)
    assert report.task == "csrecover"


def test_compressive_requires_matching_patch():
    mask = np.ones((4, 4, 3), dtype=np.float32)
    op = coded_exposure_operator(mask)
    d = _flat_field_dictionary(48, 20, seed=25)
    cfg = TaskConfig(patch_shape=(4, 4, 4), stride=(4, 4, 4), K=1, selector="exact")
    with pytest.raises(ValueError):
        compressive_recover(np.zeros((4, 4, 1), dtype=np.float32), op, d, None, cfg)


@pytest.mark.parametrize("selector", ["exact", "stmp"])
@pytest.mark.parametrize("task", ["denoise", "maskrecover", "superres", "csrecover"])
def test_dictionary_that_does_not_fit_the_patch(task, selector):
    # 20-dimensional atoms against 16- and 48-coordinate patches: every task
    # must stop with a ValueError before coding
    d = _flat_field_dictionary(20, 30, seed=32)
    tree = build_tree(d, (3, 2), seed=33)
    img = np.random.default_rng(34).random((8, 8)).astype(np.float32)
    cfg = TaskConfig(patch_shape=(4, 4), stride=(2, 2), K=1, selector=selector)
    cs_cfg = TaskConfig(patch_shape=(4, 4, 3), stride=(4, 4, 3), K=1, selector=selector)
    run = {
        "denoise": lambda: denoise(img, d, tree, cfg),
        "maskrecover": lambda: masked_recover(img, row_select_operator(16, range(0, 16, 2)),
                                              d, tree, cfg),
        "superres": lambda: super_resolve(img, d, tree, cfg, factor=2),
        "csrecover": lambda: compressive_recover(
            np.zeros((4, 4, 1), dtype=np.float32),
            coded_exposure_operator(np.ones((4, 4, 3), dtype=np.float32)), d, tree, cs_cfg,
        ),
    }[task]
    with pytest.raises(ValueError, match="dimension"):
        run()


def test_masked_full_rows_equals_denoise():
    rng = np.random.default_rng(26)
    img = rng.random((12, 12)).astype(np.float32)
    d = _flat_field_dictionary(16, 40, seed=27)
    cfg = TaskConfig(patch_shape=(4, 4), stride=(2, 2), K=2, selector="exact")
    op = row_select_operator(16, range(16))
    masked_out, masked_rep = masked_recover(img, op, d, None, cfg, reference=img)
    plain_out, plain_rep = denoise(img, d, None, cfg, reference=img)
    assert masked_out.tobytes() == plain_out.tobytes()
    assert masked_rep.inner_products == plain_rep.inner_products


def test_masked_rejects_exposure_operator():
    mask = np.ones((2, 2, 2), dtype=np.float32)
    op = coded_exposure_operator(mask)
    d = _flat_field_dictionary(8, 10, seed=28)
    cfg = TaskConfig(patch_shape=(2, 2, 2), stride=(2, 2, 2), K=1, selector="exact")
    with pytest.raises(ValueError):
        masked_recover(np.zeros((2, 2, 1), dtype=np.float32), op, d, None, cfg)


def test_denoise_improves_noisy_image():
    rng = np.random.default_rng(29)
    base = np.zeros((40, 40), dtype=np.float32)
    # piecewise-smooth content the patch dictionary can capture
    xs = np.linspace(0, 1, 40, dtype=np.float32)
    base += np.outer(np.sin(xs * 6.0) * 0.3 + 0.5, np.cos(xs * 4.0) * 0.3 + 0.5)
    _, patches = extract_patches(base, (8, 8), (2, 2))
    d = build_from_patches(patches, 120, seed=30)
    noisy = add_noise_to_snr(base, 10.0, seed=31)
    cfg = TaskConfig(patch_shape=(8, 8), stride=(4, 4), K=4, selector="exact")
    out, report = denoise(noisy, d, None, cfg, reference=base)
    assert psnr(base, out) > psnr(base, noisy)

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import stmp
from stmp import (
    ScoreCounter,
    block_average_operator,
    build_from_patches,
    build_tree,
    coded_exposure_operator,
    exact_select,
    identity_operator,
    load_dictionary,
    load_pgm,
    load_tensor,
    load_tree,
    normalize_columns,
    project_dictionary,
    random_exposure_mask,
    row_select_operator,
    save_dictionary,
    save_pgm,
    save_row_selection,
    save_tensor,
    save_tree,
    simulate_coded_exposure,
    stmp_select,
    validate_tree,
)
from stmp.cli import main
from stmp.clustering import _derived_seed, _seed_sequence


def _write_image(path, seed, shape=(48, 48)):
    rng = np.random.default_rng(seed)
    xs = np.linspace(0.0, 1.0, shape[0], dtype=np.float32)
    ys = np.linspace(0.0, 1.0, shape[1], dtype=np.float32)
    smooth = np.outer(np.sin(xs * 5.0), np.cos(ys * 3.0)) * 0.4 + 0.5
    img = np.clip(smooth + rng.random(shape) * 0.05, 0.0, 1.0).astype(np.float32)
    save_pgm(img, path)
    return img


def test_version_subprocess(tmp_path):
    # Run from a scratch directory so a relative PYTHONPATH cannot resolve,
    # and check the child imports this checkout's package, not an installed one.
    proc = subprocess.run(
        [sys.executable, "-m", "stmp", "--version"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert f"stmp {stmp.__version__}" in proc.stdout
    where = subprocess.run(
        [sys.executable, "-c", "import stmp; print(stmp.__file__)"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert where.returncode == 0, where.stderr
    assert Path(where.stdout.strip()).resolve() == Path(stmp.__file__).resolve()


# one process per thread count: the BLAS reads OPENBLAS_NUM_THREADS when numpy loads
_BUILD_AND_RUN = """
import sys
from stmp.cli import main
d, tree, image, out = sys.argv[1:]
assert main(["build-tree", "--dict", d, "--branching", "10,10", "--seed", "3", "--out", tree]) == 0
assert main(["run", "--task", "denoise", "--in", image, "--dict", d, "--tree", tree,
             "--patch", "8,8", "--stride", "2,2", "--k", "4", "--out", out]) == 0
"""


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """A build-tree and a tree run write the same .tree and restored tensor
    bytes under one and two OpenBLAS threads.  The root's (2000 x 10 x 64)
    and the coding's (841 x 10 x 64) products are above the size from which
    OpenBLAS splits a GEMM between threads."""
    dict_path, image = tmp_path / "d.dict", tmp_path / "in.pgm"
    save_dictionary(normalize_columns(np.random.default_rng(21).standard_normal((2000, 64))),
                    dict_path)
    _write_image(image, 22, shape=(64, 64))
    outputs = []
    for threads in ("1", "2"):
        work = tmp_path / f"threads{threads}"
        work.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", _BUILD_AND_RUN, str(dict_path), str(work / "d.tree"), str(image),
             str(work / "out.tnsr")],
            capture_output=True, text=True, cwd=work,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append([(work / name).read_bytes() for name in ("d.tree", "out.tnsr")])
    assert outputs[0] == outputs[1]


def test_public_surface():
    assert len(stmp.__all__) == len(set(stmp.__all__))
    for name in stmp.__all__:
        getattr(stmp, name)
    modules = (stmp, stmp.clustering, stmp.dictionary, stmp.operators, stmp.pipelines,
               stmp.pursuit, stmp.cli)
    for name in ("reconstruct", "lift_code", "apply", "kmeans", "balanced_cluster",
                 "BalancedPartition", "fnv1a64"):
        assert name not in stmp.__all__
        assert not any(hasattr(module, name) for module in modules), name
    assert not hasattr(stmp.CodeBatch, "of")


def test_build_dict_and_tree(tmp_path, capsys):
    img1 = tmp_path / "a.pgm"
    img2 = tmp_path / "b.pgm"
    _write_image(img1, 1)
    _write_image(img2, 2)
    dict_path = tmp_path / "d.dict"
    rc = main(
        [
            "build-dict",
            "--images", str(img1), str(img2),
            "--patch", "8,8",
            "--stride", "4,4",
            "--atoms", "150",
            "--seed", "3",
            "--out", str(dict_path),
        ]
    )
    assert rc == 0
    assert "n=64 m=150" in capsys.readouterr().out
    d = load_dictionary(dict_path)
    manifest = json.loads((tmp_path / "d.dict.manifest.json").read_text())
    assert manifest["command"] == "build-dict"
    assert manifest["parameters"]["atoms"] == 150

    tree_path = tmp_path / "d.tree"
    rc = main(
        ["build-tree", "--dict", str(dict_path), "--branching", "10,5",
         "--seed", "4", "--out", str(tree_path)]
    )
    assert rc == 0
    tree = load_tree(tree_path)
    report = validate_tree(tree, d)
    assert report.ok, report.violation


def test_build_dict_deterministic(tmp_path):
    img = tmp_path / "a.pgm"
    _write_image(img, 5)
    args = ["build-dict", "--images", str(img), "--patch", "6,6",
            "--stride", "3,3", "--atoms", "40", "--seed", "8"]
    out1 = tmp_path / "one.dict"
    out2 = tmp_path / "two.dict"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_build_dict_insufficient_data(tmp_path, capsys):
    img = tmp_path / "a.pgm"
    _write_image(img, 6, shape=(16, 16))
    rc = main(
        ["build-dict", "--images", str(img), "--patch", "8,8", "--stride", "8,8",
         "--atoms", "500", "--out", str(tmp_path / "d.dict")]
    )
    assert rc == 1
    assert "insufficient" in capsys.readouterr().err.lower()


def test_build_dict_missing_file(tmp_path, capsys):
    rc = main(
        ["build-dict", "--images", str(tmp_path / "nope.pgm"), "--patch", "4,4",
         "--stride", "2,2", "--atoms", "10", "--out", str(tmp_path / "d.dict")]
    )
    assert rc == 1


def test_build_tree_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["build-tree", "--dict", "x", "--branching", "0,10", "--out", "y"])
    assert err.value.code == 2


def test_run_denoise_paired_selectors(tmp_path):
    img_path = tmp_path / "in.pgm"
    _write_image(img_path, 7, shape=(40, 40))
    dict_path = tmp_path / "d.dict"
    assert main(
        ["build-dict", "--images", str(img_path), "--patch", "8,8", "--stride", "2,2",
         "--atoms", "250", "--seed", "1", "--out", str(dict_path)]
    ) == 0
    report_path = tmp_path / "report.csv"
    common = [
        "run", "--task", "denoise", "--in", str(img_path), "--dict", str(dict_path),
        "--patch", "8,8", "--stride", "4,4", "--k", "4", "--seed", "2",
        "--reference", str(img_path), "--report", str(report_path),
    ]
    out_exact = tmp_path / "exact.pgm"
    out_tree = tmp_path / "tree.pgm"
    assert main(common + ["--selector", "exact", "--out", str(out_exact)]) == 0
    assert main(
        common
        + ["--selector", "stmp", "--alpha", "0.2", "--branching", "30,5",
           "--out", str(out_tree)]
    ) == 0
    lines = report_path.read_text().strip().splitlines()
    assert lines[0] == (
        "task, m, n, K, alpha, selector, psnr_db, snr_db, inner_products, patches, seconds"
    )
    assert len(lines) == 3
    exact_fields = [f.strip() for f in lines[1].split(",")]
    tree_fields = [f.strip() for f in lines[2].split(",")]
    assert exact_fields[5] == "exact" and tree_fields[5] == "stmp"
    assert int(tree_fields[8]) < int(exact_fields[8])
    manifest = json.loads((tmp_path / "exact.pgm.manifest.json").read_text())
    assert "threads" not in manifest["parameters"]
    assert load_pgm(out_exact).shape == (40, 40)


# every flag a run needs, so that only the value under test can end it with a usage error
_RUN_FLAGS = ["run", "--task", "denoise", "--in", "x", "--dict", "y", "--patch", "4,4",
              "--stride", "2,2", "--k", "2", "--selector", "exact", "--out", "z"]


def test_run_alpha_usage_error(capsys):
    for alpha, reason in [("0", "alpha must lie in (0, 1], got 0.0"),
                          ("abc", "expected a number, got 'abc'")]:
        with pytest.raises(SystemExit) as err:
            main(_RUN_FLAGS + ["--alpha", alpha])
        assert err.value.code == 2
        assert f"argument --alpha: {reason}\n" in capsys.readouterr().err


@pytest.mark.parametrize("tolerance", ["-1", "nan", "abc"])
def test_run_tolerance_usage_error(capsys, tolerance):
    with pytest.raises(SystemExit) as err:
        main(_RUN_FLAGS + ["--tolerance", tolerance])
    assert err.value.code == 2
    reason = {"-1": "tolerance must be non-negative, got -1.0",
              "nan": "tolerance must be non-negative, got nan",
              "abc": "expected a number, got 'abc'"}[tolerance]
    assert f"argument --tolerance: {reason}\n" in capsys.readouterr().err


def test_run_stmp_needs_tree_or_branching(tmp_path):
    img_path = tmp_path / "in.pgm"
    _write_image(img_path, 8, shape=(16, 16))
    dict_path = tmp_path / "d.dict"
    assert main(
        ["build-dict", "--images", str(img_path), "--patch", "4,4", "--stride", "2,2",
         "--atoms", "30", "--out", str(dict_path)]
    ) == 0
    with pytest.raises(SystemExit) as err:
        main(
            ["run", "--task", "denoise", "--in", str(img_path), "--dict", str(dict_path),
             "--patch", "4,4", "--stride", "2,2", "--k", "2", "--out", str(tmp_path / "o.pgm")]
        )
    assert err.value.code == 2


def test_run_rejects_malformed_tree(tmp_path, capsys):
    img_path = tmp_path / "in.pgm"
    _write_image(img_path, 8, shape=(16, 16))
    dict_path = tmp_path / "d.dict"
    tree_path = tmp_path / "d.tree"
    assert main(
        ["build-dict", "--images", str(img_path), "--patch", "4,4", "--stride", "2,2",
         "--atoms", "30", "--out", str(dict_path)]
    ) == 0
    assert main(
        ["build-tree", "--dict", str(dict_path), "--branching", "4,2", "--out", str(tree_path)]
    ) == 0
    raw = bytearray(tree_path.read_bytes())
    first_count = 40 + 4 + 4 * 16  # 40-byte header for L = 2, then the root's count and centroid
    assert raw[first_count : first_count + 4] == b"\x02\x00\x00\x00"  # 30 atoms in 4 x 2 leaves
    raw[first_count : first_count + 4] = b"\x00\x00\x00\x00"  # the root's first child has none
    bad_path = tmp_path / "bad.tree"
    bad_path.write_bytes(bytes(raw))
    capsys.readouterr()
    rc = main(
        ["run", "--task", "denoise", "--in", str(img_path), "--dict", str(dict_path),
         "--tree", str(bad_path), "--patch", "4,4", "--stride", "2,2", "--k", "2",
         "--out", str(tmp_path / "o.pgm")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"internal node 0 at depth 1 has no children at offset {first_count}" in err


@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda tree: tree.atoms.__setitem__(0, 10**6), "exactly once"),  # index out of range
        (lambda tree: tree.atoms.__setitem__(1, tree.atoms[0]), "exactly once"),  # an atom twice
        (lambda tree: tree.centroids[1].__setitem__(0, np.nan),
         "internal centroid 0 at depth 1 has norm nan"),
    ],
    ids=["index-out-of-range", "duplicated-atom", "nan-centroid"],
)
def test_run_rejects_tree_that_does_not_fit(tmp_path, capsys, tamper, message):
    # the file parses and its fingerprint matches, but its leaves do not cover
    # the dictionary or a centroid is not of unit norm; the run must stop
    # before coding with a one-line error
    img_path = tmp_path / "in.pgm"
    _write_image(img_path, 8, shape=(16, 16))
    dict_path = tmp_path / "d.dict"
    assert main(
        ["build-dict", "--images", str(img_path), "--patch", "4,4", "--stride", "2,2",
         "--atoms", "30", "--out", str(dict_path)]
    ) == 0
    tree = build_tree(load_dictionary(dict_path), (4, 2), seed=0)
    tamper(tree)
    tree_path = tmp_path / "bad.tree"
    save_tree(tree, tree_path)
    assert load_tree(tree_path).atoms.tolist() == tree.atoms.tolist()
    capsys.readouterr()
    rc = main(
        ["run", "--task", "denoise", "--in", str(img_path), "--dict", str(dict_path),
         "--tree", str(tree_path), "--patch", "4,4", "--stride", "2,2", "--k", "2",
         "--out", str(tmp_path / "o.pgm")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cluster tree does not fit the dictionary: ")
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "o.pgm").exists()


def test_run_superres_shape(tmp_path):
    img_path = tmp_path / "hi.pgm"
    _write_image(img_path, 9, shape=(64, 64))
    dict_path = tmp_path / "d.dict"
    assert main(
        ["build-dict", "--images", str(img_path), "--patch", "16,16", "--stride", "4,4",
         "--atoms", "120", "--seed", "1", "--out", str(dict_path)]
    ) == 0
    low_path = tmp_path / "low.tnsr"
    save_tensor(np.random.default_rng(10).random((32, 32)).astype(np.float32), low_path)
    out_path = tmp_path / "up.tnsr"
    rc = main(
        ["run", "--task", "superres", "--in", str(low_path), "--dict", str(dict_path),
         "--patch", "16,16", "--stride", "2,2", "--k", "3", "--factor", "4",
         "--selector", "exact", "--out", str(out_path)]
    )
    assert rc == 0
    assert load_tensor(out_path).shape == (128, 128)


def test_run_csrecover_generated_mask(tmp_path):
    rng = np.random.default_rng(11)
    video = rng.random((8, 8, 6)).astype(np.float32)
    mask = random_exposure_mask((4, 4), 3, 2, seed=12)
    measured = simulate_coded_exposure(video, coded_exposure_operator(mask))
    meas_path = tmp_path / "meas.tnsr"
    save_tensor(measured, meas_path)

    patches = rng.standard_normal((80, 48)).astype(np.float32)
    d = build_from_patches(patches, 60, seed=13)
    dict_path = tmp_path / "d.dict"
    save_dictionary(d, dict_path)

    out_path = tmp_path / "video.tnsr"
    rc = main(
        ["run", "--task", "csrecover", "--in", str(meas_path), "--dict", str(dict_path),
         "--patch", "4,4,3", "--k", "3", "--mask-open", "2", "--seed", "12",
         "--selector", "exact", "--out", str(out_path)]
    )
    assert rc == 0
    assert load_tensor(out_path).shape == (8, 8, 6)


def test_run_maskrecover_views(tmp_path):
    rng = np.random.default_rng(14)
    field = rng.random((4, 4, 5, 5)).astype(np.float32)
    in_path = tmp_path / "field.tnsr"
    save_tensor(field, in_path)
    patches = rng.standard_normal((120, 400)).astype(np.float32)
    d = build_from_patches(patches, 80, seed=15)
    dict_path = tmp_path / "d.dict"
    save_dictionary(d, dict_path)
    out_path = tmp_path / "full.tnsr"
    rc = main(
        ["run", "--task", "maskrecover", "--in", str(in_path), "--dict", str(dict_path),
         "--patch", "4,4,5,5", "--stride", "4,4,5,5", "--k", "5",
         "--views", "0,2;4,0;4,4", "--selector", "exact", "--out", str(out_path)]
    )
    assert rc == 0
    assert load_tensor(out_path).shape == (4, 4, 5, 5)


def test_run_maskrecover_needs_one_mask_source(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(
            ["run", "--task", "maskrecover", "--in", "x", "--dict", "y",
             "--patch", "4,4", "--stride", "4,4", "--k", "2", "--out", "z"]
        )
    assert err.value.code == 2


def _task_run(tmp_path, task):
    """Write a small input for a task; return its run flags (without --dict,
    --selector and --out) and the operator its pipeline codes through."""
    rng = np.random.default_rng(40)
    in_path = tmp_path / "in.tnsr"
    flags = ["run", "--task", task, "--in", str(in_path), "--k", "2"]
    if task == "superres":
        save_tensor(rng.random((12, 12)).astype(np.float32), in_path)
        flags += ["--patch", "4,4", "--stride", "1,1", "--factor", "2"]
        return flags, block_average_operator((4, 4), (2, 2))
    if task == "csrecover":
        save_tensor(rng.random((8, 8, 1)).astype(np.float32), in_path)
        flags += ["--patch", "4,4,3", "--mask-open", "2", "--seed", "5"]
        return flags, coded_exposure_operator(random_exposure_mask((4, 4), 3, 2, seed=5))
    save_tensor(rng.random((12, 12)).astype(np.float32), in_path)
    flags += ["--patch", "4,4", "--stride", "2,2"]
    if task == "maskrecover":
        rows = np.arange(0, 16, 2)
        save_row_selection(rows, tmp_path / "half.rows")
        return flags + ["--rows", str(tmp_path / "half.rows")], row_select_operator(16, rows)
    return flags, identity_operator(16)


def test_run_rejects_a_row_index_past_int64(tmp_path, capsys):
    flags, _ = _task_run(tmp_path, "maskrecover")
    rows_path = tmp_path / "half.rows"
    raw = bytearray(rows_path.read_bytes())
    raw[16:24] = (1 << 63).to_bytes(8, "little")
    rows_path.write_bytes(bytes(raw))
    d = build_from_patches(np.random.default_rng(41).standard_normal((60, 16)), 40, seed=42)
    save_dictionary(d, tmp_path / "d.dict")
    capsys.readouterr()
    rc = main(flags + ["--selector", "exact", "--dict", str(tmp_path / "d.dict"),
                       "--out", str(tmp_path / "out.tnsr")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "out of range at offset 16" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("source", ["exact", "tree", "branching"])
@pytest.mark.parametrize("task", ["superres", "csrecover", "maskrecover"])
def test_run_projects_dictionary_once(tmp_path, monkeypatch, task, source):
    # The pipeline projects the dictionary it codes against, and a tree built
    # in place (--branching) is built over that same projection.
    flags, op = _task_run(tmp_path, task)
    d = build_from_patches(np.random.default_rng(41).standard_normal((60, op.n_in)), 40, seed=42)
    save_dictionary(d, tmp_path / "d.dict")
    tree = build_tree(project_dictionary(d, op).dictionary, (4, 2), seed=43)
    save_tree(tree, tmp_path / "d.tree")
    selector = {
        "exact": ["--selector", "exact"],
        "tree": ["--selector", "stmp", "--tree", str(tmp_path / "d.tree")],
        "branching": ["--selector", "stmp", "--branching", "4,2"],
    }[source]
    calls = []
    real = stmp.operators.project_dictionary
    counting = lambda *args: calls.append(1) or real(*args)  # noqa: E731
    for module in (stmp.operators, stmp.pipelines, stmp.cli):
        monkeypatch.setattr(module, "project_dictionary", counting, raising=False)
    hashed, sha256 = [], hashlib.sha256
    monkeypatch.setattr(stmp.dictionary, "hashlib", SimpleNamespace(
        sha256=lambda data: hashed.append(memoryview(data).nbytes) or sha256(data)))
    assert main(flags + selector + ["--dict", str(tmp_path / "d.dict"),
                                    "--out", str(tmp_path / "out.tnsr")]) == 0
    assert len(calls) == 1
    # one whole-payload hash of the projected atoms, none without a tree
    payload = 4 * tree.n * d.m
    assert hashed == ([] if source == "exact" else [payload])


@pytest.mark.parametrize("selector", [["exact"], ["stmp", "--branching", "4,2", "--alpha", "0.5"]],
                         ids=["exact", "stmp"])
@pytest.mark.parametrize("task", ["denoise", "superres"])
def test_run_output_does_not_depend_on_chunk_size(tmp_path, monkeypatch, task, selector):
    # Every pick and coefficient is a canonical ddot, so how many patches
    # are coded together cannot move a bit of the output, its manifest or
    # the report.
    flags, op = _task_run(tmp_path, task)
    d = build_from_patches(np.random.default_rng(44).standard_normal((60, op.n_in)), 40, seed=45)
    save_dictionary(d, tmp_path / "d.dict")
    out, report = tmp_path / "out.tnsr", tmp_path / "report.csv"
    runs = []
    # up to one chunk larger than the 25 (denoise) or 121 (superres) patches
    for chunk in (1, 7, 64, 122, stmp.pipelines._CHUNK):
        monkeypatch.setattr(stmp.pipelines, "_CHUNK", chunk)
        assert main(flags + ["--selector", *selector, "--dict", str(tmp_path / "d.dict"),
                             "--out", str(out), "--report", str(report)]) == 0
        row = report.read_text().splitlines()[-1].rsplit(", ", 1)[0]  # without the seconds
        runs.append((out.read_bytes(), (tmp_path / "out.tnsr.manifest.json").read_bytes(), row))
        report.unlink()
    assert all(run == runs[0] for run in runs)


@pytest.mark.parametrize("selector", [["exact"], ["stmp", "--branching", "3,2"]],
                         ids=["exact", "stmp"])
@pytest.mark.parametrize("task", ["denoise", "superres", "csrecover", "maskrecover"])
def test_run_rejects_dictionary_that_does_not_fit_the_patch(tmp_path, capsys, task, selector):
    flags, _ = _task_run(tmp_path, task)  # patches of 16 or 48 coordinates
    d = build_from_patches(np.random.default_rng(44).standard_normal((60, 20)), 30, seed=45)
    save_dictionary(d, tmp_path / "d.dict")
    out_path = tmp_path / "out.tnsr"
    capsys.readouterr()
    rc = main(flags + ["--selector"] + selector + ["--dict", str(tmp_path / "d.dict"),
                                                    "--out", str(out_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "dimension" in err
    assert "Traceback" not in err
    assert not out_path.exists()


def test_benchmark_sweep(tmp_path):
    out_path = tmp_path / "bench.csv"
    rc = main(
        ["benchmark", "--dict-sizes", "200,400", "--dim", "8", "--branching", "10,5",
         "--alpha", "0.5,1", "--queries", "20", "--seed", "3", "--out", str(out_path)]
    )
    assert rc == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "m, alpha, exact_ip, stmp_ip, stmp_centroid_ip, agreement"
    assert len(lines) == 5
    for line in lines[1:]:
        fields = [f.strip() for f in line.split(",")]
        assert fields[0] in {"200", "400"}
        if fields[1] == "1":
            assert float(fields[5]) == 1.0
        assert float(fields[2]) == float(fields[0])  # exact scans every atom


def test_benchmark_rows_match_per_query_selection(tmp_path):
    out_path = tmp_path / "bench.csv"
    sizes, branchings, alphas, seed, dim, count = (120, 300), ((6, 4), (10, 5)), (0.2, 0.5, 1.0), 4, 8, 30
    assert main(["benchmark", "--dict-sizes", "120,300", "--dim", str(dim), "--branching", "6,4;10,5",
                 "--alpha", "0.2,0.5,1", "--queries", str(count), "--seed", str(seed),
                 "--out", str(out_path)]) == 0
    want = []
    for i, (m, branching) in enumerate(zip(sizes, branchings)):
        d = normalize_columns(np.random.default_rng(_seed_sequence(seed, i, 0)).standard_normal((m, dim)))
        tree = build_tree(d, branching, _derived_seed(seed, i, 1))
        queries = np.random.default_rng(_seed_sequence(seed, i, 2)).standard_normal((count, dim))
        for alpha in alphas:
            exact_ip = stmp_ip = centroid_ip = agree = 0
            for q in queries:
                exact_counter, tree_counter = ScoreCounter(), ScoreCounter()
                agree += exact_select(d, q, exact_counter)[0] == stmp_select(tree, d, q, alpha, tree_counter)[0]
                exact_ip += exact_counter.inner_products
                stmp_ip += tree_counter.inner_products
                centroid_ip += tree_counter.centroid_inner_products
            want.append([str(m), f"{alpha:g}", f"{exact_ip / count:.3f}", f"{stmp_ip / count:.3f}",
                         f"{centroid_ip / count:.3f}", f"{agree / count:.4f}"])
    rows = [line.split(", ") for line in out_path.read_text().splitlines()[1:]]
    assert rows == want
    assert min(float(row[5]) for row in rows) < 1.0  # the tree misses some exhaustive picks


def test_config_file_merge(tmp_path):
    img = tmp_path / "a.pgm"
    _write_image(img, 16)
    config = {
        "images": [str(img)],
        "patch": "6,6",
        "stride": [3, 3],
        "atoms": 20,
        "out": str(tmp_path / "from_config.dict"),
    }
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(config))
    assert main(["build-dict", "--config", str(config_path)]) == 0
    d = load_dictionary(tmp_path / "from_config.dict")
    assert d.m == 20

    # explicit flag wins over the config value
    assert main(
        ["build-dict", "--config", str(config_path), "--atoms", "25",
         "--out", str(tmp_path / "override.dict")]
    ) == 0
    assert load_dictionary(tmp_path / "override.dict").m == 25


def test_config_unknown_key(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"atom": 10}))
    with pytest.raises(SystemExit) as err:
        main(["build-dict", "--config", str(config_path)])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "key, value",
    [("atoms", 20.7), ("atoms", True), ("patch", [4.9, 4]), ("seed", 2.5), ("stride", [2, False]),
     ("patch", "4,x"), ("patch", 5), ("stride", True)],
)
def test_config_rejects_non_integers(tmp_path, capsys, key, value):
    # int() would truncate 20.7 to 20 and read true as 1
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({key: value}))
    with pytest.raises(SystemExit) as err:
        main(["build-dict", "--config", str(config_path)])
    assert err.value.code == 2
    assert f"key {key!r}: expected an integer" in capsys.readouterr().err


def test_config_takes_numeric_strings_and_integral_numbers(tmp_path):
    img = tmp_path / "a.pgm"
    _write_image(img, 16)
    config = {"images": [str(img)], "patch": ["6", 6.0], "stride": "3,3", "atoms": "20",
              "seed": 4.0, "out": str(tmp_path / "d.dict")}
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(config))
    assert main(["build-dict", "--config", str(config_path)]) == 0
    assert load_dictionary(tmp_path / "d.dict").m == 20
    manifest = json.loads((tmp_path / "d.dict.manifest.json").read_text())
    assert manifest["parameters"]["patch"] == [6, 6] and manifest["parameters"]["seed"] == 4


def test_config_images_must_be_a_list(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"images": "a.tnsr"}))
    with pytest.raises(SystemExit) as err:
        main(["build-dict", "--config", str(config_path)])
    assert err.value.code == 2
    assert "key 'images': expected a non-empty list of paths" in capsys.readouterr().err


def _image_dict_and_tree(tmp_path):
    """A 16x16 image, a 30-atom 4x4 dictionary sampled from it and a (4,2) tree."""
    img_path = tmp_path / "in.pgm"
    _write_image(img_path, 8, shape=(16, 16))
    dict_path, tree_path = tmp_path / "d.dict", tmp_path / "d.tree"
    assert main(["build-dict", "--images", str(img_path), "--patch", "4,4", "--stride", "2,2",
                 "--atoms", "30", "--out", str(dict_path)]) == 0
    assert main(["build-tree", "--dict", str(dict_path), "--branching", "4,2",
                 "--out", str(tree_path)]) == 0
    return img_path, dict_path, tree_path


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["build-dict", "build-tree", "run-branching", "run-tree",
                                     "benchmark"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command, source):
    img_path, dict_path, tree_path = _image_dict_and_tree(tmp_path)
    run = ["run", "--task", "denoise", "--in", str(img_path), "--dict", str(dict_path),
           "--patch", "4,4", "--stride", "2,2", "--k", "2", "--out", str(tmp_path / "o.pgm")]
    argv = {
        "build-dict": ["build-dict", "--images", str(img_path), "--patch", "4,4",
                       "--stride", "2,2", "--atoms", "30", "--out", str(tmp_path / "e.dict")],
        "build-tree": ["build-tree", "--dict", str(dict_path), "--branching", "4,2",
                       "--out", str(tmp_path / "e.tree")],
        "run-branching": run + ["--branching", "4,2"],
        "run-tree": run + ["--tree", str(tree_path)],
        "benchmark": ["benchmark", "--dict-sizes", "40", "--dim", "8", "--branching", "4,2",
                      "--queries", "5", "--out", str(tmp_path / "b.csv")],
    }[command]
    if source == "flag":
        argv += ["--seed", "-5"]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({"seed": -5}))
        argv += ["--config", str(tmp_path / "cfg.json")]
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert "seed" in err_text and "-5" in err_text
    assert "Traceback" not in err_text


def _run_refuses_a_tree_of_version(tmp_path, capsys, version):
    img_path, dict_path, tree_path = _image_dict_and_tree(tmp_path)
    raw = bytearray(tree_path.read_bytes())
    assert raw[8:12] == b"\x03\x00\x00\x00"
    raw[8:12] = version.to_bytes(4, "little")
    tree_path.write_bytes(bytes(raw))
    capsys.readouterr()
    rc = main(["run", "--task", "denoise", "--in", str(img_path), "--dict", str(dict_path),
               "--tree", str(tree_path), "--patch", "4,4", "--stride", "2,2", "--k", "2",
               "--out", str(tmp_path / "o.pgm")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"unsupported tree format version {version} at offset 8" in err and "stmp build-tree" in err
    assert "Traceback" not in err


def test_run_refuses_a_v1_tree(tmp_path, capsys):
    # v1 trees carry the FNV-1a fingerprint; the run names the fix
    _run_refuses_a_tree_of_version(tmp_path, capsys, 1)


def test_run_refuses_a_v2_tree(tmp_path, capsys):
    # v2 trees hold preorder node records; the run names the fix
    _run_refuses_a_tree_of_version(tmp_path, capsys, 2)


# No flag spells a boolean, or a lone value where a list goes: only a config gives
# them, and it is refused with this reason.
_CONFIG_ONLY_REASONS = {
    ("run", "alpha", "true"): "expected a number, got True",
    ("run", "tolerance", "false"): "expected a number, got False",
    ("run", "patch", "5"): "expected an integer list or comma-separated integers, got 5",
    ("run", "views", "5"): "expected one or more u,v view pairs, got 5",
    ("run", "views", "[0, 2]"): "expected one or more u,v view pairs, got [0, 2]",
    ("benchmark", "alphas", "0.5"): "expected a list of numbers or comma-separated numbers, got 0.5",
    ("benchmark", "branchings", "5"):
        "expected a list of branchings or semicolon-separated branchings, got 5",
}


@pytest.mark.parametrize("command, key, value", [
    ("build-dict", "seed", -5), ("build-dict", "atoms", 0), ("build-dict", "patch", "4,x"),
    ("run", "alpha", 0), ("run", "tolerance", -1), ("run", "selector", "foo"), ("run", "task", "x"),
    *((command, key, json.loads(text)) for command, key, text in _CONFIG_ONLY_REASONS),
])
def test_flag_and_config_give_the_same_reason(tmp_path, capsys, command, key, value):
    base = _RUN_FLAGS if command == "run" else [command]
    runs = [(base + ["--config", str(tmp_path / "cfg.json")], f"key {key!r}: ")]
    reason = _CONFIG_ONLY_REASONS.get((command, key, json.dumps(value)))
    if reason is None:
        runs.insert(0, (base + [f"--{key}", str(value)], f"argument --{key}: "))
    reasons = [] if reason is None else [reason + "\n"]
    for argv, marker in runs:
        (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        err_text = capsys.readouterr().err
        assert marker in err_text, err_text
        reasons.append(err_text.split(marker, 1)[1])
    assert reasons[0] == reasons[1]


@pytest.mark.parametrize("key", ["out", "dict", "report"])
def test_config_path_values_must_be_strings(tmp_path, capsys, key):
    # a number would reach open() as a file descriptor
    paths = {"in": tmp_path / "in.pgm", "dict": tmp_path / "d.dict", "out": tmp_path / "o.pgm",
             "report": tmp_path / "r.csv"}
    argv = ["run", "--task", "denoise", "--patch", "4,4", "--stride", "2,2", "--k", "2",
            "--selector", "exact", "--config", str(tmp_path / "cfg.json")]
    for flag, path in paths.items():
        if flag != key:
            argv += [f"--{flag}", str(path)]
    (tmp_path / "cfg.json").write_text(json.dumps({key: 1}))
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert f"key {key!r}: expected a string, got 1" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_config_null_keeps_the_default(tmp_path, capsys):
    img_path, dict_path, _ = _image_dict_and_tree(tmp_path)
    argv = ["run", "--task", "denoise", "--in", str(img_path), "--dict", str(dict_path),
            "--patch", "4,4", "--stride", "2,2", "--selector", "exact",
            "--out", str(tmp_path / "o.pgm"), "--config", str(tmp_path / "cfg.json")]
    nulls = {"tolerance": None, "alpha": None, "k": None, "tree": None, "seed": None}
    (tmp_path / "cfg.json").write_text(json.dumps(nulls))
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "missing --k" in capsys.readouterr().err
    assert main(argv + ["--k", "2"]) == 0
    parameters = json.loads((tmp_path / "o.pgm.manifest.json").read_text())["parameters"]
    assert parameters["alpha"] == 0.1 and parameters["seed"] == 0 and parameters["k"] == 2
    assert parameters["tolerance"] is None and parameters["tree"] is None


def test_run_from_config_matches_flags(tmp_path):
    img_path, dict_path, tree_path = _image_dict_and_tree(tmp_path)
    out = tmp_path / "o.pgm"
    manifest = tmp_path / "o.pgm.manifest.json"
    assert main(["run", "--task", "denoise", "--in", str(img_path), "--dict", str(dict_path),
                 "--tree", str(tree_path), "--patch", "4,4", "--stride", "2,2", "--k", "3",
                 "--alpha", "0.5", "--tolerance", "0.01", "--seed", "3", "--out", str(out)]) == 0
    from_flags = out.read_bytes(), manifest.read_bytes()
    out.unlink()
    manifest.unlink()
    config = {"task": "denoise", "input": str(img_path), "dict": str(dict_path),
              "tree": str(tree_path), "patch": [4, 4], "stride": "2,2", "k": 3, "alpha": 0.5,
              "tolerance": "0.01", "seed": 3.0, "selector": "stmp", "out": str(out)}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert main(["run", "--config", str(tmp_path / "cfg.json")]) == 0
    assert (out.read_bytes(), manifest.read_bytes()) == from_flags

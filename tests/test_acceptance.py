"""Acceptance suite: one test per release criterion, in order.

Each test records PASS or FAIL on the shared scoreboard (printed at the
end of the pytest run) and then asserts, so a red criterion is visible
both ways.  Tolerances and scales are stated inline next to each check.
"""

import functools
import json
import subprocess
import sys

import numpy as np

import acceptance_log
from stmp import (
    CodeBatch,
    ExactSelector,
    ScoreCounter,
    SearchParams,
    TaskConfig,
    add_noise_to_snr,
    apply_batch,
    build_from_patches,
    build_tree,
    coded_exposure_operator,
    denoise,
    exact_select,
    extract_patches,
    lift_codes,
    masked_recover,
    matching_pursuit,
    normalize_columns,
    predicted_ip_count,
    project_dictionary,
    random_exposure_mask,
    reconstruct_batch,
    row_select_operator,
    save_pgm,
    stmp_select,
    validate_tree,
    view_selection_rows,
)


def criterion(number):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                acceptance_log.record(number, False)
                raise
            acceptance_log.record(number, True)

        return run

    return wrap


def _random_dictionary(m, n, seed):
    rng = np.random.default_rng(seed)
    return normalize_columns(rng.standard_normal((m, n)))


@criterion(1)
def test_criterion_1_oracle_equivalence():
    # alpha=1 tree search must reproduce the exhaustive argmax on every
    # query: 5 dictionaries up to m=16000, 200 queries each (1000 total).
    sizes = [1000, 2000, 4000, 8000, 16000]
    mismatches = 0
    for i, m in enumerate(sizes):
        d = _random_dictionary(m, 32, seed=100 + i)
        tree = build_tree(d, (20, 10, 10), seed=200 + i)
        queries = np.random.default_rng(300 + i).standard_normal((200, 32))
        for q in queries:
            exact_index, _ = exact_select(d, q, ScoreCounter())
            tree_index, _ = stmp_select(tree, d, q, 1.0, ScoreCounter())
            if exact_index != tree_index:
                mismatches += 1
    assert mismatches == 0, f"{mismatches} of 1000 queries disagreed at alpha=1"


@criterion(2)
def test_criterion_2_cost_formula_exactness():
    # branching [100,10,10] divides m=10000 exactly; the measured centroid
    # comparison count for one search at alpha=0.1 must equal the predicted
    # value, which evaluates to 300.
    predicted = predicted_ip_count((100, 10, 10), 0.1)
    assert predicted == 300
    d = _random_dictionary(10_000, 16, seed=11)
    tree = build_tree(d, (100, 10, 10), seed=12)
    counter = ScoreCounter()
    stmp_select(tree, d, np.random.default_rng(13).standard_normal(16), 0.1, counter)
    assert counter.centroid_inner_products == predicted


@criterion(3)
def test_criterion_3_sublinear_growth():
    # one k=10 level is appended per decade of m; stmp centroid cost must
    # grow additively (ratio <= 3 across two decades) while exact cost
    # grows with m (ratio exactly 100).
    cases = [
        (1_000, (100, 10)),
        (10_000, (100, 10, 10)),
        (100_000, (100, 10, 10, 10)),
    ]
    stmp_costs = []
    exact_costs = []
    for i, (m, branching) in enumerate(cases):
        d = _random_dictionary(m, 16, seed=20 + i)
        tree = build_tree(d, branching, seed=30 + i)
        queries = np.random.default_rng(40 + i).standard_normal((3, 16))
        per_query = []
        for q in queries:
            counter = ScoreCounter()
            stmp_select(tree, d, q, 0.1, counter)
            per_query.append(counter.centroid_inner_products)
            exact_counter = ScoreCounter()
            exact_select(d, q, exact_counter)
            assert exact_counter.inner_products == m
        assert len(set(per_query)) == 1  # cost is a function of shape alone
        stmp_costs.append(per_query[0])
        exact_costs.append(m)
    assert stmp_costs[1] - stmp_costs[0] == 100
    assert stmp_costs[2] - stmp_costs[1] == 100
    assert stmp_costs[2] / stmp_costs[0] <= 3.0
    assert exact_costs[2] / exact_costs[0] == 100


@criterion(4)
def test_criterion_4_balanced_trees():
    # 100 random (dictionary, seed, branching) triples; every built tree
    # must pass structural validation (per-node capacity balance included).
    rng = np.random.default_rng(50)
    failures = []
    for trial in range(100):
        m = int(rng.integers(40, 300))
        n = int(rng.integers(6, 24))
        depth = int(rng.integers(1, 3))
        branching = []
        budget = m
        for _ in range(depth):
            k = int(rng.integers(2, min(11, budget + 1)))
            branching.append(k)
            budget = max(1, budget // k)
        d = _random_dictionary(m, n, seed=int(rng.integers(0, 2**31)))
        tree = build_tree(d, tuple(branching), seed=int(rng.integers(0, 2**31)))
        report = validate_tree(tree, d)
        if not report.ok:
            failures.append((m, tuple(branching), report.violation))
    assert not failures, failures[:3]


@criterion(5)
def test_criterion_5_mp_recovery_and_energy():
    # planted K-sparse codes over orthonormal dictionaries come back with
    # coefficients within 1e-5; residual energy drops by the squared step
    # coefficient at every iteration within 1e-4 relative.
    rng = np.random.default_rng(60)
    for trial in range(100):
        n = 24
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        d = normalize_columns(q.T)
        support = rng.choice(n, size=4, replace=False)
        coeffs = rng.uniform(0.5, 2.0, size=4) * rng.choice([-1.0, 1.0], size=4)
        x = d.atoms[support].astype(np.float64).T @ coeffs
        code = matching_pursuit(ExactSelector(d), x, SearchParams(K=4))
        got = dict(code.combined())
        assert set(got) == set(int(i) for i in support)
        for index, coeff in zip(support, coeffs):
            assert abs(got[int(index)] - coeff) < 1e-5

    # energy ledger on coherent dictionaries, checked step by step
    for trial in range(20):
        d = _random_dictionary(150, 20, seed=70 + trial)
        x = np.random.default_rng(90 + trial).standard_normal(20)
        code = matching_pursuit(
            ExactSelector(d), x, SearchParams(K=6, residual_tolerance=0.0)
        )
        r = x.astype(np.float64).copy()
        for index, coeff in code.entries:
            before = float(r @ r)
            r -= coeff * d.atoms[index].astype(np.float64)
            after = float(r @ r)
            assert abs(after - (before - coeff * coeff)) <= 1e-4 * max(before, 1e-12)


def _synthetic_image(size=128):
    y, x = np.mgrid[0:size, 0:size].astype(np.float64) / size
    img = 0.35 * np.sin(2 * np.pi * (3.1 * x + 0.8 * y))
    img += 0.25 * np.sin(2 * np.pi * (1.3 * x - 2.4 * y + 0.25))
    img += 0.18 * np.sin(2 * np.pi * (6.0 * x * y + 0.5 * x))
    img += 0.25 * (x > 0.55)
    img -= 0.2 * (y > 0.7)
    img = 0.5 + 0.5 * img / np.abs(img).max()
    return img.astype(np.float32)


@criterion(6)
def test_criterion_6_denoising_within_1db():
    # desk-scale version of the headline claim: at alpha=0.1 the tree
    # selector loses at most 1 dB PSNR against exhaustive MP while doing
    # at most 20% of its inner products.
    clean = _synthetic_image(128)
    _, patches = extract_patches(clean, (16, 16), (2, 2))
    d = build_from_patches(patches, 2000, seed=5)
    noisy = add_noise_to_snr(clean, 10.0, seed=6)
    tree = build_tree(d, (100, 10), seed=7)
    cfg_exact = TaskConfig(patch_shape=(16, 16), stride=(4, 4), K=10, selector="exact")
    cfg_tree = TaskConfig(
        patch_shape=(16, 16), stride=(4, 4), K=10, alpha=0.1, selector="stmp",
    )
    _, exact_report = denoise(noisy, d, None, cfg_exact, reference=clean)
    _, tree_report = denoise(noisy, d, tree, cfg_tree, reference=clean)
    assert tree_report.psnr_db >= exact_report.psnr_db - 1.0, (
        f"stmp {tree_report.psnr_db:.2f} dB vs exact {exact_report.psnr_db:.2f} dB"
    )
    assert tree_report.inner_products <= 0.2 * exact_report.inner_products, (
        f"stmp used {tree_report.inner_products} of {exact_report.inner_products}"
    )


@criterion(7)
def test_criterion_7_projection_commutation():
    # applying the operator to the lifted full-space reconstruction must
    # reproduce the measurement-space reconstruction within 1e-4.
    rng = np.random.default_rng(110)
    checked = 0
    for block in range(10):
        d = _random_dictionary(80, 36, seed=120 + block)
        if block % 2 == 0:
            rows = np.sort(rng.choice(36, size=20, replace=False))
            op = row_select_operator(36, rows)
        else:
            mask = random_exposure_mask((3, 3), 4, 2, seed=130 + block)
            op = coded_exposure_operator(mask)
        pd = project_dictionary(d, op)
        usable = np.flatnonzero(pd.usable)
        indices, coefficients = [], []
        for _ in range(10):
            indices.append(rng.choice(usable, size=5, replace=False))
            coefficients.append([float(rng.standard_normal()) for _ in range(5)])
        codes = CodeBatch(80, np.array(indices), np.array(coefficients), np.full(10, 5))
        lhs = apply_batch(op, reconstruct_batch(d, lift_codes(pd, codes)))
        rhs = reconstruct_batch(pd.dictionary, codes)
        np.testing.assert_allclose(lhs, rhs, atol=1e-4)
        checked += lhs.shape[0]
    assert checked == 100


@criterion(8)
def test_criterion_8_trinocular_completion():
    # keeping 3 of the 25 views of an 8x8x5x5 patch must code in dimension
    # 8*8*3 = 192, and signals the dictionary can represent must come back
    # with their unobserved views filled in within 1e-3.
    patch_shape = (8, 8, 5, 5)
    views = [(0, 2), (4, 0), (4, 4)]
    rows = view_selection_rows(patch_shape, views)
    assert len(rows) == 192
    op = row_select_operator(1600, rows)

    # atoms made orthogonal to both the full-patch and observed-row DC
    # directions so the mean-offset stage is exact for planted signals
    rng = np.random.default_rng(140)
    raw = rng.standard_normal((40, 1600))
    ones_full = np.ones(1600) / np.sqrt(1600.0)
    ones_obs = np.zeros(1600)
    ones_obs[np.asarray(rows)] = 1.0
    ones_obs -= (ones_obs @ ones_full) * ones_full
    ones_obs /= np.linalg.norm(ones_obs)
    raw -= np.outer(raw @ ones_full, ones_full)
    raw -= np.outer(raw @ ones_obs, ones_obs)
    d = normalize_columns(raw)

    pd = project_dictionary(d, op)
    assert pd.dictionary.n == 192

    cfg = TaskConfig(patch_shape=patch_shape, stride=patch_shape, K=4, selector="exact")
    worst = 0.0
    for trial in range(10):
        atom = int(rng.integers(0, 40))
        coeff = float(rng.uniform(0.5, 2.0))
        offset = float(rng.uniform(-0.5, 0.5))
        field = (coeff * d.atoms[atom].reshape(patch_shape) + offset).astype(np.float32)
        observed = np.zeros_like(field)
        observed.reshape(-1)[np.asarray(rows)] = field.reshape(-1)[np.asarray(rows)]
        out, _ = masked_recover(observed, op, d, None, cfg)
        worst = max(worst, float(np.abs(out - field).max()))
    assert worst < 1e-3, f"worst completion error {worst:.2e}"


def _stmp_cli(args, cwd):
    proc = subprocess.run(
        [sys.executable, "-m", "stmp", *args], capture_output=True, text=True, cwd=cwd
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _strip_seconds(text):
    rows = []
    for line in text.strip().splitlines():
        rows.append(line.rsplit(",", 1)[0])
    return rows


@criterion(9)
def test_criterion_9_cli_determinism(tmp_path):
    # every command, re-run with identical flags (and either thread count),
    # must reproduce its output files bit for bit; the CSV seconds column
    # is the declared exception.
    img_path = tmp_path / "in.pgm"
    rng = np.random.default_rng(150)
    xs = np.linspace(0.0, 1.0, 32, dtype=np.float32)
    img = np.clip(
        np.outer(np.sin(xs * 7.0), np.cos(xs * 5.0)) * 0.4 + 0.5 + rng.random((32, 32)) * 0.05,
        0.0, 1.0,
    ).astype(np.float32)
    save_pgm(img, img_path)

    dict_path = tmp_path / "d.dict"
    build_dict = [
        "build-dict", "--images", str(img_path), "--patch", "6,6", "--stride", "3,3",
        "--atoms", "60", "--seed", "3", "--out", str(dict_path),
    ]
    _stmp_cli(build_dict, tmp_path)
    first = {p.name: p.read_bytes() for p in (dict_path, tmp_path / "d.dict.manifest.json")}
    _stmp_cli(build_dict, tmp_path)
    assert dict_path.read_bytes() == first["d.dict"]
    assert (tmp_path / "d.dict.manifest.json").read_bytes() == first["d.dict.manifest.json"]

    tree_path = tmp_path / "d.tree"
    build_tree_cmd = [
        "build-tree", "--dict", str(dict_path), "--branching", "10,3",
        "--seed", "4", "--out", str(tree_path),
    ]
    _stmp_cli(build_tree_cmd, tmp_path)
    tree_first = tree_path.read_bytes()
    _stmp_cli(build_tree_cmd, tmp_path)
    assert tree_path.read_bytes() == tree_first

    out_path = tmp_path / "out.tnsr"
    report_path = tmp_path / "report.csv"
    run_cmd = [
        "run", "--task", "denoise", "--in", str(img_path), "--dict", str(dict_path),
        "--tree", str(tree_path), "--patch", "6,6", "--stride", "3,3", "--k", "3",
        "--selector", "stmp", "--alpha", "0.4", "--seed", "5",
        "--reference", str(img_path), "--report", str(report_path),
        "--out", str(out_path),
    ]

    outputs = {}
    for label, threads in (("first", "1"), ("repeat", "1"), ("threads4", "4")):
        report_path.unlink(missing_ok=True)
        _stmp_cli(run_cmd + ["--threads", threads], tmp_path)
        outputs[label] = {
            "out": out_path.read_bytes(),
            "manifest": (tmp_path / "out.tnsr.manifest.json").read_bytes(),
            "report": _strip_seconds(report_path.read_text()),
        }
    assert outputs["repeat"] == outputs["first"]
    assert outputs["threads4"] == outputs["first"]
    manifest = json.loads(outputs["first"]["manifest"])
    assert "threads" not in manifest["parameters"]

    bench_path = tmp_path / "bench.csv"
    bench_cmd = [
        "benchmark", "--dict-sizes", "150,300", "--dim", "8", "--branching", "8,4",
        "--alpha", "0.5,1", "--queries", "15", "--seed", "2", "--out", str(bench_path),
    ]
    _stmp_cli(bench_cmd, tmp_path)
    bench_first = bench_path.read_bytes()
    bench_manifest_first = (tmp_path / "bench.csv.manifest.json").read_bytes()
    _stmp_cli(bench_cmd, tmp_path)
    assert bench_path.read_bytes() == bench_first
    assert (tmp_path / "bench.csv.manifest.json").read_bytes() == bench_manifest_first

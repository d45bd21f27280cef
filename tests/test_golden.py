"""Pinned outputs of small seeded ``stmp run`` calls.

The SHA-256 of each restored tensor and its report row (without the
``seconds`` field) were recorded on this package's reference platform
(CPython 3.11, numpy 2.4, OpenBLAS 0.3.31).  Every pick and coefficient is a
canonical score, one ddot of a float32 ``Dictionary.atoms`` row, upcast to
float64, with the residual, so neither the batch, the chunking nor the
kernel that filters the candidates can move a bit; a change to the
canonical score, to the order of accumulation or to the aggregation fails
here.  The digests date from per-row gemv scoring: the move to canonical
scores changed coefficients in their last bits, but no pick and none of
these four float32 outputs.  Both trees divide their dictionaries
exactly.  The two ``stmp`` digests date from warm-started balanced rounds,
which changed every tree ``build_tree`` builds.
"""

import hashlib

import numpy as np
import pytest

from stmp import save_tensor
from stmp.cli import main


def _scene(side, seed):
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:side, 0:side].astype(np.float64) / side
    img = 0.5 + 0.2 * np.sin(2 * np.pi * (3 * x + 2 * y)) + 0.1 * np.cos(2 * np.pi * 5 * x * y)
    img += 0.15 * ((x - 0.4) ** 2 + (y - 0.6) ** 2 < 0.05)
    return np.clip(img + 0.02 * rng.standard_normal(img.shape), 0.0, 1.0).astype(np.float32)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("golden")
    save_tensor(_scene(32, 1), work / "train.tnsr")
    clean = _scene(32, 2)
    noisy = clean + 0.08 * np.random.default_rng(3).standard_normal(clean.shape)
    lowres = clean.reshape(16, 2, 16, 2).astype(np.float64).mean(axis=(1, 3))
    save_tensor(clean, work / "clean.tnsr")
    save_tensor(noisy.astype(np.float32), work / "noisy.tnsr")
    save_tensor(lowres.astype(np.float32), work / "lowres.tnsr")
    assert main(["build-dict", "--images", str(work / "train.tnsr"), "--patch", "8,8",
                 "--stride", "1,1", "--atoms", "120", "--seed", "4",
                 "--out", str(work / "d.dict")]) == 0
    assert main(["build-tree", "--dict", str(work / "d.dict"), "--branching", "6,4",
                 "--seed", "5", "--out", str(work / "d.tree")]) == 0
    return work


RUNS = {
    "denoise-exact": ["--task", "denoise", "--in", "noisy.tnsr", "--stride", "2,2",
                      "--k", "4", "--selector", "exact"],
    "denoise-stmp": ["--task", "denoise", "--in", "noisy.tnsr", "--stride", "2,2",
                     "--k", "4", "--selector", "stmp", "--tree", "d.tree", "--alpha", "0.25"],
    "superres-exact": ["--task", "superres", "--in", "lowres.tnsr", "--stride", "1,1",
                       "--k", "3", "--factor", "2", "--selector", "exact"],
    "superres-stmp": ["--task", "superres", "--in", "lowres.tnsr", "--stride", "1,1",
                      "--k", "3", "--factor", "2", "--selector", "stmp",
                      "--branching", "6,4", "--seed", "6", "--alpha", "0.5"],
}

GOLDEN = {
    "denoise-exact": (
        "92e7a3b1827bd8e9ddb29852d61b9868e1e507087eb47379eab52e031a6fbe8e",
        "denoise, 120, 64, 4, 0.1, exact, 29.478278, 24.439652, 81120, 169",
    ),
    "denoise-stmp": (
        "63d0b15c1cf1e6cb6385354c8ad0ee79adcaafd6387921190afbc6c7f0cc02d4",
        "denoise, 120, 64, 4, 0.25, stmp, 28.879811, 23.841185, 16224, 169",
    ),
    "superres-exact": (
        "dc9bd89b1eb5fde508a505518494cc8902d10492ac8f8d37f0810d29a74bfcb6",
        "superres, 120, 64, 3, 0.1, exact, 31.000498, 25.961872, 60840, 169",
    ),
    "superres-stmp": (
        "59c2f74394686725367443790425cfc0eb48c32d5cdc87d49142e36ddb3d7ad6",
        "superres, 120, 64, 3, 0.5, stmp, 30.681623, 25.642997, 24336, 169",
    ),
}


def _run(work, name):
    argv = ["run", "--dict", str(work / "d.dict"), "--patch", "8,8",
            "--reference", str(work / "clean.tnsr"), "--out", str(work / f"{name}.tnsr"),
            "--report", str(work / f"{name}.csv")]
    for arg in RUNS[name]:
        argv.append(str(work / arg) if arg.endswith((".tnsr", ".tree")) else arg)
    assert main(argv) == 0
    digest = hashlib.sha256((work / f"{name}.tnsr").read_bytes()).hexdigest()
    row = (work / f"{name}.csv").read_text().splitlines()[-1]
    return digest, row.rsplit(", ", 1)[0]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_output_pinned(inputs, name):
    assert _run(inputs, name) == GOLDEN[name]

"""The benchmark's workloads: seeded inputs, the timed operations, output checks.

Each workload writes its inputs as files, then repeats three operations:

* ``command`` -- one in-process ``stmp`` CLI call a user would make
  (``run`` for the restoration workloads, ``build-tree`` for tree-lifecycle),
  checked against the clean reference and against the first repetition;
* ``load`` -- a cold read of the artifacts the workload's selector scores
  against, returning the dictionary and tree the query stream uses;
* a query stream of single selections with the workload's selector, each
  compared with an exhaustive pick made once per run.

The program sees only the generated files; nothing here depends on the
package except the public calls being measured.
"""

import contextlib
from dataclasses import dataclass
import hashlib
import io
import math
from pathlib import Path
import struct

import numpy as np

ALPHA = 0.1


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


@dataclass(frozen=True)
class Sizes:
    scene: int                 # side of the denoised scene
    superres_scene: int        # side of the high-resolution superres scene
    train_scene: int           # side of the dictionary's training scene
    atoms: int                 # restoration dictionary size m
    branching: tuple           # restoration tree shape
    k: int                     # atoms per patch
    queries: int               # query stream length
    lifecycle_atoms: int
    lifecycle_dim: int
    lifecycle_branching: tuple


# Every tree divides its dictionary exactly, so each selection's inner
# products are known in closed form.
FULL = Sizes(128, 192, 128, 4000, (40, 10), 8, 4000, 30000, 16, (30, 10, 10))
TINY = Sizes(24, 32, 64, 400, (10, 5), 4, 200, 600, 16, (6, 5, 4))


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _int_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def scene(side: int, rng: np.random.Generator) -> np.ndarray:
    """Many smooth gratings plus sharp-edged discs, at a fixed mean and spread.

    With this many parts every seed gives a scene of much the same texture,
    and with a fixed mean and spread the same noise level at a given SNR, so
    fidelity differs little from seed to seed.
    """
    y, x = np.mgrid[0:side, 0:side].astype(np.float64) / side
    img = np.zeros((side, side))
    for _ in range(64):
        fx, fy = rng.uniform(-3.0, 3.0, 2)
        img += rng.uniform(0.1, 0.3) * np.sin(2 * np.pi * (fx * x + fy * y + rng.uniform()))
    for _ in range(160):
        cx, cy = rng.uniform(0.0, 1.0, 2)
        radius = rng.uniform(0.03, 0.2)
        img += rng.uniform(-0.3, 0.3) * (((x - cx) ** 2 + (y - cy) ** 2) < radius ** 2)
    img = 0.5 + 0.15 * (img - img.mean()) / img.std()
    return np.clip(img, 0.0, 1.0).astype(np.float32)


def add_noise(clean: np.ndarray, snr_db: float, rng: np.random.Generator) -> np.ndarray:
    noise = rng.standard_normal(clean.shape)
    signal = np.linalg.norm(clean.astype(np.float64))
    noise *= signal / (np.linalg.norm(noise) * 10.0 ** (snr_db / 20.0))
    return (clean + noise).astype(np.float32)


def psnr(reference: np.ndarray, test: np.ndarray) -> float:
    mse = float(((reference.astype(np.float64) - test.astype(np.float64)) ** 2).mean())
    return 10.0 * math.log10(1.0 / mse)


def write_tensor(path: Path, t: np.ndarray) -> None:
    """The package's v1 tensor file: magic, version, dtype, rank, extents, float32."""
    head = b"STMPTNSR" + struct.pack("<III", 1, 1, t.ndim) + struct.pack(f"<{t.ndim}Q", *t.shape)
    path.write_bytes(head + np.ascontiguousarray(t, dtype="<f4").tobytes())


def read_tensor(path: Path) -> np.ndarray:
    data = path.read_bytes()
    if data[:8] != b"STMPTNSR":
        raise CheckFailed(f"{path.name}: not a tensor file")
    rank = struct.unpack_from("<I", data, 16)[0]
    shape = struct.unpack_from(f"<{rank}Q", data, 20)
    return np.frombuffer(data, dtype="<f4", offset=20 + 8 * rank).reshape(shape)


def write_dictionary(path: Path, atoms: np.ndarray) -> None:
    """The package's v1 dictionary file: magic, version, n, m, atom-major float32."""
    m, n = atoms.shape
    head = b"STMPDICT" + struct.pack("<IQQ", 1, n, m)
    path.write_bytes(head + np.ascontiguousarray(atoms, dtype="<f4").tobytes())


def sample_patches(image: np.ndarray, side: int, count: int, rng) -> np.ndarray:
    """``count`` random side x side windows, mean removed: the first residual
    matching pursuit codes when the flat component is the patch mean."""
    rows = rng.integers(0, image.shape[0] - side + 1, count)
    cols = rng.integers(0, image.shape[1] - side + 1, count)
    patches = np.stack([image[r:r + side, c:c + side].ravel() for r, c in zip(rows, cols)])
    patches = patches.astype(np.float64)
    return patches - patches.mean(axis=1, keepdims=True)


def run_cli(stmp, argv: list[str]) -> None:
    """One in-process ``stmp`` call; a non-zero exit is a failed operation."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = stmp.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    if code != 0:
        raise CheckFailed(f"stmp {argv[0]} exited with code {code}")


@dataclass
class Outcome:
    """What one command produced; ``key`` must repeat exactly."""

    key: tuple
    inner_products: int | None = None
    fidelity_db: float | None = None


class Workload:
    name = ""
    selector = "stmp"          # the query stream's selector

    def __init__(self, stmp, sizes: Sizes, seed: int, work: Path):
        self.stmp = stmp
        self.sizes = sizes
        self.seed = seed
        self.work = work
        self.queries = np.empty((0, 0))
        self.branching: tuple = ()

    def setup(self) -> None:
        raise NotImplementedError

    def command(self) -> Outcome:
        raise NotImplementedError

    def load(self):
        """Cold-load the stream's dictionary and tree (None for exhaustive)."""
        raise NotImplementedError

    def ips_per_select(self, m: int) -> tuple[int, int]:
        """(centroid, total) inner products of one selection."""
        if self.selector == "exact":
            return 0, m
        centroid = self.stmp.pursuit.predicted_ip_count(self.branching, ALPHA)
        leaves = math.prod(self.stmp.pursuit.retained_count(ALPHA, k) for k in self.branching)
        return centroid, centroid + leaves * m // math.prod(self.branching)


class _Restoration(Workload):
    """Shared by the two ``stmp run`` workloads."""

    def _train_dictionary(self) -> None:
        train = scene(self.sizes.train_scene, _rng(self.seed, 0))
        write_tensor(self.work / "train.tnsr", train)
        run_cli(self.stmp, ["build-dict", "--images", str(self.work / "train.tnsr"),
                            "--patch", "8,8", "--stride", "1,1",
                            "--atoms", str(self.sizes.atoms),
                            "--seed", str(_int_seed(self.seed, 1)),
                            "--out", str(self.work / "d.dict")])

    def _run(self, extra: list[str]) -> Outcome:
        out, report = self.work / "out.tnsr", self.work / "report.csv"
        report.unlink(missing_ok=True)
        run_cli(self.stmp, ["run", "--dict", str(self.work / "d.dict"),
                            "--reference", str(self.work / "clean.tnsr"),
                            "--out", str(out), "--report", str(report),
                            "--patch", "8,8", "--k", str(self.sizes.k), "--threads", "1"] + extra)
        row = [f.strip() for f in report.read_text().splitlines()[-1].split(",")]
        reported_psnr, inner_products = float(row[6]), int(row[8])
        restored = read_tensor(out)
        measured = psnr(read_tensor(self.work / "clean.tnsr"), restored)
        if abs(measured - reported_psnr) > 1e-5:
            raise CheckFailed(f"output PSNR {measured:.6f} dB, report says {reported_psnr:.6f}")
        if not measured > self.floor_db:
            raise CheckFailed(f"PSNR {measured:.3f} dB does not beat the floor {self.floor_db:.3f}")
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        return Outcome((digest, inner_products, row[6]), inner_products, measured)


class DenoiseTree(_Restoration):
    name = "denoise-tree"

    def setup(self) -> None:
        s = self.sizes
        self._train_dictionary()
        run_cli(self.stmp, ["build-tree", "--dict", str(self.work / "d.dict"),
                            "--branching", ",".join(map(str, s.branching)),
                            "--seed", str(_int_seed(self.seed, 2)),
                            "--out", str(self.work / "d.tree")])
        clean = scene(s.scene, _rng(self.seed, 3))
        noisy = add_noise(clean, 10.0, _rng(self.seed, 4))
        write_tensor(self.work / "clean.tnsr", clean)
        write_tensor(self.work / "noisy.tnsr", noisy)
        self.floor_db = psnr(clean, noisy)
        self.queries = sample_patches(noisy, 8, s.queries, _rng(self.seed, 5))
        self.branching = s.branching

    def command(self) -> Outcome:
        return self._run(["--task", "denoise", "--in", str(self.work / "noisy.tnsr"),
                          "--tree", str(self.work / "d.tree"), "--stride", "2,2",
                          "--selector", "stmp", "--alpha", str(ALPHA)])

    def load(self):
        stmp = self.stmp
        d = stmp.dictionary.load_dictionary(self.work / "d.dict")
        tree = stmp.clustering.load_tree(self.work / "d.tree")
        _check_tree(stmp, tree, d)
        return d, tree


class SuperresExhaustive(_Restoration):
    name = "superres-exhaustive"
    selector = "exact"

    def setup(self) -> None:
        s = self.sizes
        self._train_dictionary()
        clean = scene(s.superres_scene, _rng(self.seed, 6))
        half = s.superres_scene // 2
        lowres = clean.reshape(half, 2, half, 2).astype(np.float64).mean(axis=(1, 3))
        lowres = lowres.astype(np.float32)
        write_tensor(self.work / "clean.tnsr", clean)
        write_tensor(self.work / "lowres.tnsr", lowres)
        self.floor_db = psnr(clean, np.repeat(np.repeat(lowres, 2, 0), 2, 1))
        self.queries = sample_patches(lowres, 4, s.queries, _rng(self.seed, 7))

    def command(self) -> Outcome:
        return self._run(["--task", "superres", "--in", str(self.work / "lowres.tnsr"),
                          "--stride", "1,1", "--selector", "exact", "--factor", "2"])

    def load(self):
        stmp = self.stmp
        d = stmp.dictionary.load_dictionary(self.work / "d.dict")
        op = stmp.operators.block_average_operator((8, 8), (2, 2))
        return stmp.operators.project_dictionary(d, op).dictionary, None


class TreeLifecycle(Workload):
    name = "tree-lifecycle"

    def setup(self) -> None:
        s = self.sizes
        rng = _rng(self.seed, 8)
        raw = rng.standard_normal((s.lifecycle_atoms, s.lifecycle_dim))
        write_dictionary(self.work / "atoms.dict",
                         raw / np.linalg.norm(raw, axis=1, keepdims=True))
        self.queries = rng.standard_normal((s.queries, s.lifecycle_dim))
        self.branching = s.lifecycle_branching

    def command(self) -> Outcome:
        tree = self.work / "atoms.tree"
        tree.unlink(missing_ok=True)
        run_cli(self.stmp, ["build-tree", "--dict", str(self.work / "atoms.dict"),
                            "--branching", ",".join(map(str, self.branching)),
                            "--seed", str(_int_seed(self.seed, 9)), "--out", str(tree)])
        return Outcome((hashlib.sha256(tree.read_bytes()).hexdigest(),))

    def load(self):
        stmp = self.stmp
        d = stmp.dictionary.load_dictionary(self.work / "atoms.dict")
        tree = stmp.clustering.load_tree(self.work / "atoms.tree")
        _check_tree(stmp, tree, d)
        return d, tree


def _check_tree(stmp, tree, d) -> None:
    report = stmp.clustering.validate_tree(tree, d)
    if not report.ok:
        raise CheckFailed(f"validate_tree: {report.violation}")


WORKLOADS = {w.name: w for w in (DenoiseTree, SuperresExhaustive, TreeLifecycle)}

"""Trade search accuracy for inner products with a cluster tree.

Builds one over-complete dictionary and its two-level tree, then answers
the same queries exhaustively and through the tree at several retention
fractions, printing measured costs next to the closed-form prediction.
Last, it times a tree pick per row: lone ``stmp_select`` calls, and
``TreeSelector.pick`` on batches of 1, 7, 64 and 1024 rows, on that tree
and on one of the same shape over 5003 atoms, whose leaves are uneven; and
the 1024-row pick at alpha 1, where every row's leaves hold every atom.
Then it times ``ExactSelector.pick`` per row on the same batches: the scan
filters its rows in blocks of its own, so the cost per row stays flat from
64 rows up.  The tree's build time is printed first.

    python demos/tree_search_costs.py [--paper-scale]

``--paper-scale`` instead works on a seeded Gaussian dictionary of
m = 100000 atoms of dimension 64, the paper's regime.  It first saves the
dictionary and, in a fresh process, loads it and prints the first
``Dictionary.max_norm`` time and how far the peak RSS grows past the load
through an ``ExactSelector`` set-up and one 1024-row pick.  Then it builds
a (100, 10, 10) and a (1000, 100) tree and prints each one's build time
and the process's peak RSS right after it.  Then it times ``save_tree``
and ``load_tree`` (best of 3) and prints the file's size, the traced
(``tracemalloc``) peak of one ``load_tree`` beside it, and the file's
SHA-256 beside a SHA-256 of the loaded arrays (each depth's float32
centroids, the offsets, the atoms), which a format change that keeps the
tree leaves as it is.  It answers 512 seeded Gaussian queries through each
tree at alpha 0.1 and exhaustively, and prints how often the picks agree
and the mean ratio of the tree pick's |score| to the exhaustive one's.
"""

import argparse
import hashlib
import math
import multiprocessing
from pathlib import Path
import resource
import tempfile
import time
import tracemalloc

import numpy as np

from stmp import (
    ExactSelector,
    ScoreCounter,
    TreeSelector,
    build_tree,
    exact_select,
    load_dictionary,
    load_tree,
    normalize_columns,
    predicted_ip_count,
    save_dictionary,
    save_tree,
    stmp_select,
)


def main():
    rng = np.random.default_rng(7)
    m, n = 5000, 32
    d = normalize_columns(rng.standard_normal((m, n)))
    branching = (50, 10)
    start = time.perf_counter()
    tree = build_tree(d, branching, seed=8)
    build_s = time.perf_counter() - start
    queries = rng.standard_normal((200, n))

    print(f"dictionary m={m}, tree branching {branching}, built in {build_s:.2f} s")
    print("alpha  agree   centroid ip  predicted  total ip  exact ip")
    for alpha in (1.0, 0.5, 0.2, 0.1, 0.05):
        agree = 0
        tree_counter = ScoreCounter()
        exact_counter = ScoreCounter()
        for q in queries:
            best, _ = exact_select(d, q, exact_counter)
            found, _ = stmp_select(tree, d, q, alpha, tree_counter)
            agree += int(found == best)
        predicted = predicted_ip_count(branching, alpha)
        per_query_centroid = tree_counter.centroid_inner_products // len(queries)
        per_query_total = tree_counter.inner_products // len(queries)
        print(f"{alpha:5.2f}  {agree / len(queries):5.2f}  "
              f"{per_query_centroid:11d}  {predicted:9d}  "
              f"{per_query_total:8d}  {exact_counter.inner_products // len(queries):8d}")

    print("\ncentroid comparisons match the prediction at every alpha;")
    print("the total adds the atoms scored inside surviving leaves.")

    alpha = 0.1
    rows = rng.standard_normal((1024, n))
    # 5003 atoms do not divide into 50 x 10 leaves of equal size, so nodes of
    # one depth have unequal child counts and the search reads padded blocks
    d_uneven = normalize_columns(rng.standard_normal((m + 3, n)))
    cases = [(tree, d), (build_tree(d_uneven, branching, seed=8), d_uneven)]
    print(f"\nwall time per tree pick at alpha {alpha}, best of 3 runs, in microseconds:")
    print(f"                        m={m:<6d} m={m + 3}")
    lone = [_us_per_row(lambda: [stmp_select(t, dd, q, alpha) for q in rows[:200]], 200)
            for t, dd in cases]
    print("  lone stmp_select    " + "".join(f"{us:9.1f}" for us in lone))
    selectors = [TreeSelector(t, dd, alpha) for t, dd in cases]
    for size in (1, 7, 64, 1024):
        batched = [_us_per_row(lambda: _in_batches(s, rows, size), len(rows)) for s in selectors]
        print(f"  pick, batch of {size:4d}" + "".join(f"{us:9.1f}" for us in batched))
    # at alpha 1 every leaf survives, so a row's leaf frontier is the whole dictionary
    wide = [TreeSelector(t, dd, 1.0) for t, dd in cases]
    print("  pick, 1024, alpha 1" + "".join(f"{_us_per_row(lambda: s.pick(rows), len(rows)):9.1f}"
                                            for s in wide))

    exact = [ExactSelector(dd) for _, dd in cases]
    print("\nwall time per exhaustive pick, best of 3 runs, in microseconds:")
    print(f"                        m={m:<6d} m={m + 3}")
    for size in (1, 7, 64, 1024):
        batched = [_us_per_row(lambda: _in_batches(s, rows, size), len(rows)) for s in exact]
        print(f"  pick, batch of {size:4d}" + "".join(f"{us:9.1f}" for us in batched))


def paper_scale(shapes=((100, 10, 10), (1000, 100))):
    """Build time, ``.tree`` SHA-256 and search quality at alpha 0.1 of a
    tree of each shape over a seeded Gaussian m = 100000, n = 64 dictionary."""
    m, n, seed, alpha = 100_000, 64, 7, 0.1
    d = normalize_columns(np.random.default_rng(5).standard_normal((m, n)))
    queries = np.random.default_rng(6).standard_normal((512, n))
    best, best_scores = ExactSelector(d).pick(queries)
    print(f"Gaussian dictionary m={m}, n={n}, tree seed {seed}; "
          f"{len(queries)} Gaussian queries at alpha {alpha}")
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "paper.dict"
        save_dictionary(d, path)
        # a fresh process, so the peak this one reached building d does not hide the growth
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            max_norm_ms, growth_mb = pool.apply(_load_and_pick, (str(path),))
    print(f"after load_dictionary: first max_norm {max_norm_ms:.2f} ms; ExactSelector set-up and "
          f"one 1024-row pick grow the peak RSS by {growth_mb:.1f} MB")
    for branching in shapes:
        start = time.perf_counter()
        tree = build_tree(d, branching, seed=seed)
        build_s = time.perf_counter() - start
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "paper.tree"
            save_ms = _us_per_row(lambda: save_tree(tree, path), 1) / 1e3
            load_ms = _us_per_row(lambda: load_tree(path), 1) / 1e3
            size = path.stat().st_size
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            tracemalloc.start()
            try:
                loaded = load_tree(path)
                load_peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            arrays = _arrays_sha256(loaded)
        found, scores = TreeSelector(tree, d, alpha).pick(queries)
        ratio = np.mean(np.abs(scores) / np.abs(best_scores))
        print(f"branching {branching}: build_tree {build_s:.2f} s, "
              f"process peak RSS so far {peak_mb:.1f} MB")
        print(f"  save_tree {save_ms:.2f} ms, load_tree {load_ms:.2f} ms, {size} bytes, "
              f"load_tree traced peak {load_peak} bytes ({load_peak / size:.2f}x the file)")
        print(f"  file SHA-256 {digest}, arrays SHA-256 {arrays}")
        print(f"  agreement with exhaustive {np.mean(found == best):.3f}, "
              f"mean |score| ratio {ratio:.4f}")


def _load_and_pick(path: str):
    """Loads a dictionary, then returns the first ``max_norm``'s time in ms
    and the peak-RSS growth in MB of an ``ExactSelector`` set-up and one pick
    of 1024 seeded Gaussian rows."""
    d = load_dictionary(path)
    queries = np.random.default_rng(8).standard_normal((1024, d.n))
    before = _peak_rss_mb()
    start = time.perf_counter()
    d.max_norm
    max_norm_ms = 1e3 * (time.perf_counter() - start)
    ExactSelector(d).pick(queries)
    return max_norm_ms, _peak_rss_mb() - before


def _peak_rss_mb() -> float:
    """This process's peak RSS (Linux's VmHWM), which a new program starts
    afresh; ``ru_maxrss`` would carry over the peak of the process that
    started it."""
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024


def _arrays_sha256(tree) -> str:
    """SHA-256 of a tree's arrays: each depth's centroids as float32 bytes,
    then each depth's int64 offsets, then the int64 atoms."""
    h = hashlib.sha256()
    for rows in tree.centroids:
        h.update(rows.astype("<f4").tobytes())
    for bounds in tree.offsets:
        h.update(bounds.astype("<i8").tobytes())
    h.update(tree.atoms.astype("<i8").tobytes())
    return h.hexdigest()


def _in_batches(selector, rows, size: int):
    """``selector.pick`` over ``rows``, ``size`` rows per call."""
    return [selector.pick(rows[start:start + size]) for start in range(0, len(rows), size)]


def _us_per_row(call, count: int) -> float:
    """The fastest of 3 timed runs of ``call()``, in microseconds per row."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return 1e6 * best / count


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Tree search and build costs.", allow_abbrev=False)
    parser.add_argument("--paper-scale", action="store_true",
                        help="time a load and pick, and (100, 10, 10) and (1000, 100) builds, "
                             "over m = 100000 atoms of dimension 64")
    # known arguments only, so a caller's own flags (a test runner's) pass by
    if parser.parse_known_args()[0].paper_scale:
        paper_scale()
    else:
        main()

"""Command-line front end: dictionary and tree building, restoration runs,
and selector benchmarks.

Every command accepts an optional JSON config file whose keys mirror the
long flag names (dashes as underscores); explicit flags override the file.
All randomness flows from --seed.  Each command writes a JSON manifest next
to its main output recording the merged parameters, so a run can be
reproduced from its artifacts alone; wall-clock time and the thread count
are deliberately left out of both manifest and comparisons.

Exit codes: 0 success, 1 domain error (bad file, insufficient data, stale
tree), 2 usage error.
"""

import argparse
import json
import sys

import numpy as np

from . import __version__
from .clustering import build_tree, load_tree, save_tree
from .dictionary import (
    ScoreCounter,
    build_from_patches,
    load_dictionary,
    normalize_columns,
    save_dictionary,
)
from .operators import (
    block_average_operator,
    coded_exposure_operator,
    identity_operator,
    load_row_selection,
    project_dictionary,
    random_exposure_mask,
    row_select_operator,
    view_selection_rows,
)
from .pipelines import (
    CSV_HEADER,
    TaskConfig,
    compressive_recover,
    denoise,
    masked_recover,
    super_resolve,
)
from .pursuit import check_alpha, exact_select, stmp_select
from .tensor import extract_patches, load_pgm, load_tensor, save_pgm, save_tensor

BENCH_HEADER = "m, alpha, exact_ip, stmp_ip, stmp_centroid_ip, agreement"


def _dims(value) -> tuple[int, ...]:
    """'16,16' or a JSON list -> tuple of positive ints."""
    parts = value.split(",") if isinstance(value, str) else value
    dims = tuple(int(p) for p in parts)
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"expected positive comma-separated dimensions, got {value!r}")
    return dims


def _branching(value) -> tuple[int, ...]:
    dims = _dims(value)
    if any(k < 2 for k in dims):
        raise ValueError(f"branching entries must be at least 2, got {value!r}")
    return dims


def _branching_list(value) -> tuple[tuple[int, ...], ...]:
    """Semicolon-separated branchings, one per dictionary size (or one shared)."""
    if isinstance(value, str):
        return tuple(_branching(part) for part in value.split(";"))
    if value and isinstance(value[0], (list, tuple)):
        return tuple(_branching(part) for part in value)
    return (_branching(value),)


def _alpha_list(value) -> tuple[float, ...]:
    parts = value.split(",") if isinstance(value, str) else value
    alphas = tuple(check_alpha(p) for p in parts)
    if not alphas:
        raise ValueError("need at least one alpha")
    return alphas


def _views(value) -> tuple[tuple[int, int], ...]:
    """'0,2;4,0;4,4' or a JSON list of pairs -> view coordinates."""
    if isinstance(value, str):
        pairs = [part.split(",") for part in value.split(";") if part]
    else:
        pairs = value
    views = tuple((int(u), int(v)) for u, v in pairs)
    if not views:
        raise ValueError("need at least one view")
    return views


def _positive(value) -> int:
    n = int(value)
    if n < 1:
        raise ValueError(f"expected a positive integer, got {value!r}")
    return n


def _tolerance(value) -> float:
    t = float(value)
    if t < 0:
        raise ValueError(f"tolerance must be non-negative, got {value!r}")
    return t


_CONVERTERS = {
    "patch": _dims,
    "stride": _dims,
    "branching": _branching,
    "branchings": _branching_list,
    "alpha": check_alpha,
    "alphas": _alpha_list,
    "views": _views,
    "atoms": _positive,
    "k": _positive,
    "queries": _positive,
    "dim": _positive,
    "threads": _positive,
    "factor": _positive,
    "mask_open": _positive,
    "seed": int,
    "tolerance": _tolerance,
    "dict_sizes": _dims,
}


def _merge(ns: argparse.Namespace, defaults: dict, sub: argparse.ArgumentParser) -> dict:
    """Layer defaults, then JSON config, then explicit flags."""
    values = dict(defaults)
    config_path = getattr(ns, "config", None)
    if config_path is not None:
        with open(config_path) as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                sub.error(f"config {config_path}: {exc}")
        if not isinstance(loaded, dict):
            sub.error(f"config {config_path}: expected a JSON object")
        for key, value in loaded.items():
            key = key.replace("-", "_")
            if key not in values:
                sub.error(f"config {config_path}: unknown key {key!r}")
            if key in _CONVERTERS:
                try:
                    value = _CONVERTERS[key](value)
                except (ValueError, TypeError) as exc:
                    sub.error(f"config {config_path}: key {key!r}: {exc}")
            values[key] = value
    for key in values:
        flag = getattr(ns, key, None)
        if flag is not None:
            values[key] = flag
    return values


def _require(values: dict, keys, sub: argparse.ArgumentParser) -> None:
    for key in keys:
        if values[key] is None:
            sub.error(f"missing --{key.replace('_', '-')}")


def _load_input(path: str) -> np.ndarray:
    if str(path).endswith(".pgm"):
        return load_pgm(path)
    return load_tensor(path)


def _save_output(t: np.ndarray, path: str) -> None:
    if str(path).endswith(".pgm"):
        save_pgm(t, path)
    else:
        save_tensor(t, path)


def _write_manifest(command: str, values: dict, outputs, path: str) -> None:
    parameters = {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in values.items()
        if key not in ("threads", "config")
    }
    manifest = {
        "command": command,
        "version": __version__,
        "parameters": parameters,
        "outputs": [str(p) for p in outputs],
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _append_report(row: str, path: str | None) -> None:
    if path is None:
        return
    try:
        with open(path) as fh:
            has_header = fh.readline().strip() == CSV_HEADER
    except FileNotFoundError:
        has_header = False
    with open(path, "a") as fh:
        if not has_header:
            fh.write(CSV_HEADER + "\n")
        fh.write(row + "\n")


def _spawn_seed(seed: int, *key: int) -> int:
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(key))
    return int(seq.generate_state(1, np.uint64)[0])


def _cmd_build_dict(ns, sub) -> int:
    defaults = {
        "images": None, "patch": None, "stride": None,
        "atoms": None, "seed": 0, "out": None,
    }
    values = _merge(ns, defaults, sub)
    _require(values, ("images", "patch", "stride", "atoms", "out"), sub)
    pool = []
    for path in values["images"]:
        tensor = _load_input(path)
        _, patches = extract_patches(tensor, values["patch"], values["stride"])
        pool.append(patches)
    d = build_from_patches(np.concatenate(pool), values["atoms"], values["seed"])
    save_dictionary(d, values["out"])
    _write_manifest("build-dict", values, [values["out"]], values["out"] + ".manifest.json")
    print(f"n={d.n} m={d.m}")
    return 0


def _cmd_build_tree(ns, sub) -> int:
    defaults = {"dict": None, "branching": None, "seed": 0, "out": None}
    values = _merge(ns, defaults, sub)
    _require(values, ("dict", "branching", "out"), sub)
    d = load_dictionary(values["dict"])
    tree = build_tree(d, values["branching"], values["seed"])
    save_tree(tree, values["out"])
    _write_manifest("build-tree", values, [values["out"]], values["out"] + ".manifest.json")
    print(f"levels={tree.levels} branching={','.join(str(k) for k in tree.branching)} atoms={d.m}")
    return 0


def _tree_for(values, d, op, sub):
    """Load the tree if a path was given, else build one in place over the
    dictionary as ``op`` measures it."""
    if values["selector"] != "stmp":
        return None
    if values["tree"] is not None:
        return load_tree(values["tree"])
    if values["branching"] is None:
        sub.error("the stmp selector needs --tree or --branching")
    return build_tree(project_dictionary(d, op).dictionary, values["branching"], values["seed"])


def _cmd_run(ns, sub) -> int:
    defaults = {
        "task": None, "input": None, "dict": None, "tree": None, "out": None,
        "report": None, "reference": None, "selector": "stmp", "alpha": 0.1,
        "k": None, "patch": None, "stride": None, "branching": None, "seed": 0,
        "threads": 1, "tolerance": None, "factor": 4, "mask": None,
        "mask_open": 3, "rows": None, "views": None,
    }
    values = _merge(ns, defaults, sub)
    _require(values, ("task", "input", "dict", "out", "k", "patch"), sub)
    task = values["task"]
    patch = values["patch"]
    if task == "maskrecover" and (values["rows"] is None) == (values["views"] is None):
        sub.error("maskrecover needs exactly one of --rows or --views")
    if task == "csrecover":
        stride = patch
    else:
        _require(values, ("stride",), sub)
        stride = values["stride"]
    cfg = TaskConfig(
        patch_shape=patch,
        stride=stride,
        K=values["k"],
        alpha=values["alpha"],
        residual_tolerance=values["tolerance"],
        selector=values["selector"],
    )
    observed = _load_input(values["input"])
    d = load_dictionary(values["dict"])
    reference = None if values["reference"] is None else _load_input(values["reference"])

    if task == "denoise":
        tree = _tree_for(values, d, identity_operator(d.n), sub)
        restored, report = denoise(observed, d, tree, cfg, reference=reference)
    elif task == "superres":
        op = block_average_operator(patch, (values["factor"],) * len(patch))
        tree = _tree_for(values, d, op, sub)
        restored, report = super_resolve(
            observed, d, tree, cfg, factor=values["factor"], reference=reference
        )
    elif task == "csrecover":
        if values["mask"] is not None:
            mask = load_tensor(values["mask"])
        else:
            mask = random_exposure_mask(patch[:-1], patch[-1], values["mask_open"], values["seed"])
        op = coded_exposure_operator(mask)
        tree = _tree_for(values, d, op, sub)
        restored, report = compressive_recover(
            observed, op, d, tree, cfg, reference=reference
        )
    elif task == "maskrecover":
        if values["rows"] is not None:
            rows = load_row_selection(values["rows"])
        else:
            rows = view_selection_rows(patch, values["views"])
        op = row_select_operator(d.n, rows)
        tree = _tree_for(values, d, op, sub)
        restored, report = masked_recover(
            observed, op, d, tree, cfg, reference=reference
        )
    else:
        sub.error(f"unknown task {task!r}")

    _save_output(restored, values["out"])
    row = report.csv_row()
    _append_report(row, values["report"])
    outputs = [values["out"]] + ([values["report"]] if values["report"] else [])
    _write_manifest("run", values, outputs, values["out"] + ".manifest.json")
    print(CSV_HEADER)
    print(row)
    return 0


def _cmd_benchmark(ns, sub) -> int:
    defaults = {
        "dict_sizes": None, "dim": 32, "branchings": None, "alphas": (1.0,),
        "queries": 200, "seed": 0, "out": None,
    }
    values = _merge(ns, defaults, sub)
    _require(values, ("dict_sizes", "branchings", "out"), sub)
    sizes = values["dict_sizes"]
    branchings = values["branchings"]
    if len(branchings) == 1:
        branchings = branchings * len(sizes)
    if len(branchings) != len(sizes):
        sub.error(
            f"got {len(branchings)} branchings for {len(sizes)} dictionary sizes; "
            "give one, or one per size separated by ';'"
        )
    lines = [BENCH_HEADER]
    for i, (m, branching) in enumerate(zip(sizes, branchings)):
        raw = np.random.default_rng(
            np.random.SeedSequence(entropy=values["seed"], spawn_key=(i, 0))
        ).standard_normal((m, values["dim"]))
        d = normalize_columns(raw)
        tree = build_tree(d, branching, _spawn_seed(values["seed"], i, 1))
        queries = np.random.default_rng(
            np.random.SeedSequence(entropy=values["seed"], spawn_key=(i, 2))
        ).standard_normal((values["queries"], values["dim"]))
        for alpha in values["alphas"]:
            exact_total = 0
            stmp_total = 0
            stmp_centroid = 0
            agree = 0
            for q in queries:
                exact_counter = ScoreCounter()
                exact_index, _ = exact_select(d, q, exact_counter)
                tree_counter = ScoreCounter()
                tree_index, _ = stmp_select(tree, d, q, alpha, tree_counter)
                exact_total += exact_counter.inner_products
                stmp_total += tree_counter.inner_products
                stmp_centroid += tree_counter.centroid_inner_products
                agree += int(exact_index == tree_index)
            count = len(queries)
            lines.append(
                f"{m}, {alpha:g}, {exact_total / count:.3f}, {stmp_total / count:.3f}, "
                f"{stmp_centroid / count:.3f}, {agree / count:.4f}"
            )
    with open(values["out"], "w") as fh:
        fh.write("\n".join(lines) + "\n")
    _write_manifest("benchmark", values, [values["out"]], values["out"] + ".manifest.json")
    for line in lines:
        print(line)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stmp",
        description="Sparse coding over shallow balanced dictionary trees.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("build-dict", help="sample a patch dictionary from images")
    p.add_argument("--images", nargs="+", help="training images (.pgm) or tensors")
    p.add_argument("--patch", type=_dims, help="patch extents, e.g. 16,16")
    p.add_argument("--stride", type=_dims, help="sampling stride, e.g. 2,2")
    p.add_argument("--atoms", type=_positive, help="dictionary size m")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output dictionary file")
    p.add_argument("--config", help="JSON config file mirroring these flags")
    p.set_defaults(handler=_cmd_build_dict, subparser=p)

    p = commands.add_parser("build-tree", help="build a shallow cluster tree over a dictionary")
    p.add_argument("--dict", help="dictionary file")
    p.add_argument("--branching", type=_branching, help="per-level fan-out, e.g. 100,10,10")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output tree file")
    p.add_argument("--config", help="JSON config file mirroring these flags")
    p.set_defaults(handler=_cmd_build_tree, subparser=p)

    p = commands.add_parser("run", help="run a restoration task")
    p.add_argument("--task", choices=("denoise", "superres", "csrecover", "maskrecover"))
    p.add_argument("--in", dest="input", help="input tensor or image")
    p.add_argument("--dict", help="dictionary file")
    p.add_argument("--tree", help="tree file (else built in place from --branching)")
    p.add_argument("--selector", choices=("exact", "stmp"))
    p.add_argument("--alpha", type=check_alpha, help="retention fraction in (0, 1]")
    p.add_argument("--k", type=_positive, help="atoms per patch")
    p.add_argument("--patch", type=_dims, help="dictionary patch extents")
    p.add_argument("--stride", type=_dims, help="patch grid stride")
    p.add_argument("--branching", type=_branching)
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=_positive,
                   help="accepted and ignored: coding runs batched in one thread")
    p.add_argument("--tolerance", type=_tolerance, help="absolute residual stopping tolerance")
    p.add_argument("--factor", type=_positive, help="superres upscale factor per axis")
    p.add_argument("--mask", help="csrecover: exposure mask tensor file (else generated from --seed)")
    p.add_argument("--mask-open", dest="mask_open", type=_positive,
                   help="csrecover: open frames per generated mask pixel")
    p.add_argument("--rows", help="maskrecover: row-selection file")
    p.add_argument("--views", type=_views, help="maskrecover: kept views, e.g. 0,2;4,0;4,4")
    p.add_argument("--reference", help="clean reference for PSNR/SNR")
    p.add_argument("--out", help="restored output tensor or image")
    p.add_argument("--report", help="CSV file to append the task report row to")
    p.add_argument("--config", help="JSON config file mirroring these flags")
    p.set_defaults(handler=_cmd_run, subparser=p)

    p = commands.add_parser("benchmark", help="selector cost and agreement sweep")
    p.add_argument("--dict-sizes", dest="dict_sizes", type=_dims, help="e.g. 1000,4000,16000")
    p.add_argument("--dim", type=_positive, help="atom dimension for the synthetic dictionaries")
    p.add_argument("--branching", dest="branchings", type=_branching_list,
                   help="fan-out per size, ';'-separated (one entry is shared)")
    p.add_argument("--alpha", dest="alphas", type=_alpha_list, help="comma-separated alphas")
    p.add_argument("--queries", type=_positive)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output CSV")
    p.add_argument("--config", help="JSON config file mirroring these flags")
    p.set_defaults(handler=_cmd_benchmark, subparser=p)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.handler(ns, ns.subparser)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

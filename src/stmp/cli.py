"""Command-line front end: dictionary and tree building, restoration runs,
and selector benchmarks.

Each parameter is declared once, by its add_argument: converter, choices,
list-ness and default.  A command's optional JSON config is keyed by those
dests; each value passes its flag's own checks and fails with the same
reason, a null keeps the default, and explicit flags override the file.
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
from .clustering import _derived_seed, _seed_sequence, build_tree, load_tree, save_tree
from .dictionary import (
    ScoreCounter,
    build_from_patches,
    load_dictionary,
    normalize_columns,
    save_dictionary,
)
from .operators import (
    coded_exposure_operator,
    load_row_selection,
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


def _int(value) -> int:
    """An int from a flag's text or a JSON number; booleans and fractions are refused."""
    if not (isinstance(value, bool) or isinstance(value, float) and not value.is_integer()):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"expected an integer, got {value!r}")


def _parts(value, sep: str, form: str):
    """A flag's text split on ``sep``, or a config's JSON list as it is; any
    other value is refused, naming the expected ``form``."""
    if isinstance(value, str):
        return value.split(sep)
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"expected {form}, got {value!r}")
    return value


def _dims(value) -> tuple[int, ...]:
    """'16,16' or a JSON list -> tuple of positive ints."""
    parts = _parts(value, ",", "an integer list or comma-separated integers")
    dims = tuple(_int(p) for p in parts)
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
    parts = _parts(value, ";", "a list of branchings or semicolon-separated branchings")
    if isinstance(value, str) or parts and isinstance(parts[0], (list, tuple)):
        return tuple(_branching(part) for part in parts)
    return (_branching(parts),)


def _alpha_list(value) -> tuple[float, ...]:
    parts = _parts(value, ",", "a list of numbers or comma-separated numbers")
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
    if not isinstance(pairs, (list, tuple)) or not pairs or any(
            not isinstance(pair, (list, tuple)) or len(pair) != 2 for pair in pairs):
        raise ValueError(f"expected one or more u,v view pairs, got {value!r}")
    return tuple((_int(u), _int(v)) for u, v in pairs)


def _positive(value) -> int:
    n = _int(value)
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    return n


def _seed(value) -> int:
    seed = _int(value)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


def _paths(value) -> list[str]:
    """A JSON list of file paths; a lone string would iterate by character."""
    if not isinstance(value, list) or not value or not all(isinstance(p, str) for p in value):
        raise ValueError(f"expected a non-empty list of paths, got {value!r}")
    return value


def _tolerance(value) -> float:
    try:
        if isinstance(value, bool):  # float() would read a JSON false as 0.0
            raise TypeError
        t = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"expected a number, got {value!r}") from None
    if not t >= 0:
        raise ValueError(f"tolerance must be non-negative, got {t}")
    return t


def _string(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _usage(convert):
    """A converter as an argparse ``type=``: its ValueError or TypeError becomes
    a usage error that prints the converter's reason."""
    def check(value):
        try:
            return convert(value)
        except (ValueError, TypeError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return check


def _parameters(sub: argparse.ArgumentParser) -> dict:
    """The command's parameters by dest: every flag but --help and --config."""
    return {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}


def _config_defaults(path: str, sub: argparse.ArgumentParser) -> dict:
    """A JSON config's values, each through the checks of the flag it names;
    a null keeps the flag's default, as an absent flag does."""
    with open(path) as fh:
        try:
            loaded = json.load(fh)
        except json.JSONDecodeError as exc:
            sub.error(f"config {path}: {exc}")
    if not isinstance(loaded, dict):
        sub.error(f"config {path}: expected a JSON object")
    parameters = _parameters(sub)
    checked = {}
    for key, value in loaded.items():
        key = key.replace("-", "_")
        if key not in parameters:
            sub.error(f"config {path}: unknown key {key!r}")
        if value is None:
            continue
        action = parameters[key]
        convert = action.type or _usage(_paths if action.nargs == "+" else _string)
        try:
            checked[key] = convert(value)
            sub._check_value(action, checked[key])
        except (argparse.ArgumentTypeError, argparse.ArgumentError) as exc:
            sub.error(f"config {path}: key {key!r}: {getattr(exc, 'message', exc)}")
    return checked


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
        if key != "threads"
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


def _cmd_build_dict(values, sub) -> int:
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


def _cmd_build_tree(values, sub) -> int:
    _require(values, ("dict", "branching", "out"), sub)
    d = load_dictionary(values["dict"])
    tree = build_tree(d, values["branching"], values["seed"])
    save_tree(tree, values["out"])
    _write_manifest("build-tree", values, [values["out"]], values["out"] + ".manifest.json")
    print(f"levels={tree.levels} branching={','.join(str(k) for k in tree.branching)} atoms={d.m}")
    return 0


def _tree_for(values, sub):
    """Load the tree if a path was given, else return a builder the pipeline
    calls on the projected dictionary it codes against."""
    if values["selector"] != "stmp":
        return None
    if values["tree"] is not None:
        return load_tree(values["tree"])
    if values["branching"] is None:
        sub.error("the stmp selector needs --tree or --branching")
    return lambda projected: build_tree(projected, values["branching"], values["seed"])


def _cmd_run(values, sub) -> int:
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

    tree = _tree_for(values, sub)
    if task == "denoise":
        restored, report = denoise(observed, d, tree, cfg, reference=reference)
    elif task == "superres":
        restored, report = super_resolve(
            observed, d, tree, cfg, factor=values["factor"], reference=reference
        )
    elif task == "csrecover":
        if values["mask"] is not None:
            mask = load_tensor(values["mask"])
        else:
            mask = random_exposure_mask(patch[:-1], patch[-1], values["mask_open"], values["seed"])
        op = coded_exposure_operator(mask)
        restored, report = compressive_recover(observed, op, d, tree, cfg, reference=reference)
    else:
        if values["rows"] is not None:
            rows = load_row_selection(values["rows"])
        else:
            rows = view_selection_rows(patch, values["views"])
        op = row_select_operator(d.n, rows)
        restored, report = masked_recover(observed, op, d, tree, cfg, reference=reference)

    _save_output(restored, values["out"])
    row = report.csv_row()
    _append_report(row, values["report"])
    outputs = [values["out"]] + ([values["report"]] if values["report"] else [])
    _write_manifest("run", values, outputs, values["out"] + ".manifest.json")
    print(CSV_HEADER)
    print(row)
    return 0


def _cmd_benchmark(values, sub) -> int:
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
        rng = np.random.default_rng(_seed_sequence(values["seed"], i, 0))
        d = normalize_columns(rng.standard_normal((m, values["dim"])))
        tree = build_tree(d, branching, _derived_seed(values["seed"], i, 1))
        rng = np.random.default_rng(_seed_sequence(values["seed"], i, 2))
        queries = rng.standard_normal((values["queries"], values["dim"]))
        count = len(queries)
        exact_counter = ScoreCounter()
        exact = [exact_select(d, q, exact_counter)[0] for q in queries]
        for alpha in values["alphas"]:
            tree_counter = ScoreCounter()
            agree = sum(stmp_select(tree, d, q, alpha, tree_counter)[0] == best
                        for q, best in zip(queries, exact))
            lines.append(
                f"{m}, {alpha:g}, {exact_counter.inner_products / count:.3f}, "
                f"{tree_counter.inner_products / count:.3f}, "
                f"{tree_counter.centroid_inner_products / count:.3f}, {agree / count:.4f}"
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
    dims, positive, branching = _usage(_dims), _usage(_positive), _usage(_branching)

    p = commands.add_parser("build-dict", help="sample a patch dictionary from images")
    p.add_argument("--images", nargs="+", help="training images (.pgm) or tensors")
    p.add_argument("--patch", type=dims, help="patch extents, e.g. 16,16")
    p.add_argument("--stride", type=dims, help="sampling stride, e.g. 2,2")
    p.add_argument("--atoms", type=positive, help="dictionary size m")
    p.add_argument("--out", help="output dictionary file")
    p.set_defaults(handler=_cmd_build_dict, subparser=p)

    p = commands.add_parser("build-tree", help="build a shallow cluster tree over a dictionary")
    p.add_argument("--dict", help="dictionary file")
    p.add_argument("--branching", type=branching, help="per-level fan-out, e.g. 100,10,10")
    p.add_argument("--out", help="output tree file")
    p.set_defaults(handler=_cmd_build_tree, subparser=p)

    p = commands.add_parser("run", help="run a restoration task")
    p.add_argument("--task", choices=("denoise", "superres", "csrecover", "maskrecover"))
    p.add_argument("--in", dest="input", help="input tensor or image")
    p.add_argument("--dict", help="dictionary file")
    p.add_argument("--tree", help="tree file (else built in place from --branching)")
    p.add_argument("--selector", choices=("exact", "stmp"), default="stmp")
    p.add_argument("--alpha", type=_usage(check_alpha), default=0.1,
                   help="retention fraction in (0, 1]")
    p.add_argument("--k", type=positive, help="atoms per patch")
    p.add_argument("--patch", type=dims, help="dictionary patch extents")
    p.add_argument("--stride", type=dims, help="patch grid stride")
    p.add_argument("--branching", type=branching)
    p.add_argument("--threads", type=positive, default=1,
                   help="accepted and ignored: coding runs batched in one thread")
    p.add_argument("--tolerance", type=_usage(_tolerance),
                   help="absolute residual stopping tolerance")
    p.add_argument("--factor", type=positive, default=4, help="superres upscale factor per axis")
    p.add_argument("--mask", help="csrecover: exposure mask tensor file (else generated from --seed)")
    p.add_argument("--mask-open", dest="mask_open", type=positive, default=3,
                   help="csrecover: open frames per generated mask pixel")
    p.add_argument("--rows", help="maskrecover: row-selection file")
    p.add_argument("--views", type=_usage(_views),
                   help="maskrecover: kept views, e.g. 0,2;4,0;4,4")
    p.add_argument("--reference", help="clean reference for PSNR/SNR")
    p.add_argument("--out", help="restored output tensor or image")
    p.add_argument("--report", help="CSV file to append the task report row to")
    p.set_defaults(handler=_cmd_run, subparser=p)

    p = commands.add_parser("benchmark", help="selector cost and agreement sweep")
    p.add_argument("--dict-sizes", dest="dict_sizes", type=dims, help="e.g. 1000,4000,16000")
    p.add_argument("--dim", type=positive, default=32,
                   help="atom dimension for the synthetic dictionaries")
    p.add_argument("--branching", dest="branchings", type=_usage(_branching_list),
                   help="fan-out per size, ';'-separated (one entry is shared)")
    p.add_argument("--alpha", dest="alphas", type=_usage(_alpha_list), default=(1.0,),
                   help="comma-separated alphas")
    p.add_argument("--queries", type=positive, default=200)
    p.add_argument("--out", help="output CSV")
    p.set_defaults(handler=_cmd_benchmark, subparser=p)

    for p in commands.choices.values():
        p.add_argument("--seed", type=_usage(_seed), default=0)
        p.add_argument("--config", help="JSON config file mirroring these flags")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    sub = ns.subparser
    try:
        if ns.config is not None:
            # the config's values become the defaults, so a second parse lets flags win
            sub.set_defaults(**_config_defaults(ns.config, sub))
            ns = parser.parse_args(argv)
        return ns.handler({dest: getattr(ns, dest) for dest in _parameters(sub)}, sub)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

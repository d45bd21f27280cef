"""Fixed-seed benchmark of the stmp package, end to end and per module.

    python3 perfbench/run.py --workload denoise-tree --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  The package is imported from that
checkout's ``src`` directory by absolute path, inputs are generated from
``--seed`` into ``.perfbench/<workload>/``, and the workload's operations
repeat in one closed loop (one caller, ``--threads 1``, BLAS pinned to one
thread) for ``--seconds`` seconds.  Every operation's output is checked;
any failure makes the run exit with code 1.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-module
metrics of a traced second half of the run (see tracing.py), compared with
an untraced first half.  ``--workload all`` runs every workload, each in its
own process.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md for what
every metric means.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
from pathlib import Path
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback

import numpy as np

from tracing import TENSOR_IO, Tracer
from workloads import ALPHA, FULL, TINY, WORKLOADS, CheckFailed

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3            # set-ups per run; setup_s is their median
MIN_REPS = 3          # untraced repetitions, even past the deadline
MIN_TRACED_REPS = 2
MAX_FAILURE_LINES = 5

# The machine's speed drifts by up to 2x within seconds when other tenants
# load it.  A fixed probe runs between timed steps, and each step's time is
# scaled by PROBE_REFERENCE_S / (mean of the probes just before and after it):
# the time a machine on which the probe takes PROBE_REFERENCE_S would show.
# Unscaled wall times are printed and recorded too.
PROBE_REFERENCE_S = 0.02
_PROBE_VECTOR = np.linspace(-1.0, 1.0, 64)
_PROBE_POINTS = np.linspace(-1.0, 1.0, 4000 * 16).reshape(4000, 16)
_PROBE_CENTRES = np.linspace(1.0, -1.0, 16 * 32).reshape(16, 32)


def probe_seconds() -> float:
    """Wall time of a fixed mix of interpreter work and small and medium numpy calls."""
    start = time.perf_counter()
    total = 0.0
    for i in range(6000):
        total += float(_PROBE_VECTOR @ _PROBE_VECTOR) + i
    for _ in range(30):
        total += float((_PROBE_POINTS @ _PROBE_CENTRES).argmin(axis=1).sum())
    return time.perf_counter() - start


def import_stmp():
    """The checkout's own package, never an installed copy."""
    src = ROOT / "src"
    if not (src / "stmp" / "__init__.py").is_file():
        raise SystemExit(f"error: no stmp package under {src}")
    sys.path.insert(0, str(src))
    stmp = importlib.import_module("stmp")
    if Path(stmp.__file__).resolve().parent != (src / "stmp").resolve():
        raise SystemExit(f"error: imported stmp from {stmp.__file__}, not from {src}")
    for module in ("cli", "pipelines", "pursuit", "operators", "dictionary", "clustering",
                   "tensor"):
        importlib.import_module(f"stmp.{module}")
    return stmp


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: ") and (ROOT / ".git" / commit[5:]).is_file():
            commit = (ROOT / ".git" / commit[5:]).read_text().strip()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "nproc": os.cpu_count(), "commit": commit}


class Run:
    """One workload's repetitions, their samples, and the failures seen."""

    def __init__(self, stmp, workload, tracer: Tracer | None = None):
        self.stmp = stmp
        self.w = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        # wall seconds per step; query_s holds one array per query stream
        self.wall = {"setup_s": [], "op_s": [], "load_s": [], "stream_s": [], "query_s": []}
        self.probes: list[float] = []
        self.probe_before = {key: [] for key in self.wall}  # index of the probe before each step
        self.peak_rss_mb = 0.0       # after the first repetition
        self.first = None            # first command Outcome
        self.reference = None        # exhaustive (picks, scores, seconds) per query
        self.stream = None           # first stream's (picks, scores, inner products)
        self.op_id = 0

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        if self.failed <= MAX_FAILURE_LINES:
            detail = str(exc) if isinstance(exc, CheckFailed) else traceback.format_exc()
            print(f"FAILED {self.w.name} {what}: {detail}", file=sys.stderr)

    def _next_op(self) -> None:
        self.attempted += 1
        self.op_id += 1
        if self.tracer:
            self.tracer.op_id = self.op_id

    def measure(self, key: str, fn):
        """Run fn after a speed probe and record its wall time under key."""
        gc.collect()  # garbage from earlier steps is not this one's cost
        self.probes.append(probe_seconds())
        start = time.perf_counter()
        result = fn()
        self.wall[key].append(time.perf_counter() - start)
        self.probe_before[key].append(len(self.probes) - 1)
        return result

    def finish(self) -> None:
        """The probe after the last step."""
        self.probes.append(probe_seconds())

    def scaled(self, key: str) -> list:
        """The step times of key, each scaled by the probes around it."""
        probes = self.probes
        return [wall * 2 * PROBE_REFERENCE_S / (probes[i] + probes[i + 1])
                for wall, i in zip(self.wall[key], self.probe_before[key])]

    def _timed(self, what: str, fn, key: str):
        self._next_op()
        try:
            return self.measure(key, fn)
        except Exception as exc:  # an op that raises is a failed op; keep measuring
            self.fail(what, exc)
            return None

    def _command(self):
        outcome = self.w.command()
        if self.first is None:
            self.first = outcome
        elif outcome.key != self.first.key:
            raise CheckFailed(f"output {outcome.key} differs from the first repetition's "
                              f"{self.first.key}")
        return outcome

    def repetition(self) -> None:
        self._timed("command", self._command, "op_s")
        loaded = self._timed("load", self.w.load, "load_s")
        if loaded is not None:
            latencies = self.measure("stream_s", lambda: self._query_stream(*loaded))
            self.wall["query_s"].append(latencies)
            self.probe_before["query_s"].append(self.probe_before["stream_s"][-1])
        if not self.peak_rss_mb:
            # later repetitions reuse this memory; how many run depends on speed
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def _exhaustive_reference(self, d) -> None:
        exact = self.stmp.pursuit.exact_select
        picks, scores, seconds = [], [], []
        for q in self.w.queries:
            start = time.perf_counter()
            index, score = exact(d, q)
            seconds.append(time.perf_counter() - start)
            picks.append(index)
            scores.append(score)
        self.reference = (np.array(picks), np.array(scores), np.array(seconds))

    def _query_stream(self, d, tree) -> np.ndarray:
        """Latencies of the queries that passed their checks."""
        stmp = self.stmp
        if self.reference is None:
            self._exhaustive_reference(d)
        ref_picks = self.reference[0]
        centroid_expected, total_expected = self.w.ips_per_select(d.m)
        picks = np.full(len(self.w.queries), -1)
        scores = np.zeros(len(self.w.queries))
        latencies = []
        inner_products = 0
        for i, q in enumerate(self.w.queries):
            self._next_op()
            counter = stmp.dictionary.ScoreCounter()
            try:
                start = time.perf_counter()
                if tree is None:
                    index, score = stmp.pursuit.exact_select(d, q, counter)
                else:
                    index, score = stmp.pursuit.stmp_select(tree, d, q, ALPHA, counter)
                seconds = time.perf_counter() - start
                centroid = getattr(counter, "centroid_inner_products", centroid_expected)
                if (counter.inner_products, centroid) != (total_expected, centroid_expected):
                    raise CheckFailed(
                        f"query {i}: {counter.inner_products} inner products "
                        f"({centroid} on centroids), expected {total_expected} "
                        f"({centroid_expected})")
                if tree is None and index != ref_picks[i]:
                    raise CheckFailed(f"query {i}: exhaustive pick {index} != {ref_picks[i]}")
                if self.stream is not None and index != self.stream[0][i]:
                    raise CheckFailed(f"query {i}: pick {index} differs from the first stream's "
                                      f"{self.stream[0][i]}")
            except Exception as exc:  # a failed query is a failed op; keep measuring
                self.fail("query", exc)
                continue
            latencies.append(seconds)
            picks[i], scores[i] = index, score
            inner_products += counter.inner_products
        if self.stream is None:
            self.stream = (picks, scores, inner_products)
        return np.array(latencies)

    def times(self, scaled: bool = True) -> dict:
        """The time metrics, name -> (value, sample count); query percentiles
        are the median over streams of each stream's percentile.

        p99 is never scaled: the slow tail comes from interruptions whose
        length does not follow the probe, and scaling it widened its spread
        from run to run.
        """
        steps = self.scaled if scaled else self.wall.__getitem__
        out = {key: (_median(steps(key)), len(steps(key))) for key in ("setup_s", "op_s", "load_s")}
        for q, streams in ((50, steps("query_s")), (99, self.wall["query_s"])):
            streams = [lat for lat in streams if lat.size]
            out[f"query_us_p{q}"] = (_median([_percentile(lat, q) * 1e6 for lat in streams]),
                                     sum(lat.size for lat in streams))
        return out

    def end_to_end(self) -> dict:
        """Metric name -> (value, sample count)."""
        picks, scores, stream_ips = self.stream if self.stream else (np.zeros(1), np.zeros(1), 0)
        ref_picks = self.reference[0] if self.reference is not None else np.ones(1)
        queries = self.w.queries
        first = self.first
        if first is not None and first.fidelity_db is not None:
            fidelity = first.fidelity_db
        else:
            # one-atom approximation of each query by the selector's pick
            energy = (queries ** 2).sum(axis=1)
            fidelity = 10 * np.log10(energy.sum() / (energy - scores ** 2).sum())
        ips = first.inner_products if first and first.inner_products is not None else stream_ips
        return {
            **self.times(),
            "inner_products": (int(ips), 1),
            "agreement": (float(np.mean(picks == ref_picks)), len(picks)),
            "fidelity_db": (float(fidelity), 1),
            "peak_rss_mb": (self.peak_rss_mb, 1),
        }


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def per_layer(run: Run, tracer: Tracer, reps: int, untraced: int) -> dict:
    """Metric name -> (value, sample count); seconds and counts are per repetition."""
    spans = tracer.summary()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def get(label, field):
        return spans.get(label, zero)[field] / reps

    counts = {k: v / reps for k, v in tracer.counts.items()}
    stmp_us = tracer.durations("pursuit.stmp_select") * 1e6
    stmp_calls = get("pursuit.stmp_select", "calls")
    selects = stmp_calls + get("pursuit.exact_select", "calls")
    select_s = get("pursuit.stmp_select", "s") + get("pursuit.exact_select", "s")
    ips = counts.get("centroid_ips", 0) + counts.get("atom_ips", 0)
    mp_calls = get("pursuit.matching_pursuit", "calls")
    w = run.w
    predicted = w.stmp.pursuit.predicted_ip_count(w.branching, ALPHA)
    scores = run.stream[1]
    ref_scores = np.abs(run.reference[1])
    regret = (ref_scores - np.abs(scores)) / np.where(ref_scores > 0, ref_scores, 1.0)
    untraced_op_s, traced_op_s = run.scaled("op_s")[:untraced], run.scaled("op_s")[untraced:]
    n = len(traced_op_s)
    return {
        "cli.self_s": (get("cli.main", "self_s"), n),
        "pipelines.self_s": (get("pipelines.denoise", "self_s")
                             + get("pipelines.super_resolve", "self_s"), n),
        "pipelines.patches": (counts.get("patches", 0), n),
        "pursuit.stmp_select.s": (get("pursuit.stmp_select", "s"), n),
        "pursuit.select_us_p50": (_percentile(stmp_us, 50), stmp_us.size),
        "pursuit.select_us_p99": (_percentile(stmp_us, 99), stmp_us.size),
        "pursuit.exact_select.s": (get("pursuit.exact_select", "s"), n),
        "pursuit.matching_pursuit.calls": (mp_calls, n),
        "pursuit.matching_pursuit.self_s": (get("pursuit.matching_pursuit", "self_s"), n),
        "pursuit.reconstruct.s": (get("pursuit.reconstruct", "s"), n),
        "pursuit.selects": (selects, n),
        "pursuit.centroid_ips": (counts.get("centroid_ips", 0), n),
        "pursuit.atom_ips": (counts.get("atom_ips", 0), n),
        "pursuit.centroid_ips_per_select": (
            counts.get("centroid_ips", 0) / stmp_calls if stmp_calls else 0.0, stmp_calls * reps),
        "pursuit.predicted_ip_count": (predicted, 1),
        "pursuit.ns_per_ip": (select_s * 1e9 / ips if ips else 0.0, selects * reps),
        "pursuit.early_stop_share": (counts.get("early_stops", 0) / mp_calls if mp_calls else 0.0,
                                     mp_calls * reps),
        "pursuit.tree_regret_mean": (float(regret.mean()), regret.size),
        "pursuit.regret_queries": (regret.size, 1),
        "pursuit.exact_query_us_p50": (_percentile(run.reference[2] * 1e6, 50),
                                       run.reference[2].size),
        "operators.project_dictionary.calls": (get("operators.project_dictionary", "calls"), n),
        "operators.project_dictionary.s": (get("operators.project_dictionary", "s"), n),
        "operators.apply_batch.s": (get("operators.apply_batch", "s"), n),
        "operators.lift_code.s": (get("operators.lift_code", "s"), n),
        "dictionary.fnv1a64.calls": (get("dictionary.fnv1a64", "calls"), n),
        "dictionary.fnv1a64.s": (get("dictionary.fnv1a64", "s"), n),
        "dictionary.fnv1a64.bytes": (counts.get("fnv_bytes", 0), n),
        "dictionary.load_dictionary.s": (get("dictionary.load_dictionary", "s"), n),
        "clustering.build_tree.self_s": (get("clustering.build_tree", "self_s"), n),
        "clustering.balanced_cluster.calls": (get("clustering.balanced_cluster", "calls"), n),
        "clustering.balanced_cluster.self_s": (get("clustering.balanced_cluster", "self_s"), n),
        "clustering.kmeans.calls": (get("clustering.kmeans", "calls"), n),
        "clustering.kmeans.s": (get("clustering.kmeans", "s"), n),
        "clustering.save_tree.s": (get("clustering.save_tree", "s"), n),
        "clustering.tree_bytes": (counts.get("tree_bytes", 0), n),
        "clustering.load_tree.s": (get("clustering.load_tree", "s"), n),
        "clustering.validate_tree.self_s": (get("clustering.validate_tree", "self_s"), n),
        "tensor.extract_patches.s": (get("tensor.extract_patches", "s"), n),
        "tensor.aggregate_patches.s": (get("tensor.aggregate_patches", "s"), n),
        "tensor.io.s": (sum(get(label, "s") for label in TENSOR_IO), n),
        "tensor.io_bytes": (counts.get("io_bytes", 0), n),
        "trace.spans": (len(tracer.spans) / reps, n),
        "trace.overhead_share": (_median(traced_op_s) / _median(untraced_op_s) - 1.0
                                 if untraced_op_s and traced_op_s else 0.0, n),
    }


def run_workload(stmp, name: str, seed: int, seconds: float, trace: bool, sizes,
                 work: Path) -> tuple[Run, dict]:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[name](stmp, sizes, seed, work)
    tracer = Tracer() if trace else None
    run = Run(stmp, workload, tracer)
    for _ in range(SETUPS):
        run.measure("setup_s", workload.setup)

    start = time.perf_counter()
    untraced_until = start + (seconds / 2 if trace else seconds)
    reps = 0
    while reps < MIN_REPS - (1 if trace else 0) or time.perf_counter() < untraced_until:
        run.repetition()
        reps += 1
    if not trace:
        run.finish()
        return run, run.end_to_end()

    untraced = len(run.wall["op_s"])
    traced = 0
    tracer.install()
    try:
        while traced < MIN_TRACED_REPS or time.perf_counter() < start + seconds:
            run.repetition()
            traced += 1
    finally:
        tracer.uninstall()
    run.finish()
    tracer.write(work / "spans.json")
    expected = stmp.pursuit.predicted_ip_count(workload.branching, ALPHA)
    off = [c for c in tracer.centroid_ips_per_call if c != expected]
    if off:
        run.attempted += 1
        run.fail("traced selections", CheckFailed(
            f"{len(off)} tree selections counted centroid inner products other than the "
            f"predicted {expected}, e.g. {off[0]}"))
    if run.stream is None or run.reference is None:
        return run, {}
    return run, per_layer(run, tracer, traced, untraced)


def print_result(name: str, env: dict, run: Run, metrics: dict, units: dict, work: Path) -> dict:
    """Print one line per metric and return the JSON result; time metrics also
    show their unscaled wall-clock median."""
    print(f"# {name}: python {env['python']}, numpy {env['numpy']}, blas {env['blas']}, "
          f"nproc {env['nproc']}, commit {env['commit']}")
    wall = {metric: value for metric, (value, _) in run.times(scaled=False).items()}
    for metric, (value, count) in metrics.items():
        unscaled = f"  wall {wall[metric]:.6f}" if metric in wall else ""
        print(f"{metric:<36} {value:>16.6f} {units[metric]:<9} n={count:g}{unscaled}")
    share = run.failed / run.attempted if run.attempted else 1.0
    print(f"{'failed_share':<36} {share:>16.6f} {'fraction':<9} n={run.attempted}")
    result = {
        "correct": run.failed == 0 and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, (v, _) in metrics.items()},
    }
    steps = {key: values for key, values in run.wall.items() if key != "query_s"}
    steps["query_us_p50"] = [_percentile(lat, 50) * 1e6 for lat in run.wall["query_s"]]
    steps["query_us_p99"] = [_percentile(lat, 99) * 1e6 for lat in run.wall["query_s"]]
    record = dict(result, workload=name, environment=env,
                  samples={m: c for m, (_, c) in metrics.items()}, wall_medians=wall,
                  probe_s=run.probes, steps_wall_s=steps)
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    return result


def declared_units(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them ("end_to_end" or "per_layer")."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the smoke test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    stmp = import_stmp()
    work = ROOT / ".perfbench" / args.workload
    sizes = FULL if args.size == "full" else TINY
    run, metrics = run_workload(stmp, args.workload, args.seed, args.seconds, bool(args.trace),
                                sizes, work)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    result = print_result(args.workload, environment(), run, metrics, units, work)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

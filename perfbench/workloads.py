"""The measured process: set-up, closed-loop timing, correctness checks, metrics.

Started by run.py with the BLAS thread count fixed in its environment; it
receives only the files gen.py wrote. One client, one thread, a closed loop:
the next operation starts when the previous one has returned, so nothing
queues and wait time is zero by construction.

    python3 perfbench/workloads.py --workload W --seed N --seconds S \
        --trace 0|1 --inputs DIR --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import gen
import oracle
from tracer import SETUP_OP, Tracer, self_times

FRESH_SETUPS = 3        # set-up-only processes started before and again after
                        # the timed loop; setup_s is the median of these six and
                        # the measured process's own set-up
PREDICT_WARMUP = 16     # frames run during set-up, untimed
EVAL_WARMUP = 2         # test images scored during set-up, untimed
ORACLE_SAMPLE = 16      # frames (or test images) checked against the reference
TRACE_BLOCKS = 4        # untraced/traced block pairs in a traced run
LR = 0.01
BATCH = 32
MODULES = ("preprocess", "dataset", "augment", "nn", "fusion")


def oracle_sample(n: int, seed: int) -> set[int]:
    """Seeded choice of the indices whose outputs are checked against the reference."""
    rng = np.random.default_rng(seed)
    return set(rng.choice(n, size=min(ORACLE_SAMPLE, n), replace=False).tolist())


class PredictRoi:
    """One op: one frame through decode, both eye crops, two forwards, fuse."""

    def __init__(self, gz, inputs: str, seed: int):
        self.gz, self.inputs, self.seed = gz, inputs, seed
        self.hw = gz.dataset.default_patch_hw("roi")

    def setup(self) -> None:
        nn, dataset = self.gz.nn, self.gz.dataset
        self.samples = dataset.load_manifest(os.path.join(self.inputs, gen.MANIFEST))
        self.paths = [os.path.join(self.inputs, s.image_path) for s in self.samples]
        self.left = nn.load_model(os.path.join(self.inputs, gen.MODEL_LEFT))
        self.right = nn.load_model(os.path.join(self.inputs, gen.MODEL_RIGHT))
        self.items_per_op = 1
        # only the frames the oracle checks keep their scores, so memory does
        # not grow with the number of operations
        self.checked = oracle_sample(len(self.samples), self.seed)
        self.outputs = []
        for i in range(PREDICT_WARMUP):
            self.op(i)
        self.outputs = []

    def models(self):
        return self.left, self.right

    def _tensors(self, k: int):
        pre, dataset = self.gz.preprocess, self.gz.dataset
        gray = pre.to_grayscale(pre.read_pnm(self.paths[k]))
        return [
            pre.normalize(dataset.extract_patch(gray, self.samples[k], side, "roi", self.hw))
            for side in ("left", "right")
        ]

    def op(self, i: int) -> bool:
        fusion = self.gz.fusion
        k = i % len(self.samples)
        xl, xr = self._tensors(k)
        fused = fusion.fuse_scores(self.left.forward(xl), self.right.forward(xr))
        fusion.predict_class(fused)
        if k in self.checked:
            self.outputs.append((i, k, fused))
        return bool(all(math.isfinite(v) for v in fused))

    def check(self) -> tuple[set[int], list[str]]:
        """Ops whose fused scores miss the float64 reference, on a seeded frame sample."""
        ref = {}
        for k in self.checked:
            xl, xr = self._tensors(k)
            ref[k] = oracle.reference_fused(self.left, self.right, xl, xr)
        bad, notes = set(), []
        for i, k, fused in self.outputs:
            if k in ref:
                why = oracle.score_miss(fused, ref[k])
                if why:
                    bad.add(i)
                    notes.append(f"frame {k}: {why}")
        return bad, notes


class EvalErtVga:
    """One op: score the held-out half of a VGA manifest and write the report."""

    def __init__(self, gz, inputs: str, seed: int):
        self.gz, self.inputs, self.seed = gz, inputs, seed
        self.manifest = os.path.join(inputs, gen.MANIFEST)
        self.report_dir = os.path.join(inputs, "report")
        self.class_names = [c.name for c in gz.dataset.EacClass]

    def setup(self) -> None:
        nn, fusion = self.gz.nn, self.gz.fusion
        self.left = nn.load_model(os.path.join(self.inputs, gen.MODEL_LEFT))
        self.right = nn.load_model(os.path.join(self.inputs, gen.MODEL_RIGHT))
        test = self._test_samples()
        self.items_per_op = len(test)
        fusion.evaluate(self.left, self.right, self._triples(test[:EVAL_WARMUP]))
        self.outputs = []

    def models(self):
        return self.left, self.right

    def _test_samples(self):
        dataset = self.gz.dataset
        return dataset.split_50_50(dataset.load_manifest(self.manifest), self.seed).test

    def _triples(self, test):
        dataset = self.gz.dataset
        left, right = (
            dataset.patches_to_tensors(
                dataset.make_eye_patches(test, side, "ert", image_root=self.inputs, split="test")
            )
            for side in ("left", "right")
        )
        return [(xl, xr, y) for (xl, y), (xr, _) in zip(left, right)]

    def op(self, i: int) -> bool:
        fusion = self.gz.fusion
        triples = self._triples(self._test_samples())
        result = fusion.evaluate(self.left, self.right, triples)
        fusion.emit_report(result, self.class_names, {"mode": "ert", "seed": self.seed}, self.report_dir)
        self.outputs.append((i, len(triples), result.confusion.counts.copy()))
        return math.isfinite(result.accuracy)

    def check(self) -> tuple[set[int], list[str]]:
        """Each pass's confusion must count every test image and equal the
        confusion of reference-checked per-image predictions."""
        fusion = self.gz.fusion
        triples = self._triples(self._test_samples())
        n = len(triples)
        expected = np.zeros((len(self.class_names),) * 2, dtype=np.int64)
        notes = []
        picked = oracle_sample(n, self.seed)
        for j, (xl, xr, y) in enumerate(triples):
            fused = fusion.fuse_scores(self.left.forward(xl), self.right.forward(xr))
            expected[y, fusion.predict_class(fused)] += 1
            if j in picked:
                why = oracle.score_miss(fused, oracle.reference_fused(self.left, self.right, xl, xr))
                if why:
                    notes.append(f"test image {j}: {why}")
        with open(os.path.join(self.report_dir, "metrics.json"), encoding="utf-8") as f:
            if json.load(f)["n_test"] != n:
                notes.append("metrics.json n_test differs from the test count")
        bad = {i for i, _, _ in self.outputs} if notes else set()
        for i, count, counts in self.outputs:
            if count != n or int(counts.sum()) != n:
                bad.add(i)
                notes.append(f"pass {i}: confusion total {int(counts.sum())} != test count {n}")
            elif not np.array_equal(counts, expected):
                bad.add(i)
                notes.append(f"pass {i}: confusion differs from per-image predictions")
        return bad, notes


class TrainErt:
    """One op: one epoch of minibatch SGD for one eye; eyes alternate."""

    SIDES = ("left", "right")

    def __init__(self, gz, inputs: str, seed: int):
        self.gz, self.inputs, self.seed = gz, inputs, seed

    def setup(self) -> None:
        dataset, augment, nn = self.gz.dataset, self.gz.augment, self.gz.nn
        samples = dataset.load_manifest(os.path.join(self.inputs, gen.MANIFEST))
        train = dataset.split_50_50(samples, self.seed).train
        h, w = dataset.default_patch_hw("ert")
        self.data = {}
        for offset, side in enumerate(self.SIDES):
            patches = dataset.make_eye_patches(train, side, "ert", image_root=self.inputs)
            patches = augment.expand(patches, augment.AugmentPolicy())
            tensors = dataset.patches_to_tensors(patches)
            xs = [x for x, _ in tensors]
            ys = [y for _, y in tensors]
            model = nn.build_gaze_net(h, w, len(dataset.EacClass), seed=self.seed + offset)
            # one lr=0 step allocates the training buffers; weights stay as built
            nn.train_epoch(model, xs[:BATCH], ys[:BATCH], 0.0, BATCH, rng_seed=0)
            self.data[side] = (model, xs, ys)
        self.items_per_op = len(xs)
        self.outputs = []

    def models(self):
        return tuple(self.data[side][0] for side in self.SIDES)

    def stop_ok(self, i: int) -> bool:
        return i % 2 == 0  # both eyes get the same number of epochs

    def op(self, i: int) -> bool:
        model, xs, ys = self.data[self.SIDES[i % 2]]
        epoch = i // 2
        loss = self.gz.nn.train_epoch(
            model, xs, ys, LR, BATCH, rng_seed=self.seed * 1_000_003 + epoch
        )
        self.outputs.append((i, loss))
        return math.isfinite(loss)

    def check(self) -> tuple[set[int], list[str]]:
        """Every epoch loss is finite; each eye's last epoch beats its first."""
        bad, notes = set(), []
        for s, side in enumerate(self.SIDES):
            ops = [i for i, _ in self.outputs if i % 2 == s]
            losses = [loss for i, loss in self.outputs if i % 2 == s]
            if len(losses) < 2:
                bad.update(ops)
                notes.append(f"{side}: fewer than 2 epochs ran")
            elif not losses[-1] < losses[0]:
                bad.add(ops[-1])
                notes.append(f"{side}: last epoch loss {losses[-1]:.6g} not below first {losses[0]:.6g}")
        return bad, notes


WORKLOADS = {"predict_roi": PredictRoi, "eval_ert_vga": EvalErtVga, "train_ert": TrainErt}


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------

def timed_setup(wl) -> float:
    t0 = time.perf_counter()
    wl.setup()
    return time.perf_counter() - t0


def fresh_setups(args, n: int) -> list[float]:
    """Times the first set-up of n new processes, one after another.

    Each process imports the package untimed, then runs one set-up: a cache
    kept across calls inside a process cannot shorten it.
    """
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
        "--inputs", args.inputs, "--out", args.out, "--root", args.root, "--setup-only",
    ]
    times = []
    for _ in range(n):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def measure(wl, seconds: float, first_op: int = 0, tracer=None) -> dict:
    """Closed loop over wl.op, numbered from first_op, until `seconds` have passed."""
    stop_ok = getattr(wl, "stop_ok", lambda i: True)
    lat_ns, failed, errors = [], set(), []
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    i = first_op
    while True:
        t0 = time.perf_counter_ns()
        if t0 >= deadline and stop_ok(i):
            break
        if tracer is not None:
            tracer.current_op = i
        try:
            ok = wl.op(i)
        except Exception as exc:  # an operation that raises counts as failed
            ok = False
            if len(errors) < 5:
                errors.append(f"op {i}: {type(exc).__name__}: {exc}")
        lat_ns.append(time.perf_counter_ns() - t0)
        if not ok:
            failed.add(i)
        i += 1
    if tracer is not None:
        tracer.current_op = SETUP_OP
    return {
        "lat_ms": [v / 1e6 for v in lat_ns],
        "wall_s": (time.perf_counter_ns() - start) / 1e9,
        "items": len(lat_ns) * wl.items_per_op,
        "next_op": i,
        "failed": failed,
        "errors": errors,
    }


def merge(runs: list[dict]) -> dict:
    return {
        "lat_ms": [v for r in runs for v in r["lat_ms"]],
        "wall_s": sum(r["wall_s"] for r in runs),
        "items": sum(r["items"] for r in runs),
        "failed": set().union(*(r["failed"] for r in runs)),
        "errors": [e for r in runs for e in r["errors"]],
    }


def traced_run(wl, gz, seconds: float, blocks: int = TRACE_BLOCKS):
    """Set-up under the tracer, then alternating untraced and traced blocks.

    Interleaving keeps slow drifts of the machine out of the overhead
    estimate (traced p50 minus untraced p50). Returns (untraced, traced, tracer).
    """
    tr = Tracer()
    plain, traced = [], []
    try:
        tr.instrument_modules(gz)
        wl.setup()
        tr.restore()
        op = 0
        for _ in range(blocks):
            plain.append(measure(wl, seconds / (2 * blocks), op))
            tr.instrument_modules(gz)
            for model in wl.models():
                tr.instrument_model(model)
            traced.append(measure(wl, seconds / (2 * blocks), plain[-1]["next_op"], tracer=tr))
            tr.restore()
            op = traced[-1]["next_op"]
    finally:
        tr.restore()
    return merge(plain), merge(traced), tr


def end_to_end(run: dict, setups: list[float]) -> dict:
    lat = run["lat_ms"]
    return {
        "latency_p50_ms": np.percentile(lat, 50),
        "latency_p99_ms": np.percentile(lat, 99),
        "throughput_fps": run["items"] / run["wall_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _span_stats() -> dict:
    return {"durs": [], "self": 0, "self_timed": 0, "failed": 0, "notes": [], "ops": []}


def layer_metrics(tr: Tracer, ops: int, untraced_p50: float, traced_p50: float) -> tuple[dict, list]:
    """Per-layer metrics and a self-time table from the traced run's spans.

    Names the tracer declared but never saw read 0 calls and 0 ms.
    """
    selfs = self_times(tr.t0, tr.t1, tr.parent)
    per = {name: _span_stats() for name in tr.declared}
    for nid, a, b, s, op, bad, note in zip(tr.name, tr.t0, tr.t1, selfs, tr.op, tr.failed, tr.note):
        rec = per.setdefault(tr.names[nid], _span_stats())
        rec["durs"].append(b - a)
        rec["self"] += s
        rec["self_timed"] += s if op != SETUP_OP else 0
        rec["failed"] += bad
        rec["notes"].append(note)
        rec["ops"].append(op)

    m: dict[str, float] = {}
    for name, rec in per.items():
        m[f"{name}.calls"] = len(rec["durs"])
        m[f"{name}.failed"] = rec["failed"]
        m[f"{name}.ms"] = statistics.median(rec["durs"]) / 1e6 if rec["durs"] else 0.0
        if name.startswith("nn.fwd.conv"):
            notes = rec["notes"]
            m[f"{name}.gflop_s"] = (
                statistics.median(f for _, f in notes) / statistics.median(rec["durs"]) if notes else 0.0
            )
    reads = per["preprocess.read_pnm"]
    visits = set(zip(reads["ops"], reads["notes"]))  # (operation, image path)
    m["dataset.decodes_per_image"] = len(reads["durs"]) / len(visits) if visits else 0.0
    for name, key in (("augment.expand", "ms_per_patch"), ("fusion.evaluate", "ms_per_image")):
        units = sum(per[name]["notes"])
        m[f"{name}.{key}"] = sum(per[name]["durs"]) / 1e6 / units if units else 0.0
    conv1 = [n[0] for n in per["nn.fwd.conv1"]["notes"]]
    m["nn.forward.batch_size"] = statistics.fmean(conv1) if conv1 else 0.0
    for mod in MODULES:
        total = sum(r["self_timed"] for n, r in per.items() if n.split(".", 1)[0] == mod)
        m[f"{mod}.self_ms_per_op"] = total / 1e6 / ops if ops else 0.0
    m["trace.overhead_ms"] = traced_p50 - untraced_p50
    m["trace.overhead_pct"] = 100.0 * (traced_p50 - untraced_p50) / untraced_p50
    m["trace.failed_calls"] = sum(tr.failed)
    m["trace.spans"] = len(tr.t0)

    table = sorted(
        (
            (name, len(r["durs"]), r["failed"], m[f"{name}.ms"], sum(r["durs"]) / 1e6, r["self"] / 1e6)
            for name, r in per.items() if r["durs"]
        ),
        key=lambda row: -row[5],
    )
    return m, table


# --------------------------------------------------------------------------
# environment stamp
# --------------------------------------------------------------------------

def loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as f:
            return f.read().split()[:3]
    except OSError:
        return None


def thread_count():
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def env_stamp() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy without the dicts mode
        pass
    return {
        "numpy": np.__version__,
        "blas": blas,
        "threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
    }


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def declared_metrics(root: str, trace: bool) -> list[dict]:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def pick(values: dict, declared: list[dict]) -> dict:
    missing = [d["name"] for d in declared if d["name"] not in values]
    if missing:
        raise KeyError(f"metrics not computed: {', '.join(missing)}")
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}


def run(args) -> int:
    gz = gen.import_gazedir(args.root)
    if args.setup_only:
        print(timed_setup(WORKLOADS[args.workload](gz, args.inputs, args.seed)))
        return 0
    declared = declared_metrics(args.root, args.trace)
    stamp = env_stamp()
    stamp["loadavg_before"] = loadavg()
    wl = WORKLOADS[args.workload](gz, args.inputs, args.seed)
    os.makedirs(args.out, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"

    if not args.trace:
        setups = fresh_setups(args, FRESH_SETUPS) + [timed_setup(wl)]
        timed = measure(wl, args.seconds)
        bad, notes = wl.check()
        setups += fresh_setups(args, FRESH_SETUPS)
        values = end_to_end(timed, setups)
        runs, table = [timed], []
    else:
        plain, timed, tr = traced_run(wl, gz, args.seconds)
        bad, notes = wl.check()
        values, table = layer_metrics(
            tr, len(timed["lat_ms"]),
            np.percentile(plain["lat_ms"], 50), np.percentile(timed["lat_ms"], 50),
        )
        with open(os.path.join(args.out, f"spans-{args.workload}.json"), "w", encoding="utf-8") as f:
            json.dump(tr.spans(), f, separators=(",", ":"))
        runs = [plain, timed]
    failed_ops = bad.union(*(r["failed"] for r in runs))
    attempted = sum(len(r["lat_ms"]) for r in runs)

    stamp["loadavg_after"] = loadavg()
    stamp["process_threads"] = thread_count()
    failed = len(failed_ops)
    notes = [e for r in runs for e in r["errors"]] + notes
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": pick(values, declared),
    }

    lat = timed["lat_ms"]
    p99 = np.percentile(lat, 99)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {int(args.trace)}")
    print("load: closed loop, 1 client, 1 thread; queue wait is 0 by construction")
    print(f"ops {len(lat)}, {sum(v > p99 for v in lat)} beyond p99; "
          f"failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    if args.workload == "train_ert":
        print(f"train_samples_per_s {timed['items'] / timed['wall_s']:.6g} 1/s")
    # every end-to-end value is printed, also those BENCHMARK.json does not gate
    shown = dict(result["metrics"])
    if not args.trace:
        for name in ("latency_p50_ms", "latency_p99_ms"):
            shown.setdefault(name, {"value": values[name], "unit": "ms"})
        print(f"setup_s samples (fresh processes): {' '.join(f'{v:.4f}' for v in setups)}")
    for name, rec in shown.items():
        print(f"  {name:<34} {rec['value']:>14.6g} {rec['unit']}")
    if table:
        print(f"self time over {len(lat)} traced ops ({timed['wall_s'] * 1e3:.1f} ms traced wall):")
        print(f"  {'span':<28}{'calls':>8}{'failed':>7}{'p50 ms':>10}{'total ms':>11}{'self ms':>10}")
        for name, calls, n_failed, p50, total, self_ms in table:
            print(f"  {name:<28}{calls:>8}{n_failed:>7}{p50:>10.4f}{total:>11.2f}{self_ms:>10.2f}")
        ops_wall = timed["wall_s"] * 1e3 / len(lat)
        shares = ", ".join(
            f"{mod} {100 * values[f'{mod}.self_ms_per_op'] / ops_wall:.1f}%" for mod in MODULES
        )
        print(f"self-time share of a traced op: {shares}")
    for note in notes[:20]:
        print(f"miss: {note}")
    print("env " + json.dumps(stamp, sort_keys=True))
    with open(os.path.join(args.out, f"result-{tag}.json"), "w", encoding="utf-8") as f:
        json.dump({**result, "env": stamp, "notes": notes, "table": table}, f, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--root", default=gen.ROOT)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this process and print the seconds")
    return run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

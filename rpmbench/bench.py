"""Phases, output checks and metrics of one benchmark run."""

from __future__ import annotations

import contextlib
import ctypes
import gc
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

import layers
import loadgen
from tracing import Recorder, install, uninstall
from workloads import POOL_STREAM, PREDICT_STREAM, TINY, WORKLOADS, arrivals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCES = HERE / "fingerprints.json"

END_TO_END = {
    "fit_s": "s",
    "predict_sps": "series/s",
    "serve_rps": "req/s",
    "serve_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Share of ``--seconds`` given to each serving loop; the closed loop
#: also runs an uncounted warm-up first.
CLOSED_SHARE, OPEN_SHARE = 0.6, 0.3
CLOSED_WARMUP_S, RATE_WINDOW_S = 0.5, 0.5
#: Requests the closed loop keeps in flight: two full default batches.
CLOSED_DEPTH = 64
#: How long the sharded phase waits for the drift thread to fold every
#: row offered to it before a loop's root closes.
DRIFT_WAIT_S = 10.0
#: Per-phase timeouts; ``serve`` also gets the run's ``--seconds`` on top.
PHASE_TIMEOUT_S = {"inputs": 60, "fit": 120, "predict": 60, "setup": 90, "serve": 60}

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import repro; print(time.perf_counter() - t)"
)


class PhaseTimeout(Exception):
    pass


class Terminated(Exception):
    pass


def _terminate(signum, frame):
    raise Terminated(f"received signal {signum}")


@contextlib.contextmanager
def phase(name: str, extra_s: float = 0.0):
    """Bound one phase's wall time; overrunning raises in the main thread."""
    seconds = PHASE_TIMEOUT_S[name] + extra_s

    def expire(signum, frame):
        raise PhaseTimeout(f"phase '{name}' exceeded {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def pin_one_cpu() -> None:
    """Keep this process, and every thread and process it starts, on the
    first CPU of its affinity set.

    On a 2-vCPU shared host the hypervisor stole 20-45% of each vCPU's
    time whenever both were busy (``st`` in /proc/stat), against 0-4% for
    one busy vCPU. On two CPUs fixed-long's two-thread fit and predict
    spread 30-56% across runs and direct-ucr's serve_rps 38%; on one,
    both stay within 15% (predict_sps of direct-ucr 27%). Must run before
    any thread starts: threads inherit the mask.
    """
    if threading.active_count() != 1:
        raise RuntimeError("pin_one_cpu must run before any thread starts")
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _root(recorder, kind: str, label: str):
    return recorder.root(kind, label) if recorder is not None else contextlib.nullcontext()


# -- result header -------------------------------------------------------------


def host_probe_ms() -> float:
    """Median time of a fixed Python + BLAS loop: shows a slow host."""
    a = np.random.default_rng(0).standard_normal((120, 120))
    times = []
    for _ in range(5):
        t = time.perf_counter()
        s = 0
        for i in range(50_000):
            s += i * i
        for _ in range(10):
            a @ a
        times.append(time.perf_counter() - t)
    return 1000.0 * statistics.median(times)


def _commit() -> str | None:
    """The checkout's commit; ``None`` outside a git checkout (a benchmark
    checkout need not be one, and git would find an enclosing repository)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _blas() -> dict:
    info = {"library": None, "version": None, "threads": None}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"], info["version"] = dep.get("name"), dep.get("version")
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(p for p in libs if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def make_header(args, workload, probe_ms: float) -> dict:
    import scipy

    return {
        "bench": "rpmbench",
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "host_probe_ms_start": round(probe_ms, 3),
        "sizes": {
            "fits": {ts.key: {"call": f"{ts.generator}({ts.call})",
                              "classifier": ts.classifier} for ts in workload.fits},
            "fit_repeats": workload.fit_repeats,
            "predict_rounds": workload.predict_rounds,
            "predict_chunk_rows": [ts.chunk for ts in workload.fits],
            "predict_chunks": workload.predict_chunks,
            "pool_per_class": workload.pool_per_class,
            "open_rate": workload.rate,
            "closed_depth": CLOSED_DEPTH,
            "setup_rounds": workload.setup_rounds,
            "shard_open_rate": workload.shard_rate,
        },
    }


# -- output checks -------------------------------------------------------------


def fingerprint(clf) -> dict:
    """Per-class SAX triples, R, and a hash of the selected pattern values."""
    digest = hashlib.sha256()
    for pattern in clf.patterns_:
        # Rounded to 1e-9 so last-bit differences between BLAS builds do
        # not read as a behaviour change; +0.0 folds -0.0 into 0.0.
        digest.update((np.round(np.asarray(pattern.values, float), 9) + 0.0).tobytes())
        digest.update(b"|")
    return {
        "triples": {str(k): list(v.as_tuple()) for k, v in sorted(clf.params_by_class_.items())},
        "R": int(clf.n_param_evaluations_),
        "patterns": len(clf.patterns_),
        "pattern_sha256": digest.hexdigest()[:16],
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _worker_peak_rss_mb(service) -> float:
    """Peak resident memory (``VmHWM``) summed over the shard workers."""
    total = 0.0
    for state in service.shard_states():
        with open(f"/proc/{state['pid']}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1]) / 1024.0
    return total


def _await_drift(monitor, loops) -> None:
    """Wait, bounded, until the drift thread has folded every OK row the
    loops so far resolved, so that the folds fall inside their root."""
    want = sum(1 for loop in loops for _, _, ok, _ in loop.done if ok)
    deadline = time.monotonic() + DRIFT_WAIT_S
    while time.monotonic() < deadline:
        state = monitor.describe()
        if state["rows"] + state["dropped"] >= want:
            return
        time.sleep(0.01)


def _import_sample() -> float:
    """``import repro`` timed inside a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60, cwd=ROOT, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


# -- the run -------------------------------------------------------------------


class Bench:
    """Inputs, phases and bookkeeping of one workload at one seed."""

    def __init__(self, args, workload) -> None:
        self.args = args
        self.w = workload
        self.seed = args.seed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.notes: dict = {}
        self._live: list = []  # [service, model] pairs not yet stopped
        with open(REFERENCES) as handle:
            self.references = json.load(handle)[args.size]

    def check(self, attempts: int, failures: int, message: str) -> None:
        self.attempted += attempts
        self.failed += failures
        if failures:
            self.failures.append(message)

    # inputs ------------------------------------------------------------------

    def make_inputs(self) -> None:
        t = time.perf_counter()
        self.train = [(d.X_train, d.y_train) for d in (ts.make() for ts in self.w.fits)]
        served = self.w.fits[self.w.served]
        self.pool, _ = served.draw(self.seed, POOL_STREAM, 0, self.w.pool_per_class)
        self.open_s = OPEN_SHARE * self.args.seconds
        self.closed_s = CLOSED_SHARE * self.args.seconds
        self.offsets = arrivals(self.seed, self.w.rate, self.open_s)
        if self.w.shard_rate:
            self.shard_offsets = arrivals(self.seed, self.w.shard_rate, self.open_s)
        self.chunks = [
            [ts.draw(self.seed, PREDICT_STREAM, k * len(self.w.fits) + j,
                     ts.chunk // len(np.unique(y)))
             for k in range(self.w.predict_chunks)]
            for j, (ts, (_, y)) in enumerate(zip(self.w.fits, self.train))
        ]
        self.inputs_s = time.perf_counter() - t
        self.notes["pool_rows"] = int(len(self.pool))

    # phases ------------------------------------------------------------------

    def fit(self, recorder) -> tuple[list, list[float]]:
        """Fit every training set once; check each fingerprint."""
        from repro import RPMClassifier

        clfs, walls = [], []
        for ts, (X, y) in zip(self.w.fits, self.train):
            clf = RPMClassifier(**ts.classifier_kwargs())
            with _root(recorder, "fit", ts.key):
                t = time.perf_counter()
                clf.fit(X, y)
                walls.append(time.perf_counter() - t)
            got = fingerprint(clf)
            want = self.references.get(ts.key)
            self.notes.setdefault("fingerprints", {})[ts.key] = got
            self.check(1, int(got != want), f"fit {ts.key}: fingerprint {got} != reference {want}")
            clfs.append(clf)
        return clfs, walls

    def predict(self, clfs, recorder, rounds, tally) -> None:
        """Predict one chunk per model for each round in ``rounds``.

        Rounds cycle through the pre-drawn chunks; each later cycle adds
        the cycle number to every value. No two calls then pass the same
        bytes (the window-statistics cache is keyed on batch content),
        while every distance, being z-normalized, and so every label
        stay those of the drawn rows. Adds the rows predicted and the
        time spent in ``predict`` to ``tally``.
        """
        n_chunks = self.w.predict_chunks
        with _root(recorder, "predict", "predict"):
            for r in rounds:
                for j, clf in enumerate(clfs):
                    X, y = self.chunks[j][r % n_chunks]
                    X = X + float(r // n_chunks)
                    t = time.perf_counter()
                    labels = clf.predict(X)
                    tally["busy"] += time.perf_counter() - t
                    tally["rows"] += len(X)
                    tally["wrong"][j] += (
                        int(np.sum(labels != y)) if len(labels) == len(y) else len(y)
                    )
                    tally["seen"][j] += len(y)

    def fit_and_predict(self, recorder) -> tuple[list, float, float, float]:
        """``fit_repeats`` cycles of (fit every set, a share of the rounds).

        Interleaving spreads both measurements over the run, so a slow
        spell of the host hits one cycle rather than a whole metric. One
        cycle when traced. Returns the last classifiers, the summed
        median fit times, the predict throughput (every row predicted
        over the time spent in ``predict``) and that time.
        """
        cycles = 1 if recorder is not None else self.w.fit_repeats
        total = self.w.predict_rounds
        walls = [[] for _ in self.w.fits]
        tally = {"rows": 0, "busy": 0.0,
                 "wrong": [0] * len(self.w.fits), "seen": [0] * len(self.w.fits)}
        for c in range(cycles):
            # Each cycle starts from a collected heap: the previous cycle's
            # models are garbage, freed here rather than inside a timed fit.
            clfs = None
            gc.collect()
            with phase("fit"):
                clfs, cycle_walls = self.fit(recorder)
            for j, wall in enumerate(cycle_walls):
                walls[j].append(wall)
            # Nor does predict pay for the fit's garbage (a DIRECT fit
            # leaves ~170k objects in reference cycles).
            gc.collect()
            with phase("predict"):
                self.predict(clfs, recorder,
                             range(c * total // cycles, (c + 1) * total // cycles), tally)
        for j, ts in enumerate(self.w.fits):
            error = tally["wrong"][j] / tally["seen"][j]
            self.notes.setdefault("predict_error", {})[ts.key] = round(error, 4)
            self.check(total, int(error > ts.max_error),
                       f"predict {ts.key}: error {error:.3f} > {ts.max_error}")
        self.notes["fit_walls"] = {ts.key: [round(w, 3) for w in walls[j]]
                                   for j, ts in enumerate(self.w.fits)}
        fit_s = sum(statistics.median(w) for w in walls)
        return clfs, fit_s, tally["rows"] / tally["busy"], tally["busy"]

    def setup(self, clf, recorder, rounds: int, import_samples: list[float]):
        """Build, warm and start the served model ``rounds`` times.

        Every round but the last is torn down again; the last one serves.
        """
        from repro.serve import CompiledModel, PredictionService
        from repro.serve.config import ServeConfig

        samples = []
        for r in range(rounds):
            with _root(recorder, "setup", f"setup{r}"):
                t = time.perf_counter()
                model = CompiledModel.from_classifier(clf)
                compile_s = time.perf_counter() - t
                live = [None, model]
                self._live.append(live)
                service = live[0] = PredictionService(model, config=ServeConfig())
                t = time.perf_counter()
                service.start()
                start_s = time.perf_counter() - t
            samples.append({"import_s": import_samples[r] if r < len(import_samples) else 0.0,
                            "compile_s": compile_s, "start_s": start_s})
            if r < rounds - 1:
                self.stop_live()
        return service, samples

    def serve(self, service, clf, recorder) -> dict:
        expected = clf.predict(self.pool)
        with _root(recorder, "serve", "closed"):
            closed = loadgen.closed_loop(
                service, self.pool, expected, seconds=self.closed_s,
                warmup=CLOSED_WARMUP_S, depth=CLOSED_DEPTH,
            )
        with _root(recorder, "serve", "open"):
            opened = loadgen.open_loop(service, self.pool, expected, self.offsets)
        for name, loop in (("closed", closed), ("open", opened)):
            self.check(loop.submitted, loop.failed,
                       f"serve {name}: {loop.failed}/{loop.submitted} requests not OK or wrong label")
        rates = loadgen.window_rates(closed, warmup=CLOSED_WARMUP_S, seconds=self.closed_s,
                                     window=RATE_WINDOW_S)
        latencies = loadgen.latencies_ms(opened)
        late = np.asarray(opened.late) * 1000.0
        return {
            "serve_rps": statistics.median(rates),
            "serve_p50_ms": float(np.median(latencies)) if latencies.size else 0.0,
            "serve.p99_ms": float(np.percentile(latencies, 99)) if latencies.size else 0.0,
            "serve.samples": int(latencies.size),
            "loadgen.late_p99_ms": float(np.percentile(late, 99)) if late.size else 0.0,
            "closed_windows": [round(x, 1) for x in rates],
        }

    def serve_sharded(self, clf, recorder) -> dict:
        """Serve ``clf`` on a one-shard ``ShardedPredictionService`` with a
        drift monitor attached: the same closed and open loops, each under
        a ``shard`` root, after a timed start. Traced pass only.

        The drift reference is the model's training features and inputs.
        Drift alerts are counted (``monitor.alerts``), not failed: the
        reference holds in-sample distances, so in-distribution traffic
        can score above the threshold.
        """
        from repro.obs.sketch import ReferenceDistribution
        from repro.serve import CompiledModel, ShardedPredictionService
        from repro.serve.config import ServeConfig

        reference = ReferenceDistribution.from_features(
            clf.selection_.train_features, self.train[self.w.served][0]
        )
        expected = clf.predict(self.pool)
        model = CompiledModel.from_classifier(clf)
        live = [None, model]
        self._live.append(live)
        service = live[0] = ShardedPredictionService(model, config=ServeConfig(n_shards=1))
        with phase("setup"), recorder.root("shard", "shard-start"):
            service.start()
            service.attach_drift(reference)
        gc.collect()
        loops = []
        with phase("serve", self.args.seconds):
            with recorder.root("shard", "shard-closed"):
                loops.append(loadgen.closed_loop(
                    service, self.pool, expected, seconds=self.closed_s,
                    warmup=CLOSED_WARMUP_S, depth=CLOSED_DEPTH,
                ))
                _await_drift(service.drift, loops)
            with recorder.root("shard", "shard-open"):
                loops.append(loadgen.open_loop(service, self.pool, expected,
                                               self.shard_offsets))
                _await_drift(service.drift, loops)
        worker_rss_mb = _worker_peak_rss_mb(service)
        for name, loop in zip(("closed", "open"), loops):
            self.check(loop.submitted, loop.failed,
                       f"sharded serve {name}: {loop.failed}/{loop.submitted} "
                       "requests not OK or wrong label")
        returns = np.concatenate([loadgen.return_ms(loop) for loop in loops])
        return {
            "shard.return_p50_ms": float(np.median(returns)) if returns.size else 0.0,
            "shard.worker_rss_mb": worker_rss_mb,
        }

    def stop_live(self) -> None:
        """Stop every service and close every model still open."""
        errors = []
        while self._live:
            service, model = self._live.pop()
            for close in (getattr(service, "stop", None), model.close):
                if close is None:
                    continue
                try:
                    close()
                except Exception as exc:  # keep closing the rest
                    errors.append(f"{close.__qualname__}: {exc!r}")
        if errors:
            raise RuntimeError("; ".join(errors))

    def run_pass(self, recorder, import_samples: list[float]) -> dict:
        """Every phase once; ``recorder`` set means the wrappers are on."""
        rounds = 1 if recorder is not None else self.w.setup_rounds
        try:
            clfs, fit_s, predict_sps, predict_busy = self.fit_and_predict(recorder)
            served = clfs[self.w.served]
            with phase("setup"):
                service, samples = self.setup(served, recorder, rounds, import_samples)
            # Serving starts from a collected heap too: a serving process
            # does not carry the fits' garbage.
            gc.collect()
            with phase("serve", self.args.seconds):
                serving = self.serve(service, served, recorder)
            if recorder is not None and self.w.shard_rate:
                self.stop_live()
                gc.collect()
                serving.update(self.serve_sharded(served, recorder))
        finally:
            self.stop_live()
        setup_totals = [sum(s.values()) for s in samples]
        return {
            "fit_s": fit_s,
            "predict_sps": predict_sps,
            "predict_busy_s": predict_busy,
            "setup_s": statistics.median(setup_totals),
            "setup_samples": samples,
            **serving,
        }


def _leftovers() -> list[str]:
    """Processes and non-daemon threads this run failed to stop."""
    found = [f"process {p.name} (pid {p.pid})" for p in multiprocessing.active_children()]
    found += [f"thread {t.name}" for t in threading.enumerate()
              if t is not threading.main_thread() and (not t.daemon or t.name.startswith("rpm-"))]
    return found


def _median_of(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def run(args, import_s: float) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    table = TINY if args.size == "tiny" else WORKLOADS
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(table)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workload = table[args.workload]
    pin_one_cpu()
    header = make_header(args, workload, host_probe_ms())
    print(json.dumps({"header": header}), flush=True)
    bench = Bench(args, workload)
    record: dict = {"header": header}
    status = 0
    try:
        with phase("inputs"):
            bench.make_inputs()
        import_samples = [import_s] + [
            _import_sample() for _ in range(workload.setup_rounds - 1)
        ]
        untraced = bench.run_pass(None, import_samples)
        untraced["peak_rss_mb"] = _peak_rss_mb()
        record["untraced"] = untraced
        if args.trace:
            metrics = traced_metrics(bench, untraced, record)
            units = layers.UNITS
            record["exact"] = layers.exact_metrics(
                all(ts.classifier.get("n_jobs", 1) == 1 for ts in workload.fits)
            )
        else:
            metrics = {name: untraced[name] for name in END_TO_END}
            units = END_TO_END
    except (PhaseTimeout, Terminated, Exception):
        traceback.print_exc()
        status = 1
    finally:
        try:
            bench.stop_live()
        except Exception:
            traceback.print_exc()
            status = 1
    leftovers = _leftovers()
    if leftovers:
        print("error: still alive at exit: " + ", ".join(leftovers), file=sys.stderr)
        status = 3
    header["host_probe_ms_end"] = round(host_probe_ms(), 3)
    record.update(failures=bench.failures, notes=bench.notes)
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{workload.name}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    if status:
        out_path.write_text(json.dumps(record, indent=1, default=str))
        if leftovers:  # a live non-daemon thread would block interpreter exit
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(status)
        return status
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    record["result"] = result
    out_path.write_text(json.dumps(record, indent=1, default=str))
    for message in bench.failures:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"notes": bench.notes, "exact": record.get("exact", [])},
                     default=str), flush=True)
    print(json.dumps(result), flush=True)
    return 0


def traced_metrics(bench: Bench, untraced: dict, record: dict) -> dict:
    """Run every phase again under the wrappers; derive per-layer metrics."""
    recorder = Recorder()
    installed = install(recorder, layers.BOUNDARIES)
    try:
        traced = bench.run_pass(recorder, [])
    finally:
        uninstall(installed)
    samples = untraced["setup_samples"]
    extra = {
        "setup.import_s": _median_of(samples, "import_s"),
        "setup.compile_s": _median_of(samples, "compile_s"),
        "setup.start_s": _median_of(samples, "start_s"),
        "setup.inputs_s": bench.inputs_s,
        "serve.p99_ms": untraced["serve.p99_ms"],
        "serve.samples": untraced["serve.samples"],
        "loadgen.late_p99_ms": untraced["loadgen.late_p99_ms"],
        "shard.return_p50_ms": traced.get("shard.return_p50_ms", 0.0),
        "shard.worker_rss_mb": traced.get("shard.worker_rss_mb", 0.0),
        "trace.overhead_ratio": (traced["fit_s"] + traced["predict_busy_s"])
        / (untraced["fit_s"] + untraced["predict_busy_s"]),
        "trace.fit_overhead_ratio": traced["fit_s"] / untraced["fit_s"],
        "trace.predict_overhead_ratio": traced["predict_busy_s"] / untraced["predict_busy_s"],
        "trace.serve_overhead_ratio": untraced["serve_rps"] / traced["serve_rps"],
    }
    metrics = layers.layer_metrics(recorder, extra)
    record["traced"] = {k: v for k, v in traced.items() if k != "setup_samples"}
    record["table_violations"] = layers.table_violations(bench.w.name, metrics)
    OUT.mkdir(exist_ok=True)
    recorder.write_jsonl(OUT / f"{bench.w.name}-{bench.args.size}-seed{bench.seed}-spans.jsonl")
    return metrics

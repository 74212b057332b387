"""Command-line interface.

Usage (after ``pip install -e .``; installed as both ``rpm`` and
``repro``)::

    rpm datasets                     # list available datasets
    rpm train CBF -o model.npz       # mine patterns + save model
    rpm evaluate CBF                 # train/test error on a dataset
    rpm evaluate CBF --method NN-ED  # a baseline instead of RPM
    rpm patterns model.npz           # inspect a saved model
    rpm classify model.npz data.txt  # label series via the in-process model
    rpm predict --model model.npz data.txt   # label series via repro.serve
    rpm serve --model model.npz      # micro-batched serving loop on stdin
    rpm serve --model model.npz --http-port 9100 --log-format json
    rpm serve --registry models/ --http-port 9100   # serve the promoted version
    rpm serve --registry models/ --shadow v3 --shadow-report-out shadow.json
    rpm serve --registry models/ --drift --http-port 9100   # + GET /drift
    rpm model publish models/ model.npz      # version an artifact with lineage
    rpm model publish models/ model.npz --reference  # + drift reference
    rpm drift models/ --data new_traffic.txt # offline drift comparison
    rpm model list models/                   # every version + promotion marker
    rpm model promote models/ v2 --shadow-report shadow.json --max-disagreement 0.01
    rpm model rollback models/               # CURRENT back to the previous version
    rpm metrics --url http://127.0.0.1:9100  # scrape a live admin endpoint
    rpm metrics --jsonl metrics.jsonl --format prometheus
    rpm metrics --url http://127.0.0.1:9100 --route drift  # render GET /drift

``train``/``evaluate`` accept either a registry dataset name or (when
``RPM_UCR_ROOT`` is set) a real UCR archive dataset. ``predict`` and
``serve`` run the compiled inference engine (``repro.serve``) — the
production path for persisted artifacts; ``classify`` keeps the simple
in-process path for comparison.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from .baselines import (
    FastShapeletsClassifier,
    LearningShapeletsClassifier,
    NearestNeighborDTW,
    NearestNeighborED,
    SaxVsmClassifier,
)
from .core.io import load_model, save_model
from .core.rpm import RPMClassifier
from .data import GENERATORS, available_ucr_datasets, load
from .data.ucr import load_ucr_file
from .ml.metrics import error_rate
from .obs import (
    Tracer,
    configure_logging,
    format_tree,
    registry,
    snapshot_from_jsonl,
    to_json,
    to_prometheus,
    write_jsonl,
)
from .runtime.kernel import KERNEL_BACKENDS
from .sax.discretize import REDUCTIONS, SaxParams
from .serve import (
    CompiledModel,
    ModelHandle,
    ModelRegistry,
    PredictionService,
    PromotionGate,
    ServeConfig,
    ShadowReport,
    ShardedPredictionService,
    build_reference,
    offline_drift_report,
)

BASELINES = {
    "NN-ED": NearestNeighborED,
    "NN-DTWB": NearestNeighborDTW,
    "SAX-VSM": SaxVsmClassifier,
    "FS": FastShapeletsClassifier,
    "LS": LearningShapeletsClassifier,
}


def _positive_int(text: str) -> int:
    """Argparse type for flags that must be strictly positive.

    Rejecting zero and negatives at the parser gives a clear usage
    error instead of a traceback (or a degenerate batch size) deep
    inside the pipeline.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    """Argparse type for float flags that must be strictly positive.

    Mirrors :func:`_positive_int`: a zero or negative threshold
    (``--admission-budget-ms -5``) is a configuration mistake that
    previously slipped through ``type=float`` and shed every request —
    reject it at the parser with a usage error instead.
    """
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be a positive number, got {value}")
    return value


def _nonnegative_float(text: str) -> float:
    """Argparse type for float flags where zero means 'disabled'.

    ``--slow-ms`` documents ``0`` as the explicit disable sentinel
    (``ServeConfig`` and both tiers treat a falsy ``slow_ms`` as "no
    slow capture"), so only negatives are configuration mistakes.
    """
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    """Argparse type for flags where zero means 'disabled'."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _jobs_count(text: str) -> int:
    """Argparse type for ``--jobs``: a positive worker count or -1 (all CPUs)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value == 0 or value < -1:
        raise argparse.ArgumentTypeError(
            f"must be a positive worker count or -1 for all CPUs, got {value}"
        )
    return value


def _tracer_for(args) -> Tracer | None:
    """A live tracer when ``--trace``/``--metrics-out`` ask for one."""
    if getattr(args, "trace", False) or getattr(args, "metrics_out", None):
        return Tracer()
    return None


def _emit_observability(args, tracer: Tracer | None) -> None:
    """Print the span tree and/or write the JSON-lines dump."""
    if tracer is None:
        return
    if args.trace:
        print("\n-- trace --")
        print(format_tree(tracer))
    if args.metrics_out:
        path = write_jsonl(
            args.metrics_out,
            tracer=tracer,
            metrics=registry(),
            meta={"command": args.command, "dataset": getattr(args, "dataset", None)},
        )
        print(f"metrics written to {path}")


def _build_rpm(args, tracer: Tracer | None = None) -> RPMClassifier:
    runtime = dict(
        n_jobs=args.jobs,
        parallel_backend=args.parallel_backend,
        kernel_backend=args.kernel_backend,
        numerosity_reduction=args.numerosity,
        trace=tracer,
    )
    if args.window:
        params = SaxParams(args.window, args.paa, args.alphabet)
        return RPMClassifier(sax_params=params, gamma=args.gamma, seed=args.seed, **runtime)
    return RPMClassifier(
        direct_budget=args.budget,
        n_splits=args.splits,
        gamma=args.gamma,
        seed=args.seed,
        **runtime,
    )


def cmd_datasets(_args) -> int:
    """``repro datasets``: list every available dataset."""
    print("synthetic registry datasets:")
    for name in sorted(GENERATORS):
        print(f"  {load(name).summary_row()}")
    ucr = available_ucr_datasets()
    if ucr:
        print("\nUCR archive datasets (RPM_UCR_ROOT):")
        for name in ucr:
            print(f"  {name}")
    return 0


def cmd_train(args) -> int:
    """``repro train``: fit RPM on a dataset, optionally save it."""
    dataset = load(args.dataset)
    tracer = _tracer_for(args)
    clf = _build_rpm(args, tracer)
    start = time.perf_counter()
    clf.fit(dataset.X_train, dataset.y_train)
    elapsed = time.perf_counter() - start
    err = error_rate(dataset.y_test, clf.predict(dataset.X_test))
    print(f"{dataset.name}: trained in {elapsed:.1f}s, "
          f"{len(clf.patterns_)} patterns, test error {err:.3f}")
    if args.output:
        save_model(clf, args.output)
        print(f"model saved to {args.output}")
    _emit_observability(args, tracer)
    return 0


def cmd_evaluate(args) -> int:
    """``repro evaluate``: score one method on one dataset."""
    dataset = load(args.dataset)
    tracer = _tracer_for(args) if args.method == "RPM" else None
    if args.method == "RPM":
        model = _build_rpm(args, tracer)
    else:
        model = BASELINES[args.method]()
    start = time.perf_counter()
    model.fit(dataset.X_train, dataset.y_train)
    train_time = time.perf_counter() - start
    start = time.perf_counter()
    predictions = model.predict(dataset.X_test)
    test_time = time.perf_counter() - start
    err = error_rate(dataset.y_test, predictions)
    print(
        f"{dataset.name} / {args.method}: error {err:.3f} "
        f"(train {train_time:.1f}s, classify {test_time:.1f}s)"
    )
    _emit_observability(args, tracer)
    return 0


def cmd_patterns(args) -> int:
    """``repro patterns``: print a saved model's patterns."""
    clf = load_model(args.model)
    print(clf.describe_patterns())
    return 0


def cmd_classify(args) -> int:
    """``repro classify``: label UCR-format series with a saved model."""
    clf = load_model(args.model)
    X, _ = load_ucr_file(args.data)
    for i, label in enumerate(clf.predict(X)):
        print(f"{i}\t{label}")
    return 0


def _open_handle(args, tracer: Tracer | None = None) -> ModelHandle:
    """The serving :class:`ModelHandle` from the model-source flags.

    ``--model PATH`` opens one artifact directly; ``--registry DIR``
    opens a version (``--model-version``, default the promoted
    ``current``) with integrity checks and enables version-name
    hot-swap via the admin ``POST /swap``.
    """
    shards = getattr(args, "shards", 0)
    runtime = dict(
        n_jobs=1 if shards else args.jobs,
        parallel_backend=args.parallel_backend,
        kernel_backend=args.kernel_backend,
        dtype=getattr(args, "model_dtype", "float64"),
        trace=tracer,
    )
    registry_dir = getattr(args, "registry", None)
    if registry_dir:
        version = getattr(args, "model_version", None) or "current"
        return ModelHandle.open(version, registry=registry_dir, **runtime)
    if not args.model:
        raise ValueError("pass --model PATH or --registry DIR")
    return ModelHandle.open(args.model, **runtime)


def _build_service(args, tracer: Tracer | None = None):
    """Serving tier from the serve flags, all knobs via ServeConfig.

    ``--shards 0`` (default) builds the in-process
    :class:`PredictionService`; ``--shards N`` builds the sharded
    multi-process tier with its shared-memory pattern bank and
    admission control. Both expose the same client API, so callers
    never branch.
    """
    config = ServeConfig.from_args(args)
    handle = _open_handle(args, tracer)
    if config.n_shards:
        return ShardedPredictionService(handle, config=config, trace=tracer)
    return PredictionService(handle, config=config, trace=tracer)


def _result_record(index, result) -> dict:
    """JSON-safe view of one PredictionResult."""
    record = {
        "index": index,
        "request_id": result.request_id,
        "status": result.status.value,
        "label": None if result.label is None else np.asarray(result.label).item(),
        "latency_ms": round(result.latency_ms, 3),
    }
    if result.model_version is not None:
        record["model_version"] = result.model_version
    if result.batch_id is not None:
        record["batch_id"] = result.batch_id
    if result.error_code:
        record["error_code"] = result.error_code
        record["error"] = result.error_message
    if result.deadline_missed:
        record["deadline_missed"] = True
    return record


def cmd_predict(args) -> int:
    """``rpm predict``: label UCR-format series through ``repro.serve``.

    Unlike ``classify`` this exercises the full serving path — compiled
    pattern bank, validation, micro-batching, deadlines — and reports a
    typed per-row status instead of failing on the first bad row.
    """
    tracer = _tracer_for(args)
    X, _ = load_ucr_file(args.data)
    with _build_service(args, tracer) as service:
        results = service.predict_many(X, deadline_ms=args.deadline_ms)
    failed = sum(not r.ok for r in results)
    for i, result in enumerate(results):
        if args.json:
            print(json.dumps(_result_record(i, result)))
        elif result.ok:
            print(f"{i}\t{np.asarray(result.label).item()}")
        else:
            print(f"{i}\t<{result.status.value}:{result.error_code or '-'}>")
    if failed:
        print(f"{failed}/{len(results)} requests failed", file=sys.stderr)
    _emit_observability(args, tracer)
    return 0 if failed == 0 else 3


def cmd_serve(args) -> int:
    """``rpm serve``: micro-batched serving loop over stdin lines.

    Each input line is one series (whitespace- or comma-separated
    values); each output line is one JSON result record. The loop is
    the same engine ``predict`` uses, kept open until EOF — pipe
    requests in, stream typed predictions out.
    """
    configure_logging(args.log_format)
    tracer = _tracer_for(args)
    stream = sys.stdin if args.input == "-" else open(args.input)
    try:
        with _build_service(args, tracer) as service:
            print(service.model.describe(), file=sys.stderr)
            if service.admin is not None:
                print(f"admin endpoint on {service.admin.url()}", file=sys.stderr)
            if args.shadow:
                scorer = service.attach_shadow(
                    args.shadow, fraction=args.shadow_fraction
                )
                print(
                    f"shadow scoring {args.shadow} "
                    f"(fraction {scorer.fraction})",
                    file=sys.stderr,
                )
            if args.drift:
                # Registry serving resolves the stored (or rebuilt)
                # reference for the live version; bare-path serving
                # rebuilds one from the artifact's archived features.
                monitor = service.attach_drift(
                    None if getattr(args, "registry", None) else args.model
                )
                print(
                    f"drift monitoring on (window {monitor.window}, "
                    f"threshold {monitor.threshold})",
                    file=sys.stderr,
                )
            count = 0
            for line in stream:
                line = line.strip()
                if not line:
                    continue
                parts = line.replace(",", " ").split()
                try:
                    series = np.array([float(p) for p in parts])
                except ValueError:
                    series = np.array(parts, dtype=object)
                result = service.predict_one(series, deadline_ms=args.deadline_ms)
                print(json.dumps(_result_record(count, result)), flush=True)
                count += 1
            print(f"served {count} requests", file=sys.stderr)
            report = service.detach_shadow()
            if report is not None:
                print(
                    f"shadow report: {report.n_scored} scored, "
                    f"disagreement {report.disagreement_rate:.4f}",
                    file=sys.stderr,
                )
                if args.shadow_report_out:
                    with open(args.shadow_report_out, "w") as fh:
                        json.dump(report.as_record(), fh, indent=2)
                        fh.write("\n")
                    print(
                        f"shadow report written to {args.shadow_report_out}",
                        file=sys.stderr,
                    )
            drift_state = service.detach_drift()
            if drift_state is not None:
                print(
                    f"drift: score {drift_state['score']:.4f} "
                    f"(threshold {drift_state['threshold']}, "
                    f"alert {drift_state['alert']})",
                    file=sys.stderr,
                )
    finally:
        if stream is not sys.stdin:
            stream.close()
    _emit_observability(args, tracer)
    return 0


def cmd_metrics(args) -> int:
    """``rpm metrics``: snapshot metrics from a live service or a dump.

    ``--url`` scrapes the admin endpoint of a running ``rpm serve
    --http-port`` process (its ``/metrics.json`` view); ``--jsonl``
    rebuilds the snapshot from a ``--metrics-out`` JSON-lines dump.
    Either renders as Prometheus text or a JSON document.
    ``--route drift`` scrapes ``GET /drift`` instead (``--url`` only)
    and renders its gauges through the same exporter machinery.
    """
    if args.url:
        import urllib.error
        import urllib.request

        route = "/drift" if args.route == "drift" else "/metrics.json"
        try:
            with urllib.request.urlopen(
                args.url.rstrip("/") + route, timeout=args.timeout
            ) as response:
                payload = json.load(response)
        except urllib.error.HTTPError as exc:
            detail = ""
            try:
                detail = json.load(exc).get("error", "")
            except Exception:
                pass
            print(
                f"error: {args.url}{route} returned {exc.code}"
                + (f": {detail}" if detail else ""),
                file=sys.stderr,
            )
            return 1
        except urllib.error.URLError as exc:
            print(f"error: cannot scrape {args.url}: {exc}", file=sys.stderr)
            return 1
        if args.route == "drift":
            # The /drift body carries its values as flat gauge names
            # under "gauges" precisely so it can ride the standard
            # snapshot renderers below.
            snapshot = {
                "counters": {},
                "gauges": payload.get("gauges", {}),
                "histograms": {},
            }
            if args.format == "json":
                print(json.dumps(payload, indent=2, sort_keys=True))
                return 0
        else:
            snapshot = payload
    else:
        if args.route == "drift":
            print(
                "error: --route drift scrapes a live endpoint; "
                "it cannot render a --jsonl dump",
                file=sys.stderr,
            )
            return 1
        snapshot = snapshot_from_jsonl(args.jsonl)
    if args.format == "prometheus":
        print(to_prometheus(snapshot), end="")
    else:
        print(to_json(snapshot, indent=2))
    return 0


def cmd_model(args) -> int:
    """``rpm model``: manage a versioned model registry.

    ``publish`` validates + copies one ``save_model`` artifact into the
    registry with lineage metadata; ``list`` shows every version
    (``*`` marks the promoted CURRENT); ``promote`` moves the CURRENT
    pointer, optionally behind a :class:`PromotionGate` fed by a
    ``rpm serve --shadow-report-out`` JSON; ``rollback`` returns to the
    previously promoted version.
    """
    reg = ModelRegistry(args.registry_dir)
    if args.model_command == "publish":
        mv = reg.publish(
            args.artifact,
            version=args.as_version,
            parent=args.parent,
            notes=args.notes,
            reference=args.reference,
        )
        print(f"published {mv.version} (sha256 {mv.sha256[:12]}…, "
              f"{mv.size_bytes} bytes)")
        if mv.reference_sha256:
            print(f"reference distribution stored "
                  f"(sha256 {mv.reference_sha256[:12]}…)")
        return 0
    if args.model_command == "list":
        versions = reg.list_versions()
        if args.json:
            print(json.dumps([mv.as_record() for mv in versions], indent=2))
            return 0
        current = reg.current()
        if not versions:
            print(f"registry {reg.root} is empty")
            return 0
        for mv in versions:
            marker = "*" if mv.version == current else " "
            parent = f" <- {mv.parent}" if mv.parent else ""
            print(f"{marker} {mv.version:12s} {mv.status:8s} "
                  f"sha256 {mv.sha256[:12]}…{parent}")
        return 0
    if args.model_command == "promote":
        gate = report = None
        if args.shadow_report:
            with open(args.shadow_report) as fh:
                report = ShadowReport.from_record(json.load(fh))
            gate = PromotionGate(
                max_disagreement=args.max_disagreement,
                max_latency_regression=args.max_latency_regression,
                min_requests=args.min_requests,
            )
        mv = reg.promote(args.version, gate=gate, report=report)
        print(f"promoted {mv.version} (CURRENT)")
        return 0
    if args.model_command == "rollback":
        mv = reg.rollback()
        print(f"rolled back to {mv.version} (CURRENT)")
        return 0
    raise ValueError(f"unknown model subcommand {args.model_command!r}")


def cmd_drift(args) -> int:
    """``rpm drift``: offline drift comparison against a registry version.

    ``--data`` runs the version's compiled model over a UCR-format file
    and compares the resulting feature distributions against the
    version's training reference (stored by ``rpm model publish
    --reference``, or rebuilt on the spot from the archived train
    features); ``--jsonl`` instead re-judges the ``serve.drift.*``
    gauges a monitored serve run dumped via ``--metrics-out``.
    Exit code 0 = in distribution, 3 = the drift score exceeds the
    threshold.
    """
    reg = ModelRegistry(args.registry_dir)
    if args.jsonl:
        snap = snapshot_from_jsonl(args.jsonl)
        gauges = snap.get("gauges", {})
        if "serve.drift.score" not in gauges:
            print(
                f"error: {args.jsonl} records no serve.drift.* gauges "
                f"(was the serve run monitored with --drift?)",
                file=sys.stderr,
            )
            return 1
        score = float(gauges["serve.drift.score"])
        prefix = "serve.drift.psi[column="
        per_column = {
            int(name[len(prefix):-1]): float(value)
            for name, value in gauges.items()
            if name.startswith(prefix)
        }
        offenders = sorted(per_column.items(), key=lambda kv: -kv[1])[:3]
        report = {
            "score": score,
            "threshold": args.threshold,
            "alert": score > args.threshold,
            "source": args.jsonl,
            "columns": [
                {"column": k, "psi": per_column[k]} for k in sorted(per_column)
            ],
            "top_offenders": [
                {"column": k, "psi": v} for k, v in offenders if v > 0
            ],
            "reference": reg.get(args.version).version,
        }
    else:
        ref = reg.reference(args.version)
        if ref is None:
            mv = reg.get(args.version)
            ref = build_reference(mv.path, source=f"{mv.version}/model.npz")
        X, _ = load_ucr_file(args.data)
        with reg.open(args.version) as model:
            features = model.transform(X)
        report = offline_drift_report(ref, features, X, threshold=args.threshold)
        report["source"] = args.data
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        status = "ALERT" if report["alert"] else "ok"
        print(
            f"drift score {report['score']:.4f} vs threshold "
            f"{report['threshold']} [{status}] "
            f"({report['source']} vs {args.version})"
        )
        for offender in report["top_offenders"]:
            print(f"  column {offender['column']}: psi {offender['psi']:.4f}")
    return 3 if report["alert"] else 0


def cmd_motifs(args) -> int:
    """``repro motifs``: motif/discord discovery on a long series."""
    from .motif import find_discords_density, find_motifs
    from .viz import sparkline

    X, _ = load_ucr_file(args.data)
    series = X.ravel() if X.shape[0] == 1 else np.concatenate(list(X))
    params = SaxParams(args.window, args.paa, args.alphabet)
    motifs = find_motifs(series, params, top_k=args.top, rank_by=args.rank)
    print(f"{len(series)}-point series, SAX {params.as_tuple()}:")
    for motif in motifs:
        print(
            f"R{motif.rule_id}: freq={motif.frequency} "
            f"mean_len={motif.mean_length():.0f} covers={motif.covered_points()}"
        )
        if motif.prototype is not None:
            print("  " + sparkline(motif.prototype, width=48))
    if args.discords:
        for discord in find_discords_density(series, params, n_discords=args.discords):
            print(
                f"discord [{discord.start}, {discord.end}) "
                f"score={discord.score:.2f} density={discord.density:.1f}"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RPM (EDBT 2016) — representative pattern mining for "
        "time series classification",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list available datasets").set_defaults(
        func=cmd_datasets
    )

    def add_rpm_options(p):
        p.add_argument("--gamma", type=float, default=0.2, help="min motif support")
        p.add_argument("--budget", type=int, default=40, help="DIRECT evaluations")
        p.add_argument("--splits", type=int, default=3, help="validation splits")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--window", type=int, default=0,
                       help="fixed SAX window (skips parameter search)")
        p.add_argument("--paa", type=int, default=6, help="fixed PAA size")
        p.add_argument("--alphabet", type=int, default=5, help="fixed alphabet size")
        p.add_argument("--jobs", type=_jobs_count, default=1,
                       help="parallel workers (-1 = all CPUs); results are "
                            "identical to serial")
        p.add_argument("--parallel-backend", choices=["serial", "thread", "process"],
                       default="thread", help="parallel execution backend")
        p.add_argument("--kernel-backend", choices=list(KERNEL_BACKENDS),
                       default="auto",
                       help="distance-kernel implementation: 'matvec' is the "
                            "exact per-pattern path, 'fft' batches patterns "
                            "through one series spectrum, 'auto' picks FFT "
                            "only above the calibrated crossover")
        p.add_argument("--numerosity", choices=list(REDUCTIONS), default="exact",
                       help="numerosity reduction mode: 'exact' collapses "
                            "runs of identical SAX words (paper default), "
                            "'mindist' also collapses near-identical "
                            "neighbours, 'none' keeps every window")
        p.add_argument("--trace", action="store_true",
                       help="print a per-stage span tree (wall times) after the run")
        p.add_argument("--metrics-out", metavar="PATH", default=None,
                       help="write spans + metrics as JSON lines to PATH")

    train = sub.add_parser("train", help="train RPM on a dataset")
    train.add_argument("dataset")
    train.add_argument("-o", "--output", help="save the model (.npz)")
    add_rpm_options(train)
    train.set_defaults(func=cmd_train)

    evaluate = sub.add_parser("evaluate", help="error rate of a method on a dataset")
    evaluate.add_argument("dataset")
    evaluate.add_argument(
        "--method", choices=["RPM", *BASELINES], default="RPM"
    )
    add_rpm_options(evaluate)
    evaluate.set_defaults(func=cmd_evaluate)

    patterns = sub.add_parser("patterns", help="inspect a saved model")
    patterns.add_argument("model")
    patterns.set_defaults(func=cmd_patterns)

    classify = sub.add_parser("classify", help="label UCR-format series")
    classify.add_argument("model")
    classify.add_argument("data", help="UCR-format text file")
    classify.set_defaults(func=cmd_classify)

    def add_serve_options(p):
        p.add_argument("--model", default=None, help="saved model (.npz)")
        p.add_argument("--registry", metavar="DIR", default=None,
                       help="serve out of a model registry instead of a bare "
                            "path; loads the promoted 'current' version "
                            "(override with --model-version) and enables "
                            "version-name hot-swap via POST /swap")
        p.add_argument("--model-version", default=None,
                       help="registry version to serve (default: the "
                            "promoted 'current'; 'latest' = newest publish)")
        p.add_argument("--model-dtype", choices=list(CompiledModel.DTYPES),
                       default="float64",
                       help="pattern-bank value dtype; float32 halves the "
                            "bank at the cost of bitwise equivalence with "
                            "RPMClassifier (gate it through shadow scoring)")
        p.add_argument("--max-batch", type=_positive_int, default=32,
                       help="largest micro-batch coalesced into one model call")
        p.add_argument("--max-delay-ms", type=float, default=2.0,
                       help="longest a batch window stays open (0 disables "
                            "coalescing)")
        p.add_argument("--deadline-ms", type=float, default=None,
                       help="per-request deadline; expired requests get a "
                            "typed timeout result")
        p.add_argument("--no-warmup", action="store_true",
                       help="skip the warm-up batch on startup")
        p.add_argument("--slow-ms", type=_nonnegative_float, default=250.0,
                       help="flight-record OK requests at or above this "
                            "latency in milliseconds (0 disables slow "
                            "capture)")
        p.add_argument("--flight-size", type=_nonnegative_int, default=128,
                       help="flight-recorder ring size — recent slow/error/"
                            "timeout requests kept for /debug/requests "
                            "(0 disables capture)")
        p.add_argument("--jobs", type=_jobs_count, default=1,
                       help="parallel workers for the compiled transform "
                            "(-1 = all CPUs; ignored with --shards)")
        p.add_argument("--shards", type=_nonnegative_int, default=0,
                       help="worker processes for the sharded serving tier "
                            "(0 = single-process service)")
        p.add_argument("--admission-budget-ms", type=_positive_float, default=None,
                       help="shed requests with a typed OVERLOAD result when "
                            "a shard's estimated queue wait exceeds this "
                            "budget (sharded tier only)")
        p.add_argument("--max-queue", type=_positive_int, default=256,
                       help="hard cap on in-flight requests per shard; at "
                            "the cap, submits shed with OVERLOAD "
                            "(sharded tier only)")
        p.add_argument("--parallel-backend", choices=["serial", "thread", "process"],
                       default="thread", help="parallel execution backend")
        p.add_argument("--kernel-backend", choices=list(KERNEL_BACKENDS),
                       default="auto",
                       help="distance-kernel implementation for the compiled "
                            "bucket transform ('auto' = FFT above the "
                            "calibrated crossover, exact mat-vec below)")
        p.add_argument("--trace", action="store_true",
                       help="print a per-stage span tree (wall times) after the run")
        p.add_argument("--metrics-out", metavar="PATH", default=None,
                       help="write spans + metrics as JSON lines to PATH")

    predict = sub.add_parser(
        "predict", help="label UCR-format series via the repro.serve engine"
    )
    predict.add_argument("data", help="UCR-format text file")
    predict.add_argument("--json", action="store_true",
                         help="emit one JSON result record per row")
    add_serve_options(predict)
    predict.set_defaults(func=cmd_predict)

    serve = sub.add_parser(
        "serve", help="micro-batched serving loop (one series per input line)"
    )
    serve.add_argument("--input", default="-",
                       help="request source file ('-' = stdin)")
    serve.add_argument("--http-port", type=_nonnegative_int, default=None,
                       help="embedded admin endpoint port (/metrics /healthz "
                            "/readyz /debug/requests; 0 = ephemeral)")
    serve.add_argument("--log-format", choices=["text", "json"], default="text",
                       help="structured log line format on stderr")
    serve.add_argument("--shadow", metavar="TARGET", default=None,
                       help="mirror a fraction of traffic onto a candidate "
                            "model off the latency path (a registry version "
                            "name or an .npz path)")
    serve.add_argument("--shadow-fraction", type=float, default=0.1,
                       help="fraction of OK requests mirrored to the shadow "
                            "candidate (0 < f <= 1)")
    serve.add_argument("--shadow-report-out", metavar="PATH", default=None,
                       help="write the final ShadowReport as JSON to PATH "
                            "on shutdown (feeds 'rpm model promote "
                            "--shadow-report')")
    serve.add_argument("--drift", action="store_true",
                       help="monitor live traffic for distribution drift "
                            "against the served version's training reference "
                            "(publish with --reference, or the reference is "
                            "rebuilt from the artifact's archived features); "
                            "exposes serve.drift.* gauges and GET /drift")
    serve.add_argument("--drift-window", type=_positive_int, default=256,
                       help="recent-window half-life in observations for the "
                            "decayed drift sketches")
    serve.add_argument("--drift-threshold", type=_positive_float, default=0.25,
                       help="aggregate PSI above which the drift alert fires "
                            "(flight-recorded on the rising edge)")
    add_serve_options(serve)
    serve.set_defaults(func=cmd_serve)

    metrics = sub.add_parser(
        "metrics", help="snapshot metrics from a live admin endpoint or a dump"
    )
    source = metrics.add_mutually_exclusive_group(required=True)
    source.add_argument("--url", default=None,
                        help="base URL of a running admin endpoint "
                             "(e.g. http://127.0.0.1:9100)")
    source.add_argument("--jsonl", default=None,
                        help="a --metrics-out JSON-lines dump to render")
    metrics.add_argument("--format", choices=["prometheus", "json"],
                         default="prometheus", help="output format")
    metrics.add_argument("--route", choices=["metrics", "drift"],
                         default="metrics",
                         help="admin route to render: 'metrics' = the full "
                              "snapshot, 'drift' = GET /drift (--url only; "
                              "json format emits the full payload)")
    metrics.add_argument("--timeout", type=float, default=5.0,
                         help="scrape timeout in seconds (--url only)")
    metrics.set_defaults(func=cmd_metrics)

    model = sub.add_parser(
        "model", help="manage a versioned model registry (publish/promote)"
    )
    model_sub = model.add_subparsers(dest="model_command", required=True)

    publish = model_sub.add_parser(
        "publish", help="validate + copy an artifact into the registry"
    )
    publish.add_argument("registry_dir", help="registry root directory")
    publish.add_argument("artifact", help="saved model (.npz) to publish")
    publish.add_argument("--as-version", default=None, metavar="NAME",
                         help="version name (default: v<N+1>)")
    publish.add_argument("--parent", default=None,
                         help="lineage: the already-published parent version")
    publish.add_argument("--notes", default="", help="free-form notes")
    publish.add_argument("--reference", action="store_true",
                         help="also compute + store the version's training "
                              "reference distribution (reference.json, "
                              "integrity-tracked) for drift monitoring "
                              "('rpm serve --drift' / 'rpm drift')")
    publish.set_defaults(func=cmd_model)

    model_list = model_sub.add_parser(
        "list", help="every published version; * marks CURRENT"
    )
    model_list.add_argument("registry_dir", help="registry root directory")
    model_list.add_argument("--json", action="store_true",
                            help="emit the full lineage records as JSON")
    model_list.set_defaults(func=cmd_model)

    promote = model_sub.add_parser(
        "promote", help="point CURRENT at a version (optionally gated)"
    )
    promote.add_argument("registry_dir", help="registry root directory")
    promote.add_argument("version", help="version to promote")
    promote.add_argument("--shadow-report", metavar="PATH", default=None,
                         help="gate the promotion on a 'rpm serve "
                              "--shadow-report-out' JSON report")
    promote.add_argument("--max-disagreement", type=float, default=0.01,
                         help="gate: highest tolerated label disagreement "
                              "rate vs the primary (with --shadow-report)")
    promote.add_argument("--max-latency-regression", type=float, default=0.25,
                         help="gate: highest tolerated relative mean-latency "
                              "regression (with --shadow-report)")
    promote.add_argument("--min-requests", type=_positive_int, default=1,
                         help="gate: fewest shadow-scored requests required "
                              "for the report to count (with --shadow-report)")
    promote.set_defaults(func=cmd_model)

    rollback = model_sub.add_parser(
        "rollback", help="move CURRENT back to the previous promotion"
    )
    rollback.add_argument("registry_dir", help="registry root directory")
    rollback.set_defaults(func=cmd_model)

    drift = sub.add_parser(
        "drift", help="offline drift comparison against a registry version"
    )
    drift.add_argument("registry_dir", help="registry root directory")
    drift.add_argument("--version", default="current",
                       help="registry version whose training reference to "
                            "compare against (default: the promoted "
                            "'current')")
    drift_source = drift.add_mutually_exclusive_group(required=True)
    drift_source.add_argument("--data", default=None,
                              help="UCR-format text file to score and compare")
    drift_source.add_argument("--jsonl", default=None,
                              help="a --metrics-out dump from a monitored "
                                   "serve run; its recorded serve.drift.* "
                                   "gauges are re-judged against --threshold")
    drift.add_argument("--threshold", type=_positive_float, default=0.25,
                       help="aggregate PSI above which the comparison exits "
                            "with code 3")
    drift.add_argument("--json", action="store_true",
                       help="emit the full report as JSON")
    drift.set_defaults(func=cmd_drift)

    motifs = sub.add_parser(
        "motifs", help="discover motifs/discords in a long series"
    )
    motifs.add_argument("data", help="UCR-format text file (rows are concatenated)")
    motifs.add_argument("--window", type=int, default=40)
    motifs.add_argument("--paa", type=int, default=5)
    motifs.add_argument("--alphabet", type=int, default=4)
    motifs.add_argument("--top", type=int, default=5, help="motifs to report")
    motifs.add_argument("--rank", choices=["frequency", "length", "coverage"],
                        default="frequency")
    motifs.add_argument("--discords", type=int, default=0,
                        help="also report this many discords")
    motifs.set_defaults(func=cmd_motifs)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

import numpy as np
import pytest

from repro import cli
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train", "CBF"])
        assert args.dataset == "CBF"
        assert args.gamma == 0.2

    def test_evaluate_method_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "CBF", "--method", "nope"])


class TestFlagValidation:
    """Numeric flags fail at the parser, not deep inside the pipeline."""

    SERVE = ["serve", "--model", "m.npz", "--max-batch"]

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_max_batch_rejects_non_positive(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*self.SERVE, value])
        assert exc.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err

    def test_max_batch_rejects_garbage(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([*self.SERVE, "many"])
        assert "expected an integer" in capsys.readouterr().err

    def test_max_batch_accepts_positive(self):
        args = build_parser().parse_args([*self.SERVE, "7"])
        assert args.max_batch == 7

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize(
        "flag", ["--cache-size", "--discretize-cache-size", "--selection-cache-size"]
    )
    def test_cache_size_flags_are_gone(self, command, flag, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "CBF", flag, "7"])
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--top", "0", "must be a positive integer"),
            ("--top", "-1", "must be a positive integer"),
            ("--discords", "-1", "must be >= 0"),
        ],
    )
    def test_motif_counts_reject_out_of_range(self, flag, value, message, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["motifs", "series.txt", flag, value])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("flag", ["--budget", "--splits"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_search_budget_rejects_non_positive(self, command, flag, value, capsys):
        # Before, `--splits 0` pruned every triple and `--budget 0` ran one
        # evaluation, and the run exited 0 on a fallback triple.
        with pytest.raises(SystemExit) as exc:
            main([command, "ItalyPowerSim", flag, value])
        assert exc.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err

    def test_motif_discords_accept_zero_for_none(self):
        args = build_parser().parse_args(["motifs", "series.txt", "--discords", "0"])
        assert args.discords == 0

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_jobs_rejects_zero_and_below_minus_one(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", "--model", "m.npz", "--jobs", value])
        assert exc.value.code == 2
        assert "positive worker count or -1" in capsys.readouterr().err

    @pytest.mark.parametrize("value,expected", [("3", 3), ("-1", -1)])
    def test_jobs_accepts_valid(self, value, expected):
        args = build_parser().parse_args(["serve", "--model", "m.npz", "--jobs", value])
        assert args.jobs == expected

    @pytest.mark.parametrize(
        "argv,named",
        [
            (["evaluate", "ItalyPowerSim", "--method", "NN-ED", "--window", "12",
              "--budget", "5", "--numerosity", "none"],
             "--window, --budget, --numerosity apply only to --method RPM"),
            (["evaluate", "ItalyPowerSim", "--method", "FS", "--seed", "1"],
             "--seed applies only to --method RPM"),
            (["train", "CBF", "--paa", "8"], "--paa applies only with --window"),
            (["evaluate", "CBF", "--alphabet", "4"], "--alphabet applies only with --window"),
            (["train", "CBF", "--window", "24", "--budget", "8", "--splits", "2"],
             "--budget, --splits apply only without --window"),
        ],
    )
    def test_flags_the_run_would_ignore_are_rejected(self, argv, named, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert named in capsys.readouterr().err

    def test_flags_the_run_reads_are_accepted(self):
        parser = build_parser()
        for argv in (
            ["train", "CBF", "--window", "24", "--paa", "4", "--alphabet", "4", "--gamma", "0.3"],
            ["train", "CBF", "--budget", "8", "--splits", "2", "--seed", "1"],
            ["evaluate", "CBF", "--method", "NN-ED", "--trace"],
        ):
            args = parser.parse_args(argv)
            assert cli._ignored_rpm_flags(args) is None, argv

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "CBF", "--jobs", "2"],
            ["evaluate", "CBF", "--jobs", "2"],
            ["train", "CBF", "--parallel-backend", "thread"],
            ["evaluate", "CBF", "--parallel-backend", "thread"],
            ["predict", "data.txt", "--model", "m.npz", "--parallel-backend", "thread"],
            ["serve", "--model", "m.npz", "--parallel-backend", "thread"],
        ],
    )
    def test_fit_fan_out_flags_are_gone(self, argv, capsys):
        # The fit is one serial path; only predict and serve thread.
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "CBF"],
            ["evaluate", "CBF"],
            ["predict", "data.txt", "--model", "m.npz"],
            ["serve", "--model", "m.npz"],
        ],
        ids=["train", "evaluate", "predict", "serve"],
    )
    def test_kernel_backend_flag_is_gone(self, argv, capsys):
        # The kernel picks its backend from the input.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*argv, "--kernel-backend", "fft"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_admin_flags(self):
        args = build_parser().parse_args(
            ["serve", "--model", "m.npz", "--http-port", "0",
             "--log-format", "json", "--flight-size", "16", "--slow-ms", "10"]
        )
        assert args.http_port == 0
        assert args.log_format == "json"
        assert args.flight_size == 16
        assert args.slow_ms == 10.0

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_admission_budget_rejects_non_positive(self, value, capsys):
        # Regression: the threshold was plain `type=float`, so a zero
        # or negative admission budget shed every request.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["serve", "--model", "m.npz", "--admission-budget-ms", value]
            )
        assert exc.value.code == 2
        assert "must be a positive number" in capsys.readouterr().err

    def test_slow_ms_rejects_negative_but_zero_disables(self, capsys):
        # `--slow-ms 0` is the documented "disable slow capture"
        # sentinel and must keep parsing; only negatives are rejected.
        args = build_parser().parse_args(
            ["serve", "--model", "m.npz", "--slow-ms", "0"]
        )
        assert args.slow_ms == 0.0
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["serve", "--model", "m.npz", "--slow-ms", "-5"]
            )
        assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--slow-ms", "--admission-budget-ms"])
    def test_positive_float_flags_reject_garbage(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", "--model", "m.npz", flag, "fast"])
        assert exc.value.code == 2
        assert "expected a number" in capsys.readouterr().err

    def test_positive_float_flags_accept_positive(self):
        args = build_parser().parse_args(
            ["serve", "--model", "m.npz",
             "--slow-ms", "0.5", "--admission-budget-ms", "12.5"]
        )
        assert args.slow_ms == 0.5
        assert args.admission_budget_ms == 12.5

    def test_drift_flags_parse_and_validate(self, capsys):
        args = build_parser().parse_args(
            ["serve", "--model", "m.npz", "--drift",
             "--drift-window", "64", "--drift-threshold", "0.1"]
        )
        assert args.drift is True
        assert args.drift_window == 64
        assert args.drift_threshold == 0.1
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["serve", "--model", "m.npz", "--drift-window", "0"]
            )
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["serve", "--model", "m.npz", "--drift-threshold", "-0.2"]
            )
        assert exc.value.code == 2

    def test_serve_admin_defaults_off(self):
        args = build_parser().parse_args(["serve", "--model", "m.npz"])
        assert args.http_port is None
        assert args.log_format == "text"
        assert args.flight_size == 128

    def test_http_port_rejects_negative(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["serve", "--model", "m.npz", "--http-port", "-1"]
            )
        assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    def test_log_format_choices(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--model", "m.npz", "--log-format", "xml"]
            )

    def test_metrics_requires_exactly_one_source(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["metrics"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["metrics", "--url", "http://x", "--jsonl", "m.jsonl"]
            )

    def test_metrics_route_choices(self):
        args = build_parser().parse_args(
            ["metrics", "--url", "http://x", "--route", "drift"]
        )
        assert args.route == "drift"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["metrics", "--url", "http://x", "--route", "nope"]
            )

    def test_drift_requires_exactly_one_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["drift", "reg"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["drift", "reg", "--data", "d.txt", "--jsonl", "m.jsonl"]
            )


@pytest.fixture(scope="module")
def italy_model(tmp_path_factory):
    """A saved ItalyPowerSim model and the test split it serves."""
    from repro import RPMClassifier, SaxParams
    from repro.core.io import save_model
    from repro.data import load

    ds = load("ItalyPowerSim")
    path = tmp_path_factory.mktemp("cli_model") / "model.npz"
    save_model(
        RPMClassifier(sax_params=SaxParams(12, 4, 4)).fit(ds.X_train, ds.y_train), path
    )
    return {"path": path, "X": ds.X_test}


class TestCommands:
    def test_datasets_lists_registry(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "CBF" in out
        assert "MedicalAlarmABP" in out

    def test_unknown_dataset_is_an_error(self, capsys):
        assert main(["evaluate", "NoSuchData", "--window", "10"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_train_save_patterns_classify_roundtrip(self, tmp_path, capsys):
        model_path = tmp_path / "model.npz"
        rc = main(
            ["train", "ItalyPowerSim", "-o", str(model_path), "--window", "12",
             "--paa", "4", "--alphabet", "4"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "test error" in out
        assert model_path.exists()

        assert main(["patterns", str(model_path)]) == 0
        assert "representative patterns" in capsys.readouterr().out

        # label a small UCR-format file through the serving engine: the
        # printed labels are the saved classifier's, row for row
        data = tmp_path / "data.txt"
        from repro.core.io import load_model
        from repro.data import load
        from repro.data.ucr import load_ucr_file

        ds = load("ItalyPowerSim")
        rows = ["0 " + " ".join(f"{v:.4f}" for v in ds.X_test[i]) for i in range(3)]
        data.write_text("\n".join(rows) + "\n")
        assert main(["predict", "--model", str(model_path), str(data)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        X, _ = load_ucr_file(data)
        expected = load_model(model_path).predict(X)
        assert lines == [
            f"{i}\t{np.asarray(label).item()}" for i, label in enumerate(expected)
        ]

    def test_evaluate_baseline(self, capsys):
        rc = main(["evaluate", "ItalyPowerSim", "--method", "NN-ED"])
        assert rc == 0
        assert "NN-ED" in capsys.readouterr().out

    def test_evaluate_rpm_fixed_params(self, capsys):
        rc = main(
            ["evaluate", "ItalyPowerSim", "--window", "12", "--paa", "4",
             "--alphabet", "4"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "RPM" in out and "error" in out

    def test_motifs_command(self, tmp_path, capsys):
        import numpy as np

        rng = np.random.default_rng(0)
        series = np.sin(2 * np.pi * np.arange(400) / 40) + rng.standard_normal(400) * 0.1
        data = tmp_path / "long.txt"
        data.write_text("0 " + " ".join(f"{v:.4f}" for v in series) + "\n")
        rc = main(["motifs", str(data), "--window", "30", "--top", "2",
                   "--discords", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "freq=" in out
        assert "discord [" in out

    def test_motifs_refuses_a_non_finite_value(self, tmp_path, capsys):
        import numpy as np

        values = [f"{v:.4f}" for v in np.sin(np.arange(29) / 3.0)]
        values[17] = "nan"
        data = tmp_path / "nan.txt"
        data.write_text("0 " + " ".join(values) + "\n")
        rc = main(["motifs", str(data), "--window", "8", "--paa", "4"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "non-finite value at index 17" in captured.err
        assert "freq=" not in captured.out

    def test_train_trace_and_metrics_out(self, tmp_path, capsys):
        import json

        metrics_path = tmp_path / "metrics.jsonl"
        rc = main(
            ["train", "ItalyPowerSim", "--window", "12", "--paa", "4",
             "--alphabet", "4", "--trace", "--metrics-out", str(metrics_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        # The span tree covers the pipeline stages with wall times.
        assert "-- trace --" in out
        # Spans reach the cluster and selection layers through the
        # active tracer, not through a parameter.
        for stage in ("fit", "mine", "discretize", "grammar", "refine",
                      "bisect", "select", "dedup", "transform", "cfs"):
            assert stage in out, f"span tree missing stage {stage!r}"
        assert "s" in out  # wall-time column

        # The JSON-lines dump is valid line-by-line and carries the
        # cache counters.
        assert metrics_path.exists()
        records = [json.loads(line) for line in metrics_path.read_text().splitlines()]
        assert records, "metrics file is empty"
        kinds = {record["type"] for record in records}
        assert {"meta", "span", "counter"} <= kinds
        counters = {r["name"] for r in records if r["type"] == "counter"}
        assert "cache.hits" in counters and "cache.misses" in counters

    def test_evaluate_baseline_honours_trace_and_metrics_out(self, tmp_path, capsys):
        import json

        from repro.obs import scoped_registry

        metrics_path = tmp_path / "metrics.jsonl"
        with scoped_registry() as reg:
            reg.inc("probe.counter", 3)
            rc = main(["evaluate", "ItalyPowerSim", "--method", "NN-ED", "--trace",
                       "--metrics-out", str(metrics_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "-- trace --" in out and "(no spans recorded)" in out
        records = [json.loads(line) for line in metrics_path.read_text().splitlines()]
        assert records[0]["type"] == "meta" and records[0]["spans"] == 0
        assert not [r for r in records if r["type"] == "span"]
        counters = {r["name"]: r["value"] for r in records if r["type"] == "counter"}
        assert counters["probe.counter"] == 3

    def test_predict_trace_nests_the_model_under_each_batch(
        self, italy_model, tmp_path, capsys
    ):
        import json

        data = tmp_path / "data.txt"
        X = italy_model["X"][:10]
        np.savetxt(data, np.column_stack([np.zeros(len(X)), X]), fmt="%.6f")
        metrics_path = tmp_path / "metrics.jsonl"
        rc = main(["predict", "--model", str(italy_model["path"]), str(data),
                   "--no-warmup", "--metrics-out", str(metrics_path)])
        assert rc == 0
        spans = [
            record
            for record in map(json.loads, metrics_path.read_text().splitlines())
            if record["type"] == "span"
        ]
        batches = [i for i, r in enumerate(spans) if r["name"] == "serve.batch"]
        assert batches
        for i in batches:
            assert spans[i]["depth"] == 0
            child = spans[i + 1]
            assert (child["name"], child["parent"], child["depth"]) == (
                "compiled.transform", "serve.batch", 1
            )

    def test_serve_coalesces_piped_lines_into_batches(self, italy_model, tmp_path, capsys):
        import json

        from repro.core.io import load_model

        model_path = italy_model["path"]
        requests = tmp_path / "requests.txt"
        np.savetxt(requests, italy_model["X"][:64], fmt="%.6f")
        rc = main(["serve", "--model", str(model_path), "--input", str(requests),
                   "--max-delay-ms", "20"])
        assert rc == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["index"] for r in records] == list(range(64))
        assert all(r["status"] == "ok" for r in records)
        expected = load_model(model_path).predict(np.loadtxt(requests))
        assert [r["label"] for r in records] == [np.asarray(v).item() for v in expected]
        assert len({r["batch_id"] for r in records}) < 64

    def test_serve_leaves_the_repro_logger_as_it_found_it(self, italy_model, tmp_path):
        import logging

        log = logging.getLogger("repro")
        before = (list(log.handlers), log.level)
        requests = tmp_path / "requests.txt"
        np.savetxt(requests, italy_model["X"][:4], fmt="%.6f")
        model = str(italy_model["path"])
        assert main(["serve", "--model", model, "--input", str(requests)]) == 0
        assert (list(log.handlers), log.level) == before
        missing = str(tmp_path / "missing.txt")
        assert main(["serve", "--model", model, "--input", missing]) == 1
        assert (list(log.handlers), log.level) == before

    def test_trace_off_by_default(self, capsys):
        rc = main(["evaluate", "ItalyPowerSim", "--window", "12", "--paa", "4",
                   "--alphabet", "4"])
        assert rc == 0
        assert "-- trace --" not in capsys.readouterr().out

    def test_metrics_from_jsonl_renders_prometheus(self, tmp_path, capsys):
        from repro.obs import MetricsRegistry, write_jsonl

        reg = MetricsRegistry()
        reg.inc("serve.requests", 12)
        reg.observe("serve.latency_seconds", 0.02)
        path = write_jsonl(tmp_path / "metrics.jsonl", metrics=reg)

        assert main(["metrics", "--jsonl", str(path)]) == 0
        out = capsys.readouterr().out
        assert "serve_requests_total 12" in out
        assert 'serve_latency_seconds{quantile="0.5"}' in out

        assert main(["metrics", "--jsonl", str(path), "--format", "json"]) == 0
        import json

        document = json.loads(capsys.readouterr().out)
        assert document["counters"]["serve.requests"] == 12

    def test_metrics_from_unreachable_url_is_an_error(self, capsys):
        rc = main(
            ["metrics", "--url", "http://127.0.0.1:9", "--timeout", "0.2"]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

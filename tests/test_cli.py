import numpy as np
import pytest

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

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_jobs_rejects_zero_and_below_minus_one(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["train", "CBF", "--jobs", value])
        assert exc.value.code == 2
        assert "positive worker count or -1" in capsys.readouterr().err

    @pytest.mark.parametrize("value,expected", [("3", 3), ("-1", -1)])
    def test_jobs_accepts_valid(self, value, expected):
        args = build_parser().parse_args(["train", "CBF", "--jobs", value])
        assert args.jobs == expected

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

        # classify a small UCR-format file
        data = tmp_path / "data.txt"
        from repro.data import load

        ds = load("ItalyPowerSim")
        rows = ["0 " + " ".join(f"{v:.4f}" for v in ds.X_test[i]) for i in range(3)]
        data.write_text("\n".join(rows) + "\n")
        assert main(["classify", str(model_path), str(data)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3

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
        for stage in ("fit", "mine", "discretize", "grammar", "refine",
                      "select", "transform"):
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

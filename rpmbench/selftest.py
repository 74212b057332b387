"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 rpmbench/selftest.py

For every workload it makes one untraced and one traced tiny run and
checks the result line's shape (every metric declared in
``BENCHMARK.json`` present with its unit, whole-number attempted and
failed counts, every output check passed), that each layer fires where
the layer table says and reads 0 where it says idle, and that the run
exits cleanly. It also checks that the counts marked exact repeat in a
second traced run, that installing and removing the wrappers around a
real fit leaves every patched name identical to the original, and that
the benchmark fails without printing a result when the program is
missing. Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from tracing import Recorder, install, snapshot_sites, uninstall  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, *, cwd: Path = ROOT, seed: int = 1):
    proc = subprocess.run(
        [sys.executable, "rpmbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "2", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result_of(proc, what: str) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"{what}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{what}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        raise AssertionError(f"{what}: attempted/failed not whole numbers: {result}")
    if not result["correct"] or result["failed"]:
        raise AssertionError(f"{what}: output checks failed\n{proc.stderr[-3000:]}")
    return result


def check_shape(result: dict, declared: list, what: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if got != want:
        raise AssertionError(f"{what}: metrics/units differ from BENCHMARK.json: "
                             f"missing {sorted(set(want) - set(got))}, "
                             f"extra {sorted(set(got) - set(want))}")
    for name, entry in result["metrics"].items():
        if set(entry) != {"value", "unit"} or not isinstance(entry["value"], float):
            raise AssertionError(f"{what}: malformed metric {name}: {entry}")


def check_workloads() -> None:
    for spec in SPEC["workloads"]:
        name = spec["name"]
        untraced = result_of(run(name, 0), f"{name} untraced")
        check_shape(untraced, SPEC["end_to_end"], f"{name} untraced")
        traced = result_of(run(name, 1), f"{name} traced")
        check_shape(traced, SPEC["per_layer"], f"{name} traced")
        values = {k: v["value"] for k, v in traced["metrics"].items()}
        violations = layers.table_violations(name, values)
        if violations:
            raise AssertionError(f"{name}: layer table violated: {violations}")
        print(f"ok  {name}: untraced and traced runs, layer table holds", flush=True)


def check_exact() -> None:
    name = "direct-ucr"
    first, second = (result_of(run(name, 1), f"{name} traced") for _ in range(2))
    exact = layers.exact_metrics(serial_fit=True)
    differ = [m for m in exact
              if first["metrics"][m]["value"] != second["metrics"][m]["value"]]
    if differ:
        raise AssertionError(f"{name}: exact counts differ between runs: {differ}")
    print(f"ok  {name}: {len(exact)} exact counts repeat", flush=True)


def check_wrappers_restored() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from repro import RPMClassifier, SaxParams
    from repro.data.synthetic import cbf
    from repro.serve import CompiledModel

    before = snapshot_sites(layers.BOUNDARIES)
    recorder = Recorder()
    data = cbf(n_train_per_class=5, n_test_per_class=5, length=96, seed=1)
    installed = install(recorder, layers.BOUNDARIES)
    try:
        clf = RPMClassifier(sax_params=SaxParams(24, 4, 4)).fit(data.X_train, data.y_train)
        with CompiledModel.from_classifier(clf) as model:
            model.predict(data.X_test)
        raise KeyError("error inside the traced region")
    except KeyError:
        pass
    finally:
        uninstall(installed)
    after = snapshot_sites(layers.BOUNDARIES)
    survivors = [site for site, obj in before.items() if after[site] is not obj]
    if survivors:
        raise AssertionError(f"wrappers survived: {survivors}")
    if not {span.layer for span in recorder.spans} >= {"mine", "sax", "grammar", "kernel",
                                                         "compiled", "svm"}:
        raise AssertionError("wrappers recorded no spans for some fit layers")
    print(f"ok  wrappers: {len(before)} patch sites restored by identity", flush=True)


def check_without_program() -> None:
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "rpmbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "rpmbench" / path.name)
    try:
        proc = run("direct-ucr", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        raise AssertionError(f"run without src/ exited {proc.returncode}: {proc.stdout!r}")
    print(f"ok  without the program: exit {proc.returncode}, no result", flush=True)


def main() -> int:
    try:
        check_without_program()
        check_wrappers_restored()
        check_workloads()
        check_exact()
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

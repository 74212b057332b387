"""The benchmark's workloads: pinned training sets, seed-drawn traffic.

Every training set is pinned by its full ``repro.data.synthetic``
generator call: train and test rows come from one stream per class, so
changing ``n_test_per_class`` would change the training rows too. The
run's ``--seed`` draws only the rows to predict, the request pool and
the open-loop arrival times. ``repro.data.load`` is never used, because
it swaps in UCR files when ``RPM_UCR_ROOT`` is set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PREDICT_STREAM, POOL_STREAM, ARRIVAL_STREAM = 1, 2, 3


@dataclass(frozen=True)
class TrainingSet:
    """One fit: a pinned generator call and the classifier's settings."""

    key: str
    generator: str
    call: dict
    classifier: dict
    #: Rows per ``RPMClassifier.predict`` call in the predict phase.
    chunk: int
    #: Loose sanity bound on the predict phase's error against the
    #: generator's labels; a broken model lands near chance.
    max_error: float

    def make(self, **overrides):
        from repro.data import synthetic

        return getattr(synthetic, self.generator)(**{**self.call, **overrides})

    def classifier_kwargs(self) -> dict:
        from repro import SaxParams

        kwargs = dict(self.classifier)
        if "sax_params" in kwargs:
            kwargs["sax_params"] = SaxParams(*kwargs["sax_params"])
        return kwargs

    def draw(self, seed: int, stream: int, index: int, n_per_class: int):
        """Seed-drawn rows the model has not seen, with their labels."""
        state = np.random.SeedSequence([seed, stream, index]).generate_state(1)[0]
        data = self.make(n_train_per_class=1, n_test_per_class=n_per_class, seed=int(state))
        return data.X_test, data.y_test


@dataclass(frozen=True)
class Workload:
    name: str
    fits: tuple[TrainingSet, ...]
    #: Index into ``fits`` of the model that is served.
    served: int
    #: Open-loop Poisson arrival rate, requests per second.
    rate: float
    #: Predict rounds; each round predicts one chunk per fitted model.
    predict_rounds: int
    #: Distinct request rows, per class, cycled through by both loops.
    pool_per_class: int
    #: Fit/predict cycles (see ``Bench.fit_and_predict``); ``fit_s`` takes
    #: the median fit of each training set. Short fits are repeated.
    fit_repeats: int = 1
    setup_rounds: int = 3
    #: Distinct seed-drawn chunks per model that the predict rounds cycle
    #: through; every cycle adds a constant to each row (see ``bench.py``).
    predict_chunks: int = 16
    #: Open-loop rate of the traced pass's sharded serving phase (the
    #: served model on a one-shard ``ShardedPredictionService`` with a
    #: drift monitor); ``None``: that phase does not run.
    shard_rate: float | None = None


DIRECT = dict(direct_budget=40, n_splits=3, seed=0)

CBF = TrainingSet(
    "cbf", "cbf",
    dict(n_train_per_class=10, n_test_per_class=100, length=128, seed=1),
    DIRECT, chunk=300, max_error=0.1,
)
ITALY = TrainingSet(
    "italy", "italy_power_sim",
    dict(n_train_per_class=34, n_test_per_class=100, length=24, seed=12),
    DIRECT, chunk=300, max_error=0.1,
)
#: ``n_jobs=2`` runs two threads, but on the one CPU the run is pinned to
#: (``bench.pin_one_cpu``): the threaded runtime's cost, not its speed-up.
TWO_PATTERNS = TrainingSet(
    "two_patterns", "two_patterns",
    dict(n_train_per_class=25, n_test_per_class=60, length=1024, seed=3),
    dict(sax_params=(128, 8, 5), n_jobs=2), chunk=64, max_error=0.35,
)

WORKLOADS = {
    "direct-ucr": Workload(
        "direct-ucr", fits=(CBF, ITALY), served=0, rate=1000.0,
        predict_rounds=450, pool_per_class=700, shard_rate=300.0,
    ),
    "fixed-long": Workload(
        "fixed-long", fits=(TWO_PATTERNS,), served=0, rate=300.0,
        predict_rounds=360, pool_per_class=128, fit_repeats=5,
    ),
}

# Small versions for the self-test only: same shapes of work, seconds to run.
_TINY_DIRECT = dict(direct_budget=6, n_splits=2, seed=0)
TINY = {
    "direct-ucr": Workload(
        "direct-ucr", fits=(
            TrainingSet("cbf", "cbf",
                        dict(n_train_per_class=5, n_test_per_class=10, length=96, seed=1),
                        _TINY_DIRECT, chunk=30, max_error=0.5),
            TrainingSet("italy", "italy_power_sim",
                        dict(n_train_per_class=8, n_test_per_class=10, length=24, seed=12),
                        _TINY_DIRECT, chunk=30, max_error=0.5),
        ), served=0, rate=200.0, predict_rounds=4,
        pool_per_class=20, setup_rounds=2, predict_chunks=2, shard_rate=100.0,
    ),
    "fixed-long": Workload(
        "fixed-long", fits=(
            TrainingSet("two_patterns", "two_patterns",
                        dict(n_train_per_class=6, n_test_per_class=10, length=256, seed=3),
                        dict(sax_params=(64, 8, 5), n_jobs=2), chunk=16, max_error=0.75),
        ), served=0, rate=100.0, predict_rounds=4,
        pool_per_class=8, setup_rounds=2, predict_chunks=2, fit_repeats=2,
    ),
}


def arrivals(seed: int, rate: float, seconds: float) -> np.ndarray:
    """Poisson arrival offsets (seconds from the loop start)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, ARRIVAL_STREAM]))
    n = max(1, int(rate * seconds))
    return np.cumsum(rng.exponential(1.0 / rate, size=n))

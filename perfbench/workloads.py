"""The three workloads: seeded traffic, cold set-up, one closed-loop
operation, and the output checks.

Every workload serves the paper's default LiPFormer geometry scaled to a
CPU (``input_length=336``, ``horizon=96``, ``patch_length=48``, 7 ETT-like
channels, ``hidden_dim=64``, no dropout).  Series come from
:mod:`repro.data.synthetic` with the workload seed; the system under test
only ever receives the generated arrays, through its public API.

* ``interactive`` -- 16 tenants in one in-process ``StreamingForecaster``,
  no covariates.  One operation ingests one row for the next tenant
  (round-robin) and blocks on that tenant's forecast, so every request is
  a batch of one and per-request overhead dominates.
* ``fleet`` -- 64 tenants on ``build_cluster(backend="thread",
  n_shards=2)`` with the paper's weak data: implicit time-of-day /
  calendar covariates over the forecast horizon.  One operation (a tick)
  ingests one row per tenant, then ``forecast_all`` resolves every
  handle; plan replay at batch 32 per shard and the covariate encoder
  dominate.
* ``fleet_process`` -- the same seeded ticks on ``backend="process"``
  with two worker processes, which adds the wire codec, the transport and
  the worker loop on top of ``fleet``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.baselines.registry import create_model
from repro.cluster import ServiceSpec, build_cluster
from repro.config import ModelConfig
from repro.data.covariates import implicit_temporal_covariates
from repro.data.synthetic import mixture_series
from repro.data.timefeatures import (
    TIME_FEATURE_CARDINALITIES,
    TIME_FEATURE_NAMES,
    make_timestamps,
)
from repro.nn import Tensor, no_grad
from repro.nn.tensor import count_macs
from repro.profiling import count_parameters
from repro.serving import ForecastService
from repro.streaming import StreamingForecaster

from hostinfo import vm_hwm_mb

INPUT_LENGTH = 336
HORIZON = 96
CHANNELS = 7
#: live rows generated per tenant; the traffic cycles through them, so the
#: input size does not grow with the run length
LIVE_ROWS = 2048
#: leading fleet ticks whose forecasts form the fingerprint that must be
#: equal on both backends for the same seed
FINGERPRINT_TICKS = 4
#: one operation in SAMPLE_STRIDE (at a seeded phase) is checked
#: against the oracle, besides the fingerprint ticks
INTERACTIVE_SAMPLE_STRIDE = 211
FLEET_SAMPLE_STRIDE = 23
#: covariate rows for one calendar year of per-tenant start offsets
_YEAR_HOURS = 24 * 365

COVARIATE_CARDINALITIES = tuple(
    TIME_FEATURE_CARDINALITIES[name] for name in TIME_FEATURE_NAMES
) + (2,)


def model_config(covariates: bool) -> ModelConfig:
    extra = {}
    if covariates:
        extra = {
            "covariate_numerical_dim": len(TIME_FEATURE_NAMES),
            "covariate_categorical_cardinalities": COVARIATE_CARDINALITIES,
        }
    return ModelConfig(
        input_length=INPUT_LENGTH,
        horizon=HORIZON,
        n_channels=CHANNELS,
        patch_length=48,
        hidden_dim=64,
        dropout=0.0,
        **extra,
    )


@dataclass
class Traffic:
    """Seeded per-tenant series and (optionally) their future covariates.

    Live row ``j`` of tenant ``k`` is ``live[k, j % LIVE_ROWS]``; the tenant's
    virtual series is its ``history`` followed by its live rows in order.
    The forecast issued after live row ``j`` covers the ``HORIZON`` hours
    after it, whose calendar covariates start at ``offsets[k] + j + 1`` in
    the shared covariate table (wrapping after ``covariate_ticks``).
    """

    names: List[str]
    history: np.ndarray
    live: np.ndarray
    offsets: np.ndarray
    covariate_ticks: int
    numerical: Optional[np.ndarray] = None
    categorical: Optional[np.ndarray] = None

    def row(self, tenant: int, j: int) -> np.ndarray:
        return self.live[tenant, j % LIVE_ROWS]

    def window(self, tenant: int, j: int) -> np.ndarray:
        """The last ``INPUT_LENGTH`` rows of the tenant after live row ``j``."""
        seen = j + 1
        if seen >= INPUT_LENGTH:
            return self.live[tenant, np.arange(seen - INPUT_LENGTH, seen) % LIVE_ROWS]
        return np.concatenate(
            [self.history[tenant, seen:], self.live[tenant, np.arange(seen) % LIVE_ROWS]]
        )

    def covariate_maps(self, j: int) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
        """Per-tenant future covariates for the forecasts after live row ``j``."""
        shift = (j + 1) % self.covariate_ticks
        numerical, categorical = {}, {}
        for tenant, name in enumerate(self.names):
            start = int(self.offsets[tenant]) + shift
            numerical[name] = self.numerical[start : start + HORIZON]
            categorical[name] = self.categorical[start : start + HORIZON]
        return numerical, categorical


def make_traffic(seed: int, tenants: int, covariates: bool, covariate_ticks: int) -> Traffic:
    rng = np.random.default_rng(seed)
    length = INPUT_LENGTH + LIVE_ROWS
    series = np.empty((tenants, length, CHANNELS), dtype=np.float32)
    for tenant in range(tenants):
        for channel in range(CHANNELS):
            series[tenant, :, channel] = mixture_series(
                length,
                samples_per_day=24,
                rng=rng,
                daily_amplitude=rng.uniform(0.5, 2.0),
                weekly_amplitude=rng.uniform(0.1, 0.5),
                noise_sigma=rng.uniform(0.1, 0.4),
                n_regime_shifts=int(rng.integers(0, 3)),
            )
    offsets = rng.integers(0, _YEAR_HOURS, size=tenants)
    traffic = Traffic(
        names=[f"tenant-{tenant:03d}" for tenant in range(tenants)],
        history=np.ascontiguousarray(series[:, :INPUT_LENGTH]),
        live=np.ascontiguousarray(series[:, INPUT_LENGTH:]),
        offsets=offsets,
        covariate_ticks=covariate_ticks,
    )
    if covariates:
        # Hourly timestamps; offsets[k] is tenant k's position in the table
        # for the first hour after its history.
        stamps = make_timestamps(_YEAR_HOURS + covariate_ticks + HORIZON, freq_minutes=60)
        table = implicit_temporal_covariates(stamps)
        traffic.numerical = table.numerical.astype(np.float32)
        traffic.categorical = table.categorical.astype(np.int64)
    return traffic


def digest(forecasts) -> str:
    """SHA-256 of one operation's forecasts (one array, or one per tenant):
    the dtype, shape and bytes of each, so equal digests mean bit-equal
    outputs."""
    if isinstance(forecasts, np.ndarray):
        forecasts = [forecasts]
    hasher = hashlib.sha256()
    for forecast in forecasts:
        forecast = np.ascontiguousarray(forecast)
        hasher.update(f"{forecast.dtype.str}{forecast.shape}".encode())
        hasher.update(forecast.tobytes())
    return hasher.hexdigest()


def fingerprint(digests: List[str]) -> str:
    """Short digest of the leading ticks' digests, in order."""
    return hashlib.sha256("".join(digests).encode()).hexdigest()[:16]


def _model_costs(config: ModelConfig, covariates: bool, traffic: Traffic) -> Dict[str, float]:
    """Exact parameter and MAC counts of one batch-1 forecast."""
    model = create_model("LiPFormer", config)
    model.eval()
    x = Tensor(traffic.window(0, -1)[None])
    with no_grad(), count_macs() as base:
        model(x)
    total = base.total
    if covariates:
        numerical, categorical = traffic.covariate_maps(-1)
        name = traffic.names[0]
        with no_grad(), count_macs() as enriched:
            model(
                x,
                future_numerical=numerical[name][None],
                future_categorical=categorical[name][None],
            )
        total = enriched.total
    return {
        "params": float(count_parameters(model)),
        "macs": float(total),
        "covariate_share": (total - base.total) / total,
    }


def _plan_counters(views: Dict[str, float]) -> Dict[str, float]:
    return {
        key: float(views.get(f"repro_plan_cache_{key}", 0.0))
        for key in ("hits", "traces", "fallbacks")
    }


class Interactive:
    """One in-process streaming stack; one batch-1 request per operation."""

    tenants = 16
    #: percentile of ``latency_ms``: each request runs on one vCPU, so its
    #: fast-regime cost shows in a low percentile (see ``Fleet``)
    latency_percentile = 2.0
    tail_percentile = 99.0
    forecasts_per_op = 1
    keep_vcpus_awake = False
    #: cold set-ups before and after the timed phase; ``setup_s`` is their
    #: median.  The first few in a process are slower, so a cheap set-up
    #: repeats more often.
    setup_repeats = (11, 10)
    #: operations per window of ``throughput_per_s`` (about a second)
    throughput_window_ops = 2048
    #: cap on operations per timed second, which sizes the timing buffers
    #: (about 4x the rate measured on a 2-vCPU VM)
    max_ops_per_s = 10_000

    def __init__(self, seed: int) -> None:
        self.config = model_config(covariates=False)
        self.spec = ServiceSpec(model="LiPFormer", config=self.config)
        self.traffic = make_traffic(seed, self.tenants, covariates=False, covariate_ticks=1)
        self.sample_phase = seed % INTERACTIVE_SAMPLE_STRIDE

    def setup(self) -> "InProcessSystem":
        forecaster = StreamingForecaster(self.spec.build())
        forecaster.warmup()
        for tenant, name in enumerate(self.traffic.names):
            forecaster.ingest(name, self.traffic.history[tenant])
        return InProcessSystem(forecaster)

    def run_op(self, system: "InProcessSystem", op: int) -> np.ndarray:
        tenant = op % self.tenants
        name = self.traffic.names[tenant]
        forecaster = system.forecaster
        forecaster.ingest(name, self.traffic.row(tenant, op // self.tenants))
        return forecaster.forecast(name).result()

    def sampled(self, op: int) -> bool:
        return op % INTERACTIVE_SAMPLE_STRIDE == self.sample_phase

    def check(self, samples: Dict[int, str]) -> Tuple[Dict[int, str], Dict[str, object]]:
        """Served forecasts (by digest) must equal the eager single-request
        oracle."""
        oracle = create_model("LiPFormer", self.config)
        failures: Dict[int, str] = {}
        for op, served in samples.items():
            window = self.traffic.window(op % self.tenants, op // self.tenants)
            if served != digest(oracle.predict(window[None], compiled=False)[0]):
                failures[op] = f"request {op} != eager oracle (output digests differ)"
        return failures, {"oracle": "eager model.predict", "checked_ops": len(samples)}

    def model_costs(self) -> Dict[str, float]:
        return _model_costs(self.config, False, self.traffic)


class Fleet:
    """64 tenants on a two-shard cluster; one tick per operation."""

    tenants = 64
    shards = 2
    max_batch_size = 64
    tail_percentile = 95.0
    forecasts_per_op = 64
    setup_repeats = (5, 4)
    throughput_window_ops = 32
    max_ops_per_s = 500

    def __init__(self, seed: int, seconds: float, backend: str) -> None:
        self.backend = backend
        # Percentile of ``latency_ms``.  A thread-backend tick runs on one
        # vCPU, so a low percentile picks the ticks that ran while it was
        # in the host's fast regime: over ten 30 s runs its p2 spread by
        # 0.05 to 0.10 of its median and its p50 by 0.08 to 0.17.  A
        # process-backend tick waits on three processes across both vCPUs,
        # and a p2 tick is one that caught both fast at once: its p2 spread
        # by 0.13 to 0.18 and its p50 by 0.10 to 0.13, so it reports the p50.
        self.latency_percentile = 2.0 if backend == "thread" else 50.0
        # Only the process backend waits on messages between processes, so
        # only it pays for waking halted vCPUs (see spinners.py).
        self.keep_vcpus_awake = backend == "process"
        self.config = model_config(covariates=True)
        self.spec = ServiceSpec(
            model="LiPFormer", config=self.config, max_batch_size=self.max_batch_size
        )
        # Room for 500 ticks a second before the covariate table wraps.
        ticks = max(1024, int(seconds * 500))
        self.traffic = make_traffic(seed, self.tenants, covariates=True, covariate_ticks=ticks)
        self.sample_phase = seed % FLEET_SAMPLE_STRIDE

    def setup(self) -> "ClusterSystem":
        cluster = build_cluster(self.spec, n_shards=self.shards, backend=self.backend)
        try:
            if self.backend == "thread":
                # Process workers trace their plan at spawn; do the same here.
                cluster.warmup()
            for tenant, name in enumerate(self.traffic.names):
                cluster.ingest(name, self.traffic.history[tenant])
            # One untimed tick traces the covariate-signature plans, so the
            # timed ticks only replay.
            self._forecast(cluster, -1)
        except BaseException:
            if self.backend == "process":
                cluster.close()
            raise
        return ClusterSystem(cluster, self.backend)

    def _forecast(self, cluster, j: int) -> List[np.ndarray]:
        numerical, categorical = self.traffic.covariate_maps(j)
        handles = cluster.forecast_all(
            self.traffic.names, future_numerical=numerical, future_categorical=categorical
        )
        return [handles[name].result() for name in self.traffic.names]

    def run_op(self, system: "ClusterSystem", op: int) -> List[np.ndarray]:
        cluster = system.cluster
        traffic = self.traffic
        for tenant, name in enumerate(traffic.names):
            cluster.ingest(name, traffic.row(tenant, op))
        return self._forecast(cluster, op)

    def sampled(self, op: int) -> bool:
        return op < FINGERPRINT_TICKS or op % FLEET_SAMPLE_STRIDE == self.sample_phase

    def check(self, samples: Dict[int, str]) -> Tuple[Dict[int, str], Dict[str, object]]:
        """Sampled ticks (by digest) must equal an unsharded, eager ``StreamingForecaster``
        replay, and the leading ticks' fingerprint must equal the replay's
        (so ``fleet`` and ``fleet_process`` agree for the same seed)."""
        # Eager inference, so the compiled plans and the covariate path are
        # checked against an independent reference.
        reference = StreamingForecaster(
            ForecastService(
                create_model("LiPFormer", self.config),
                max_batch_size=self.max_batch_size,
                compiled=False,
            )
        )
        failures: Dict[int, str] = {}
        served_head: List[str] = []
        expected_head: List[str] = []
        for op in sorted(samples):
            for tenant, name in enumerate(self.traffic.names):
                reference.ingest(name, self.traffic.window(tenant, op))
            expected = digest(self._forecast(reference, op))
            if samples[op] != expected:
                failures[op] = f"tick {op} != unsharded eager replay (output digests differ)"
            if op < FINGERPRINT_TICKS:
                served_head.append(samples[op])
                expected_head.append(expected)
        info = {
            "oracle": "unsharded eager StreamingForecaster replay",
            "checked_ops": len(samples),
            "fingerprint": fingerprint(served_head),
            "reference_fingerprint": fingerprint(expected_head),
        }
        if len(served_head) != FINGERPRINT_TICKS:
            failures[-1] = f"only {len(served_head)} of {FINGERPRINT_TICKS} fingerprint ticks ran"
        elif info["fingerprint"] != info["reference_fingerprint"]:
            failures.setdefault(0, "fingerprint differs from the unsharded replay")
        return failures, info

    def model_costs(self) -> Dict[str, float]:
        return _model_costs(self.config, True, self.traffic)


class InProcessSystem:
    def __init__(self, forecaster: StreamingForecaster) -> None:
        self.forecaster = forecaster

    def close(self) -> None:
        self.forecaster.service.close()

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb()

    def service_stats(self):
        return self.forecaster.service.stats_snapshot()

    def plan_counters(self) -> Dict[str, float]:
        return _plan_counters(obs.default_registry().views_snapshot())


class ClusterSystem:
    def __init__(self, cluster, backend: str) -> None:
        self.cluster = cluster
        self.backend = backend

    def close(self) -> None:
        if self.backend == "process":
            self.cluster.close()

    def peak_rss_mb(self) -> float:
        """This process's peak RSS plus every worker's."""
        total = vm_hwm_mb()
        if self.backend == "process":
            for shard_id in self.cluster.shard_ids():
                total += vm_hwm_mb(self.cluster.worker_pid(shard_id))
        return total

    def service_stats(self):
        return self.cluster.service_stats()

    def plan_counters(self) -> Dict[str, float]:
        if self.backend == "thread":
            return _plan_counters(obs.default_registry().views_snapshot())
        totals = {"hits": 0.0, "traces": 0.0, "fallbacks": 0.0}
        for snapshot in self.cluster.worker_metrics().values():
            for key, value in _plan_counters(snapshot["views"]).items():
                totals[key] += value
        return totals


def make_workload(name: str, seed: int, seconds: float):
    if name == "interactive":
        return Interactive(seed)
    if name == "fleet":
        return Fleet(seed, seconds, backend="thread")
    if name == "fleet_process":
        return Fleet(seed, seconds, backend="process")
    raise ValueError(f"unknown workload {name!r}")


#!/usr/bin/env python3
"""The repository's end-to-end and per-layer benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fig3_trivial --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See README.md for
the workloads, the metrics and the host normalisation.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import math
import os
import pickle
import pstats
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Median reference-kernel time (ms) of the host the bounds were set
#: on; a time is reported as raw x R0_MS / R, R the median kernel time
#: sampled around it (its circuit, traced round or serving window).
R0_MS = 5.0
#: Median time of the set-up reference (``refkernel.py --startup``) on
#: that host; set-up times are reported as raw x R0_STARTUP_S / R_startup.
R0_STARTUP_S = 0.17
SETUP_SAMPLES = 5
#: The counted pass covers the suite members with at most this many
#: input gates (a fixed, seed-independent subset: 25 of 30 circuits).
COUNT_MAX_GATES = 500
#: Reference samples in the service loop: one every this many waves.
SAMPLE_EVERY_WAVES = 16

WORKLOADS = ("fig3_trivial", "fig3_sabre", "serve_drift")

END_TO_END = {
    "setup_s": "s", "sweep_s": "s", "compile_ms_p50": "ms", "py_calls": "count",
    "peak_rss_mb": "MB", "mapped_gates": "count", "swaps": "count",
    "mapped_depth": "count", "fidelity_geomean": "fraction",
    "latency_ms_p50": "ms", "latency_ms_p99": "ms", "requests_per_s": "1/s",
    "computes": "count",
}
LAYER_TIMES = (
    "decompose.s", "lower.s", "place.s", "route.s",
    "report.overhead.s", "report.fidelity.s", "report.graph.s",
)
SETUP_PHASES = ("setup.import_s", "setup.device_s", "setup.inputs_s", "setup.warm_s")
SERVICE_TIMES = {
    "service.start_s": "s", "service.hit_ms_p50": "ms",
    "service.miss_ms_p50": "ms", "drift.apply_ms_p50": "ms",
}
PER_LAYER = {
    **{name: "s" for name in SETUP_PHASES},
    "decompose.s": "s", "decompose.calls": "count", "decompose.gates_out": "count",
    "lower.s": "s", "lower.calls": "count", "lower.gates_out": "count",
    "place.s": "s", "place.calls": "count",
    "route.s": "s", "route.calls": "count", "route.swaps": "count",
    "report.overhead.s": "s", "report.overhead.calls": "count",
    "report.fidelity.s": "s", "report.fidelity.calls": "count",
    "report.graph.s": "s", "report.graph.calls": "count",
    **SERVICE_TIMES,
    "service.hits": "count", "service.misses": "count",
    "service.coalesced": "count", "service.evictions": "count",
    "drift.rows_recomputed": "count", "drift.wholesale_rebuilds": "count",
    "host.ref_ms": "ms", "host.startup_s": "s",
}
#: Un-normalised counterpart of every time metric.
RAW = [
    "setup_s", "sweep_s", "compile_ms_p50", "latency_ms_p50", "latency_ms_p99",
    "requests_per_s", *SETUP_PHASES, *LAYER_TIMES, *SERVICE_TIMES,
]
UNITS = {**END_TO_END, **PER_LAYER}
PER_LAYER.update({f"raw.{name}": UNITS[name] for name in RAW})
UNITS.update(PER_LAYER)


# -- host reference ---------------------------------------------------------
class Reference:
    """The reference kernel's helper processes, one pinned to each given
    CPU; a sample is their mean, taken only while the program is idle."""

    def __init__(self, cpus) -> None:
        self.samples_ms = []
        self._procs = []
        for cpu in cpus:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "refkernel.py")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            )
            os.sched_setaffinity(proc.pid, {cpu})
            self._procs.append(proc)

    def sample(self) -> float:
        """Take one sample; returns the seconds the program sat idle."""
        start = time.perf_counter()
        for proc in self._procs:
            proc.stdin.write(b"\n")
            proc.stdin.flush()
        durations = []
        for proc in self._procs:
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError("reference kernel process ended")
            durations.append(int(line) / 1e6)
        self.samples_ms.append(statistics.fmean(durations))
        return time.perf_counter() - start

    def mark(self) -> int:
        return len(self.samples_ms)

    def factor(self, since: int, until: int = None) -> float:
        """R0 / R over the samples taken since ``mark()`` returned ``since``."""
        window = self.samples_ms[since:until] or self.samples_ms
        return R0_MS / statistics.median(window)

    @property
    def ms(self) -> float:
        return statistics.median(self.samples_ms)

    def close(self) -> None:
        for proc in self._procs:
            proc.stdin.close()
        for proc in self._procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def round_figures(rounds, requests_per_round: int, normalise: bool, per_item: bool = False) -> dict:
    """End-to-end time figures over rounds.  A round holds its ``wall``
    seconds with the ``factor`` (R0/R) that normalises them, and
    ``latencies`` and ``compiles`` as (seconds, factor) pairs.  With
    ``per_item`` the percentiles run over each item's median across
    rounds: for a fixed suite of 30 circuits the tail is its biggest
    circuit, not the slowest of its few instances."""
    def k(factor):
        return factor if normalise else 1.0

    def samples(key):
        if per_item:
            columns = zip(*[[x * k(f) for x, f in r[key]] for r in rounds])
            return [statistics.median(column) for column in columns]
        return [x * k(f) for r in rounds for x, f in r[key]]

    walls = [r["wall"] * k(r["factor"]) for r in rounds]
    latencies = samples("latencies")
    return {
        "sweep_s": statistics.median(walls),
        "compile_ms_p50": 1e3 * median_or_zero(samples("compiles")),
        "latency_ms_p50": 1e3 * percentile(latencies, 0.50),
        "latency_ms_p99": 1e3 * percentile(latencies, 0.99),
        "requests_per_s": statistics.median(requests_per_round / w for w in walls),
    }


def layer_figures(rounds, normalise: bool) -> dict:
    """Per-layer seconds per round: ``rounds`` of (seconds by layer, factor)."""
    return {
        name: median_or_zero(
            seconds.get(name[: -len(".s")], 0.0) * (factor if normalise else 1.0)
            for seconds, factor in rounds
        )
        for name in LAYER_TIMES
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak RSS (VmHWM) of another live process."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


# -- set-up -----------------------------------------------------------------
def setup_sample(workload: str, seed: int) -> dict:
    """Import, device, inputs and warm-up in this fresh process."""
    t0 = time.perf_counter()
    import repro  # noqa: F401
    from repro.compiler.mapper import sabre_mapper, trivial_mapper
    from repro.experiments.common import paper_configuration
    from repro.hardware import resolve_device
    from repro.service import CompilationService, CompileRequest

    import inputs

    t1 = time.perf_counter()
    if workload == "serve_drift":
        device = resolve_device("surface17")
        t2 = time.perf_counter()
        corpus = inputs.service_corpus(seed)
        [CompileRequest(circuit=corpus[i], mapper=m, priority=p)
         for i, m, p in inputs.service_stream()]
        inputs.drift_deltas(device)
        t3 = time.perf_counter()
        service = CompilationService(workers=1)
        service.start()
        t4 = time.perf_counter()
        service.stop()
    else:
        device = paper_configuration()
        t2 = time.perf_counter()
        suite = inputs.fig3_suite(seed)
        t3 = time.perf_counter()
        mapper = trivial_mapper() if workload == "fig3_trivial" else sabre_mapper()
        mapper.map(suite[0].circuit, device)
        t4 = time.perf_counter()
    return {
        "setup.import_s": t1 - t0, "setup.device_s": t2 - t1,
        "setup.inputs_s": t3 - t2, "setup.warm_s": t4 - t3,
    }


def startup_s() -> float:
    """One set-up reference: a fresh interpreter that imports numpy."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "refkernel.py"), "--startup"],
                   check=True, timeout=60)
    return time.perf_counter() - start


def measure_setup(workload: str, seed: int):
    """Median of SETUP_SAMPLES fresh-process set-ups, per phase and total,
    raw and each scaled by the set-up references taken before and after it."""
    samples, refs = [], [startup_s()]
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-sample",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, timeout=150, check=True,
        )
        samples.append(json.loads(out.stdout.decode().strip().splitlines()[-1]))
        refs.append(startup_s())
    factors = [2 * R0_STARTUP_S / (a + b) for a, b in zip(refs, refs[1:])]
    raw, norm = {"host.startup_s": statistics.median(refs)}, {}
    for name in SETUP_PHASES:
        raw[name] = statistics.median(s[name] for s in samples)
        norm[name] = statistics.median(s[name] * f for s, f in zip(samples, factors))
    raw["setup_s"] = statistics.median(sum(s.values()) for s in samples)
    norm["setup_s"] = statistics.median(sum(s.values()) * f for s, f in zip(samples, factors))
    return raw, norm


# -- Fig. 3 sweeps ----------------------------------------------------------
class Recording:
    """Mapper proxy for the suite runner: times ``map`` and, for the
    checked round, keeps every ``MappingResult``."""

    def __init__(self, mapper, keep: bool) -> None:
        self.mapper = mapper
        self.keep = keep
        self.results = []
        self.compile_s = []

    def map(self, circuit, device):
        start = time.perf_counter()
        result = self.mapper.map(circuit, device)
        self.compile_s.append(time.perf_counter() - start)
        if self.keep:
            self.results.append(result)
        return result


def fig3_counted_calls(suite, device, make):
    """The counted passes over the fixed subset: ``py_calls`` from one
    profiler around the suite runner (the program's own compile path),
    then calls per layer from the layer split, one profiler per layer."""
    from repro.core.metrics import clear_metrics_cache
    from repro.experiments.common import run_suite

    import layers

    subset = [b for b in suite if b.circuit.num_gates <= COUNT_MAX_GATES]
    clear_metrics_cache()
    mapper = make()
    profile = cProfile.Profile()
    profile.enable()
    try:
        run_suite(subset, device, mapper)
    finally:
        profile.disable()
    py_calls = pstats.Stats(profile).total_calls
    clear_metrics_cache()
    counter = layers.Counter()
    mapper = make()
    for benchmark in subset:
        layers.split_map(benchmark, device, mapper, counter)
    return py_calls, counter.calls()


def run_fig3(workload: str, seed: int, seconds: float, trace: bool, ref: Reference):
    from repro.compiler.mapper import sabre_mapper, trivial_mapper
    from repro.core.metrics import clear_metrics_cache
    from repro.experiments.common import paper_configuration, run_suite

    import check
    import inputs
    import layers

    make = trivial_mapper if workload == "fig3_trivial" else sabre_mapper
    device = paper_configuration()
    suite = inputs.fig3_suite(seed)
    make().map(suite[0].circuit, device)
    problems = []

    def timed_rounds(budget):
        rounds = []
        deadline = time.perf_counter() + budget
        while not rounds or time.perf_counter() < deadline:
            clear_metrics_cache()
            proxy = Recording(make(), keep=False)
            latencies = []
            mark = [None]
            since = ref.mark()

            def progress(index, total, name):
                now = time.perf_counter()
                if mark[0] is not None:
                    latencies.append(now - mark[0])
                ref.sample()
                mark[0] = time.perf_counter()

            out = run_suite(suite, device, proxy, progress=progress)
            latencies.append(time.perf_counter() - mark[0])
            ref.sample()
            # Circuit i ran between samples since+i and since+i+1; it is
            # scaled by those two and their neighbours in the round.
            last = since + len(latencies) + 1
            factors = [
                ref.factor(max(since, since + i - 1), min(last, since + i + 3))
                for i in range(len(latencies))
            ]
            wall = sum(latencies)
            rounds.append({
                "digest": hashlib.sha256(pickle.dumps(out)).digest(),
                "wall": wall,
                "factor": sum(x * f for x, f in zip(latencies, factors)) / wall,
                "latencies": list(zip(latencies, factors)),
                "compiles": list(zip(proxy.compile_s, factors)),
            })
        return rounds

    def traced_rounds(budget):
        rounds = []
        deadline = time.perf_counter() + budget
        while not rounds or time.perf_counter() < deadline:
            clear_metrics_cache()
            watch = layers.Stopwatch()
            mapper = make()
            out = []
            since = ref.mark()
            for benchmark in suite:
                ref.sample()
                out.append(layers.split_map(benchmark, device, mapper, watch)[0])
            if hashlib.sha256(pickle.dumps(out)).digest() != golden:
                problems.append("the layer split's records differ from the suite runner's")
            rounds.append((dict(watch.seconds), ref.factor(since)))
        return rounds

    plain = timed_rounds(seconds / 2 if trace else seconds)
    # The program's peak, read before the benchmark keeps any results.
    rss_mb = peak_rss_mb()

    # Checked round through the suite runner: every circuit is checked,
    # and every timed round must have produced the same records.
    clear_metrics_cache()
    checked = Recording(make(), keep=True)
    records = run_suite(suite, device, checked)
    golden = hashlib.sha256(pickle.dumps(records)).digest()
    if any(r.pop("digest") != golden for r in plain):
        problems.append("a timed round's records differ from the checked round")
    table = check.ErrorTable.of(device.calibration)
    for benchmark, result, record in zip(suite, checked.results, records):
        found = check.check_result(
            benchmark.circuit, result.decomposed, result.routed, result.mapped,
            result.initial_layout, result.final_layout, device, table, record,
        )
        problems += [f"{benchmark.source}: {p}" for p in found]
    gates_out = {
        "decompose.gates_out": sum(r.decomposed.num_gates for r in checked.results),
        "lower.gates_out": sum(r.mapped.num_gates for r in checked.results),
        "route.swaps": sum(r.swap_count for r in checked.results),
    }
    del checked

    py_calls, calls = fig3_counted_calls(suite, device, make)
    traced = traced_rounds(seconds / 2) if trace else []
    raw = {**round_figures(plain, len(suite), False, True), **layer_figures(traced, False)}
    norm = {**round_figures(plain, len(suite), True, True), **layer_figures(traced, True)}
    counts = {
        "py_calls": py_calls,
        "peak_rss_mb": rss_mb,
        "mapped_gates": sum(r.gates_after for r in records),
        "swaps": sum(r.swap_count for r in records),
        "mapped_depth": sum(r.depth_after for r in records),
        "fidelity_geomean": _geomean(r.log_fidelity_after for r in records),
        "computes": len(records),
        **gates_out,
    }
    for layer, value in calls.items():
        counts[f"{layer}.calls"] = value
    attempted = len(suite) * (len(plain) + len(traced))
    return raw, norm, counts, attempted, 0, problems


def _geomean(logs) -> float:
    logs = list(logs)
    return math.exp(sum(logs) / len(logs))


# -- compilation service under drift ---------------------------------------
def run_serve(seed: int, seconds: float, ref: Reference, worker_cpu: int):
    import multiprocessing
    from collections import Counter
    from dataclasses import replace

    from repro.compiler.routing import clear_distance_cache, refresh_distance_caches
    from repro.core.metrics import clear_metrics_cache
    from repro.hardware import resolve_device
    from repro.hardware.drift import CalibrationStream
    from repro.resilience.journal import encode_record
    from repro.service import MAPPERS, CompilationService, CompileRequest, ServiceError
    from repro.service.workers import compute_payload
    from repro.workloads.suite import BenchmarkCircuit

    import check
    import inputs
    import layers

    base = resolve_device("surface17")
    corpus = inputs.service_corpus(seed)
    stream = inputs.service_stream()
    updates, reset = inputs.drift_deltas(base)
    requests = [CompileRequest(circuit=corpus[i], mapper=m, priority=p) for i, m, p in stream]
    period = inputs.DRIFT_PERIOD
    problems = []
    payload_of = {}      # (period, corpus index, mapper) -> bytes, every round
    rounds = []
    failed = 0

    service = CompilationService(workers=1)
    start = time.perf_counter()
    service.start()
    start_s = time.perf_counter() - start
    workers = multiprocessing.active_children()
    for child in workers:
        os.sched_setaffinity(child.pid, {worker_cpu})
    # A round ends with ``reset``, which writes the base rates of the
    # sites it touched as explicit entries, and the calibration digest
    # counts entries.  Applied once up front, it gives every round the
    # same calibrations, so every round's payloads must repeat byte for
    # byte, not only the first round's.
    service.apply_drift(reset, "surface17")
    try:
        deadline = time.perf_counter() + seconds
        while not rounds or time.perf_counter() < deadline:
            before = service.stats()
            digests = [service.calibration_digest("surface17")]
            responses, drift_s = [], []
            idle = 0.0
            round_start = time.perf_counter()
            for wave, offset in enumerate(range(0, len(requests), inputs.CLIENTS)):
                if offset and offset % period == 0:
                    t = time.perf_counter()
                    service.apply_drift(updates[offset // period - 1], "surface17")
                    drift_s.append(time.perf_counter() - t)
                    digests.append(service.calibration_digest("surface17"))
                jobs = [service.submit(r) for r in requests[offset:offset + inputs.CLIENTS]]
                for job in jobs:
                    try:
                        responses.append(job.result(timeout=120))
                    except ServiceError as exc:
                        responses.append(None)
                        print(f"request {len(responses) - 1} failed: {exc}", file=sys.stderr)
                if wave % SAMPLE_EVERY_WAVES == 0:
                    idle += ref.sample()
            t = time.perf_counter()
            service.apply_drift(reset, "surface17")
            drift_s.append(time.perf_counter() - t)
            wall = time.perf_counter() - round_start - idle
            after = service.stats()
            delta = {
                name: after["cache"][name] - before["cache"][name]
                for name in ("hits", "misses", "evictions")
            }
            delta["coalesced"] = after["coalesced"] - before["coalesced"]
            failed += responses.count(None)
            served = [r for r in responses if r is not None]
            rounds.append({
                **delta, "computes": delta["misses"] - delta["coalesced"], "wall": wall,
                "responses": served,
                "hit_s": [r.elapsed_s for r in served if r.served_by == "cache"],
                "drift_s": drift_s,
            })
            for offset in range(0, len(requests), inputs.CLIENTS):
                wave = zip(stream[offset:offset + inputs.CLIENTS],
                           responses[offset:offset + inputs.CLIENTS])
                fresh = Counter((i, m) for (i, m, _), r in wave if r is not None and not r.cached)
                if any(n > 1 for n in fresh.values()):
                    problems.append(f"wave at request {offset}: one key compiled twice in flight")
            for index, (response, (i, m, _)) in enumerate(zip(responses, stream)):
                if response is None:
                    continue
                body = json.loads(response.payload)
                if body["key"]["calibration"] != digests[index // period]:
                    problems.append(f"request {index}: payload digest is not its admission epoch's")
                if payload_of.setdefault((index // period, i, m), response.payload) != response.payload:
                    problems.append(f"request {index}: payloads for one key and epoch differ")
        # The program's peak: the front end (this process, before the
        # checks below) and the worker that does every compile.
        rss_mb = peak_rss_mb() + sum(process_peak_rss_mb(w.pid) for w in workers)
    finally:
        service.stop()
    # A service round is short (under a second) and samples are taken
    # only every 16th wave, so the whole serving window shares one factor.
    factor = ref.factor(0)
    for r in rounds:
        responses = r.pop("responses")
        r["factor"] = factor
        r["latencies"] = [(x.elapsed_s, factor) for x in responses]
        r["compiles"] = [(x.elapsed_s, factor) for x in responses if not x.cached]

    def one_round(visit):
        """Visit each (period, circuit, mapper) of one round with its
        epoch's device and error table, migrating this process's
        distance tables across each update as the worker does; returns
        the rows recomputed and the wholesale rebuilds."""
        clear_distance_cache()
        clear_metrics_cache()
        calibration = CalibrationStream(base.calibration)
        calibration.apply(reset)
        device = replace(base, calibration=calibration.calibration)
        table = check.ErrorTable.of(base.calibration).updated(reset)
        rows = rebuilds = 0
        for segment, offset in enumerate(range(0, len(stream), period)):
            if segment:
                delta = updates[segment - 1]
                diff = calibration.apply(delta)
                drifted = replace(base, calibration=calibration.calibration)
                refresh = refresh_distance_caches(device, drifted, diff)
                rows += refresh.rows_recomputed
                rebuilds += refresh.wholesale_rebuilds
                device, table = drifted, table.updated(delta)
            for i, m in dict.fromkeys((i, m) for i, m, _ in stream[offset:offset + period]):
                visit((segment, i, m), corpus[i], device, table)
        return rows, rebuilds

    def split_pass(layer):
        """The layer split of one round, in this process."""
        out = []

        def visit(key, circuit, device, table):
            bench = BenchmarkCircuit(circuit, "random", circuit.content_hash())
            record, compiled = layers.split_map(bench, device, MAPPERS[key[2]](), layer)
            out.append((key, circuit, device, table, record, compiled))

        rows, rebuilds = one_round(visit)
        return out, rows, rebuilds

    watch = layers.Stopwatch()
    since = ref.mark()
    ref.sample()
    compiled, rows, rebuilds = split_pass(watch)
    ref.sample()
    traced = [(dict(watch.seconds), ref.factor(since))]
    for key, circuit, device, table, record, c in compiled:
        found = check.check_result(
            circuit, c.decomposed, c.routed, c.mapped, c.initial, c.final, device, table, record,
        )
        if key in payload_of:  # absent only when that request failed
            body = json.loads(payload_of[key])
            if body["record"] != encode_record(record):
                found.append("payload record differs from the checked compile")
            for field in ("swap_count", "depth_after", "fidelity_after"):
                if body[field] != getattr(record, field):
                    found.append(f"payload {field} differs from the checked compile")
        problems += [f"{key}: {p}" for p in found]
    counter = layers.Counter()
    split_pass(counter)
    calls = counter.calls()

    # py_calls: one profiler around the worker's own compile of each
    # key, whose bytes must also equal the service's payload.
    profile = cProfile.Profile()

    def count(key, circuit, device, table):
        profile.enable()
        try:
            payload = compute_payload(CompileRequest(circuit=circuit, mapper=key[2]), device)
        finally:
            profile.disable()
        if key in payload_of and payload != payload_of[key]:
            problems.append(f"{key}: the service's payload differs from an inline compile")

    one_round(count)
    py_calls = pstats.Stats(profile).total_calls

    raw = {**round_figures(rounds, len(requests), False), **layer_figures(traced, False)}
    norm = {**round_figures(rounds, len(requests), True), **layer_figures(traced, True)}
    for figures, scale in ((raw, lambda r: 1.0), (norm, lambda r: r["factor"])):
        figures["service.hit_ms_p50"] = 1e3 * median_or_zero(
            x * scale(r) for r in rounds for x in r["hit_s"])
        figures["service.miss_ms_p50"] = figures["compile_ms_p50"]
        figures["drift.apply_ms_p50"] = 1e3 * median_or_zero(
            x * scale(r) for r in rounds for x in r["drift_s"])
    raw["service.start_s"] = start_s
    records = [item[4] for item in compiled]
    counts = {
        "py_calls": py_calls,
        "peak_rss_mb": rss_mb,
        "mapped_gates": sum(r.gates_after for r in records),
        "swaps": sum(r.swap_count for r in records),
        "mapped_depth": sum(r.depth_after for r in records),
        "fidelity_geomean": _geomean(r.log_fidelity_after for r in records),
        "computes": statistics.median_low(r["computes"] for r in rounds),
        "decompose.gates_out": sum(item[5].decomposed.num_gates for item in compiled),
        "lower.gates_out": sum(item[5].mapped.num_gates for item in compiled),
        "route.swaps": sum(r.swap_count for r in records),
        "drift.rows_recomputed": rows,
        "drift.wholesale_rebuilds": rebuilds,
    }
    for name in ("hits", "misses", "coalesced", "evictions"):
        counts[f"service.{name}"] = statistics.median_low(r[name] for r in rounds)
    for layer, value in calls.items():
        counts[f"{layer}.calls"] = value
    return raw, norm, counts, len(requests) * len(rounds), failed, problems


def _merge_service_layers(out, probe):
    """``out`` with the service and drift layer figures of ``probe``."""
    merged = [dict(part) for part in out[:3]]
    for part, extra in zip(merged, probe[:3]):
        part.update({k: v for k, v in extra.items() if k.startswith(("service.", "drift."))})
    return (*merged, out[3] + probe[3], out[4] + probe[4], out[5] + probe[5])


# -- entry point ------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_sample:
        print(json.dumps(setup_sample(args.workload, args.seed)))
        return 0

    # The benchmark and its set-up samples run on one CPU, a service
    # worker on the other when there is one, and the reference kernel on
    # every CPU that does the program's work.  Unpinned, processes
    # migrating between the two CPUs of a small VM moved the reference
    # median by up to 40% between runs.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])
    serve = args.workload == "serve_drift"
    raw, norm = measure_setup(args.workload, args.seed)
    ref = Reference(sorted({cpus[0], cpus[-1]}) if serve else cpus[:1])
    try:
        if serve:
            out = run_serve(args.seed, args.seconds, ref, cpus[-1])
        else:
            out = run_fig3(args.workload, args.seed, args.seconds, bool(args.trace), ref)
            if args.trace:
                # The sweeps never touch the service; one round of the
                # service stream measures its layers, so that every
                # traced run reports every layer.
                probe = run_serve(args.seed, 0.0, ref, cpus[-1])
                out = _merge_service_layers(out, probe)
    finally:
        ref.close()
    run_raw, run_norm, counts, attempted, failed, problems = out
    raw.update(run_raw)
    norm.update(run_norm)
    if "service.start_s" in raw:
        norm["service.start_s"] = raw["service.start_s"] * R0_STARTUP_S / raw["host.startup_s"]
    values = dict(counts)
    values["host.ref_ms"] = ref.ms
    values["host.startup_s"] = raw["host.startup_s"]
    for name in RAW:
        values[name] = norm.get(name, 0.0)
        values[f"raw.{name}"] = raw.get(name, 0.0)
    for name in PER_LAYER:
        values.setdefault(name, 0)

    wanted = PER_LAYER if args.trace else END_TO_END
    for name in wanted:
        note = f"  (raw {raw[name]:.6g})" if name in raw else ""
        print(f"{name:28s} {values[name]:>16.6g} {UNITS[name]}{note}")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": UNITS[name]} for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

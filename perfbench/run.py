#!/usr/bin/env python3
"""Serving benchmark of the multi-precision cascade on its real compute path.

Run from the repository root:

    python3 perfbench/run.py --workload cascade-bnn --seed 1 --seconds 10 --trace 0

Workloads (see README.md in this directory):

* ``cascade-bnn``  - CNV (paper width) -> DMU -> float32 Model A (paper width)
* ``cascade-pool`` - CNV (workbench width) -> DMU -> float32 Model C (paper
  width) over a 2-process ParallelHostRunner
* ``ladder-q8``    - CNV -> 8-bit Model A rung -> float32 Model C top
* ``net-video``    - held-frame video crops, open loop over one NetClient
  connection into NetFrontend -> ShardRouter -> ProcessReplica with cache

Every run checks its answers independently (``stack.Checker``), prints the
environment, the resolved kernel backends and every metric by name and
unit, and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``: end-to-end metrics with ``--trace 0``, per-layer metrics from
timed spans with ``--trace 1``.  The exit code is 0 only when every answer
checked is right.  ``--self-test-wrong`` corrupts one answer before the
checks, which must then fail the run.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import json
import math
import os
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import stack

HERE = Path(__file__).resolve().parent

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 7
#: Untimed load before the timed window, so lazy set-up and buffers settle.
WARMUP_S = 5.0
#: Slices of the timed window; end-to-end figures are medians over them.
SLICES = 10
#: Distinct images an in-process workload cycles through.
POOL = 512
#: Inputs whose every answer is checked against the float references.
SAMPLE = 64
#: CascadeServer's default BNN micro-batch limit.
MAX_BATCH = 32
#: Closed-loop requests outstanding: the host queue's capacity, so the
#: cascade never sheds to a degraded answer.
WINDOW = 64
#: Open-loop send rate of net-video, requests per second: about a third of
#: what the stack sustains here, so a noisy neighbour does not tip it into
#: a backlog.
NET_RATE = 120.0
#: An open-loop sender later than this measures the harness, not the program.
LAG_BOUND_MS = 20.0

E2E_UNITS = {
    "setup_s": "s",
    "throughput_img_s": "img/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "cpu_ms_per_img": "ms",
    "peak_rss_mb": "MiB",
}
LAYER_UNITS = {
    "bnn.us_per_img": "us/img",
    "bnn.batch_mean": "img/call",
    "bnn.busy_s": "s",
    "dmu.us_per_img": "us/img",
    "bnn.forward_ratio": "ratio",
    "q8.forward_ratio": "ratio",
    "host.us_per_img": "us/img",
    "host.batch_mean": "img/call",
    "host.busy_s": "s",
    "q8.us_per_img": "us/img",
    "q8.batch_mean": "img/call",
    "q8.busy_s": "s",
    "serve.host_queue_wait_ms": "ms",
    "serve.q8_queue_wait_ms": "ms",
    "serve.degraded": "count",
}
#: Per-layer metrics of the network path (net-video).
NET_UNITS = {
    "net.server_latency_ms_p50": "ms",
    "net.wire_ms_p50": "ms",
    "net.frontend_cpu_ms_per_img": "ms",
    "net.replica_cpu_ms_per_img": "ms",
    "cache.hits": "count",
    "cache.hit_ratio": "ratio",
    "gen.lag_ms_max": "ms",
}
#: Extra per-layer metrics of workloads with a host process pool.
POOL_UNITS = {
    "pool.worker_us_per_img": "us/img",
    "pool.overhead_us_per_img": "us/img",
}


@dataclass
class Report:
    attempted: int = 0
    failed: int = 0
    degraded: int = 0
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    checker: stack.Checker | None = None
    problems: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems and self.checker is not None and self.checker.ok


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def fresh_kernel_cache(run_dir: Path, index: int) -> None:
    """Point the kernel-selection cache at a new file and forget decisions."""
    from repro.bnn.kernels import clear_selection_cache

    os.environ["REPRO_KERNEL_CACHE"] = str(run_dir / f"kernels-{index}.json")
    clear_selection_cache()


def answer_of(result) -> tuple:
    return (int(result.prediction), int(result.bnn_prediction), float(result.confidence), result.source)


# -- in-process cascades -------------------------------------------------------

@dataclass
class Served:
    server: object
    closers: list
    plan: object
    q8_engine: object | None

    def close(self) -> None:
        for close in self.closers:
            close()


class InProcess:
    """A CascadeServer driven by a closed loop of ``WINDOW`` outstanding requests."""

    def __init__(self, bnn_scale, host, bnn_forward, q8=None, host_workers=0, bnn_backend=None):
        self.bnn_scale = bnn_scale
        self.host = host                    # (model kind, width scale)
        self.bnn_forward = bnn_forward
        self.q8 = q8                        # (model kind, width scale, forward ratio)
        self.host_workers = host_workers
        self.bnn_backend = bnn_backend      # REPRO_BNN_BACKEND pin, None = autotune

    def layer_units(self) -> dict:
        return {**LAYER_UNITS, **(POOL_UNITS if self.host_workers else {})}

    def q8_engine(self, images):
        kind, scale, _ = self.q8
        return stack.seeded_host(kind, scale).compile_quantized(
            bits=8, calibration_images=images[:64]
        )

    def calibrate(self, images):
        """DMU operating points from this input pool's own confidences."""
        plan, _ = stack.compile_bnn(self.bnn_scale)
        scores = stack.batched(plan.class_scores, images)
        dmu0 = stack.calibrate_dmu(scores, self.bnn_forward)
        forwarded = stack.confidence(scores, stack.margin_weights(dmu0[0])) < dmu0[1]
        probes = [int(np.argmin(forwarded)), int(np.argmax(forwarded))]
        dmu1 = None
        if self.q8:
            idx = np.flatnonzero(forwarded)
            q8_scores = stack.batched(self.q8_engine(images).predict_scores, images[idx])
            dmu1 = stack.calibrate_dmu(q8_scores, self.q8[2])
            up = stack.confidence(q8_scores, stack.margin_weights(dmu1[0])) < dmu1[1]
            probes += [int(idx[np.argmin(up)]), int(idx[np.argmax(up)])]
        return dmu0, dmu1, probes

    def build(self, images, dmu0, dmu1, probes, spans) -> Served:
        """Program set-up, timed by the caller up to the first answers."""
        from repro.core.ladder import LadderStage
        from repro.serve import CascadeServer, ServerMetrics

        plan, _ = stack.compile_bnn(self.bnn_scale)
        engine = stack.seeded_host(*self.host).compile_inference()
        metrics = ServerMetrics()
        closers = []
        bnn_fn, dmu, host_fn = plan.class_scores, stack.margin_dmu(*dmu0), engine.predict_classes
        if self.host_workers:
            from repro.parallel import ParallelHostRunner

            runner = ParallelHostRunner(predict_fn=engine.predict_classes, n_workers=self.host_workers)
            runner.set_metrics(metrics)
            closers.append(runner.close)
            host_fn = runner
        q8_engine = ladder = None
        if self.q8:
            q8_engine = self.q8_engine(images)
            q8_fn, q8_dmu = q8_engine.predict_scores, stack.margin_dmu(*dmu1)
        if spans is not None:
            bnn_fn, dmu = spans.timed("bnn", bnn_fn), spans.timed_dmu("dmu", dmu)
            host_fn = spans.timed("host", host_fn)
            if self.q8:
                q8_fn, q8_dmu = spans.timed("q8", q8_fn), spans.timed_dmu("q8.dmu", q8_dmu)
        if self.q8:
            ladder = [LadderStage("q8", q8_fn, dmu=q8_dmu, threshold=dmu1[1])]
        server = CascadeServer(
            bnn_fn, dmu, host_fn, controller=dmu0[1], ladder=ladder, metrics=metrics
        )
        closers.insert(0, server.close)
        for future in [server.submit(images[i]) for i in probes]:
            future.result(timeout=120)
        return Served(server, closers, plan, q8_engine)

    def run(self, args, run_dir: Path, report: Report, spans) -> None:
        from repro.data import normalize_to_pm1, synthetic_cifar10

        images = normalize_to_pm1(
            synthetic_cifar10(num_train=1, num_test=POOL, seed=args.seed).test.images
        )
        rng = np.random.default_rng(args.seed)
        fresh_kernel_cache(run_dir, 0)
        dmu0, dmu1, probes = self.calibrate(images)
        gc.collect()

        setups, served = [], None
        for i in range(SETUPS):
            if served is not None:
                served.close()
                served = None
                gc.collect()
            fresh_kernel_cache(run_dir, i + 1)
            t0 = time.perf_counter()
            served = self.build(images, dmu0, dmu1, probes, spans)
            setups.append(time.perf_counter() - t0)
        report.info["setup_runs_s"] = setups
        report.info["backends"] = stack.plan_backends(served.plan)
        report.info["thresholds"] = {"bnn": dmu0[1], **({"q8": dmu1[1]} if dmu1 else {})}

        server = served.server
        order = itertools.chain.from_iterable(rng.permutation(POOL) for _ in itertools.count())
        slots = threading.Semaphore(WINDOW)
        records = []  # (pool index, submitted, done, future)

        def done(future, idx, t0):
            records.append((idx, t0, time.perf_counter(), future))
            slots.release()

        def submit():
            idx = int(next(order))
            if not slots.acquire(timeout=120):
                raise RuntimeError("no answer for 120 s with the window full")
            t0 = time.perf_counter()
            server.submit(images[idx]).add_done_callback(
                functools.partial(done, idx=idx, t0=t0)
            )

        def drain():
            """Wait until every outstanding request is answered."""
            for _ in range(WINDOW):
                if not slots.acquire(timeout=120):
                    raise RuntimeError("requests still outstanding after 120 s")
            for _ in range(WINDOW):
                slots.release()

        try:
            # The program allocates buffers per batch size: send each batch
            # size once, so the window and the peak RSS see it settled.
            for size in range(1, MAX_BATCH + 1):
                for _ in range(size):
                    submit()
                drain()
            warm_end = time.perf_counter() + WARMUP_S
            while time.perf_counter() < warm_end:
                submit()
            window = stack.Window(time.perf_counter(), args.seconds, SLICES)
            window.tick(window.start)
            snap0 = server.snapshot()
            while (now := time.perf_counter()) < window.end:
                window.tick(now)
                submit()
            window.tick(time.perf_counter())
            tree = stack.process_tree()
            snap1, rss = server.snapshot(), stack.peak_rss_mb(tree)
            drain()
            final = server.snapshot()
        finally:
            served.close()

        timed = [r for r in records if window.start <= r[1] < window.end]
        ok = [r for r in records if r[3].exception() is None]
        results = [r[3].result() for r in timed if r[3].exception() is None]
        report.attempted = len(timed)
        report.failed = len(timed) - len(results)
        report.degraded = sum(1 for r in results if r.source == "degraded")
        report.e2e.update(window.medians([(r[1], r[2]) for r in ok]))
        report.e2e.update(setup_s=float(np.median(setups)), peak_rss_mb=rss)
        report.info["latency_samples"] = len(results)
        report.info["slices"] = window.slices([(r[1], r[2]) for r in ok])

        books = final.accepted + final.rerun + final.degraded + final.cache_hits + final.failed
        if books != final.submitted:
            report.problems.append(
                f"books do not balance: accepted+rerun+degraded+cache_hits+failed={books} "
                f"!= submitted={final.submitted}"
            )
        if spans is not None:
            self.layer_metrics(report, spans, snap0, snap1, window.start, window.end)
        self.check(args, report, images, records, served, dmu0, dmu1, rng)

    def layer_metrics(self, report, spans, snap0, snap1, t0, t1) -> None:
        layers = report.layers
        for name in ("bnn", "host", "q8"):
            for stat, value in spans.stats(name, t0, t1).items():
                layers[f"{name}.{stat}"] = value
        layers["dmu.us_per_img"] = spans.stats("dmu", t0, t1)["us_per_img"]
        for rung in ("bnn", "q8"):
            arrived = snap1.stage_arrived.get(rung, 0) - snap0.stage_arrived.get(rung, 0)
            forwarded = snap1.stage_forwarded.get(rung, 0) - snap0.stage_forwarded.get(rung, 0)
            layers[f"{rung}.forward_ratio"] = forwarded / arrived if arrived else 0.0

        def stage_mean(name):
            a, b = snap0.stages.get(name), snap1.stages.get(name)
            if b is None:
                return 0.0
            count = b.count - (a.count if a else 0)
            total = b.total_seconds - (a.total_seconds if a else 0.0)
            return total / count if count else 0.0

        layers["serve.host_queue_wait_ms"] = stage_mean("host_queue_wait") * 1e3
        layers["serve.q8_queue_wait_ms"] = stage_mean("q8_queue_wait") * 1e3
        layers["serve.degraded"] = snap1.degraded - snap0.degraded
        if not self.host_workers:
            return
        worker_s = sum(snap1.host_worker_seconds.values()) - sum(snap0.host_worker_seconds.values())
        worker_n = sum(snap1.host_worker_images.values()) - sum(snap0.host_worker_images.values())
        if not worker_n:
            return
        layers["pool.worker_us_per_img"] = worker_s / worker_n * 1e6
        # Each second the server books on the host stage holds every pool
        # worker; the part of those worker-seconds not spent computing is
        # the pool's dispatch, wait and collect overhead.
        host_s = stage_mean("host") * worker_n
        layers["pool.overhead_us_per_img"] = (self.host_workers * host_s - worker_s) / worker_n * 1e6

    def check(self, args, report, images, records, served, dmu0, dmu1, rng) -> None:
        checker = report.checker = stack.Checker(dmu0, dmu1)
        answers: dict[int, list] = {}
        for idx, _, _, future in records:
            exc = future.exception()
            if exc is not None:
                checker.fail(f"image {idx}: request raised {exc!r}")
                continue
            answers.setdefault(idx, []).append(answer_of(future.result()))
        # Routing and the BNN/8-bit answers are exact, so every repeat of
        # an image must route and answer alike (the DMU's confidence may
        # differ in its last bits with the batch it was scored in, which
        # can tip an image sitting on a threshold); host answers are
        # float32 and are checked against float64 below.
        thresholds = [dmu0[1]] + ([dmu1[1]] if dmu1 else [])
        for idx, seen in answers.items():
            first = seen[0]
            if any(abs(a[2] - t) <= stack.TIE_EPS for a in seen for t in thresholds):
                checker.near_ties["dmu"] += 1
                continue
            for a in seen[1:]:
                if a[1] != first[1] or a[3] != first[3]:
                    checker.fail(f"image {idx}: repeats routed differently: {first} vs {a}")
                    break
                if a[3] != "host" and (
                    a[0] != first[0] or abs(a[2] - first[2]) > stack.TIE_EPS
                ):
                    checker.fail(f"image {idx}: repeats answered differently: {first} vs {a}")
                    break

        sample = np.sort(rng.choice(sorted(answers), size=min(SAMPLE, len(answers)), replace=False))
        if args.self_test_wrong:
            first = answers[int(sample[0])]
            first[0] = ((first[0][0] + 1) % stack.NUM_CLASSES, *first[0][1:])
        _, cnv = stack.compile_bnn(self.bnn_scale)
        bnn_ref = stack.batched(lambda x: cnv.forward(x)[:, : stack.NUM_CLASSES], images[sample])
        refs = {int(i): {"bnn": bnn_ref[k]} for k, i in enumerate(sample)}
        if self.q8:
            for i in sample:
                route = checker.expected_route(refs[int(i)]["bnn"])
                if route[-1] == "?":
                    refs[int(i)]["q8"] = served.q8_engine.predict_scores(images[i : i + 1])[0]
        needs_host = [
            int(i) for i in sample
            if checker.expected_route(refs[int(i)]["bnn"], refs[int(i)].get("q8"))[-1] == "host"
            or any(a[3] == "host" for a in answers[int(i)])
        ]
        if needs_host:
            host_net = stack.seeded_host(*self.host)
            logits = stack.batched(host_net.forward, images[needs_host])
            for k, i in enumerate(needs_host):
                refs[i]["host"] = logits[k]
        for i in sample:
            for answer in answers[int(i)]:
                checker.check(f"image {int(i)}", answer, refs[int(i)])


# -- the network path ----------------------------------------------------------

class NetVideo:
    """Held-frame video crops sent open-loop over one NetClient connection."""

    bnn_scale = 0.15
    host = ("A", 0.25)
    bnn_forward = 0.30
    host_workers = 0
    bnn_backend = None

    def layer_units(self) -> dict:
        return NET_UNITS

    def inputs(self, seed: int, n_requests: int):
        from repro.stream.video import SyntheticVideo
        from repro.traffic.source import VideoTrafficSource

        frames = max(8, math.ceil(n_requests / 15))
        while True:
            source = VideoTrafficSource(
                SyntheticVideo(num_objects=12, seed=seed), seed=seed, repeat_frames=3
            )
            trace, payloads = source.build(frames)
            if len(trace.events) >= n_requests:
                break
            frames *= 2
        refs = np.array([e.payload_ref for e in trace.events[:n_requests]])
        return np.stack(payloads), refs

    def start_server(self, dmu0):
        """Start the server process; returns ``(process, port, replica pid)``."""
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "netserver.py"),
             "--dmu-scale", repr(dmu0[0]), "--threshold", repr(dmu0[1])],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        ready, _, _ = select.select([proc.stdout], [], [], 120)
        line = proc.stdout.readline() if ready else ""
        if not line:
            stop_server(proc)
            raise RuntimeError("net server did not start")
        info = json.loads(line)
        return proc, int(info["port"]), int(info["replica_pid"])

    def run(self, args, run_dir: Path, report: Report, spans) -> None:
        from repro.net import NetClient

        n_warm = int(WARMUP_S * NET_RATE)
        n_total = n_warm + int(args.seconds * NET_RATE)
        payloads, seq = self.inputs(args.seed, n_total)
        rng = np.random.default_rng(args.seed)

        fresh_kernel_cache(run_dir, 0)
        plan, _ = stack.compile_bnn(self.bnn_scale)
        dmu0 = stack.calibrate_dmu(stack.batched(plan.class_scores, payloads), self.bnn_forward)
        # Set-up probes: mirrored crops (bytes the workload never sends),
        # one the DMU accepts and one it forwards, so both rungs are ready.
        mirrored = payloads[:64, :, :, ::-1].copy()
        conf = stack.confidence(stack.batched(plan.class_scores, mirrored), stack.margin_weights(dmu0[0]))
        probes = mirrored[[int(np.argmax(conf >= dmu0[1])), int(np.argmax(conf < dmu0[1]))]]
        del plan
        report.info["thresholds"] = {"bnn": dmu0[1]}

        setups, proc, client = [], None, None
        try:
            for i in range(SETUPS):
                if proc is not None:
                    client.close()
                    stop_server(proc)
                    proc = client = None
                fresh_kernel_cache(run_dir, i + 1)
                t0 = time.perf_counter()
                proc, port, replica = self.start_server(dmu0)
                client = NetClient("127.0.0.1", port)
                for future in [client.submit(p) for p in probes]:
                    future.result(timeout=120)
                setups.append(time.perf_counter() - t0)
            report.info["setup_runs_s"] = setups
            self.drive(args, report, client, proc.pid, replica, payloads, seq, n_warm, n_total, setups)
        finally:
            if client is not None:
                client.close()
            if proc is not None:
                stop_server(proc)
        self.check(args, report, payloads, dmu0, rng)

    def drive(self, args, report, client, server_pid, replica_pid, payloads, seq,
              n_warm, n_total, setups) -> None:
        records = []  # (k, due, sent, done, future)

        def done(future, k, due, sent):
            records.append((k, due, sent, time.perf_counter(), future))

        t_base = time.perf_counter() + 0.05
        window = stack.Window(t_base + n_warm / NET_RATE, args.seconds, SLICES)
        futures = []
        for k in range(n_total):
            due = t_base + k / NET_RATE
            window.tick(due)
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            future = client.submit(payloads[seq[k]])
            future.add_done_callback(functools.partial(done, k=k, due=due, sent=sent))
            futures.append(future)
        delay = window.end - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        window.tick(window.end)
        rss = stack.peak_rss_mb(stack.process_tree())
        for future in futures:
            try:
                future.exception(timeout=60)
            except TimeoutError:
                report.problems.append("requests still outstanding 60 s after the window")
                break
        self.records = sorted(records, key=lambda r: r[0])
        self.seq = seq

        timed = [r for r in self.records if r[0] >= n_warm]
        ok = [r for r in timed if r[4].exception() is None]
        results = [r[4].result() for r in ok]
        report.attempted = len(timed)
        report.failed = len(timed) - len(ok)
        report.degraded = sum(1 for r in results if r.source == "degraded")
        samples = [(r[1], r[3]) for r in self.records if r[4].exception() is None]
        report.e2e.update(window.medians(samples))
        report.e2e.update(setup_s=float(np.median(setups)), peak_rss_mb=rss)
        report.info["latency_samples"] = len(results)
        report.info["rate_req_s"] = NET_RATE
        report.info["slices"] = window.slices(samples)
        hits = sum(1 for r in results if r.source == "cache")
        n = max(len(results), 1)
        cpu0, cpu1 = window.cpu[0], window.cpu[-1]
        report.layers.update({
            "net.server_latency_ms_p50": percentile([r.latency_seconds * 1e3 for r in results], 50),
            "net.wire_ms_p50": percentile(
                [(r[3] - r[2] - res.latency_seconds) * 1e3 for r, res in zip(ok, results)], 50
            ),
            "net.frontend_cpu_ms_per_img": stack.cpu_delta(cpu0, cpu1, [server_pid]) / n * 1e3,
            "net.replica_cpu_ms_per_img":
                stack.cpu_delta(cpu0, cpu1, stack.process_tree(replica_pid)) / n * 1e3,
            "cache.hits": hits,
            "cache.hit_ratio": hits / n,
            "gen.lag_ms_max": max((r[2] - r[1]) * 1e3 for r in timed),
        })
        if report.layers["gen.lag_ms_max"] > LAG_BOUND_MS:
            report.info["flag"] = (
                f"the sender ran up to {report.layers['gen.lag_ms_max']:.1f} ms late "
                f"(bound {LAG_BOUND_MS} ms): this run measures the harness"
            )

    def check(self, args, report, payloads, dmu0, rng) -> None:
        checker = report.checker = stack.Checker(dmu0)
        answers: dict[int, list] = {}
        for k, _, _, _, future in self.records:
            exc = future.exception()
            if exc is not None:
                checker.fail(f"request {k}: raised {exc!r}")
                continue
            answers.setdefault(int(self.seq[k]), []).append(answer_of(future.result()))
        sample = np.sort(rng.choice(sorted(answers), size=min(SAMPLE, len(answers)), replace=False))
        if args.self_test_wrong:
            first = answers[int(sample[0])]
            first[-1] = ((first[-1][0] + 1) % stack.NUM_CLASSES, *first[-1][1:])
        # Identical bytes must get identical answers, cached or not.
        for ref, seen in answers.items():
            if len({a[:3] for a in seen}) > 1:
                checker.fail(f"crop {ref}: identical bytes answered differently: {sorted(set(seen))}")
        _, cnv = stack.compile_bnn(self.bnn_scale)
        bnn_ref = stack.batched(lambda x: cnv.forward(x)[:, : stack.NUM_CLASSES], payloads[sample])
        host_net = stack.seeded_host(*self.host)
        for k, i in enumerate(sample):
            ref = {"bnn": bnn_ref[k]}
            cold = [a for a in answers[int(i)] if a[3] != "cache"]
            if checker.expected_route(ref["bnn"])[-1] == "host" or any(a[3] == "host" for a in cold):
                ref["host"] = host_net.forward(payloads[i : i + 1])[0]
            for answer in cold:
                checker.check(f"crop {int(i)}", answer, ref)
            if not cold:
                checker.fail(f"crop {int(i)}: no uncached answer to check")


def stop_server(proc) -> None:
    """Close the server's stdin, wait for it, kill its group if it hangs."""
    try:
        proc.stdin.close()
    except OSError:
        pass
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


WORKLOADS = {
    # The autotuner flips its kernel picks between runs, and a 2-thread
    # GEMM stalls whenever the host deschedules one of the two cores; both
    # swung this BNN-bound workload by up to 30%, so its backend is pinned
    # to the single-thread variant, one of the autotuner's usual picks.
    "cascade-bnn": lambda: InProcess(1.0, ("A", 1.0), 0.15, bnn_backend="threaded@1"),
    # cascade-pool and net-video are not in BENCHMARK.json: too unsteady
    # on a shared 2-core machine to gate on (see README.md).
    "cascade-pool": lambda: InProcess(0.15, ("C", 1.0), 0.30, host_workers=2),
    "ladder-q8": lambda: InProcess(0.15, ("C", 0.25), 0.50, q8=("A", 0.25, 0.50)),
    "net-video": NetVideo,
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test-wrong", action="store_true",
                        help="corrupt one answer before the checks (the run must fail)")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(HERE)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    run_dir = root / ".perfbench" / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_KERNEL_CACHE"] = str(run_dir / "kernels-0.json")

    workload = WORKLOADS[args.workload]()
    spans = stack.Spans() if args.trace else None
    report = Report()
    if workload.bnn_backend:
        os.environ["REPRO_BNN_BACKEND"] = workload.bnn_backend
    try:
        report.info["environment"] = stack.environment(workload.host_workers)
        workload.run(args, run_dir, report, spans)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if spans is not None:
        spans.write(root / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json")

    units = workload.layer_units() if args.trace else E2E_UNITS
    source = report.layers if args.trace else report.e2e
    metrics = {name: {"value": float(source.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    if args.trace:
        report.info["traced end-to-end"] = report.e2e
    for key, value in report.info.items():
        print(f"{key}: {json.dumps(value)}")
    print(f"checks: {json.dumps(report.checker.summary() if report.checker else None)}")
    for problem in report.problems:
        print(f"problem: {problem}")
    print(f"attempted={report.attempted} failed={report.failed} degraded={report.degraded}")
    for name, m in metrics.items():
        print(f"{name:<28} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())

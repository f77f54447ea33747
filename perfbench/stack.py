"""Building blocks shared by the serving benchmark's workloads.

* seeded networks (weights fixed, never trained) and the margin DMU;
* per-call span timers wrapped around the callables handed to the program;
* process-tree CPU and peak-RSS accounting read from ``/proc``;
* the environment block;
* the independent answer checks.

The checks never call the code they check: BNN answers are compared with
the unfolded float ``Sequential`` (no fold, pack or plan code), DMU
decisions with this module's own ``sigmoid(sorted(scores) . w + b)``, host
answers with the float64 uncompiled ``Sequential.forward``, and 8-bit
answers with the same engine run on the image alone.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np

NUM_CLASSES = 10
#: Weights are fixed across seeds: per-image compute does not depend on
#: weight values, and only the inputs vary with ``--seed``.
NET_SEED = 20180319
#: Micro-batch of the compiled BNN plan, the serving adapter's default.
BNN_MICRO_BATCH = 128
#: DMU decisions and BNN scores closer than this to a tie are counted as
#: near-ties instead of being checked (the reference computes in another
#: summation order).
TIE_EPS = 1e-9
#: Host logits within this share of the logit scale are a float32 near-tie.
HOST_TIE_REL = 1e-4


# -- networks ---------------------------------------------------------------

def seeded_cnv(scale: float):
    """The CNV BNN at ``scale`` with seeded BatchNorm statistics.

    Default BatchNorm statistics put every threshold at exactly 0, where
    first-layer sums over quantized pixels can tie and tip either way in
    different summation orders; seeded running statistics give
    continuous thresholds and continuous class scores, as a trained
    network has.
    """
    from repro.models import build_finn_cnv
    from repro.nn.layers.batchnorm import BatchNorm

    net = build_finn_cnv(scale=scale, rng=np.random.default_rng(NET_SEED))
    rng = np.random.default_rng(NET_SEED + 1)
    for layer in net.layers:
        if isinstance(layer, BatchNorm):
            n = layer.num_features
            layer.running_mean.value[...] = rng.normal(0.0, 1.0, n)
            layer.running_var.value[...] = rng.uniform(0.5, 2.0, n)
            layer.gamma.value[...] = rng.uniform(0.5, 1.5, n)
            layer.beta.value[...] = rng.normal(0.0, 0.5, n)
    net.eval_mode()
    return net


def seeded_host(kind: str, scale: float):
    """Table III Model ``kind`` ("A" or "C") at ``scale``, seeded weights."""
    from repro.models import build_model_a, build_model_c

    builder = {"A": build_model_a, "C": build_model_c}[kind]
    net = builder(scale=scale, rng=np.random.default_rng(NET_SEED + ord(kind)))
    net.eval_mode()
    return net


def compile_bnn(scale: float):
    """Folded, compiled CNV: returns ``(plan, unfolded float net)``."""
    from repro.bnn import fold_network

    net = seeded_cnv(scale)
    plan = fold_network(net).compile_inference(micro_batch=BNN_MICRO_BATCH)
    return plan, net


def plan_backends(plan) -> dict[str, str]:
    """Kernel backend the compiled plan resolved for each binary layer."""
    backends = {}
    for label, op in zip(plan.labels, getattr(plan, "_ops", None) or ()):
        kind, args = op
        if kind in ("conv_packed", "dense_pack", "dense_affine"):
            backends[label] = args[-1]
        elif kind == "conv_float":
            backends[label] = "float-gemm"
        elif kind == "legacy":
            backends[label] = plan.backend or "default"
    return backends


# -- DMU --------------------------------------------------------------------

def margin_weights(scale: float) -> np.ndarray:
    """DMU weights reading the sorted top-1 minus top-2 margin."""
    w = np.zeros(NUM_CLASSES)
    w[0], w[1] = scale, -scale
    return w


def margin_dmu(scale: float, threshold: float):
    from repro.core.dmu import DecisionMakingUnit

    return DecisionMakingUnit(margin_weights(scale), bias=0.0, threshold=threshold)


def confidence(scores: np.ndarray, weights: np.ndarray, bias: float = 0.0) -> np.ndarray:
    """The DMU formula, computed here: ``sigmoid(sorted_desc(s) . w + b)``."""
    s = -np.sort(-np.atleast_2d(np.asarray(scores, dtype=np.float64)), axis=1)
    return 1.0 / (1.0 + np.exp(-(s @ weights + bias)))


def calibrate_dmu(scores: np.ndarray, forward_ratio: float) -> tuple[float, float]:
    """``(scale, threshold)`` forwarding ``forward_ratio`` of these scores."""
    s = -np.sort(-np.asarray(scores, dtype=np.float64), axis=1)
    margin = s[:, 0] - s[:, 1]
    scale = 1.0 / max(float(margin.std()), 1e-12)
    conf = confidence(scores, margin_weights(scale))
    return scale, float(np.quantile(conf, forward_ratio))


# -- tracing ----------------------------------------------------------------

class Spans:
    """In-memory spans ``(name, start, end, thread, batch)`` of timed calls."""

    def __init__(self):
        self.records: list[tuple] = []

    def timed(self, name: str, fn):
        records = self.records

        def call(images):
            t0 = time.perf_counter()
            out = fn(images)
            records.append((name, t0, time.perf_counter(), threading.get_ident(), len(images)))
            return out

        return call

    def timed_dmu(self, name: str, dmu):
        return _TimedDMU(dmu, self.timed(name, dmu.confidence))

    def stats(self, name: str, t0: float, t1: float) -> dict[str, float]:
        """``us_per_img``, ``batch_mean`` and ``busy_s`` of spans started in [t0, t1)."""
        rows = [r for r in self.records if r[0] == name and t0 <= r[1] < t1]
        images = sum(r[4] for r in rows)
        busy = sum(r[2] - r[1] for r in rows)
        return {
            "us_per_img": busy / images * 1e6 if images else 0.0,
            "batch_mean": images / len(rows) if rows else 0.0,
            "busy_s": busy,
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"name": n, "start": s, "end": e, "thread": t, "batch": b}
            for n, s, e, t, b in self.records
        ]
        path.write_text(json.dumps(rows) + "\n")


class _TimedDMU:
    """A DMU whose ``confidence`` calls are timed; all else delegates."""

    def __init__(self, dmu, timed_confidence):
        self._dmu = dmu
        self.confidence = timed_confidence

    def __getattr__(self, name):
        return getattr(self._dmu, name)


# -- process accounting -----------------------------------------------------

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return raw[raw.rindex(")") + 2 :].split()


def process_tree(root: int | None = None) -> list[int]:
    """``root`` (default: this process) and all its live descendants."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for entry in os.scandir("/proc"):
        if entry.name.isdigit():
            fields = _stat_fields(int(entry.name))
            if fields is not None:
                children.setdefault(int(fields[1]), []).append(int(entry.name))
    tree, todo = [], [root]
    while todo:
        pid = todo.pop()
        tree.append(pid)
        todo.extend(children.get(pid, ()))
    return tree


def cpu_seconds(pids) -> dict[int, float]:
    """User + system CPU seconds of each live process in ``pids``."""
    out = {}
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            out[pid] = (int(fields[11]) + int(fields[12])) / _CLK_TCK
    return out


def cpu_delta(before: dict[int, float], after: dict[int, float], pids=None) -> float:
    keys = after.keys() if pids is None else [p for p in pids if p in after]
    return sum(after[p] - before.get(p, 0.0) for p in keys)


def peak_rss_mb(pids) -> float:
    """Highest peak resident set (VmHWM) among ``pids``, in MiB."""
    peak = 0
    for pid in pids:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    peak = max(peak, int(line.split()[1]))
        except OSError:
            continue
    return peak / 1024.0


# -- timed window -----------------------------------------------------------

class Window:
    """A timed window cut into equal slices.

    End-to-end figures are medians over the slices, so one slice that a
    neighbour's burst on a shared machine slowed down does not move them.
    ``tick`` samples the CPU of the process tree at each slice bound.
    """

    def __init__(self, start: float, seconds: float, slices: int):
        self.bounds = [start + seconds * j / slices for j in range(slices + 1)]
        self.cpu: list[dict[int, float]] = []

    @property
    def start(self) -> float:
        return self.bounds[0]

    @property
    def end(self) -> float:
        return self.bounds[-1]

    def tick(self, now: float) -> None:
        while len(self.cpu) < len(self.bounds) and now >= self.bounds[len(self.cpu)]:
            self.cpu.append(cpu_seconds(process_tree()))

    def slices(self, samples) -> list[dict[str, float]]:
        """Per-slice figures from ``(sent, done)`` pairs of answered requests.

        ``sent`` is when the request was submitted (closed loop) or due
        (open loop); latency counts from it, throughput counts ``done``.
        """
        out = []
        for j in range(len(self.bounds) - 1):
            lo, hi = self.bounds[j], self.bounds[j + 1]
            answered = sum(1 for _, done in samples if lo <= done < hi)
            latency = [(done - sent) * 1e3 for sent, done in samples if lo <= sent < hi]
            out.append({
                "throughput_img_s": answered / (hi - lo),
                "latency_p50_ms": float(np.percentile(latency, 50)) if latency else 0.0,
                "latency_p99_ms": float(np.percentile(latency, 99)) if latency else 0.0,
                "cpu_ms_per_img": cpu_delta(self.cpu[j], self.cpu[j + 1]) / max(answered, 1) * 1e3,
            })
        return out

    def medians(self, samples) -> dict[str, float]:
        per_slice = self.slices(samples)
        return {k: float(np.median([s[k] for s in per_slice])) for k in per_slice[0]}


# -- environment ------------------------------------------------------------

def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(host_workers: int) -> dict:
    from repro.bnn import resolve_bnn_threads

    return {
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "gemm_threads": resolve_bnn_threads(),
        "host_workers": host_workers,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "env": {
            k: os.environ[k]
            for k in ("REPRO_BNN_BACKEND", "REPRO_BNN_THREADS", "OPENBLAS_NUM_THREADS",
                      "OMP_NUM_THREADS", "REPRO_HOST_WORKERS")
            if k in os.environ
        },
    }


# -- answer checks ----------------------------------------------------------

def batched(fn, images: np.ndarray, size: int = 32) -> np.ndarray:
    return np.concatenate([fn(images[i : i + size]) for i in range(0, len(images), size)])


class Checker:
    """Independent answer checks; failures make the run incorrect.

    An *answer* is ``(prediction, bnn_prediction, confidence, source)``.
    ``refs`` gives, per checked input, the reference BNN scores and, where
    the input gets that far, the single-image 8-bit scores and float64
    host logits.
    """

    def __init__(self, dmu0: tuple[float, float], dmu1: tuple[float, float] | None = None):
        self.w0, self.thr0 = margin_weights(dmu0[0]), dmu0[1]
        self.dmu1 = None if dmu1 is None else (margin_weights(dmu1[0]), dmu1[1])
        self.failures: list[str] = []
        self.near_ties: Counter = Counter()
        self.checked = 0

    def fail(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)
        else:
            self.failures[-1] = f"... and more ({message})"

    @property
    def ok(self) -> bool:
        return not self.failures

    def expected_route(self, bnn_scores, q8_scores=None) -> list[str]:
        """Rungs the DMU formula sends this input through, e.g. ['bnn', 'host']."""
        route = ["bnn"]
        c0 = float(confidence(bnn_scores, self.w0)[0])
        if abs(c0 - self.thr0) <= TIE_EPS:
            return route + ["tie"]
        if c0 >= self.thr0:
            return route
        if self.dmu1 is None:
            return route + ["host"]
        route.append("q8")
        if q8_scores is None:
            return route + ["?"]
        c1 = float(confidence(q8_scores, self.dmu1[0])[0])
        if abs(c1 - self.dmu1[1]) <= TIE_EPS:
            return route + ["tie"]
        return route if c1 >= self.dmu1[1] else route + ["host"]

    def check(self, key, answer, ref: dict) -> None:
        prediction, bnn_prediction, conf, source = answer
        self.checked += 1
        bnn = np.asarray(ref["bnn"], dtype=np.float64)
        top2 = np.sort(bnn)[-2:]
        bnn_tie = top2[1] - top2[0] <= TIE_EPS * max(1.0, abs(top2[1]))
        if bnn_tie:
            self.near_ties["bnn"] += 1
        elif bnn_prediction != int(bnn.argmax()):
            self.fail(f"{key}: BNN answered {bnn_prediction}, float net says {int(bnn.argmax())}")
        route = self.expected_route(bnn, ref.get("q8"))
        if route[-1] == "tie":
            self.near_ties["dmu"] += 1
            return
        expected = route[-1]
        if source != expected:
            self.fail(f"{key}: answered by {source!r}, DMU formula routes to {expected!r}")
            return
        if expected == "bnn":
            want_conf = float(confidence(bnn, self.w0)[0])
            if prediction != bnn_prediction or not (bnn_tie or prediction == int(bnn.argmax())):
                self.fail(f"{key}: BNN-accepted answer {prediction} != {int(bnn.argmax())}")
        elif expected == "q8":
            q8 = np.asarray(ref["q8"])
            want_conf = float(confidence(q8, self.dmu1[0])[0])
            if prediction != int(q8.argmax()):
                self.fail(f"{key}: 8-bit answer {prediction} != alone-in-batch {int(q8.argmax())}")
        else:
            self._check_host(key, prediction, np.asarray(ref["host"], dtype=np.float64))
            return
        if abs(conf - want_conf) > TIE_EPS:
            self.fail(f"{key}: confidence {conf!r} != DMU formula {want_conf!r}")

    def _check_host(self, key, prediction: int, logits: np.ndarray) -> None:
        want = int(logits.argmax())
        if prediction == want:
            return
        scale = max(1.0, float(np.abs(logits).max()))
        if 0 <= prediction < len(logits) and logits[want] - logits[prediction] <= HOST_TIE_REL * scale:
            self.near_ties["host"] += 1
        else:
            self.fail(f"{key}: host answered {prediction}, float64 net says {want}")

    def summary(self) -> dict:
        return {
            "checked": self.checked,
            "near_ties": dict(self.near_ties),
            "failures": list(self.failures),
        }

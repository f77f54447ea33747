"""Server process of the ``net-video`` workload.

    NetFrontend -> ShardRouter (rendezvous placement) -> one ProcessReplica
    (CNV -> DMU -> Model A, workbench width, per-replica result cache)

Prints one JSON line ``{"port": ..., "replica_pid": ...}`` once the
frontend listens, serves until its standard input closes, then closes the
frontend and the router and exits.  ``run.py`` starts it with ``src`` and
this directory on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import stack

BNN_SCALE = 0.15
HOST = ("A", 0.25)
CACHE_BYTES = 64 << 20


def replica_kwargs(dmu_scale: float, threshold: float) -> dict:
    """CascadeServer keyword arguments, built inside the replica process."""
    plan, _ = stack.compile_bnn(BNN_SCALE)
    engine = stack.seeded_host(*HOST).compile_inference()
    return dict(
        bnn_scores_fn=plan.class_scores,
        dmu=stack.margin_dmu(dmu_scale, threshold),
        host_predict_fn=engine.predict_classes,
        controller=threshold,
        cache_max_bytes=CACHE_BYTES,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dmu-scale", type=float, required=True)
    parser.add_argument("--threshold", type=float, required=True)
    args = parser.parse_args()

    from repro.net import NetFrontend, ShardRouter

    router = ShardRouter.spawn(
        functools.partial(replica_kwargs, args.dmu_scale, args.threshold),
        1,
        placement="rendezvous",
    )
    frontend = NetFrontend(router)
    try:
        _, port = frontend.start()
        print(json.dumps({"port": port, "replica_pid": router.replicas[0].pid}), flush=True)
        sys.stdin.read()
    finally:
        frontend.close()
        router.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

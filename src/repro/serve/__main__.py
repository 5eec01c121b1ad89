"""``python -m repro.serve`` — run or talk to the simulation service.

Server::

    python -m repro.serve serve --port 7341 --max-queue 64 --workers 2

Client verbs (all take ``--host``/``--port``)::

    python -m repro.serve ping
    python -m repro.serve submit --kind simulate --kernel spmv --count 2 --wait
    python -m repro.serve submit --kind sweep --port-sweep 1,2,4,8
    python -m repro.serve status  <job-id>
    python -m repro.serve result  <job-id> --timeout 120
    python -m repro.serve cancel  <job-id>
    python -m repro.serve metrics --text
    python -m repro.serve drain
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import List, Optional

import repro
from repro.errors import ServeError
from repro.serve.chaos import ChaosConfig
from repro.serve.client import ServeClient, ServeRequestError
from repro.serve.scheduler import Scheduler, ServiceConfig
from repro.serve.server import ViaServer

DEFAULT_PORT = 7341


def _add_client_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Async simulation service: server and client verbs.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {repro.__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=DEFAULT_PORT,
                       help="TCP port (0 = ephemeral; see --ready-file)")
    serve.add_argument("--ready-file", default=None,
                       help="write 'host port' here once listening "
                       "(atomically; lets scripts use --port 0)")
    serve.add_argument("--max-queue", type=int,
                       default=ServiceConfig.max_queue)
    serve.add_argument("--max-batch", type=int,
                       default=ServiceConfig.max_batch)
    serve.add_argument("--workers", type=int,
                       default=ServiceConfig.executor_workers,
                       help="subprocess pool workers (concurrent jobs)")
    serve.add_argument("--default-timeout", type=float,
                       default=ServiceConfig.default_timeout_s,
                       help="per-job execution timeout (seconds)")
    serve.add_argument("--pool-retries", type=int,
                       default=ServiceConfig.pool_retries,
                       help="extra attempts for jobs whose worker died")
    serve.add_argument("--pool-backoff", type=float,
                       default=ServiceConfig.pool_backoff_s,
                       help="base retry backoff after a worker crash "
                       "(seconds, doubles per attempt)")
    serve.add_argument("--poison-threshold", type=int,
                       default=ServiceConfig.poison_threshold,
                       help="worker crashes per job key before the "
                       "poison circuit breaker opens")
    serve.add_argument("--spawn-timeout", type=float,
                       default=ServiceConfig.spawn_timeout_s,
                       help="worker bootstrap (spawn-to-ready) budget "
                       "(seconds)")
    serve.add_argument("--mp-context", default=None,
                       choices=("fork", "spawn", "forkserver"),
                       help="worker start method (default: fork where "
                       "available; env REPRO_SERVE_MP_CONTEXT)")
    serve.add_argument("--chaos", default=None,
                       help="fault-injection plan for the worker pool, "
                       "e.g. 'crash:kind=replay:times=2;hang:delay=60' "
                       "(env REPRO_SERVE_CHAOS)")
    serve.add_argument("--chaos-dir", default=None,
                       help="shared chaos token directory (default: "
                       "per-pool temp; env REPRO_SERVE_CHAOS_DIR)")
    serve.add_argument("--cache-dir", default=None,
                       help="result cache directory (default: per-run temp)")
    serve.add_argument("--record-dir", default=None,
                       help="op-stream recording store (default: per-run temp)")
    serve.add_argument("--validate", action="store_true",
                       help="run op-stream invariant checks on every unit")
    serve.add_argument("--model-dir", default=None,
                       help="cost-model store backing estimate jobs and "
                       "cost-aware admission (default: analytic fallback)")
    serve.add_argument("--max-queue-cost", type=float, default=None,
                       help="predicted-cycle budget for the admission "
                       "queue (default: flat slot accounting only)")

    ping = sub.add_parser("ping", help="liveness probe")
    _add_client_args(ping)

    submit = sub.add_parser("submit", help="submit one job")
    _add_client_args(submit)
    submit.add_argument("--kind", default="simulate",
                        choices=("simulate", "replay", "sweep", "report",
                                 "sleep", "estimate"))
    submit.add_argument("--kernel", default="spmv",
                        choices=("spmv", "spma", "spmm"))
    submit.add_argument("--count", type=int, default=1)
    submit.add_argument("--seed", type=int, default=2021)
    submit.add_argument("--min-n", type=int, default=64)
    submit.add_argument("--max-n", type=int, default=192)
    submit.add_argument("--formats", default="csr",
                        help="comma-separated spmv formats")
    submit.add_argument("--sram-kb", type=int, default=16)
    submit.add_argument("--ports", type=int, default=2)
    submit.add_argument("--port-sweep", default=None,
                        help="comma-separated port counts (sweep kind)")
    submit.add_argument("--duration", type=float, default=0.1,
                        help="sleep-kind duration (seconds)")
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument("--deadline", type=float, default=None)
    submit.add_argument("--timeout", type=float, default=None,
                        help="per-job execution timeout (seconds)")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job is terminal")
    submit.add_argument("--wait-timeout", type=float, default=None)
    submit.add_argument("--shed-retries", type=int, default=4,
                        help="client-side retries on queue_full shedding "
                        "(0 = surface the first shed)")

    status = sub.add_parser("status", help="one job's state")
    _add_client_args(status)
    status.add_argument("job_id")

    result = sub.add_parser("result", help="wait for a job's result")
    _add_client_args(result)
    result.add_argument("job_id")
    result.add_argument("--timeout", type=float, default=None)

    cancel = sub.add_parser("cancel", help="cancel a queued or running job")
    _add_client_args(cancel)
    cancel.add_argument("job_id")

    metrics = sub.add_parser("metrics", help="scrape service metrics")
    _add_client_args(metrics)
    metrics.add_argument("--text", action="store_true",
                         help="Prometheus-style text instead of JSON")

    stats = sub.add_parser("stats", help="scheduler stats")
    _add_client_args(stats)

    drain = sub.add_parser("drain", help="gracefully shut the service down")
    _add_client_args(drain)

    return parser


def service_config(args) -> ServiceConfig:
    """The :class:`ServiceConfig` that parsed ``serve`` arguments describe."""
    if args.chaos:
        chaos = ChaosConfig.parse(args.chaos, args.chaos_dir)
    else:
        chaos = ChaosConfig.from_env()  # REPRO_SERVE_CHAOS, or None
    return ServiceConfig(
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        executor_workers=args.workers,
        default_timeout_s=args.default_timeout,
        pool_retries=args.pool_retries,
        pool_backoff_s=args.pool_backoff,
        poison_threshold=args.poison_threshold,
        spawn_timeout_s=args.spawn_timeout,
        mp_context=args.mp_context,
        chaos=chaos,
        cache_dir=args.cache_dir,
        record_dir=args.record_dir,
        validate=args.validate,
        model_dir=args.model_dir,
        max_queue_cost=args.max_queue_cost,
    )


def _cmd_serve(args) -> int:
    config = service_config(args)

    async def _run() -> None:
        scheduler = Scheduler(config)
        server = ViaServer(
            scheduler,
            host=args.host,
            port=args.port,
            ready_file=args.ready_file,
        )
        await server.start()
        print(
            f"serve: listening on {server.host}:{server.port} "
            f"(queue {config.max_queue}, {config.executor_workers} workers)",
            file=sys.stderr,
            flush=True,
        )
        await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - direct Ctrl-C fallback
        return 130
    return 0


def _spec_from_args(args) -> dict:
    spec = {
        "kind": args.kind,
        "priority": args.priority,
    }
    if args.kind in ("simulate", "replay", "sweep", "estimate"):
        spec.update(
            kernel=args.kernel,
            count=args.count,
            seed=args.seed,
            min_n=args.min_n,
            max_n=args.max_n,
            formats=[f for f in args.formats.split(",") if f],
            sram_kb=args.sram_kb,
            ports=args.ports,
        )
    if args.kind == "sweep":
        if not args.port_sweep:
            raise ServeError("sweep needs --port-sweep", code="bad_request")
        spec["port_sweep"] = [int(p) for p in args.port_sweep.split(",") if p]
    if args.kind == "sleep":
        spec["duration_s"] = args.duration
    if args.deadline is not None:
        spec["deadline_s"] = args.deadline
    if args.timeout is not None:
        spec["timeout_s"] = args.timeout
    return spec


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        return _cmd_serve(args)
    client = ServeClient(
        args.host, args.port,
        shed_retries=getattr(args, "shed_retries", 4),
    )
    try:
        with client:
            if args.command == "ping":
                out = client.ping()
            elif args.command == "submit":
                out = client.submit(
                    _spec_from_args(args),
                    wait=args.wait,
                    wait_timeout_s=args.wait_timeout,
                )
            elif args.command == "status":
                out = client.status(args.job_id)
            elif args.command == "result":
                out = client.result(args.job_id, timeout_s=args.timeout)
            elif args.command == "cancel":
                out = client.cancel(args.job_id)
            elif args.command == "metrics":
                if args.text:
                    print(client.metrics_text(), end="")
                    return 0
                out = client.metrics()
            elif args.command == "stats":
                out = client.stats()
            else:  # drain
                out = client.drain()
    except ServeRequestError as exc:
        print(json.dumps({"error": exc.payload}, indent=2))
        return 2
    except ServeError as exc:
        print(f"error ({exc.code}): {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

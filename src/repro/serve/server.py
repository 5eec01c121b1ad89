"""JSON-lines-over-TCP front end for the simulation service.

Wire protocol: one JSON object per line in each direction.  Every request
carries a ``type`` and an optional client-chosen ``id``; the response
echoes the ``id`` and carries ``ok`` plus either result fields or a
structured ``error`` object (``code`` / ``reason`` / ``retry_after_s``).
Request types:

========  ==============================================================
type      behaviour
========  ==============================================================
ping      liveness + server version
submit    admit a job spec; ``wait: true`` blocks until the job is
          terminal and returns its full payload in one round trip
status    snapshot of one job (state, timings, result/error if terminal)
result    block until a job is terminal (optional ``timeout_s``)
cancel    cancel a job (a running job's pool worker is killed and its
          slot respawned; the job resolves ``cancelled`` promptly)
metrics   the metrics registry — JSON snapshot or ``format: "text"`` dump
stats     cheap scheduler stats (queue depth, in-flight, uptime)
drain     begin graceful shutdown (same path as SIGTERM)
========  ==============================================================

Requests on one connection are served concurrently (a slow ``result``
wait never blocks a ``metrics`` scrape on the same socket); writes are
serialized per connection and responses carry the request ``id`` so
clients can match them.

**Graceful drain** (SIGTERM/SIGINT or a ``drain`` request): new
submissions are refused with code ``draining``, queued jobs are cancelled
with structured payloads, in-flight jobs run to completion, every blocked
waiter receives its response, and only then do the sockets close and the
worker pool's subprocesses get reaped.  No response is ever dropped on
the floor, and no worker process outlives the server.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
from typing import Any, Dict, Optional

import repro
from repro.errors import ServeError
from repro.serve.jobs import JobSpec, error_payload
from repro.serve.scheduler import Scheduler
from repro.storage import write_atomic

#: protocol revision, echoed by ``ping``
PROTOCOL_VERSION = 1

#: default cap on one request line (a malformed client must not OOM us)
MAX_LINE_BYTES = 1 << 20


def _error_response(req_id, exc: BaseException) -> Dict[str, Any]:
    return {"id": req_id, "ok": False, "error": error_payload(exc)}


class ViaServer:
    """Asyncio TCP server wrapping one :class:`Scheduler`."""

    def __init__(
        self,
        scheduler: Scheduler,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        ready_file: Optional[str] = None,
    ):
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self.ready_file = ready_file
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()
        self._shutdown = asyncio.Event()
        self._drain_started = False

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the socket and start the scheduler's batching stage."""
        await self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.ready_file:
            # written atomically so a watcher never reads a torn address
            address = f"{self.host} {self.port}\n".encode("utf-8")
            write_atomic(self.ready_file, lambda fh: fh.write(address))

    async def serve_forever(self, *, install_signal_handlers: bool = True) -> None:
        """Serve until SIGTERM/SIGINT (or a ``drain`` request), then drain."""
        if self._server is None:
            await self.start()
        if install_signal_handlers:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(
                        sig, lambda s=sig: self.request_shutdown(f"signal {s}")
                    )
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass  # non-POSIX loop: rely on the drain request
        await self._shutdown.wait()
        await self.shutdown()

    def request_shutdown(self, reason: str = "requested") -> None:
        """Flip the shutdown latch (idempotent, signal-handler safe)."""
        if not self._shutdown.is_set():
            print(f"serve: shutdown requested ({reason}); draining",
                  file=sys.stderr, flush=True)
            self._shutdown.set()

    async def shutdown(self) -> None:
        """Drain the scheduler, flush every waiter, close the sockets."""
        if self._drain_started:
            return
        self._drain_started = True
        summary = await self.scheduler.drain()
        # every job is now terminal, so blocked waiters resolve promptly;
        # give their handlers a bounded window to write responses
        if self._conn_tasks:
            await asyncio.wait(list(self._conn_tasks), timeout=5.0)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._conn_tasks):
            task.cancel()
        await self.scheduler.stop()
        print(
            f"serve: drained (cancelled {summary['cancelled']} queued, "
            f"waited on {summary['completed_inflight']} in-flight); bye",
            file=sys.stderr,
            flush=True,
        )

    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        write_lock = asyncio.Lock()
        request_tasks: set = set()

        async def respond(payload: Dict[str, Any]) -> None:
            data = (json.dumps(payload) + "\n").encode("utf-8")
            async with write_lock:
                writer.write(data)
                try:
                    await writer.drain()
                except (ConnectionError, RuntimeError):  # client went away
                    raise ConnectionResetError from None

        async def serve_one(line: bytes) -> None:
            req_id = None
            try:
                request = json.loads(line.decode("utf-8"))
                if not isinstance(request, dict):
                    raise ServeError(
                        "request must be a JSON object", code="bad_request"
                    )
                req_id = request.get("id")
                response = await self._dispatch(request)
                response.setdefault("id", req_id)
                response.setdefault("ok", True)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                response = _error_response(
                    req_id,
                    ServeError(f"undecodable request: {exc}", code="bad_request"),
                )
            except Exception as exc:
                response = _error_response(req_id, exc)
            try:
                await respond(response)
            except ConnectionResetError:
                pass

        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                sub = asyncio.create_task(serve_one(line))
                request_tasks.add(sub)
                sub.add_done_callback(request_tasks.discard)
        except asyncio.CancelledError:
            pass
        finally:
            if request_tasks:
                # let in-flight requests (e.g. result waits during drain)
                # finish writing before the socket closes under them
                await asyncio.gather(*request_tasks, return_exceptions=True)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):  # pragma: no cover
                pass

    # ------------------------------------------------------------------
    async def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        rtype = request.get("type")
        if rtype == "ping":
            return {
                "pong": True,
                "version": repro.__version__,
                "protocol": PROTOCOL_VERSION,
                "draining": self.scheduler.draining,
            }
        if rtype == "submit":
            spec = JobSpec.from_payload(request.get("spec", {}))
            job = self.scheduler.submit(spec)  # raises AdmissionError to shed
            if request.get("wait"):
                timeout = request.get("wait_timeout_s")
                try:
                    job = await self.scheduler.wait(job.job_id, timeout)
                except asyncio.TimeoutError:
                    raise ServeError(
                        f"job {job.job_id} still {job.state.value} after "
                        f"wait_timeout_s={timeout}; poll 'result' later",
                        code="wait_timeout",
                        retry_after_s=1.0,
                    ) from None
            return {"job": job.to_payload()}
        if rtype == "status":
            job = self.scheduler.get(self._job_id(request))
            return {"job": job.to_payload()}
        if rtype == "result":
            timeout = request.get("timeout_s")
            job_id = self._job_id(request)
            try:
                job = await self.scheduler.wait(job_id, timeout)
            except asyncio.TimeoutError:
                raise ServeError(
                    f"job {job_id} did not finish within timeout_s={timeout}",
                    code="wait_timeout",
                    retry_after_s=1.0,
                ) from None
            return {"job": job.to_payload()}
        if rtype == "cancel":
            job = self.scheduler.cancel(self._job_id(request))
            return {"job": job.to_payload()}
        if rtype == "metrics":
            if request.get("format") == "text":
                return {"text": self.scheduler.metrics.render_text()}
            return {"metrics": self.scheduler.metrics.snapshot()}
        if rtype == "stats":
            return {"stats": self.scheduler.stats()}
        if rtype == "drain":
            self.request_shutdown("drain request")
            return {"draining": True}
        raise ServeError(
            f"unknown request type {rtype!r}", code="bad_request"
        )

    @staticmethod
    def _job_id(request: Dict[str, Any]) -> str:
        job_id = request.get("job_id")
        if not isinstance(job_id, str) or not job_id:
            raise ServeError(
                "request needs a string 'job_id'", code="bad_request"
            )
        return job_id

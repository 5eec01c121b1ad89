"""Open-loop load for ``serve_mix``: one asyncio process on two connections.

Each request is sent at its scheduled time whatever state the server is
in, pipelined as a ``submit`` with ``wait: true`` and matched to its reply
by ``id`` (the server serves every request line as its own task).  A
request is timed from its scheduled send time, so a stall is charged to
every request it delays, and the generator's own lateness is recorded.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: stream buffer per connection; a reply is one JSON line
_LINE_LIMIT = 1 << 24

#: the first request is due this long after the connections are open
_LEAD_NS = 50_000_000


@dataclass
class Sent:
    index: int
    spec: Dict[str, Any]
    due_ns: int
    sent_ns: int
    recv_ns: Optional[int] = None
    reply: Optional[Dict[str, Any]] = None


@dataclass
class LoadResult:
    sent: List[Sent]
    #: requests sent but not yet answered when the schedule ended
    outstanding_at_end: int
    #: the server's ``stats`` reply, requested when the schedule ended
    end_stats: Optional[Dict[str, Any]]
    #: when the first request was due
    start_ns: int


async def _read_replies(reader: asyncio.StreamReader, waiting: Dict[Any, asyncio.Future]) -> None:
    while True:
        line = await reader.readline()
        if not line:
            return
        now = time.perf_counter_ns()
        msg = json.loads(line)
        fut = waiting.pop(msg.get("id"), None)
        if fut is not None and not fut.done():
            fut.set_result((now, msg))


async def _drive(
    host: str,
    port: int,
    schedule: List[Tuple[float, Dict[str, Any]]],
    connections: int,
    drain_timeout_s: float,
) -> LoadResult:
    loop = asyncio.get_running_loop()
    conns = [
        await asyncio.open_connection(host, port, limit=_LINE_LIMIT) for _ in range(connections)
    ]
    waiting: Dict[Any, asyncio.Future] = {}
    readers = [asyncio.create_task(_read_replies(r, waiting)) for r, _ in conns]
    sent: List[Sent] = []
    futures: List[asyncio.Future] = []
    try:
        start = time.perf_counter_ns() + _LEAD_NS
        for index, (offset, spec) in enumerate(schedule):
            due = start + int(offset * 1e9)
            delay = (due - time.perf_counter_ns()) / 1e9
            if delay > 0:
                await asyncio.sleep(delay)
            fut = loop.create_future()
            waiting[index] = fut
            writer = conns[index % connections][1]
            line = json.dumps({"type": "submit", "id": index, "spec": spec, "wait": True})
            sent_ns = time.perf_counter_ns()
            writer.write(line.encode() + b"\n")
            await writer.drain()
            sent.append(Sent(index, spec, due, sent_ns))
            futures.append(fut)
        outstanding = sum(1 for f in futures if not f.done())
        stats_fut = loop.create_future()
        waiting["end-stats"] = stats_fut
        conns[0][1].write(b'{"type": "stats", "id": "end-stats"}\n')
        await conns[0][1].drain()
        await asyncio.wait(futures + [stats_fut], timeout=drain_timeout_s)
        for item, fut in zip(sent, futures):
            if fut.done():
                item.recv_ns, item.reply = fut.result()
        end_stats = stats_fut.result()[1].get("stats") if stats_fut.done() else None
        return LoadResult(sent, outstanding, end_stats, start)
    finally:
        for _, writer in conns:
            writer.close()
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for _, writer in conns:
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass


def run(
    host: str,
    port: int,
    schedule: List[Tuple[float, Dict[str, Any]]],
    *,
    connections: int = 2,
    drain_timeout_s: float = 60.0,
) -> LoadResult:
    """Send ``schedule`` (``(offset s, job spec)`` pairs) and collect every reply."""
    return asyncio.run(_drive(host, port, schedule, connections, drain_timeout_s))


async def _ask(host: str, port: int, payload: Dict[str, Any]) -> Dict[str, Any]:
    reader, writer = await asyncio.open_connection(host, port, limit=_LINE_LIMIT)
    try:
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()
        return json.loads(await reader.readline())
    finally:
        writer.close()
        await writer.wait_closed()


def ask(host: str, port: int, payload: Dict[str, Any], timeout_s: float = 10.0) -> Dict[str, Any]:
    """One control request (``stats``, ``metrics``) outside the timed phase."""
    return asyncio.run(asyncio.wait_for(_ask(host, port, payload), timeout_s))

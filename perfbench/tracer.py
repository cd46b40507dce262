"""In-memory span tracer installed around the layers' public entry points.

The tracer patches methods at run time, from the benchmark's own code, and
restores them afterwards; nothing under ``src/`` knows it exists. Untraced
runs never install it, so they pay no wrapper cost at all.

A span is ``(span_id, name, start, end, parent_id, request_id, attrs)``
with ``time.perf_counter`` stamps (``CLOCK_MONOTONIC`` on Linux, so stamps
from the HTTP server child share the client's clock). The parent is the
innermost open span of the same asyncio task or thread, tracked in a
context variable. ``request_id`` is inherited from the root span of the
chain: the HTTP connection and sequence number for a front-end request,
the root span's own id for a batch solve.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import time

_CURRENT = contextvars.ContextVar("perfbench_span", default=(None, None))


class Tracer:
    """Collects spans from the methods it wraps until :meth:`uninstall`."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []
        self.operators: dict[int, object] = {}

    # -- installation --------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``attrs(args, kwargs)`` runs when the call starts and returns
        ``(request_id_or_None, attrs_dict)``; a request id it returns
        becomes the id of this span and of every span nested under it.
        """
        original = owner.__dict__[attr]
        spans, ids = self.spans, self._ids

        def begin(args, kwargs):
            parent, request = _CURRENT.get()
            span_id = next(ids)
            extra = None
            if attrs is not None:
                own_request, extra = attrs(args, kwargs)
                if own_request is not None:
                    request = own_request
            if request is None:
                request = span_id
            return span_id, parent, request, extra

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                span_id, parent, request, extra = begin(args, kwargs)
                token = _CURRENT.set((span_id, request))
                start = time.perf_counter()
                try:
                    return await original(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    _CURRENT.reset(token)
                    spans.append((span_id, name, start, end, parent,
                                  request, extra))
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                span_id, parent, request, extra = begin(args, kwargs)
                token = _CURRENT.set((span_id, request))
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    _CURRENT.reset(token)
                    spans.append((span_id, name, start, end, parent,
                                  request, extra))
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install_stack(self) -> None:
        """Wrap every in-process layer of the serving stack."""
        from repro.core.base import Recommender
        from repro.service import ServingEngine, ShardedEngine
        from repro.service.fleet import ProcessShardFleet
        from repro.service.server import BatchingServer
        from repro.solver import WalkOperator

        operators = self.operators

        def solve_attrs(args, kwargs):
            operator, sets = args[0], args[1]
            operators.setdefault(id(operator), operator)
            matrix = operator.transition
            return None, {
                "columns": len(sets),
                "op": id(operator),
                "n": int(matrix.shape[0]),
                "nnz": int(matrix.nnz),
                "idx_bytes": int(matrix.indices.dtype.itemsize),
                "val_bytes": 4 if (kwargs.get("dtype") or operator.dtype)
                == "float32" else 8,
                "tau": int(args[2] if len(args) > 2
                           else kwargs.get("n_iterations", 15)),
                "chunk": int(kwargs.get("chunk_size") or operator.chunk_size),
            }

        def users_attrs(args, kwargs):
            users = args[1] if len(args) > 1 else kwargs.get("users")
            return None, {"users": [int(u) for u in users]}

        def events_attrs(args, kwargs):
            events = args[1] if len(args) > 1 else kwargs.get("events")
            return None, {"events": len(events)}

        self.wrap(WalkOperator, "solve_multi", "solver", solve_attrs)
        self.wrap(Recommender, "recommend_batch_arrays", "recommender",
                  users_attrs)
        self.wrap(ServingEngine, "recommend_many", "engine", users_attrs)
        self.wrap(ServingEngine, "apply_updates", "engine.update",
                  events_attrs)
        self.wrap(ShardedEngine, "recommend_many", "sharding", users_attrs)
        self.wrap(ShardedEngine, "apply_updates", "sharding.update",
                  events_attrs)
        self.wrap(ProcessShardFleet, "recommend_many", "fleet", users_attrs)
        self.wrap(ProcessShardFleet, "apply_updates", "fleet.update",
                  events_attrs)
        self.wrap(BatchingServer, "recommend", "batching", _batching_attrs)


# -- HTTP connection tagging ---------------------------------------------------

#: ``[client_port, requests_seen]`` of the connection a handler task serves.
_CONNECTION = contextvars.ContextVar("perfbench_connection", default=None)


def tag_connections() -> None:
    """Tag each HTTP connection handler with the client's port.

    The handler runs as one asyncio task per connection, so a context
    variable set here is visible to every request it dispatches. A
    keep-alive connection carries one request at a time, so the n-th
    ``BatchingServer.recommend`` on a connection is the client's n-th
    request on it: ``(port, n)`` pairs client and server spans exactly.

    ``HttpFrontend.start`` binds the handler when it starts listening, so
    this is installed before the front end starts and stays installed; it
    costs one context-variable write per connection, nothing per request.
    """
    from repro.service.server import HttpFrontend

    original = HttpFrontend.__dict__["_handle_connection"]

    @functools.wraps(original)
    async def handle(self, reader, writer):
        peer = writer.get_extra_info("peername")
        _CONNECTION.set([int(peer[1]) if peer else -1, 0])
        return await original(self, reader, writer)

    HttpFrontend._handle_connection = handle


def _batching_attrs(args, kwargs):
    user = args[1] if len(args) > 1 else kwargs.get("user")
    connection = _CONNECTION.get()
    if connection is None:
        return None, {"user": int(user)}
    connection[1] += 1
    return f"{connection[0]}:{connection[1]}", {"user": int(user)}


# -- analysis ------------------------------------------------------------------

def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> seconds not covered by its direct children.

    Children of one span run on the parent's task or thread, one after
    another, so their durations add without overlap.
    """
    covered: dict[int, float] = {}
    for span in spans:
        if span[4] is not None:
            covered[span[4]] = covered.get(span[4], 0.0) + span[3] - span[2]
    return {span[0]: (span[3] - span[2]) - covered.get(span[0], 0.0)
            for span in spans}


def by_name(spans: list[tuple], name: str) -> list[tuple]:
    return [span for span in spans if span[1] == name]


def durations_ms(spans: list[tuple]) -> list[float]:
    return [1000.0 * (span[3] - span[2]) for span in spans]

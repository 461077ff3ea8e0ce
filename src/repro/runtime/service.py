"""ServiceRuntime: the one façade every daemon uses to talk RPC.

One runtime wraps one :class:`~repro.network.transport.Endpoint` (one
per node) and is the only sanctioned way to issue ``call``/``send``/
``multicast`` or to register handlers — enforced by an architecture
test.  It adds, without changing wire behaviour:

* a default :class:`~repro.runtime.policy.CallPolicy` (the Figure-13
  deadline) so call sites stop re-spelling timeouts;
* the middleware stack of :mod:`repro.runtime.middleware` on the client
  side (metrics → tracing → retry → transport);
* handler instrumentation on the server side (per-service handler time
  and response bytes, recorded under scope ``"server"``);
* idempotent re-registration via ``register(..., replace=True)`` for
  daemons that restart on a surviving node.

Registry/tracer/policy are late-bound through :meth:`configure`:
deployments wire them after nodes (and their daemons) exist.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Generator, Optional

from repro.network.transport import Endpoint, Handler, _split_result
from repro.runtime.metrics import CLIENT, SERVER, MetricsRegistry
from repro.runtime.middleware import (
    CallContext,
    MetricsMiddleware,
    RetryMiddleware,
    TracingMiddleware,
    compose,
)
from repro.runtime.policy import DEFAULT_POLICY, CallPolicy
from repro.runtime.trace import Tracer

_UNSET = object()


class ServiceRuntime:
    """Instrumented service layer over one node's endpoint."""

    def __init__(self, endpoint: Endpoint,
                 registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 policy: CallPolicy = DEFAULT_POLICY):
        self.endpoint = endpoint
        self.sim = endpoint.sim
        self.registry = registry
        self.tracer = tracer
        self.policy = policy
        self._rebuild()

    # ------------------------------------------------------------- wiring
    @property
    def hostid(self) -> str:
        return self.endpoint.hostid

    @property
    def handlers(self):
        """The endpoint's live service table (read-only use)."""
        return self.endpoint.handlers

    def configure(self, registry=_UNSET, tracer=_UNSET, policy=_UNSET) -> "ServiceRuntime":
        """Re-wire observability/policy; omitted fields keep their value."""
        if registry is not _UNSET:
            self.registry = registry
        if tracer is not _UNSET:
            self.tracer = tracer
        if policy is not _UNSET:
            self.policy = policy
        self._rebuild()
        return self

    def _rebuild(self) -> None:
        stack = []
        if self.registry is not None:
            stack.append(MetricsMiddleware(self.registry, CLIENT))
        if self.tracer is not None:
            stack.append(TracingMiddleware(self.tracer))
        stack.append(RetryMiddleware())
        self._invoke = compose(stack, self._transport)

    def _transport(self, ctx: CallContext):
        result = yield from self.endpoint.call(
            ctx.dst, ctx.service, ctx.payload, size=ctx.size,
            timeout=ctx.attempt_timeout, rtts=ctx.rtts,
        )
        return result

    # -------------------------------------------------------- client side
    def call(self, dst: str, service: str, payload: Any = None,
             size: int = 0, timeout: Optional[float] = None, rtts: int = 1,
             policy: Optional[CallPolicy] = None):
        """Generator: an RPC through the middleware stack.

        ``timeout`` overrides the per-attempt deadline only; ``policy``
        overrides the whole retry/timeout behaviour for this call.
        """
        ctx = CallContext(
            sim=self.sim, dst=dst, service=service, payload=payload,
            size=size, rtts=rtts, policy=policy or self.policy,
            timeout=timeout,
        )
        result = yield from self._invoke(ctx)
        return result

    def send(self, dst: str, service: str, payload: Any = None,
             size: int = 0) -> None:
        """Fire-and-forget one-way message (counted, never traced)."""
        if self.registry is not None:
            self.registry.stats(CLIENT, service).observe_oneway(size)
        self.endpoint.send(dst, service, payload, size=size)

    def multicast(self, group: str, service: str, payload: Any = None,
                  size: int = 0) -> None:
        """One-way message to a multicast group."""
        if self.registry is not None:
            self.registry.stats(CLIENT, service).observe_oneway(size)
        self.endpoint.multicast(group, service, payload, size=size)

    def subscribe(self, group: str) -> None:
        self.endpoint.subscribe(group)

    def unsubscribe(self, group: str) -> None:
        self.endpoint.unsubscribe(group)

    # -------------------------------------------------------- server side
    def register(self, service: str, handler: Handler,
                 replace: bool = False, instrument: bool = True) -> None:
        """Install a handler, wrapped for server-side metrics.

        ``replace=True`` makes re-registration idempotent (restarted
        daemons); the default still fails loudly on accidental collision.
        """
        if instrument:
            handler = self._instrumented(service, handler)
        self.endpoint.register(service, handler, replace=replace)

    def unregister(self, service: str) -> None:
        self.endpoint.unregister(service)

    def _instrumented(self, service: str, handler: Handler) -> Handler:
        """Wrap a handler to record scope-"server" stats at call time.

        The wrapper preserves the sync/generator duality the endpoint's
        one-way path relies on (sync handlers must stay sync), and reads
        ``self.registry`` late so deployments can attach it after the
        daemons registered their services.
        """

        def wrapped(payload: Any, src: str):
            t0 = self.sim.now
            try:
                result = handler(payload, src)
            except Exception:
                self._record_server(service, t0, None, ok=False)
                raise
            if isinstance(result, GeneratorType):
                return self._drive(service, result, t0)
            self._record_server(service, t0, result, ok=True)
            return result

        return wrapped

    def _drive(self, service: str, gen: Generator, t0: float):
        try:
            result = yield from gen
        except Exception:
            self._record_server(service, t0, None, ok=False)
            raise
        self._record_server(service, t0, result, ok=True)
        return result

    def _record_server(self, service: str, t0: float, result: Any,
                       ok: bool) -> None:
        if self.registry is None:
            return
        nbytes = _split_result(result)[1] if ok else 0
        self.registry.stats(SERVER, service).observe(
            self.sim.now - t0, ok=ok, bytes_in=nbytes)

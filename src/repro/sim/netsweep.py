"""The network-fault sweep: at-most-once RPC checked at every fault point.

The storage analogue (:mod:`repro.sim.crashtest`) establishes a
universally quantified claim about disk states; this harness establishes
the matching claim about *network* states: whichever single network event
fails — any request lost, any reply lost, the connection severed at any
point — the RPC stack's retries plus the server's reply cache deliver the
paper's call semantics: every acknowledged update is applied, no update
is applied twice, and the client's view of results equals the model's.

The protocol mirrors the crash sweep exactly:

1. run a scripted client workload once with no fault scheduled and count
   the network events it generates (N = one per request + one per reply);
2. for every event k in 1..N and every fault kind (message dropped /
   connection severed), run the workload from scratch with the fault
   scheduled at event k, through a retrying
   :class:`~repro.rpc.client.RpcClient` on a :class:`SimClock` (so the
   backoff sleeps are instant and deterministic);
3. model-check the outcome: the server's state must equal the model's,
   each update must have *executed* exactly once (a retransmission after
   a lost reply must be answered by the reply cache, visible as a cache
   hit), and every value the client observed must match the model.

The workload deliberately includes ``incr`` — a non-idempotent update —
so a double execution cannot hide: re-running it changes the result.

Run standalone (the CI job does, once per server model)::

    PYTHONPATH=src python -m repro.sim.sweep net --server-model eventloop
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.rpc import (
    EventLoopServer,
    FaultyTransport,
    Int,
    Interface,
    LAN_1987,
    LoopbackTransport,
    NetworkFaultInjector,
    OptionalOf,
    RetryPolicy,
    RpcClient,
    RpcServer,
    Str,
    TcpServerThread,
    TcpTransport,
    Void,
)
from repro.rpc.faults import FAULT_KINDS
from repro.sim.clock import SimClock
from repro.sim.sweep import Outcome, Sweep

#: What carries the calls: "loopback" (in-process, fully simulated — the
#: default and the fastest) or a real TCP front end ("threaded" /
#: "eventloop"), so the sweep's at-most-once claim covers the actual
#: servers a node deploys, not just the simulated transport.
SWEEP_SERVER_MODELS = ("loopback", "threaded", "eventloop")

#: A scripted step: ("put", key, value) | ("incr", key, by) | ("get", key)
Step = tuple

#: Default workload: reads and writes interleaved, with non-idempotent
#: increments positioned so every network event touches something whose
#: duplication or loss would be visible in the final state.
DEFAULT_STEPS: list[Step] = [
    ("put", "alpha", 1),
    ("incr", "alpha", 2),
    ("get", "alpha"),
    ("put", "beta", 10),
    ("incr", "beta", 5),
    ("incr", "alpha", 4),
    ("get", "beta"),
    ("put", "alpha", 100),
    ("get", "alpha"),
]

UPDATE_OPS = ("put", "incr")


def sweep_interface() -> Interface:
    """The tiny key-value interface the sweep drives."""
    iface = Interface("NetSweepKV")
    iface.method(
        "put", params=[("key", Str), ("value", Int)], returns=Void
    )
    iface.method("incr", params=[("key", Str), ("by", Int)], returns=Int)
    iface.method("get", params=[("key", Str)], returns=OptionalOf(Int))
    return iface


class SweepService:
    """The server implementation, logging every *execution*.

    The execution log is the ground truth the model check needs: a
    retransmitted call answered from the reply cache leaves no trace
    here, while a wrongly re-executed one appears twice.
    """

    def __init__(self) -> None:
        self.state: dict[str, int] = {}
        self.executions: list[Step] = []

    def put(self, key: str, value: int) -> None:
        self.executions.append(("put", key, value))
        self.state[key] = value

    def incr(self, key: str, by: int) -> int:
        self.executions.append(("incr", key, by))
        self.state[key] = self.state.get(key, 0) + by
        return self.state[key]

    def get(self, key: str):
        self.executions.append(("get", key))
        return self.state.get(key)


def run_model(steps: list[Step]) -> tuple[dict[str, int], list[object]]:
    """Expected final state and per-step return values."""
    state: dict[str, int] = {}
    returns: list[object] = []
    for step in steps:
        op = step[0]
        if op == "put":
            state[step[1]] = step[2]
            returns.append(None)
        elif op == "incr":
            state[step[1]] = state.get(step[1], 0) + step[2]
            returns.append(state[step[1]])
        elif op == "get":
            returns.append(state.get(step[1]))
        else:
            raise ValueError(f"unknown step kind {op!r}")
    return state, returns


@dataclass
class NetFaultOutcome(Outcome):
    """What one faulted run looked like against the model."""

    #: where the fault landed ("request"/"reply"), from the injector
    point: str | None = None
    acked_calls: int = 0
    retries: int = 0
    reply_cache_hits: int = 0
    update_executions: int = 0


class NetworkFaultSweep(Sweep):
    """Sweeps a scripted RPC workload over every network fault point."""

    outcome_type = NetFaultOutcome
    TOTALS = ("retries", "reply_cache_hits")
    FLAGS = {
        "--kinds": {"dest": "kinds", "nargs": "+", "choices": FAULT_KINDS},
        "--server-model": {
            "dest": "server_model",
            "choices": SWEEP_SERVER_MODELS,
            "help": "carry calls in-process (loopback, default) or through "
            "a real TCP front end (threaded / eventloop)",
        },
    }

    def __init__(
        self,
        steps: list[Step] | None = None,
        kinds: tuple[str, ...] = ("drop", "sever"),
        retry: RetryPolicy | None = None,
        client_id: str = "netsweep",
        server_model: str = "loopback",
    ) -> None:
        if server_model not in SWEEP_SERVER_MODELS:
            raise ValueError(
                f"unknown server model {server_model!r}; "
                f"one of {SWEEP_SERVER_MODELS}"
            )
        self.steps = list(DEFAULT_STEPS if steps is None else steps)
        self.phases = [("network", {"kind": kinds})]
        self.server_model = server_model
        #: "" opts out of at-most-once — used by tests to prove the sweep
        #: catches the double executions that then occur
        self.client_id = client_id
        self.retry = retry or RetryPolicy(
            max_attempts=5,
            base_delay_seconds=0.005,
            max_delay_seconds=0.1,
            deadline_seconds=60.0,
        )
        self.interface = sweep_interface()
        self._model_state, self._model_returns = run_model(self.steps)

    # -- execution ------------------------------------------------------------

    def _build(self, injector: NetworkFaultInjector, seed: int):
        """One fresh client/server pair; returns a closer that tears it
        all down (for the TCP models: stops the listener and its
        threads, so a full sweep never accumulates servers)."""
        clock = SimClock()
        service = SweepService()
        server = RpcServer()
        server.export(self.interface, service)
        front = None
        if self.server_model == "loopback":
            inner = LoopbackTransport(server, clock=clock, network=LAN_1987)
        else:
            # A real TCP server: faults still inject deterministically
            # because FaultyTransport sits above the socket — a dropped
            # request never reaches it, a dropped reply is discarded
            # after the call genuinely executed over the wire.
            front_type = (
                TcpServerThread
                if self.server_model == "threaded"
                else EventLoopServer
            )
            front = front_type(server).start()
            inner = TcpTransport(front.host, front.port)
        transport = FaultyTransport(inner, injector, clock=clock)
        client = RpcClient(
            self.interface,
            transport,
            client_id=self.client_id,
            retry=self.retry,
            clock=clock,
            rng=random.Random(seed),
        )

        def closer() -> None:
            client.close()
            if front is not None:
                front.stop()

        return service, server, client, closer

    def _drive(self, client: RpcClient) -> list[object]:
        proxy = client.proxy()
        returns: list[object] = []
        for step in self.steps:
            op = step[0]
            returns.append(getattr(proxy, op)(*step[1:]))
        return returns

    def dry_run(self) -> dict[str, int]:
        """Total network events the script generates."""
        injector = NetworkFaultInjector()
        _, _, client, closer = self._build(injector, seed=0)
        try:
            self._drive(client)
        finally:
            closer()
        return {"network": injector.events_seen}

    def run_one(self, outcome: NetFaultOutcome) -> list[str]:
        injector = NetworkFaultInjector(
            fault_at_event=outcome.fault_at, kind=outcome.kind
        )
        seed = outcome.fault_at * 8 + len(outcome.kind)  # distinct per run
        service, server, client, closer = self._build(injector, seed)
        try:
            returns = self._drive(client)
        finally:
            if injector.injected:
                outcome.fired = True
                outcome.point = injector.injected[0][2]
            outcome.retries = client.stats.retries
            outcome.reply_cache_hits = server.reply_cache.hits
            outcome.update_executions = sum(
                1 for e in service.executions if e[0] in UPDATE_OPS
            )
            closer()
        outcome.completed = True
        outcome.acked_calls = len(returns)
        return self._judge(outcome, service, returns)

    def _judge(
        self,
        outcome: NetFaultOutcome,
        service: SweepService,
        returns: list[object],
    ) -> list[str]:
        expected_updates = sum(
            1 for step in self.steps if step[0] in UPDATE_OPS
        )
        failures: list[str] = []
        if service.state != self._model_state:
            failures.append(
                f"server state {service.state!r} != model "
                f"{self._model_state!r} (acknowledged update lost or "
                f"phantom applied)"
            )
        if outcome.update_executions != expected_updates:
            failures.append(
                f"{outcome.update_executions} update executions for "
                f"{expected_updates} update calls (duplicate or lost "
                f"execution)"
            )
        if returns != self._model_returns:
            failures.append(
                f"client observed {returns!r}, model says "
                f"{self._model_returns!r}"
            )
        if outcome.fired and outcome.kind in ("drop", "sever"):
            if outcome.retries < 1:
                failures.append(
                    "fault was injected but the client never retried"
                )
            if outcome.point == "reply" and outcome.reply_cache_hits < 1:
                failures.append(
                    "reply was dropped after execution but the retry was "
                    "not answered from the reply cache"
                )
        return failures

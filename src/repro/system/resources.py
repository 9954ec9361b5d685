"""Resource managers (paper Figure 12's RM).

The paper "assume[s] an environment with infinite resources", so the
default :class:`InfiniteResources` services every page access after a fixed
CPU+I/O delay with no queueing — shadows never compete for hardware, which
is exactly what makes speculation free of resource-contention side effects.

:class:`FiniteResources` is the extension used by the resource ablation
(DESIGN.md A2): a pool of identical servers with a priority (or FCFS)
queue.  With few servers the classic PCC-vs-OCC resource argument from the
paper's introduction reappears: wasted speculative/restarted work slows
everyone down.

``request`` forwards ``*args`` to the completion callback so the hot step
loop can pass ``(bound_method, execution, epoch)`` instead of allocating a
fresh closure per page access.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from typing import Any, Callable, Optional

from repro.engine.array import ArraySimulator
from repro.errors import ConfigurationError
from repro.protocols.base import Execution, ExecutionState
from repro.txn.priority import EarliestDeadlineFirst, PriorityPolicy


class ResourceManager(ABC):
    """Grants service time for page-access steps.

    Parameters
    ----------
    cpu_time : float
        CPU component of one page access (seconds).
    io_time : float
        I/O component of one page access (seconds).

    Raises
    ------
    ConfigurationError
        If either component is negative or their sum is not positive.
    """

    def __init__(self, cpu_time: float, io_time: float) -> None:
        if cpu_time < 0 or io_time < 0 or cpu_time + io_time <= 0:
            raise ConfigurationError(
                f"service times must be non-negative with a positive sum, "
                f"got cpu={cpu_time}, io={io_time}"
            )
        self.cpu_time = cpu_time
        self.io_time = io_time
        self._sim: Optional[ArraySimulator] = None

    @property
    def step_service_time(self) -> float:
        """Total service time of one page access (CPU + I/O)."""
        return self.cpu_time + self.io_time

    def bind(self, sim: ArraySimulator) -> None:
        """Attach to a simulator.  Called once by the system model."""
        self._sim = sim

    def _require_sim(self) -> ArraySimulator:
        if self._sim is None:
            raise ConfigurationError("resource manager is not bound to a simulator")
        return self._sim

    @abstractmethod
    def request(
        self,
        execution: Execution,
        on_done: Callable[..., None],
        *args: Any,
    ) -> None:
        """Service one page access for ``execution``, then call ``on_done(*args)``.

        Parameters
        ----------
        execution : Execution
            The execution performing the access (used for priority
            queueing and stale-waiter purging by finite pools).
        on_done : Callable
            Completion callback, invoked as ``on_done(*args)`` after the
            service delay (and any queueing delay).
        *args
            Forwarded to ``on_done`` — lets hot callers avoid allocating
            a closure per request.

        Notes
        -----
        The callback may be invoked after an arbitrary queueing delay.
        The caller guards against stale callbacks via execution epochs,
        but implementations should avoid servicing dead executions when
        cheap.
        """


class InfiniteResources(ResourceManager):
    """No contention: every access is serviced immediately (paper default)."""

    def request(
        self,
        execution: Execution,
        on_done: Callable[..., None],
        *args: Any,
    ) -> None:
        """Schedule ``on_done(*args)`` after exactly one service time."""
        sim = self._sim
        if sim is None:
            raise ConfigurationError("resource manager is not bound to a simulator")
        # step_service_time is validated positive at construction, so the
        # schedule() delay check is redundant here; push directly.
        sim.schedule(self.cpu_time + self.io_time, on_done, *args)


class FiniteResources(ResourceManager):
    """A pool of ``num_servers`` identical CPU+disk servers.

    Requests queue when all servers are busy.  The queue is ordered by the
    priority policy (EDF by default) and is purged lazily: requests whose
    execution died or changed epoch while queued are skipped on dispatch,
    so aborted shadows never consume a server.
    Service is non-preemptive.

    Parameters
    ----------
    cpu_time : float
        CPU component of one page access (seconds).
    io_time : float
        I/O component of one page access (seconds).
    num_servers : int
        Size of the server pool; must be positive.
    policy : PriorityPolicy, optional
        Queue ordering; defaults to Earliest-Deadline-First.

    Attributes
    ----------
    total_busy_time : float
        Accumulated service seconds across all servers (utilization).
    total_queued : int
        Number of requests that ever had to queue.
    """

    def __init__(
        self,
        cpu_time: float,
        io_time: float,
        num_servers: int,
        policy: Optional[PriorityPolicy] = None,
    ) -> None:
        super().__init__(cpu_time, io_time)
        if num_servers <= 0:
            raise ConfigurationError(
                f"num_servers must be positive, got {num_servers}"
            )
        self.num_servers = num_servers
        self._policy = policy or EarliestDeadlineFirst(demote_tardy=False)
        self._busy = 0
        self._queue: list[
            tuple[tuple, int, Execution, int, Callable[..., None], tuple]
        ] = []
        self._seq = 0
        self.total_busy_time = 0.0
        self.total_queued = 0

    @property
    def busy_servers(self) -> int:
        """Number of servers currently in service."""
        return self._busy

    @property
    def queue_length(self) -> int:
        """Number of queued (possibly stale) requests."""
        return len(self._queue)

    def request(
        self,
        execution: Execution,
        on_done: Callable[..., None],
        *args: Any,
    ) -> None:
        """Serve the access now if a server is free, else queue by priority."""
        sim = self._require_sim()
        if self._busy < self.num_servers:
            self._serve(execution, on_done, args)
            return
        key = self._policy.key(execution.txn, sim.now)
        heapq.heappush(
            self._queue,
            (key, self._seq, execution, execution.epoch, on_done, args),
        )
        self._seq += 1
        self.total_queued += 1

    def _serve(
        self, execution: Execution, on_done: Callable[..., None], args: tuple
    ) -> None:
        sim = self._require_sim()
        self._busy += 1
        self.total_busy_time += self.step_service_time

        def finish() -> None:
            self._busy -= 1
            try:
                on_done(*args)
            finally:
                self._dispatch()

        sim.schedule(self.step_service_time, finish)

    def _dispatch(self) -> None:
        while self._queue and self._busy < self.num_servers:
            _, _, execution, epoch, on_done, args = heapq.heappop(self._queue)
            if execution.epoch != epoch or execution.state is not ExecutionState.RUNNING:
                continue  # the waiter died or was re-routed while queued
            self._serve(execution, on_done, args)

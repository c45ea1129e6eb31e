"""Bounded admission and single-flight deduplication.

Two maps stand between a submission and the worker pool:

* :class:`SingleFlight` — content hash -> live job.  Identical
  submissions arriving while a computation is in flight attach to it
  instead of queuing a duplicate; its result fans out to all waiters.
* :class:`AdmissionQueue` — a *bounded* FIFO.  At capacity the service
  answers with a typed 429 carrying a retry-after estimate rather than
  growing without bound; memory is a budget like any other.

The retry-after hint is an EWMA of recent job walls scaled by the
queue depth ahead of the caller — honest enough to spread a storm of
retries without pretending to be a promise.
"""

from __future__ import annotations

import asyncio
from collections import deque

from repro.errors import ServiceOverloaded
from repro.service.jobs import Job, JobState


class SingleFlight:
    """Content hash -> the one live job computing it."""

    def __init__(self) -> None:
        self._inflight: dict[str, Job] = {}

    def get(self, content_hash: str) -> Job | None:
        job = self._inflight.get(content_hash)
        if job is not None and job.state.terminal:
            # A terminal job lingering here means its completion hook
            # lost a race; drop it so the next submission recomputes.
            del self._inflight[content_hash]
            return None
        return job

    def claim(self, job: Job) -> None:
        self._inflight[job.content_hash] = job

    def release(self, job: Job) -> None:
        if self._inflight.get(job.content_hash) is job:
            del self._inflight[job.content_hash]

    def __len__(self) -> int:
        return len(self._inflight)


class AdmissionQueue:
    """The bounded job queue workers consume from.

    ``admit`` either enqueues or raises :class:`ServiceOverloaded`
    immediately — there is no blocking-on-full mode, because a blocked
    submission *is* unbounded memory wearing a different hat (the
    request, its body and its connection all wait in RAM).
    """

    def __init__(self, capacity: int, *, pool_size: int) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._pool_size = max(1, pool_size)
        self._queue: deque[Job] = deque()
        self._ready = asyncio.Condition()
        # EWMA of completed-job wall seconds; seeds the retry-after
        # hint before any job has finished.
        self._ewma_wall_s = 1.0

    @property
    def capacity(self) -> int:
        return self._capacity

    def depth(self) -> int:
        return len(self._queue)

    def retry_after_s(self) -> float:
        """How long until a queue slot plausibly frees up."""
        backlog = max(1, len(self._queue))
        estimate = backlog * self._ewma_wall_s / self._pool_size
        return round(min(60.0, max(0.5, estimate)), 3)

    def observe_wall(self, wall_s: float) -> None:
        self._ewma_wall_s += 0.2 * (max(0.0, wall_s) - self._ewma_wall_s)

    def ensure_room(self) -> None:
        """Reject with a typed 429 if the queue is full."""
        if len(self._queue) >= self._capacity:
            raise ServiceOverloaded(
                depth=len(self._queue),
                capacity=self._capacity,
                retry_after_s=self.retry_after_s(),
            )

    async def admit(self, job: Job) -> None:
        """Enqueue *job* or reject it with a typed 429."""
        self.ensure_room()
        self._queue.append(job)
        async with self._ready:
            self._ready.notify()

    def restore(self, job: Job) -> None:
        """Requeue a recovered job, capacity check waived: it was
        admitted within budget by the previous instance, and recovery
        must never drop acknowledged work."""
        self._queue.append(job)
        # No notify needed: workers start after recovery and find the
        # queue populated; a live service never calls this.

    async def take(self) -> Job:
        """Next runnable job; skips ones cancelled while queued."""
        while True:
            async with self._ready:
                while not self._queue:
                    await self._ready.wait()
                job = self._queue.popleft()
            if job.state is JobState.QUEUED:
                return job

    def drain(self) -> list[Job]:
        """Remove and return everything still queued (shutdown path)."""
        drained = [j for j in self._queue if not j.state.terminal]
        self._queue.clear()
        return drained

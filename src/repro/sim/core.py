"""A small deterministic discrete-event simulation kernel.

The paper evaluated a Java implementation on a Xen cluster; its metrics
are message counts, so a discrete-event simulation of the same
message-driven node logic reproduces them exactly while staying
deterministic and seedable (see DESIGN.md, substitution table).

The kernel is deliberately minimal and dependency-free:

* a binary-heap agenda of ``(time, priority, seq, handle)`` tuples —
  ``seq`` gives FIFO order among simultaneous events, so runs are fully
  reproducible, and being unique it lets ``heapq`` order entries in C
  without ever comparing a handle (which holds the action);
* callback scheduling (:meth:`Simulator.schedule` / :meth:`Simulator.at`)
  for the network substrate, and :meth:`Simulator.reserve`, which lets
  a timer that usually never fires take its FIFO place without an entry;
* named, seeded random streams so independent model components draw from
  independent generators.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from typing import Callable, Iterable

import numpy as np

from ..seeding import derive_seed

Action = Callable[[], None]


class SimulationError(RuntimeError):
    """Raised for misuse of the kernel (e.g. scheduling in the past)."""


class AgendaBudgetExceeded(SimulationError):
    """:meth:`Simulator.run` exhausted its ``max_events`` budget.

    Distinguishable from plain misuse so callers holding diagnostic
    context (the network's livelock report) can catch precisely this
    case; existing handlers catching :class:`SimulationError` keep
    working.
    """


class Handle:
    """Cancellation handle returned by the scheduling calls.

    It holds its entry's action, cleared when the entry is cancelled *or*
    taken off the agenda to run: a cleared action is what the kernel
    skips and what makes a late ``cancel`` a no-op.
    """

    __slots__ = ("_time", "_action", "_cancelled")

    def __init__(self, time: float, action: Action) -> None:
        self._time = time
        self._action: Action | None = action
        self._cancelled = False

    def cancel(self) -> None:
        """Prevent the action from running (no-op if already run)."""
        if self._action is not None:
            self._action = None
            self._cancelled = True

    @property
    def time(self) -> float:
        return self._time

    @property
    def cancelled(self) -> bool:
        return self._cancelled


_Entry = tuple[float, int, int, Handle]  # time, priority, unique seq, handle


class Simulator:
    """Event loop with virtual time.

    ``Simulator(seed=...)`` fixes every random stream derived via
    :meth:`rng`; two simulators with equal seeds and equal scheduling
    sequences produce identical runs.
    """

    def __init__(self, seed: int | None = None) -> None:
        self._agenda: list[_Entry] = []
        self._seq = 0
        self._now = 0.0
        self._running = False
        self._seed = seed
        self._rngs: dict[str, np.random.Generator] = {}
        self.processed_events = 0

    # ------------------------------------------------------------------
    # time & randomness
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def running(self) -> bool:
        """Whether the event loop is currently executing an action.

        True inside any scheduled callback (a delivery notification, a
        timeline entry) — the state in which a nested :meth:`run` would
        raise.  Facade layers use it to turn the opaque re-entrancy
        error into actionable guidance.
        """
        return self._running

    def rng(self, stream: str) -> np.random.Generator:
        """A named random stream, derived deterministically from the seed.

        Distinct names give independent generators; repeated calls with
        the same name return the same generator instance.  The stream
        key is derived with the *stable* hash of :mod:`repro.seeding`:
        Python's builtin ``hash`` of a str-containing tuple varies with
        ``PYTHONHASHSEED``, which silently broke the "deterministic,
        seedable" contract across processes.
        """
        if stream not in self._rngs:
            root = self._seed if self._seed is not None else 0
            self._rngs[stream] = np.random.default_rng(
                derive_seed(root, stream)
            )
        return self._rngs[stream]

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def at(
        self,
        time: float,
        action: Action,
        priority: int = 0,
        seq: int | None = None,
    ) -> Handle:
        """Run ``action`` at absolute virtual ``time``.

        ``seq`` arms an entry, once, under a number taken earlier from
        :meth:`reserve`.  Armed strictly before ``time``, it runs exactly
        where it would have run had it been pushed when reserved.
        """
        if not time >= self._now:  # also true for NaN
            if math.isnan(time):
                raise SimulationError("cannot schedule at time NaN")
            raise SimulationError(
                f"cannot schedule at {time:g}; now is {self._now:g}"
            )
        if seq is None:
            seq = self._seq
            self._seq = seq + 1
        elif not 0 <= seq < self._seq:
            raise SimulationError(f"sequence number {seq} was not reserved")
        handle = Handle(time, action)
        heapq.heappush(self._agenda, (time, priority, seq, handle))
        return handle

    def reserve(self) -> int:
        """Take the next FIFO sequence number for an entry armed later.

        A retry timer that usually never fires takes its place in the
        FIFO order here and pays for an agenda entry only if it is armed
        with ``at(..., seq=)``.  A reservation never armed costs nothing:
        :attr:`pending` and :meth:`agenda_summary` do not see it.
        """
        seq = self._seq
        self._seq = seq + 1
        return seq

    @property
    def sequence(self) -> int:
        """The next FIFO sequence number ``at`` will assign.

        Monotone, bumped by *every* scheduling call and reservation — an
        unchanged value between two instants proves no agenda entry was
        created or reserved in between.  The network's delivery batching
        keys on this: a batch of sends may share one agenda entry only
        while nothing else has been scheduled, which guarantees no other
        action can sort between the batched deliveries.
        """
        return self._seq

    def schedule(self, delay: float, action: Action, priority: int = 0) -> Handle:
        """Run ``action`` after ``delay`` units of virtual time."""
        if not delay >= 0:  # also true for NaN
            if math.isnan(delay):
                raise SimulationError("delay is NaN")
            raise SimulationError(f"negative delay {delay:g}")
        return self.at(self._now + delay, action, priority)

    def schedule_timeline(
        self,
        entries: Iterable[tuple[float, Action]],
        priority: int = 0,
    ) -> list[Handle]:
        """Bulk-schedule ``(absolute time, action)`` pairs.

        The injection API for pre-materialised timelines — the
        experiment runner feeds it the replayed publications and the
        churn schedule's join/leave transitions.  ``priority`` orders
        simultaneous entries against other agenda activity (lifecycle
        transitions run at priority 1, after same-instant publications).
        """
        return [self.at(time, action, priority) for time, action in entries]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Execute the agenda; returns the final virtual time.

        ``until`` stops the clock at an absolute time (inclusive of the
        events scheduled exactly there); ``max_events`` guards against
        runaways in tests.

        Virtual time is monotone: ``until`` in the past (or NaN) is a
        programming error and raises instead of silently not running —
        the silent no-op hid reversed-clock bugs in replay harnesses.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        if until is not None:
            if math.isnan(until):
                raise SimulationError("run(until=NaN)")
            if until < self._now:
                raise SimulationError(
                    f"cannot run until {until:g}; now is {self._now:g} "
                    "(virtual time is monotone)"
                )
        self._running = True
        try:
            agenda = self._agenda
            count = 0
            while agenda:
                time, _, _, handle = agenda[0]
                if until is not None and time > until:
                    break
                heapq.heappop(agenda)
                action = handle._action
                if action is None:
                    continue
                handle._action = None
                self._now = time
                action()
                self.processed_events += 1
                count += 1
                if max_events is not None and count >= max_events:
                    raise AgendaBudgetExceeded(
                        f"exceeded max_events={max_events}; runaway simulation?"
                    )
            if until is not None and self._now < until:
                self._now = until
            return self._now
        finally:
            self._running = False

    def step(self) -> bool:
        """Execute exactly one pending event; False when agenda is empty.

        Not reentrant, like :meth:`run`: a nested step would run a
        later action inside the current one and move the clock under it.
        """
        if self._running:
            raise SimulationError("step() is not reentrant")
        self._running = True
        try:
            while self._agenda:
                time, _, _, handle = heapq.heappop(self._agenda)
                action = handle._action
                if action is None:
                    continue
                handle._action = None
                self._now = time
                action()
                self.processed_events += 1
                return True
            return False
        finally:
            self._running = False

    @property
    def pending(self) -> int:
        """Number of scheduled (non-cancelled) entries still queued."""
        return sum(1 for entry in self._agenda if entry[3]._action is not None)

    def agenda_summary(self, n: int = 5) -> list[tuple[str, int]]:
        """The ``n`` hottest pending action kinds, by callable name.

        Diagnostic input for livelock reports: when a budget run aborts,
        the distribution of what is still queued (retransmit timers,
        refresh floods, delivery lambdas) names the feedback loop.
        """
        kinds: Counter[str] = Counter()
        for entry in self._agenda:
            action = entry[3]._action
            if action is None:
                continue
            label = getattr(action, "__qualname__", None) or type(action).__name__
            kinds[label] += 1
        return kinds.most_common(n)


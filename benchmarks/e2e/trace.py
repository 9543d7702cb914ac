"""Outside-in layer tracing: class-level wrappers installed from here.

``src/repro`` may not read the wall clock (the determinism lint bans
it), so the per-layer numbers come from wrappers this module installs
around the public callables of each layer for the duration of a
``with`` block and removes again on exit.  Two users:

* :class:`PhaseClock` — four timers on the ``Session`` entry points
  that ``execute_program`` goes through.  Always on: it is how the
  end-to-end run splits a cell into create / settled submits / replay.
* :class:`Tracer` — spans around every layer boundary in
  :data:`TARGETS`, only in a ``--trace`` run.  End-to-end numbers never
  come from a run with the tracer installed.

Targets are resolved by name when the block is entered.  One that no
longer exists (an engine deleted, a method renamed) lands in
``missing`` with a reason and its metrics read ``None`` — never a
crash — so a PR that removes a layer need not edit the benchmark.

A span is ``[name, start, end, parent, causal id]``; ``parent`` indexes
the span list (-1 for a root).  The causal id is the key of the
reading, or the id of the query, whose handling caused the work: it is
set where a cause enters the system (``Network.publish``,
``Session.submit``, ``Network.cancel_subscription``) and the
``Simulator.at`` wrapper carries it into the scheduled action, so
everything one reading caused downstream shares its identifier.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter
from pathlib import Path
from typing import Any, Callable

from .clock import now

MAX_SPANS = 200_000

# (span name, "module:Class.method", kind).  Kinds:
#   span    plain timed span
#   at      Simulator.at: wraps the scheduled action (label + causal id)
#   run     Simulator.run: remembers the running simulator's clock
#   cause:N sets the causal id from positional argument N (an event's
#           key, a subscription's or query's id)
#   truthy  also counts calls whose result is truthy
#   covered also counts decisions whose ``.covered`` is true
#   deliver also samples sim-time detection latency of the delivery
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("api.create", "repro.api:Session.create", "span"),
    ("api.submit", "repro.api:Session.submit", "cause:1"),
    ("api.ingest_events", "repro.api:Session.ingest_events", "span"),
    ("api.drain", "repro.api:Session.drain", "span"),
    ("sim.run", "repro.sim:Simulator.run", "run"),
    ("sim.at", "repro.sim:Simulator.at", "at"),
    ("network.send", "repro.network:Network.send", "span"),
    ("network.unicast", "repro.network:Network.unicast", "span"),
    ("network.publish", "repro.network:Network.publish", "cause:2"),
    ("network.register", "repro.network:Network.register_subscription", "cause:2"),
    ("network.cancel", "repro.network:Network.cancel_subscription", "cause:2"),
    ("links.record", "repro.network:TrafficMeter.record", "span"),
    ("eventstore.add", "repro.network:EventStore.add", "truthy"),
    ("eventstore.prune", "repro.network:EventStore.prune", "span"),
    ("node.receive", "repro.network:Node.receive", "span"),
    ("node.handle_event", "repro.network:Node.handle_event", "span"),
    ("node.handle_operator", "repro.network:Node.handle_operator", "span"),
    ("node.handle_unsubscribe", "repro.network:Node.handle_unsubscribe", "span"),
    ("node.handle_advertisement", "repro.network:Node.handle_advertisement", "span"),
    ("node.handle_retraction", "repro.network:Node.handle_retraction", "span"),
    (
        "node.handle_refresh_advertisement",
        "repro.network:Node.handle_refresh_advertisement",
        "span",
    ),
    ("node.refresh_soft_state", "repro.network:Node.refresh_soft_state", "span"),
    ("node.attach_sensor", "repro.network:Node.attach_sensor", "span"),
    ("node.detach_sensor", "repro.network:Node.detach_sensor", "span"),
    ("node.pubsub_forward", "repro.network:Node.pubsub_forward", "span"),
    ("node.stream_forward", "repro.network:Node.stream_forward", "span"),
    ("node.split_targets", "repro.network:Node.split_targets", "span"),
    ("node.deliver", "repro.network:Node.deliver_local_matches", "span"),
    ("node.send_event", "repro.network:Node.send_event", "span"),
    ("node.subscribe", "repro.network:Node.subscribe", "span"),
    ("node.unsubscribe", "repro.network:Node.unsubscribe", "span"),
    ("matching.probe", "repro.matching:OperatorMatcher.matches_involving", "truthy"),
    ("matching.probe", "repro.matching:ColumnarMatcher.matches_involving", "truthy"),
    ("matching.probe", "repro.matching:ColumnarEngine.delivered_members", "truthy"),
    ("matching.probe", "repro.matching:ColumnarEngine.forward_members", "truthy"),
    ("matching.ingest", "repro.matching:MatchingEngine.event_added", "span"),
    ("matching.ingest", "repro.matching:ColumnarEngine.event_added", "span"),
    ("matching.register", "repro.matching:MatchingEngine.retain", "span"),
    ("matching.register", "repro.matching:MatchingEngine.release", "span"),
    ("matching.register", "repro.matching:MatchingEngine.matcher", "span"),
    ("matching.register", "repro.matching:ColumnarEngine.retain", "span"),
    ("matching.register", "repro.matching:ColumnarEngine.release", "span"),
    ("matching.register", "repro.matching:ColumnarEngine.matcher", "span"),
    ("subsumption.decide", "repro.subsumption:ProbabilisticSetFilter.decide", "covered"),
    (
        "subsumption.decide",
        "repro.subsumption:ProbabilisticSetFilter.decide_product",
        "covered",
    ),
    ("delivery.record", "repro.network:DeliveryLog.record_events", "deliver"),
    ("delivery.record", "repro.network:DeliveryLog.record_complex", "span"),
    ("reliability.transport", "repro.network.reliability:Transport.send", "span"),
    ("reliability.transport", "repro.network.reliability:Transport.unicast", "span"),
    ("sketches.begin_round", "repro.sketches:SketchLane.begin_round", "span"),
    ("sketches.handle_push", "repro.sketches:SketchLane.handle_push", "span"),
    ("sketches.observe_local", "repro.sketches:SketchLane.observe_local", "span"),
)

# Importing the registry defines every Node subclass, so that overrides
# of the hooks above are wrapped too.
_SUBCLASS_PROVIDERS = ("repro.protocols.registry",)


def resolve(path: str) -> tuple[type | None, str, str | None]:
    """``"module:Class.method"`` -> (class, method name, reason if absent)."""
    module_name, _, dotted = path.partition(":")
    class_name, _, method = dotted.partition(".")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        return None, method, f"cannot import {module_name}: {exc}"
    owner = getattr(module, class_name, None)
    if owner is None:
        return None, method, f"{module_name} has no {class_name}"
    if not callable(getattr(owner, method, None)):
        return None, method, f"{class_name} has no callable {method}"
    return owner, method, None


def _all_subclasses(cls: type) -> list[type]:
    found: list[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found


_MARK = "__e2e_wrapper__"


def still_wrapped() -> list[str]:
    """Targets whose attribute is (still) one of this module's wrappers."""
    left: list[str] = []
    for _, path, _ in TARGETS:
        owner, method, _ = resolve(path)
        if owner is None:
            continue
        for cls in [owner, *_all_subclasses(owner)]:
            raw = cls.__dict__.get(method)
            if raw is not None and hasattr(getattr(raw, "__func__", raw), _MARK):
                left.append(f"{cls.__name__}.{method}")
    return left


class _Patches:
    """Installed attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[type, str, Any]] = []

    def replace(
        self, owner: type, name: str, make: Callable[[Callable], Callable]
    ) -> None:
        """Replace ``owner.name`` (as defined on ``owner`` itself) by
        ``make(original function)``, keeping class/static-method-ness."""
        raw = owner.__dict__[name]
        wrapper = make(getattr(raw, "__func__", raw))
        setattr(wrapper, _MARK, True)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapper = type(raw)(wrapper)
        self._undo.append((owner, name, raw))
        setattr(owner, name, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)


# ---------------------------------------------------------------------------
# the phase clock: four timers on the Session facade
# ---------------------------------------------------------------------------
class PhaseClock:
    """Splits one ``execute_program`` call into its facade phases.

    ``create_s`` is ``Session.create``; ``submit_s`` holds one host
    latency per *settled* ``Session.submit`` (mid-replay admissions run
    unsettled inside the event loop and belong to the replay);
    ``ingest_s`` is ``Session.ingest_events``; ``replay_s`` runs from
    the entry of ``ingest_events`` to the return of the ``drain`` that
    follows it.
    """

    def __init__(self) -> None:
        self._patches = _Patches()
        # Told when the replay window opens and closes (the Tracer
        # keeps per-window self times); survives reset().
        self.observer: Tracer | None = None
        self.reset()

    def reset(self) -> None:
        self.create_s = 0.0
        self.submit_s: list[float] = []
        self.ingest_s = 0.0
        self.replay_s = 0.0
        self._replay_start: float | None = None

    def __enter__(self) -> "PhaseClock":
        session, _, reason = resolve("repro.api:Session.create")
        if session is None:
            raise RuntimeError(f"no Session facade to time: {reason}")
        self._patches.replace(session, "create", self._timed_create)
        self._patches.replace(session, "submit", self._timed_submit)
        self._patches.replace(session, "ingest_events", self._timed_ingest)
        self._patches.replace(session, "drain", self._timed_drain)
        return self

    def __exit__(self, *exc: object) -> None:
        self._patches.restore()

    def _timed_create(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def create(*args: Any, **kwargs: Any) -> Any:
            start = now()
            result = fn(*args, **kwargs)
            self.create_s += now() - start
            return result

        return create

    def _timed_submit(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def submit(*args: Any, **kwargs: Any) -> Any:
            start = now()
            result = fn(*args, **kwargs)
            if kwargs.get("settle", True):
                self.submit_s.append(now() - start)
            return result

        return submit

    def _timed_ingest(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def ingest_events(*args: Any, **kwargs: Any) -> Any:
            if self.observer is not None:
                self.observer.replay_started()
            self._replay_start = start = now()
            result = fn(*args, **kwargs)
            self.ingest_s += now() - start
            return result

        return ingest_events

    def _timed_drain(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def drain(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            if self._replay_start is not None:
                self.replay_s = now() - self._replay_start
                if self.observer is not None:
                    self.observer.replay_ended()
            return result

        return drain


# ---------------------------------------------------------------------------
# the layer tracer
# ---------------------------------------------------------------------------
def _action_label(action: Any) -> str:
    """Agenda action kind: qualname, plus the line for lambdas (several
    lambdas of one function share a qualname)."""
    label = getattr(action, "__qualname__", None) or type(action).__name__
    code = getattr(action, "__code__", None)
    if code is not None and label.endswith("<lambda>"):
        label = f"{label}:{code.co_firstlineno}"
    return label


def _cause_id(cause: Any) -> Any:
    """An event's key, a subscription's or query's id, or the id itself."""
    for attr in ("key", "sub_id", "name"):
        found = getattr(cause, attr, None)
        if found is not None:
            return found
    return cause if isinstance(cause, str) else None


def _is_timer(action: Any) -> bool:
    """Whether an agenda action is a retry timer (calls a ``*timeout*``)."""
    code = getattr(action, "__code__", None)
    return code is not None and any("timeout" in n for n in code.co_names)


class Tracer:
    """Spans and per-name aggregates over every target in :data:`TARGETS`.

    ``totals[name]`` is ``[calls, inclusive seconds, self seconds]``,
    kept on the fly for every span; the first :data:`MAX_SPANS` spans
    started are also kept raw (a parent starts before its children, so
    a kept span's parent is always kept).  ``latencies`` holds one
    sim-time detection latency per delivery, ``counters`` the hit
    counts of the ``truthy``/``covered`` targets.
    """

    def __init__(self) -> None:
        self.totals: dict[str, list[float]] = {}
        self.counters: Counter[str] = Counter()
        self.spans: list[list[Any]] = []
        self.latencies: list[float] = []
        self.missing: dict[str, str] = {}
        self.replay_self: dict[str, float] = {}
        self.cid: Any = None
        self._window: dict[str, float] = {}
        self._sim: Any = None
        self._stack: list[list[Any]] = []
        self._labels: dict[Any, tuple[str, bool]] = {}
        self._patches = _Patches()

    # -- span bookkeeping ------------------------------------------------
    def push(self, name: str) -> list[Any]:
        stack = self._stack
        spans = self.spans
        index = -1
        if len(spans) < MAX_SPANS:
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1][3] if stack else -1, self.cid])
        frame = [name, 0.0, 0.0, index]
        stack.append(frame)
        frame[1] = now()
        return frame

    def pop(self, frame: list[Any]) -> None:
        end = now()
        stack = self._stack
        stack.pop()
        duration = end - frame[1]
        if stack:
            stack[-1][2] += duration
        total = self.totals.get(frame[0])
        if total is None:
            total = self.totals[frame[0]] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - frame[2]
        if frame[3] >= 0:
            span = self.spans[frame[3]]
            span[1] = frame[1]
            span[2] = end

    def replay_started(self) -> None:
        self._window = {name: t[2] for name, t in self.totals.items()}

    def replay_ended(self) -> None:
        """Add each span's self time since ``replay_started``."""
        for name, t in self.totals.items():
            self.replay_self[name] = (
                self.replay_self.get(name, 0.0) + t[2] - self._window.get(name, 0.0)
            )

    # -- installation ----------------------------------------------------
    def __enter__(self) -> "Tracer":
        for provider in _SUBCLASS_PROVIDERS:
            try:
                importlib.import_module(provider)
            except ImportError as exc:
                self.missing[provider] = f"cannot import: {exc}"
        for name, path, kind in TARGETS:
            owner, method, reason = resolve(path)
            if owner is None:
                self.missing[path] = reason or "unresolved"
                continue
            for cls in [owner, *_all_subclasses(owner)]:
                raw = cls.__dict__.get(method)
                if raw is None:
                    continue  # inherited, the base-class wrapper covers it
                if inspect.isgeneratorfunction(inspect.unwrap(getattr(raw, "__func__", raw))):
                    self.missing[path] = "generator: its body runs outside the call"
                    continue
                self._patches.replace(
                    cls, method, functools.partial(self._wrap, name, kind)
                )
        return self

    def __exit__(self, *exc: object) -> None:
        self._patches.restore()

    def _wrap(self, name: str, kind: str, fn: Callable) -> Callable:
        push, pop = self.push, self.pop

        def spanned(*args: Any, **kwargs: Any) -> Any:
            frame = push(name)
            try:
                return fn(*args, **kwargs)
            finally:
                pop(frame)

        if kind == "span":
            wrapper = spanned
        elif kind in ("truthy", "covered"):
            hits = f"{name}.{kind}"
            counters = self.counters
            covered = kind == "covered"

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                result = spanned(*args, **kwargs)
                if getattr(result, "covered", False) if covered else result:
                    counters[hits] += 1
                return result

        elif kind.startswith("cause:"):
            position = int(kind.partition(":")[2])

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                outer = self.cid
                if outer is None and len(args) > position:
                    self.cid = _cause_id(args[position])
                try:
                    return spanned(*args, **kwargs)
                finally:
                    self.cid = outer

        elif kind == "deliver":

            def wrapper(log: Any, sub_id: str, events: Any) -> Any:
                events = list(events)  # may be a one-shot iterable
                if events and self._sim is not None:
                    newest = max(e.timestamp for e in events)
                    self.latencies.append(self._sim.now - newest)
                return spanned(log, sub_id, events)

        elif kind == "run":

            def wrapper(sim: Any, *args: Any, **kwargs: Any) -> Any:
                outer, self._sim = self._sim, sim
                try:
                    return spanned(sim, *args, **kwargs)
                finally:
                    self._sim = outer

        elif kind == "at":
            wrapper = self._wrap_at(spanned)
        else:
            raise ValueError(f"unknown target kind {kind!r}")
        return functools.wraps(fn)(wrapper)

    def _wrap_at(self, spanned_at: Callable) -> Callable:
        push, pop = self.push, self.pop
        labels = self._labels
        counters = self.counters

        def at(sim: Any, time: float, action: Callable, *rest: Any, **kw: Any) -> Any:
            key = getattr(action, "__code__", None) or type(action)
            known = labels.get(key)
            if known is None:
                known = labels[key] = (
                    "sim.action:" + _action_label(action),
                    _is_timer(action),
                )
            label, timer = known
            if timer:
                counters["sim.timer_entries"] += 1
            cid = self.cid

            def traced_action() -> None:
                outer, self.cid = self.cid, cid
                frame = push(label)
                try:
                    action()
                finally:
                    pop(frame)
                    self.cid = outer

            # agenda_summary() labels pending actions by qualname
            traced_action.__qualname__ = label[len("sim.action:"):]
            return spanned_at(sim, time, traced_action, *rest, **kw)

        return at

    # -- reading the result ------------------------------------------------
    def calls(self, *names: str) -> int | None:
        """Total calls of the named spans; None when none was installed."""
        return self._sum(0, names)

    def self_s(self, *names: str) -> float | None:
        """Total self time of the named spans; None when none installed."""
        return self._sum(2, names)

    def _sum(self, column: int, names: tuple[str, ...]) -> Any:
        if not any(self._installed(n) for n in names):
            return None
        return sum(self.totals[n][column] for n in names if n in self.totals)

    def _installed(self, name: str) -> bool:
        return any(
            span == name and path not in self.missing
            for span, path, _ in TARGETS
        )

    def why_missing(self, *names: str) -> str:
        reasons = [
            f"{path}: {self.missing[path]}"
            for span, path, _ in TARGETS
            if span in names and path in self.missing
        ]
        return "; ".join(reasons) or "no such span target"

    def actions(self, prefix: str = "") -> list[tuple[str, list[float]]]:
        """Agenda action spans whose label starts with ``prefix``."""
        head = "sim.action:" + prefix
        return [(n, t) for n, t in self.totals.items() if n.startswith(head)]

    def dump(self, path: Path, meta: dict[str, Any]) -> None:
        """Write aggregates and the kept raw spans as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "meta": meta,
            "span_fields": ["name", "start", "end", "parent", "causal_id"],
            "spans_kept": len(self.spans),
            "spans_total": int(sum(t[0] for t in self.totals.values())),
            "totals": {
                name: {"calls": int(t[0]), "total_s": t[1], "self_s": t[2]}
                for name, t in sorted(self.totals.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "missing": self.missing,
            "spans": self.spans,
        }
        with path.open("w") as handle:
            json.dump(document, handle, default=str)

"""Tests for the discrete-event simulation kernel."""

import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import SimulationError, Simulator


class TestScheduling:
    def test_time_ordering(self):
        sim = Simulator()
        out = []
        sim.schedule(2.0, lambda: out.append("late"))
        sim.schedule(1.0, lambda: out.append("early"))
        sim.run()
        assert out == ["early", "late"]
        assert sim.now == 2.0

    def test_fifo_among_simultaneous(self):
        sim = Simulator()
        out = []
        for i in range(5):
            sim.at(1.0, lambda i=i: out.append(i))
        sim.run()
        assert out == [0, 1, 2, 3, 4]

    def test_priority_beats_fifo(self):
        sim = Simulator()
        out = []
        sim.at(1.0, lambda: out.append("normal"), priority=0)
        sim.at(1.0, lambda: out.append("urgent"), priority=-1)
        sim.run()
        assert out == ["urgent", "normal"]

    def test_nested_scheduling(self):
        sim = Simulator()
        out = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: out.append(sim.now)))
        sim.run()
        assert out == [2.0]

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_cancel(self):
        sim = Simulator()
        out = []
        handle = sim.schedule(1.0, lambda: out.append("x"))
        handle.cancel()
        sim.run()
        assert out == [] and handle.cancelled
        assert sim.pending == 0

    def test_cancel_after_the_action_ran_is_a_noop(self):
        sim = Simulator()
        out = []
        handle = sim.schedule(1.0, lambda: out.append("x"))
        own = sim.schedule(2.0, lambda: own.cancel())  # cancels itself, running
        sim.run()
        handle.cancel()
        assert out == ["x"]
        assert not handle.cancelled and not own.cancelled
        assert sim.processed_events == 2 and sim.pending == 0

    def test_run_until(self):
        sim = Simulator()
        out = []
        sim.schedule(1.0, lambda: out.append(1))
        sim.schedule(10.0, lambda: out.append(10))
        sim.run(until=5.0)
        assert out == [1] and sim.now == 5.0
        sim.run()
        assert out == [1, 10]

    def test_max_events_guard(self):
        sim = Simulator()

        def rearm():
            sim.schedule(1.0, rearm)

        sim.schedule(0.0, rearm)
        with pytest.raises(SimulationError):
            sim.run(max_events=10)

    def test_step(self):
        sim = Simulator()
        out = []
        sim.schedule(1.0, lambda: out.append(1))
        assert sim.step() and out == [1]
        assert not sim.step()

    def test_not_reentrant(self):
        sim = Simulator()
        sim.schedule(0.0, lambda: sim.run())
        with pytest.raises(SimulationError):
            sim.run()

    def test_step_is_not_reentrant(self):
        """An action that steps must not run a later action inside
        itself: the t=5 action stays queued and the clock stays at 1."""
        sim = Simulator()
        seen = []

        def nested():
            seen.append((sim.now, sim.running))
            sim.step()

        sim.schedule(1.0, nested)
        sim.schedule(5.0, lambda: seen.append((sim.now, sim.running)))
        with pytest.raises(SimulationError, match=r"^step\(\) is not reentrant$"):
            sim.step()
        assert seen == [(1.0, True)]
        assert sim.now == 1.0 and not sim.running
        assert sim.step() and seen == [(1.0, True), (5.0, True)]
        assert not sim.running

    def test_run_inside_a_step_is_refused(self):
        sim = Simulator()
        sim.schedule(0.0, lambda: sim.run())
        with pytest.raises(SimulationError, match="not reentrant"):
            sim.step()
        assert not sim.running


class TestReservations:
    def test_only_a_reserved_number_can_be_armed(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="not reserved"):
            sim.at(1.0, lambda: None, seq=0)
        sim.reserve()
        with pytest.raises(SimulationError, match="not reserved"):
            sim.at(1.0, lambda: None, seq=1)


# ---------------------------------------------------------------------------
# agenda order as a property
# ---------------------------------------------------------------------------
class _Action:
    """A logging action that refuses to be ordered: the agenda must
    settle every comparison on the unique ``(time, priority, seq)``
    prefix and never reach what it schedules."""

    def __init__(self, label, log, ident, then=None):
        self.__qualname__ = label  # what agenda_summary reports
        self.log = log
        self.ident = ident
        self.then = then

    def __call__(self):
        self.log.append(self.ident)
        if self.then is not None:
            self.then()

    def __lt__(self, other):
        raise AssertionError("the agenda compared two actions")

    __le__ = __gt__ = __ge__ = __lt__


class _AgendaModel:
    """Reference semantics: run pending entries sorted by
    ``(time, priority, seq)``; a cancelled or executed entry is gone.

    A reservation is an entry pushed when reserved but invisible until
    armed: armed before its time, it sorts exactly where it would have,
    and one never armed never runs."""

    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.entries = []  # [time, priority, seq, ident, child, state]
        self.log = []

    def add(self, time, priority, ident, child, state="pending"):
        self.entries.append([time, priority, self.seq, ident, child, state])
        self.seq += 1

    def cancel(self, ident):
        entry = self.entries[ident]
        if entry[5] == "pending":
            entry[5] = "cancelled"

    def pending(self):
        return [e for e in self.entries if e[5] == "pending"]

    def run(self, until=None, limit=None):
        while limit is None or limit > 0:
            due = [e for e in self.pending() if until is None or e[0] <= until]
            if not due:
                break
            entry = min(due, key=lambda e: e[:3])
            entry[5] = "ran"
            self.now = entry[0]
            self.log.append(entry[3])
            if entry[4] is not None:
                delay, priority = entry[4]
                self.add(self.now + delay, priority, len(self.entries), None)
            if limit is not None:
                limit -= 1
        if until is not None and self.now < until:
            self.now = until


# Few distinct values, so equal times and equal (time, priority) pairs
# are the common case, not the exception.
_delays = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.5])
_priorities = st.sampled_from([-1, 0, 0, 1])
_children = st.none() | st.tuples(_delays, _priorities)
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("at"), _delays, _priorities, _children),
        st.tuples(st.just("schedule"), _delays, _priorities, _children),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10_000)),
        st.tuples(st.just("reserve"), _delays, _priorities, _children),
        st.tuples(st.just("arm"), st.integers(min_value=0, max_value=10_000)),
        st.tuples(st.just("run"), _delays),
        st.tuples(st.just("step")),
    ),
    max_size=60,
)


class TestAgendaOrderProperty:
    @given(operations=_operations)
    @settings(max_examples=200, deadline=None)
    def test_any_interleaving_runs_in_time_priority_seq_order(self, operations):
        sim = Simulator()
        model = _AgendaModel()
        log = []
        handles = []  # by ident; None while a reservation is unarmed
        reserved = {}  # ident -> action of an unarmed reservation

        def label(priority):
            return f"priority{priority}"

        def make(priority, child):
            ident = len(handles)
            then = None
            if child is not None:
                delay, child_priority = child

                def then():
                    handles.append(
                        sim.schedule(delay, make(child_priority, None), child_priority)
                    )

            return _Action(label(priority), log, ident, then)

        for operation in operations:
            kind = operation[0]
            if kind in ("at", "schedule"):
                _, delay, priority, child = operation
                action = make(priority, child)
                if kind == "at":
                    handle = sim.at(sim.now + delay, action, priority)
                else:
                    handle = sim.schedule(delay, action, priority)
                assert handle.time == model.now + delay
                model.add(model.now + delay, priority, len(handles), child)
                handles.append(handle)
            elif kind == "reserve":
                _, delay, priority, child = operation
                ident = len(handles)
                assert sim.reserve() == model.seq
                model.add(model.now + delay, priority, ident, child, "reserved")
                reserved[ident] = make(priority, child)
                handles.append(None)
            elif kind == "arm":
                if reserved:
                    ident = sorted(reserved)[operation[1] % len(reserved)]
                    time, priority, seq = model.entries[ident][:3]
                    if time > model.now:
                        handles[ident] = sim.at(
                            time, reserved.pop(ident), priority, seq=seq
                        )
                        model.entries[ident][5] = "pending"
                    elif time < model.now:
                        with pytest.raises(SimulationError):
                            sim.at(time, reserved[ident], priority, seq=seq)
            elif kind == "cancel":
                if handles:
                    ident = operation[1] % len(handles)
                    if handles[ident] is not None:
                        handles[ident].cancel()
                    model.cancel(ident)
            elif kind == "run":
                until = sim.now + operation[1]
                assert sim.run(until=until) == until
                model.run(until=until)
            else:
                assert sim.step() == bool(model.pending())
                model.run(limit=1)

            assert log == model.log
            assert sim.now == model.now
            assert sim.sequence == model.seq == len(handles)
            assert sim.processed_events == len(model.log)
            assert sim.pending == len(model.pending())
            assert dict(sim.agenda_summary(n=10)) == Counter(
                label(e[1]) for e in model.pending()
            )
            assert [h is not None and h.cancelled for h in handles] == [
                e[5] == "cancelled" for e in model.entries
            ]

        sim.run()
        model.run()
        assert log == model.log
        assert sim.pending == 0 and sim.agenda_summary() == []

    def test_ordering_the_agenda_enters_no_python_frame(self):
        """Regression guard for the comparator: scheduling and draining
        ``n`` entries makes a number of Python-level calls linear in
        ``n`` (``at``, the handle, ``run``), where a comparator written
        in Python adds one frame per heap comparison — ``n log n``."""
        n = 2_000
        sim = Simulator()
        calls = 0

        def profiler(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        previous = sys.getprofile()
        sys.setprofile(profiler)
        try:
            for i in range(n):
                sim.at(float((i * 7919) % n), int)  # builtin no-op action
            sim.run()
        finally:
            sys.setprofile(previous)
        assert sim.processed_events == n
        assert calls <= 3 * n, calls


class TestDeterminism:
    def test_named_rng_streams_independent_and_reproducible(self):
        a1 = Simulator(seed=7).rng("x").random(5).tolist()
        a2 = Simulator(seed=7).rng("x").random(5).tolist()
        b = Simulator(seed=7).rng("y").random(5).tolist()
        assert a1 == a2
        assert a1 != b

    def test_same_rng_instance_per_name(self):
        sim = Simulator(seed=1)
        assert sim.rng("s") is sim.rng("s")

    def test_processed_event_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.processed_events == 4


class TestRngStability:
    """The documented contract: equal seeds give equal runs — across
    *processes*, not just within one.  The stream-key derivation once
    used ``hash((root, stream))``, which varies with PYTHONHASHSEED."""

    _DRAW = (
        "import sys; sys.path.insert(0, {path!r}); "
        "from repro.sim import Simulator; "
        "print(Simulator(seed=7).rng('faults:n1').random(4).tolist())"
    )

    def _draw_in_subprocess(self, hashseed: str) -> str:
        import os
        import pathlib
        import subprocess
        import sys

        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        out = subprocess.run(
            [sys.executable, "-c", self._DRAW.format(path=src)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        return out.stdout.strip()

    def test_rng_streams_stable_across_hash_randomization(self):
        draws = {self._draw_in_subprocess(seed) for seed in ("0", "1", "31337")}
        assert len(draws) == 1, (
            "rng stream keys must not depend on PYTHONHASHSEED; got "
            f"{draws}"
        )

    def test_rng_stream_matches_in_process_draw(self):
        from repro.sim import Simulator

        local = str(Simulator(seed=7).rng("faults:n1").random(4).tolist())
        assert self._draw_in_subprocess("42") == local

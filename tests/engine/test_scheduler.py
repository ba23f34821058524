"""Tests for SimEnv, ExecContext, SimThread, and the min-clock scheduler."""

import pytest

from repro.engine.background import NEVER, BackgroundTask
from repro.engine.context import ExecContext
from repro.engine.env import SimEnv
from repro.engine.errors import DeadlockError, SimulationError
from repro.engine.scheduler import Scheduler
from repro.engine.stats import CAT_OTHERS


def test_context_charge_advances_clock_and_stats():
    env = SimEnv()
    ctx = ExecContext(env, "t0")
    ctx.charge(120, "write_access")
    assert ctx.now == 120
    assert env.stats.breakdown.get("write_access") == 120


def test_context_sync_to_future_charges_wait():
    env = SimEnv()
    ctx = ExecContext(env, "t0")
    ctx.sync_to(500)
    assert ctx.now == 500
    assert env.stats.breakdown.get(CAT_OTHERS) == 500


def test_context_sync_to_past_is_noop():
    env = SimEnv()
    ctx = ExecContext(env, "t0")
    ctx.charge(100)
    ctx.sync_to(50)
    assert ctx.now == 100


def test_syscall_accounting():
    env = SimEnv()
    ctx = ExecContext(env, "t0")
    with ctx.syscall("write"):
        ctx.charge(300)
    assert env.stats.syscall_time_ns["write"] == 300
    assert env.stats.syscall_counts["write"] == 1


def test_resources_registry():
    env = SimEnv()
    res = env.add_resource("nvmm", 3)
    assert env.resource("nvmm") is res
    assert env.has_resource("nvmm")
    with pytest.raises(SimulationError):
        env.add_resource("nvmm", 1)
    with pytest.raises(SimulationError):
        env.resource("missing")


def test_scheduler_interleaves_min_clock_first():
    env = SimEnv()
    sched = Scheduler(env)
    order = []

    def body(cost, tag):
        def gen(ctx):
            for i in range(3):
                ctx.charge(cost)
                order.append((tag, i))
                yield

        return gen

    sched.spawn("fast", body(10, "fast"))
    sched.spawn("slow", body(100, "slow"))
    sched.run()
    # The fast thread should complete all its ops before the slow thread's
    # second op (clocks 10,20,30 vs 100,200,300).
    assert order.index(("fast", 2)) < order.index(("slow", 1))


def test_scheduler_elapsed_is_makespan():
    env = SimEnv()
    sched = Scheduler(env)

    def body(ctx):
        ctx.charge(250)
        yield

    sched.spawn("a", body)
    sched.spawn("b", body)
    assert sched.run() == 250
    assert sched.total_ops() == 2


def test_scheduler_deadline_stops_run():
    env = SimEnv()
    sched = Scheduler(env)

    def forever(ctx):
        while True:
            ctx.charge(100)
            yield

    thread = sched.spawn("t", forever)
    sched.run(until_ns=1_000)
    assert 1_000 <= thread.now <= 1_100


class _TickTask(BackgroundTask):
    """Fires every ``period`` ns and records when it ran."""

    def __init__(self, env, period):
        super().__init__(env, "tick")
        self.period = period
        self.next_tick = period
        self.fired_at = []

    def next_due_ns(self):
        return self.next_tick

    def run_due(self, horizon_ns):
        while self.next_tick <= horizon_ns:
            self.fired_at.append(self.next_tick)
            self.ctx.now = max(self.ctx.now, self.next_tick)
            self.next_tick += self.period


def test_background_task_advances_with_foreground():
    env = SimEnv()
    task = _TickTask(env, period=100)
    env.background.register(task)
    sched = Scheduler(env)

    def body(ctx):
        for _ in range(5):
            ctx.charge(100)
            yield

    sched.spawn("fg", body)
    sched.run()
    # Foreground reached 500; ticks at 100..400 must have fired (the tick
    # at 500 may or may not, depending on the final advance).
    assert task.fired_at[:4] == [100, 200, 300, 400]


def test_background_never_means_idle():
    env = SimEnv()

    class Idle(BackgroundTask):
        def next_due_ns(self):
            return NEVER

        def run_due(self, horizon_ns):  # pragma: no cover
            raise AssertionError("idle task must not run")

    env.background.register(Idle(env, "idle"))
    env.background.advance_to(10**12)  # must not raise


def test_background_no_progress_detected():
    env = SimEnv()

    class Stuck(BackgroundTask):
        def next_due_ns(self):
            return 0

        def run_due(self, horizon_ns):
            pass

    env.background.register(Stuck(env, "stuck"))
    with pytest.raises(SimulationError):
        env.background.advance_to(100)


class _StepTask(BackgroundTask):
    """One step per wake: logs ``(name, due)``, then moves ``period`` on."""

    def __init__(self, env, name, due, period, log):
        super().__init__(env, name)
        self.due = due
        self.period = period
        self.log = log
        self.on_run = None

    def next_due_ns(self):
        return self.due

    def run_due(self, horizon_ns):
        self.log.append((self.name, self.due))
        self.due += self.period
        if self.on_run is not None:
            self.on_run()


def test_registry_runs_due_tasks_in_due_order_ties_by_registration():
    """Each round runs the tasks due at its scan in due order (ties in
    registration order), then rescans.  ``c`` pulls ``b`` earlier during
    its first run: ``b`` keeps its place in the round (the order was
    fixed at the scan) and runs once, at its new due time."""
    env = SimEnv()
    registry = env.background
    log = []
    a = registry.register(_StepTask(env, "a", 10, 30, log))
    b = registry.register(_StepTask(env, "b", 10, 30, log))
    c = registry.register(_StepTask(env, "c", 4, 25, log))

    def pull_b():
        c.on_run = None
        b.due = 6
        registry.note_earlier(6)

    c.on_run = pull_b
    registry.advance_to(60)
    assert log == [("c", 4), ("a", 10), ("b", 6),
                   ("c", 29), ("b", 36), ("a", 40),
                   ("c", 54)]
    assert (a.due, b.due, c.due) == (70, 66, 79)
    assert registry._min_due_ns == 66
    registry.advance_to(65)
    assert len(log) == 7
    registry.advance_to(70)
    assert log[7:] == [("b", 66), ("a", 70)]


def test_a_task_pulled_in_by_an_earlier_run_is_judged_from_its_new_due():
    """Both are due at the first scan; ``c`` runs first and pulls ``b``
    from 6 in to 2.  ``b``'s run takes it to 5: progress from 2, though
    short of the 6 the scan read.  Stuck at 2 instead, the error fires
    in that same first round and names the due time ``b`` really had."""
    env = SimEnv()
    registry = env.background
    log = []
    b = registry.register(_StepTask(env, "b", 6, 3, log))
    c = registry.register(_StepTask(env, "c", 4, 100, log))

    def pull_b():
        c.on_run = None
        b.due = 2
        registry.note_earlier(2)

    c.on_run = pull_b
    registry.advance_to(10)
    assert log == [("c", 4), ("b", 2), ("b", 5), ("b", 8)]

    log.clear()
    b.due, b.period, c.due = 6, 0, 4
    c.on_run = pull_b
    registry.invalidate()
    with pytest.raises(DeadlockError, match=r"'b' made no progress "
                                            r"\(due 2 -> 2\)"):
        registry.advance_to(10)
    assert log == [("c", 4), ("b", 2)]


# -- deadlock diagnostics ------------------------------------------------


def test_thread_diagnostic_captures_wait_label():
    from repro.engine.errors import ThreadDiagnostic

    env = SimEnv()
    ctx = ExecContext(env, "writer")
    ctx.charge(250)
    with ctx.waiting("journal space"):
        diag = ThreadDiagnostic.of(ctx)
    assert diag.name == "writer"
    assert diag.clock_ns == 250
    assert "journal space" in str(diag)
    # Outside the wait the label is cleared again.
    assert ThreadDiagnostic.of(ctx).waiting_on == "nothing"


def test_deadlock_error_renders_diagnostics_and_notes():
    from repro.engine.errors import DeadlockError, ThreadDiagnostic

    exc = DeadlockError(
        "no progress possible",
        diagnostics=[ThreadDiagnostic("fg", 10, "buffer space")],
        notes=["2 NVMM cacheline(s) are marked bad"],
    )
    text = str(exc)
    assert "no progress possible" in text
    assert "thread 'fg' at t=10ns waiting on buffer space" in text
    assert "note: 2 NVMM cacheline(s) are marked bad" in text
    exc.attach([ThreadDiagnostic("wb", 20, "nothing")])
    assert "thread 'wb'" in str(exc)


def test_scheduler_attaches_fleet_state_to_deadlock():
    from repro.engine.errors import DeadlockError, ThreadDiagnostic

    env = SimEnv()
    sched = Scheduler(env)

    def bystander(ctx):
        with ctx.waiting("lock /x"):
            ctx.charge(1000)
            yield

    def victim(ctx):
        raise DeadlockError("stuck", diagnostics=[ThreadDiagnostic.of(ctx)])
        yield  # pragma: no cover

    sched.spawn("bystander", bystander)
    sched.spawn("victim", victim)
    with pytest.raises(DeadlockError) as excinfo:
        sched.run()
    text = str(excinfo.value)
    # The raiser's own state plus the still-blocked bystander's.
    assert "thread 'victim'" in text
    assert "thread 'bystander'" in text and "lock /x" in text

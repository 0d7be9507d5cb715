"""reprolint lock-discipline rules (LOCK001-LOCK004): fixtures and near-misses.

Fixtures are linted under a ``distributed/``-relative path so the lock
family applies.  The Condition-aliasing fixture is the load-bearing one: it
is the exact shape :class:`repro.distributed.coordinator.Coordinator` uses
(``Condition(self._lock)``), and it must NOT be flagged.
"""

from __future__ import annotations

import textwrap

from repro.lint import lint_source


def _lint(snippet: str):
    return lint_source(textwrap.dedent(snippet), "distributed/fixture.py")


def _rules(snippet: str):
    return [finding.rule for finding in _lint(snippet)]


# --------------------------------------------------------------------- #
# LOCK001 — guarded elsewhere, accessed bare
# --------------------------------------------------------------------- #

_TORN_READ = """
import threading

class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    def bump(self):
        with self._lock:
            self._count += 1

    def peek(self):
        return self._count
"""


def test_lock001_flags_unguarded_read_of_guarded_attr():
    findings = _lint(_TORN_READ)
    assert [f.rule for f in findings] == ["LOCK001"]
    assert "_count" in findings[0].message
    assert "_lock" in findings[0].message


def test_lock001_near_miss_read_under_the_lock():
    assert _rules(
        """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self._count = 0

            def bump(self):
                with self._lock:
                    self._count += 1

            def peek(self):
                with self._lock:
                    return self._count
        """
    ) == []


def test_lock001_condition_wrapping_the_lock_is_the_same_guard():
    # Coordinator's shape: acquiring the Condition acquires the wrapped
    # lock, so mixing `with self._cond:` and `with self._lock:` is fine.
    assert _rules(
        """
        import threading

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()
                self._changed = threading.Condition(self._lock)
                self._size = 0

            def grow(self):
                with self._changed:
                    self._size += 1
                    self._changed.notify_all()

            def size(self):
                with self._lock:
                    return self._size
        """
    ) == []


def test_lock001_guard_inherited_from_same_module_base():
    # The guard is defined on the base; the derived class both writes under
    # it and reads bare.
    findings = _lint(
        """
        import threading

        class Base:
            def __init__(self):
                self._lock = threading.Lock()

        class Derived(Base):
            def set_state(self, value):
                with self._lock:
                    self._state = value

            def read_state(self):
                return self._state
        """
    )
    assert [f.rule for f in findings] == ["LOCK001"]


def test_lock001_closure_does_not_inherit_the_held_lock():
    # A closure defined inside `with self._lock:` may run after release.
    findings = _lint(
        """
        import threading

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()
                self._size = 0

            def grow(self):
                with self._lock:
                    self._size += 1
                    return lambda: self._size
        """
    )
    assert [f.rule for f in findings] == ["LOCK001"]


# --------------------------------------------------------------------- #
# LOCK002 — Condition.wait() without a predicate loop
# --------------------------------------------------------------------- #


def test_lock002_flags_wait_outside_while():
    findings = _lint(
        """
        import threading

        class Gate:
            def __init__(self):
                self._lock = threading.Lock()
                self._cond = threading.Condition(self._lock)
                self._open = False

            def block(self):
                with self._cond:
                    if not self._open:
                        self._cond.wait()
        """
    )
    assert "LOCK002" in [f.rule for f in findings]


def test_lock002_near_miss_wait_in_while_predicate_loop():
    assert _rules(
        """
        import threading

        class Gate:
            def __init__(self):
                self._lock = threading.Lock()
                self._cond = threading.Condition(self._lock)
                self._open = False

            def block(self):
                with self._cond:
                    while not self._open:
                        self._cond.wait()
        """
    ) == []


def test_lock002_near_miss_wait_for_carries_its_own_loop():
    assert _rules(
        """
        import threading

        class Gate:
            def __init__(self):
                self._lock = threading.Lock()
                self._cond = threading.Condition(self._lock)
                self._open = False

            def block(self):
                with self._cond:
                    self._cond.wait_for(self.ready)

            def ready(self):
                with self._lock:
                    return self._open
        """
    ) == []


# --------------------------------------------------------------------- #
# LOCK003 — attributes assigned after Thread.start()
# --------------------------------------------------------------------- #


def test_lock003_flags_attr_assigned_after_start():
    findings = _lint(
        """
        import threading

        class Runner:
            def launch(self):
                worker = threading.Thread(target=self._run)
                worker.start()
                self._deadline = 5.0

            def _run(self):
                return self._deadline
        """
    )
    assert [f.rule for f in findings] == ["LOCK003"]
    assert "_deadline" in findings[0].message


def test_lock003_flags_inline_construct_and_start():
    findings = _lint(
        """
        import threading

        class Runner:
            def launch(self):
                threading.Thread(target=self._run).start()
                self._deadline = 5.0

            def _run(self):
                return self._deadline
        """
    )
    assert [f.rule for f in findings] == ["LOCK003"]


def test_lock003_near_miss_attr_assigned_before_start():
    assert _rules(
        """
        import threading

        class Runner:
            def launch(self):
                self._deadline = 5.0
                worker = threading.Thread(target=self._run)
                worker.start()

            def _run(self):
                return self._deadline
        """
    ) == []


def test_lock003_near_miss_target_never_reads_the_late_attr():
    assert _rules(
        """
        import threading

        class Runner:
            def launch(self):
                worker = threading.Thread(target=self._run)
                worker.start()
                self._label = "after"

            def _run(self):
                return 42
        """
    ) == []


# --------------------------------------------------------------------- #
# LOCK004 — bare writes in a lock-using class
# --------------------------------------------------------------------- #


def test_lock004_flags_unguarded_write_when_class_uses_locks():
    findings = _lint(
        """
        import threading

        class Mixed:
            def __init__(self):
                self._lock = threading.Lock()
                self._hits = 0
                self._note = None

            def bump(self):
                with self._lock:
                    self._hits += 1

            def label(self, text):
                self._note = text
        """
    )
    assert [f.rule for f in findings] == ["LOCK004"]
    assert "_note" in findings[0].message


def test_lock004_near_miss_init_writes_and_guard_free_classes():
    # __init__ publishes before sharing, and a class with no locks makes no
    # locking claims to violate.
    assert _rules(
        """
        import threading

        class Plain:
            def __init__(self):
                self._hits = 0

            def bump(self):
                self._hits += 1
        """
    ) == []

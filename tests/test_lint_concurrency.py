"""Tests of the whole-project concurrency analysis (REP201–REP204).

Each rule gets seeded-bug fixtures (the historical shape of the violation)
plus clean counterparts, the annotation grammar is exercised end to end
(``guarded-by`` declarations, ``requires`` contracts, the ``__init__``
pre-spawn exemption), and the model pass is probed on modern syntax the
extractor must not be blind to — walrus aliases, ``match``, ``async with``,
nested functions, multi-line annotated assignments.

Fixture modules are written under basenames the project rules scope to
(``service.py`` / ``session.py`` / ``storage.py`` / ``execution_*.py``);
the scope itself is pinned by ``TestProjectScope``.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import lint_file, lint_paths, main


def write_module(tmp_path: Path, relative: str, source: str) -> Path:
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def codes_of(path: Path) -> list[str]:
    return [diagnostic.code for diagnostic in lint_file(path)]


# ----------------------------------------------------------------------
# REP201 — guarded-by discipline
# ----------------------------------------------------------------------
class TestGuardedBy:
    def test_inferred_guard_flags_the_unlocked_write(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/session.py",
            """
            import threading

            class Tally:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    with self._lock:
                        self._count += 1

                def sloppy(self):
                    self._count += 1
            """,
        )
        diagnostics = lint_file(path)
        assert [d.code for d in diagnostics] == ["REP201"]
        assert diagnostics[0].line == 14
        assert "_count" in diagnostics[0].message

    def test_declared_guard_flags_the_unlocked_read(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/session.py",
            """
            import threading

            class Flag:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._closed = False  # repro: guarded-by(_lock)

                def check(self):
                    return self._closed
            """,
        )
        assert codes_of(path) == ["REP201"]

    def test_locked_accesses_are_clean(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/session.py",
            """
            import threading

            class Tally:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0  # repro: guarded-by(_lock)

                def bump(self):
                    with self._lock:
                        self._count += 1

                def read(self):
                    with self._lock:
                        return self._count
            """,
        )
        assert codes_of(path) == []

    def test_init_exempt_before_first_thread_hand_off(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/session.py",
            """
            import threading

            class Early:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._state = 0  # repro: guarded-by(_lock)
                    threading.Thread(target=self.run).start()
                    self._state = 1

                def run(self):
                    with self._lock:
                        self._state = 2
            """,
        )
        diagnostics = lint_file(path)
        # Only the post-spawn write races the new thread; the constructor
        # writes before the hand-off are single-threaded by construction.
        assert [d.code for d in diagnostics] == ["REP201"]
        assert diagnostics[0].line == 9

    def test_requires_contract_satisfies_the_helper(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/session.py",
            """
            import threading

            class Helpers:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._total = 0  # repro: guarded-by(_lock)

                def _bump_locked(self):  # repro: requires(_lock)
                    self._total += 1

                def good(self):
                    with self._lock:
                        self._bump_locked()
            """,
        )
        assert codes_of(path) == []

    def test_requires_contract_flags_the_lockless_caller(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/session.py",
            """
            import threading

            class Helpers:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._total = 0  # repro: guarded-by(_lock)

                def _bump_locked(self):  # repro: requires(_lock)
                    self._total += 1

                def good(self):
                    with self._lock:
                        self._bump_locked()

                def bad(self):
                    self._bump_locked()
            """,
        )
        diagnostics = lint_file(path)
        assert [d.code for d in diagnostics] == ["REP201"]
        assert "_bump_locked" in diagnostics[0].message

    def test_unknown_declared_lock_is_itself_flagged(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/session.py",
            """
            import threading

            class Typo:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._value = 0  # repro: guarded-by(_locck)
            """,
        )
        diagnostics = lint_file(path)
        assert [d.code for d in diagnostics] == ["REP201"]
        assert "names no lock" in diagnostics[0].message

    def test_module_global_guard(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/storage.py",
            """
            import threading

            _lock = threading.Lock()
            _cache = {}  # repro: guarded-by(_lock)

            def put(key, value):
                with _lock:
                    _cache[key] = value

            def bad_get(key):
                return _cache.get(key)
            """,
        )
        diagnostics = lint_file(path)
        assert [d.code for d in diagnostics] == ["REP201"]
        assert diagnostics[0].line == 12

    def test_condition_alias_counts_as_holding_the_lock(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/service.py",
            """
            import threading

            class Queue:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._wake = threading.Condition(self._lock)
                    self._items = []  # repro: guarded-by(_lock)

                def push(self, item):
                    with self._wake:  # same lock as _lock
                        self._items.append(item)
                        self._wake.notify()
            """,
        )
        assert codes_of(path) == []

    def test_suppression_comment_silences_the_finding(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/session.py",
            """
            import threading

            class Flag:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._closed = False  # repro: guarded-by(_lock)

                def check(self):
                    return self._closed  # repro-lint: disable=REP201
            """,
        )
        assert codes_of(path) == []


# ----------------------------------------------------------------------
# REP202 — lock-order consistency
# ----------------------------------------------------------------------
class TestLockOrder:
    def test_inverted_nesting_is_one_cycle(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/session.py",
            """
            import threading

            class Pair:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def forward(self):
                    with self._a:
                        with self._b:
                            pass

                def backward(self):
                    with self._b:
                        with self._a:
                            pass
            """,
        )
        diagnostics = lint_file(path)
        assert [d.code for d in diagnostics] == ["REP202"]
        assert "deadlock" in diagnostics[0].message

    def test_consistent_order_is_clean(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/session.py",
            """
            import threading

            class Pair:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def one(self):
                    with self._a:
                        with self._b:
                            pass

                def two(self):
                    with self._a:
                        with self._b:
                            pass
            """,
        )
        assert codes_of(path) == []

    def test_self_reacquire_on_plain_lock(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/session.py",
            """
            import threading

            class Re:
                def __init__(self):
                    self._lock = threading.Lock()

                def bad(self):
                    with self._lock:
                        with self._lock:
                            pass
            """,
        )
        diagnostics = lint_file(path)
        assert [d.code for d in diagnostics] == ["REP202"]
        assert "re-acquires" in diagnostics[0].message

    def test_rlock_reacquire_is_clean(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/session.py",
            """
            import threading

            class Re:
                def __init__(self):
                    self._lock = threading.RLock()

                def fine(self):
                    with self._lock:
                        with self._lock:
                            pass
            """,
        )
        assert codes_of(path) == []

    def test_cycle_through_call_edges(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/storage.py",
            """
            import threading

            _a = threading.Lock()
            _b = threading.Lock()

            def forward():
                with _a:
                    locked_b()

            def locked_b():
                with _b:
                    pass

            def backward():
                with _b:
                    with _a:
                        pass
            """,
        )
        diagnostics = lint_file(path)
        assert [d.code for d in diagnostics] == ["REP202"]

    def test_callee_reacquiring_held_lock(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/session.py",
            """
            import threading

            class Nested:
                def __init__(self):
                    self._lock = threading.Lock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
            """,
        )
        diagnostics = lint_file(path)
        assert [d.code for d in diagnostics] == ["REP202"]
        assert "may re-acquire" in diagnostics[0].message

    def test_cross_file_cycle_needs_lint_paths(self, tmp_path):
        write_module(
            tmp_path,
            "repro/service.py",
            """
            import threading

            from .storage import Back

            class Front:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._worker = Back(self)

                def forward(self):
                    with self._lock:
                        self._worker.locked()

                def poke(self):
                    with self._lock:
                        pass
            """,
        )
        write_module(
            tmp_path,
            "repro/storage.py",
            """
            import threading

            class Back:
                def __init__(self, front: "Front"):
                    self._b = threading.Lock()
                    self._front = front

                def locked(self):
                    with self._b:
                        pass

                def reverse(self):
                    with self._b:
                        self._front.poke()
            """,
        )
        result = lint_paths([tmp_path])
        assert [d.code for d in result.diagnostics] == ["REP202"]


# ----------------------------------------------------------------------
# REP203 — condition-variable discipline
# ----------------------------------------------------------------------
class TestConditionDiscipline:
    def test_wait_outside_a_loop(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/service.py",
            """
            import threading

            class Waiter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cv = threading.Condition(self._lock)

                def bad(self):
                    with self._cv:
                        self._cv.wait()
            """,
        )
        diagnostics = lint_file(path)
        assert [d.code for d in diagnostics] == ["REP203"]
        assert "while" in diagnostics[0].message

    def test_wait_in_while_under_lock_is_clean(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/service.py",
            """
            import threading

            class Waiter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cv = threading.Condition(self._lock)
                    self._ready = False  # repro: guarded-by(_lock)

                def good(self):
                    with self._cv:
                        while not self._ready:
                            self._cv.wait()
            """,
        )
        assert codes_of(path) == []

    def test_wait_for_carries_its_own_loop(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/service.py",
            """
            import threading

            class Waiter:
                def __init__(self):
                    self._cv = threading.Condition()

                def good(self):
                    with self._cv:
                        self._cv.wait_for(lambda: True)
            """,
        )
        assert codes_of(path) == []

    def test_notify_without_the_lock(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/service.py",
            """
            import threading

            class Waker:
                def __init__(self):
                    self._cv = threading.Condition()

                def bad(self):
                    self._cv.notify()
            """,
        )
        diagnostics = lint_file(path)
        assert [d.code for d in diagnostics] == ["REP203"]
        assert "notify" in diagnostics[0].message


# ----------------------------------------------------------------------
# REP204 — future-resolution totality
# ----------------------------------------------------------------------
class TestFutureTotality:
    def test_raise_past_a_pending_future(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/service.py",
            """
            from concurrent.futures import Future

            def admit(flag):
                future = Future()
                if flag:
                    raise ValueError("rejected")
                future.set_result(1)
                return future
            """,
        )
        diagnostics = lint_file(path)
        assert [d.code for d in diagnostics] == ["REP204"]
        assert diagnostics[0].line == 7
        assert "pending" in diagnostics[0].message

    def test_every_path_resolves_is_clean(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/service.py",
            """
            from concurrent.futures import Future

            def admit(flag):
                future = Future()
                if flag:
                    future.set_exception(ValueError("rejected"))
                else:
                    future.set_result(1)
                return future
            """,
        )
        assert codes_of(path) == []

    def test_hand_off_transfers_responsibility(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/service.py",
            """
            from concurrent.futures import Future

            def enqueue(queue):
                future = Future()
                queue.append(future)
                return future
            """,
        )
        assert codes_of(path) == []

    def test_fall_off_the_end_while_pending(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/service.py",
            """
            from concurrent.futures import Future

            def leak():
                future = Future()
                print("made one")
            """,
        )
        diagnostics = lint_file(path)
        assert [d.code for d in diagnostics] == ["REP204"]

    def test_double_resolve(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/service.py",
            """
            from concurrent.futures import Future

            def twice():
                future = Future()
                future.set_result(1)
                future.set_result(2)
                return future
            """,
        )
        diagnostics = lint_file(path)
        assert [d.code for d in diagnostics] == ["REP204"]
        assert "resolved" in diagnostics[0].message

    def test_ownership_flows_through_a_wrapper(self, tmp_path):
        # The service.py bug shape: the future is wrapped in a request
        # record, and the record is dropped by a rejection raise.
        path = write_module(
            tmp_path,
            "repro/service.py",
            """
            from concurrent.futures import Future

            class Request:
                def __init__(self, future):
                    self.future = future

            def admit(queue, full):
                future = Future()
                request = Request(future)
                if full:
                    raise RuntimeError("queue full")
                queue.append(request)
                return future
            """,
        )
        diagnostics = lint_file(path)
        assert [d.code for d in diagnostics] == ["REP204"]
        assert diagnostics[0].line == 12


# ----------------------------------------------------------------------
# Scope: project rules only look at the concurrent modules
# ----------------------------------------------------------------------
class TestProjectScope:
    VIOLATION = """
        import threading

        class Flag:
            def __init__(self):
                self._lock = threading.Lock()
                self._closed = False  # repro: guarded-by(_lock)

            def check(self):
                return self._closed
        """

    def test_non_service_module_is_out_of_scope(self, tmp_path):
        path = write_module(tmp_path, "repro/core/util.py", self.VIOLATION)
        assert codes_of(path) == []

    def test_test_files_are_out_of_scope(self, tmp_path):
        path = write_module(tmp_path, "tests/test_widget.py", self.VIOLATION)
        assert codes_of(path) == []

    def test_execution_variants_are_in_scope(self, tmp_path):
        path = write_module(tmp_path, "repro/execution_remote.py", self.VIOLATION)
        assert codes_of(path) == ["REP201"]


# ----------------------------------------------------------------------
# Model blind spots: modern syntax the extractor must see through
# ----------------------------------------------------------------------
class TestModelBlindSpots:
    def test_self_alias_is_tracked(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/session.py",
            """
            import threading

            class Aliased:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0  # repro: guarded-by(_lock)

                def sneaky(self):
                    s = self
                    s._n += 1
            """,
        )
        assert codes_of(path) == ["REP201"]

    def test_walrus_alias_is_tracked(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/session.py",
            """
            import threading

            class Aliased:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0  # repro: guarded-by(_lock)

                def walrus(self):
                    if (s := self) is not None:
                        s._n += 1
            """,
        )
        assert codes_of(path) == ["REP201"]

    def test_match_arms_are_walked(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/session.py",
            """
            import threading

            class Matcher:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0  # repro: guarded-by(_lock)

                def apply(self, command):
                    match command:
                        case "add":
                            self._n += 1
                        case _:
                            pass
            """,
        )
        assert codes_of(path) == ["REP201"]

    def test_async_with_holds_the_lock(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/session.py",
            """
            import threading

            class Awaited:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0  # repro: guarded-by(_lock)

                async def apply(self):
                    async with self._lock:
                        self._n += 1
            """,
        )
        assert codes_of(path) == []

    def test_nested_function_accesses_are_deferred(self, tmp_path):
        # A closure may run on another thread at an unknowable time;
        # REP201 neither trusts nor flags its accesses (documented
        # over-approximation cut), so this is clean.
        path = write_module(
            tmp_path,
            "repro/session.py",
            """
            import threading

            class Deferred:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0  # repro: guarded-by(_lock)

                def maker(self):
                    def worker():
                        self._n += 1
                    return worker
            """,
        )
        assert codes_of(path) == []

    def test_multi_line_declaration_still_declares(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/session.py",
            """
            import threading

            class Wide:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._table: dict[
                        str, int
                    ] = {}  # repro: guarded-by(_lock)

                def bad(self):
                    return self._table
            """,
        )
        assert codes_of(path) == ["REP201"]

    def test_nested_class_does_not_confuse_the_model(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/session.py",
            """
            import threading

            class Outer:
                class Inner:
                    pass

                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0  # repro: guarded-by(_lock)

                def bump(self):
                    with self._lock:
                        self._n += 1
            """,
        )
        assert codes_of(path) == []


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCommandLine:
    def test_rep2xx_diagnostics_carry_file_line_col(self, tmp_path, capsys):
        path = write_module(
            tmp_path,
            "repro/session.py",
            """
            import threading

            class Flag:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._closed = False  # repro: guarded-by(_lock)

                def check(self):
                    return self._closed
            """,
        )
        assert main([str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert f"{path}:10:16: REP201" in captured.out
        assert "1 diagnostic" in captured.err

    def test_list_rules_prints_the_full_ledger(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("REP000", "REP101", "REP201", "REP202", "REP203", "REP204"):
            assert code in out
        # Every real rule names the historical bug class it pins.
        assert "history:" in out
        assert "guarded-by" in out

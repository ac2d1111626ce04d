"""The REP2xx concurrency rules — flow checks over the project model.

Where the REP10x rules inspect one AST node at a time, these four check
properties of flows across functions, using the :class:`~repro.analysis.
model.ProjectModel` the linter builds over every in-scope file (the
concurrent packages: ``service``, ``service_net``, ``session``,
``execution*`` and the storage tier — see
:class:`~repro.analysis.rules.ProjectRule`):

``REP201`` **guarded-by discipline.**  An attribute is *guarded* when it is
    written under a class lock in any method, or declared so with
    ``# repro: guarded-by(_lock)``.  Every non-``__init__`` access to a
    guarded attribute must then hold the guard — directly, or by contract
    via ``# repro: requires(_lock)`` on the enclosing helper (in which case
    every call site of the helper is checked instead).  ``__init__`` is
    exempt up to its first thread hand-off (transitively: calling a method
    that spawns counts), because before a second thread exists there is
    nothing to race.  Module globals guarded by module-level locks are
    checked the same way.

``REP202`` **lock-order consistency.**  Nested acquisitions — lexically
    nested ``with`` regions, and acquisitions reachable through call edges
    while a lock is held — define a project-wide lock-order graph; any
    cycle is a deadlock hazard.  Re-acquiring a held non-reentrant lock
    (directly, through a ``Condition`` aliased onto it, or through a callee
    that may acquire it) is the one-node cycle and is reported at the
    faulty acquisition.  Trylocks (``acquire(blocking=False)``) cannot
    block and are excluded.

``REP203`` **condition-variable discipline.**  ``Condition.wait()`` only
    inside a ``while``-predicate loop with the condition's lock held
    (``wait_for`` carries its own predicate loop, so it only needs the
    lock); ``notify`` / ``notify_all`` only under the lock.

``REP204`` **future-resolution totality.**  A function that constructs a
    bare ``Future()`` owns its resolution: every path must end in exactly
    one ``set_result`` / ``set_exception``, or hand the future off (store
    it, pass it, return it) before the path ends.  A path that returns or
    raises while the future is still pending strands its waiters forever —
    the classic rejected-``submit`` leak.

All four fix-don't-suppress: the service-stack violations each of these
found when first enabled were repaired in the same change (see the ledger
in CONTRIBUTING.md), and the ``# repro-lint: disable=`` escape hatch is for
fixtures, not for shipping code.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path
from typing import Iterator

from .diagnostics import Diagnostic
from .model import (
    Access,
    ClassModel,
    FunctionModel,
    FutureCreation,
    ModuleModel,
    ProjectModel,
    _is_future_constructor,
)
from .rules import ProjectRule, register_rule

__all__ = ["Rep201GuardedBy", "Rep202LockOrder", "Rep203ConditionDiscipline",
           "Rep204FutureTotality"]

#: The ``Future`` calls that discharge the owner's resolution obligation.
#: Every other method on an owned value (``done``, ``cancel``, …) is
#: neutral: it neither resolves nor hands the future off.
_RESOLVING_FUTURE_METHODS = frozenset({"set_result", "set_exception"})


# ----------------------------------------------------------------------
# Shared resolution helpers
# ----------------------------------------------------------------------
class _Resolver:
    """Resolve call sites and qualify lock names project-wide.

    Lock identity is qualified per owner — ``DetectionService._lock`` and
    ``DetectionSession._busy`` are distinct graph nodes even if the field
    names collided; module locks qualify by module stem (a module-level
    ``_lock`` in ``service.py`` is ``service._lock``).
    """

    def __init__(self, model: ProjectModel) -> None:
        self.model = model
        self.modules_by_path: dict[str, ModuleModel] = {
            module.path: module for module in model.modules
        }

    def module_of(self, function: FunctionModel) -> ModuleModel | None:
        return self.modules_by_path.get(function.path)

    def resolve(self, function: FunctionModel, target: str,
                target_class: str | None) -> FunctionModel | None:
        if target_class is not None:
            class_model = self.model.classes.get(target_class)
            return class_model.methods.get(target) if class_model else None
        module = self.module_of(function)
        return module.functions.get(target) if module else None

    def qualify(self, function: FunctionModel, lock: str) -> str:
        if lock.startswith("self.") and function.owner is not None:
            return f"{function.owner}.{lock[len('self.'):]}"
        return f"{Path(function.path).stem}.{lock}"

    def lock_kind(self, function: FunctionModel, lock: str) -> str | None:
        """The lock's kind (``lock``/``rlock``/``condition``) if resolvable."""
        if lock.startswith("self.") and function.owner is not None:
            class_model = self.model.classes.get(function.owner)
            if class_model is not None:
                return class_model.locks.get(lock[len("self."):])
            return None
        module = self.module_of(function)
        return module.locks.get(lock) if module else None


def _effective_held(function: FunctionModel, access_held: frozenset[str]) -> frozenset[str]:
    """Locks held at an access: the tracked set plus the requires contract."""
    return access_held | function.requires


def _may_spawn(model: ProjectModel, resolver: _Resolver) -> set[int]:
    """ids of functions that (transitively) hand work to another thread."""
    functions = list(model.iter_functions())
    spawning = {id(f) for f in functions if f.thread_spawns}
    changed = True
    while changed:
        changed = False
        for function in functions:
            if id(function) in spawning:
                continue
            for call in function.calls:
                callee = resolver.resolve(function, call.target, call.target_class)
                if callee is not None and id(callee) in spawning:
                    spawning.add(id(function))
                    changed = True
                    break
    return spawning


# ----------------------------------------------------------------------
# REP201 — guarded-by discipline
# ----------------------------------------------------------------------
@register_rule
class Rep201GuardedBy(ProjectRule):
    """Guarded attributes are accessed with their lock held, everywhere."""

    code = "REP201"
    name = "guarded-by"
    summary = (
        "attributes written under a lock (or declared `# repro: "
        "guarded-by(...)`) must hold that lock at every access"
    )
    history = (
        "first enablement found DetectionService reading/writing _closed "
        "and _waves outside its dispatcher lock (closed property, close(), "
        "__repr__) and DetectionSession.close() tearing down the pool under "
        "a live detect call"
    )

    def check_project(self, model: ProjectModel) -> Iterator[Diagnostic]:
        resolver = _Resolver(model)
        spawning = _may_spawn(model, resolver)
        for module in model.modules:
            yield from self._check_module_globals(module)
            for class_model in module.classes.values():
                yield from self._check_class(
                    module, class_model, resolver, spawning
                )
        yield from self._check_requires_contracts(model, resolver)

    # -- class attributes ----------------------------------------------
    def _check_class(
        self,
        module: ModuleModel,
        class_model: ClassModel,
        resolver: _Resolver,
        spawning: set[int],
    ) -> Iterator[Diagnostic]:
        if not class_model.locks:
            return
        lock_fields = set(class_model.locks) | set(class_model.aliases)
        class_locks = {
            "self." + class_model.canonical(name) for name in class_model.locks
        }

        guards: dict[str, str] = {}
        # Declared guards first: they win over inference and may name a
        # module lock.
        for attr, (lock_name, line) in class_model.declared_guards.items():
            if lock_name in class_model.locks or lock_name in class_model.aliases:
                guards[attr] = "self." + class_model.canonical(lock_name)
            elif lock_name in module.locks:
                guards[attr] = module.canonical(lock_name)
            else:
                yield Diagnostic(
                    path=class_model.path,
                    line=line,
                    column=1,
                    code=self.code,
                    message=(
                        f"`# repro: guarded-by({lock_name})` on "
                        f"{class_model.name}.{attr} names no lock field of "
                        f"{class_model.name} or its module"
                    ),
                )
        # Inference: an attribute written with a class lock held in any
        # non-__init__ method is guarded by the lock that usually guards it.
        votes: dict[str, Counter[str]] = {}
        for method in class_model.methods.values():
            if method.name == "__init__":
                continue
            for access in method.accesses:
                if access.deferred or access.kind != "write":
                    continue
                attr = self._class_attr(access, lock_fields)
                if attr is None or attr in guards:
                    continue
                held = _effective_held(method, access.held) & class_locks
                for lock in held:
                    votes.setdefault(attr, Counter())[lock] += 1
        for attr, counter in votes.items():
            best = max(counter.items(), key=lambda item: (item[1], item[0]))
            guards[attr] = best[0]

        if not guards:
            return
        for method in class_model.methods.values():
            init_cut = (
                self._first_spawn_line(method, resolver, spawning)
                if method.name == "__init__"
                else 0
            )
            for access in method.accesses:
                if access.deferred:
                    continue
                attr = self._class_attr(access, lock_fields)
                if attr is None or attr not in guards:
                    continue
                if method.name == "__init__" and access.line < init_cut:
                    continue
                guard = guards[attr]
                if guard in _effective_held(method, access.held):
                    continue
                display = guard[len("self."):] if guard.startswith("self.") else guard
                yield Diagnostic(
                    path=class_model.path,
                    line=access.line,
                    column=access.column,
                    code=self.code,
                    message=(
                        f"{class_model.name}.{attr} is guarded by `{display}` "
                        f"but this {access.kind} in {method.name}() does not "
                        f"hold it (wrap in `with self.{display}:` or annotate "
                        f"the helper `# repro: requires({display})`)"
                    ),
                )

    @staticmethod
    def _class_attr(access: Access, lock_fields: set[str]) -> str | None:
        if not access.name.startswith("self."):
            return None
        attr = access.name[len("self."):]
        return None if attr in lock_fields else attr

    @staticmethod
    def _first_spawn_line(
        method: FunctionModel, resolver: _Resolver, spawning: set[int]
    ) -> int:
        """First line of ``__init__`` after which a second thread may exist."""
        lines = [spawn.line for spawn in method.thread_spawns]
        for call in method.calls:
            callee = resolver.resolve(method, call.target, call.target_class)
            if callee is not None and id(callee) in spawning:
                lines.append(call.line)
        return min(lines) if lines else (1 << 30)

    # -- module globals --------------------------------------------------
    def _check_module_globals(self, module: ModuleModel) -> Iterator[Diagnostic]:
        if not module.locks:
            return
        module_locks = {module.canonical(name) for name in module.locks}
        functions = list(module.functions.values())
        for class_model in module.classes.values():
            functions.extend(class_model.methods.values())

        guards: dict[str, str] = {}
        for name, (lock_name, line) in module.declared_guards.items():
            if lock_name in module.locks:
                guards[name] = module.canonical(lock_name)
            else:
                yield Diagnostic(
                    path=module.path,
                    line=line,
                    column=1,
                    code=self.code,
                    message=(
                        f"`# repro: guarded-by({lock_name})` on module global "
                        f"`{name}` names no module-level lock"
                    ),
                )
        votes: dict[str, Counter[str]] = {}
        for function in functions:
            for access in function.accesses:
                if (
                    access.deferred
                    or access.kind != "write"
                    or access.name.startswith("self.")
                    or access.name in guards
                ):
                    continue
                held = _effective_held(function, access.held) & module_locks
                for lock in held:
                    votes.setdefault(access.name, Counter())[lock] += 1
        for name, counter in votes.items():
            best = max(counter.items(), key=lambda item: (item[1], item[0]))
            guards[name] = best[0]

        if not guards:
            return
        for function in functions:
            for access in function.accesses:
                if access.deferred or access.name.startswith("self."):
                    continue
                guard = guards.get(access.name)
                if guard is None:
                    continue
                if guard in _effective_held(function, access.held):
                    continue
                yield Diagnostic(
                    path=module.path,
                    line=access.line,
                    column=access.column,
                    code=self.code,
                    message=(
                        f"module global `{access.name}` is guarded by "
                        f"`{guard}` but this {access.kind} in "
                        f"{function.qualname}() does not hold it"
                    ),
                )

    # -- requires contracts ----------------------------------------------
    def _check_requires_contracts(
        self, model: ProjectModel, resolver: _Resolver
    ) -> Iterator[Diagnostic]:
        for function in model.iter_functions():
            yield from self._check_requires_names(function, resolver)
            for call in function.calls:
                callee = resolver.resolve(function, call.target, call.target_class)
                if callee is None or not callee.requires:
                    continue
                if callee.owner is not None and callee.owner != function.owner:
                    locks = ", ".join(sorted(callee.requires))
                    yield Diagnostic(
                        path=function.path,
                        line=call.line,
                        column=call.column,
                        code=self.code,
                        message=(
                            f"{function.qualname}() calls {callee.qualname}() "
                            f"which requires `{locks}` held — another class "
                            f"cannot guarantee that lock; call a public "
                            f"method that takes it instead"
                        ),
                    )
                    continue
                missing = callee.requires - _effective_held(function, call.held)
                for lock in sorted(missing):
                    display = (
                        lock[len("self."):] if lock.startswith("self.") else lock
                    )
                    yield Diagnostic(
                        path=function.path,
                        line=call.line,
                        column=call.column,
                        code=self.code,
                        message=(
                            f"{function.qualname}() calls {callee.qualname}() "
                            f"which requires `{display}` held, but does not "
                            f"hold it here"
                        ),
                    )

    def _check_requires_names(
        self, function: FunctionModel, resolver: _Resolver
    ) -> Iterator[Diagnostic]:
        module = resolver.module_of(function)
        for lock in sorted(function.requires):
            if lock.startswith("self."):
                continue  # resolved against the class during extraction
            if module is not None and lock in module.locks:
                continue
            yield Diagnostic(
                path=function.path,
                line=function.node.lineno,
                column=function.node.col_offset + 1,
                code=self.code,
                message=(
                    f"`# repro: requires({lock})` on {function.qualname}() "
                    f"names no lock field of its class or module"
                ),
            )


# ----------------------------------------------------------------------
# REP202 — lock-order consistency
# ----------------------------------------------------------------------
@register_rule
class Rep202LockOrder(ProjectRule):
    """The project-wide lock-acquisition graph must be cycle-free."""

    code = "REP202"
    name = "lock-order"
    summary = (
        "nested lock acquisitions (direct or through call edges) must form "
        "a consistent, cycle-free order"
    )
    history = (
        "designed against the dispatcher-shutdown shape: service lock held "
        "while joining a thread that blocks on the session lock; the "
        "Condition(self._lock) alias means re-acquiring `_lock` under "
        "`_wake` is the one-node cycle"
    )

    def check_project(self, model: ProjectModel) -> Iterator[Diagnostic]:
        resolver = _Resolver(model)
        may_acquire = self._may_acquire(model, resolver)
        edges: dict[tuple[str, str], tuple[str, int, int]] = {}

        def add_edge(held: str, acquired: str, where: tuple[str, int, int]) -> None:
            key = (held, acquired)
            if key not in edges or where < edges[key]:
                edges[key] = where

        for function in model.iter_functions():
            requires = {
                resolver.qualify(function, lock) for lock in function.requires
            }
            for acquisition in function.acquisitions:
                if not acquisition.blocking:
                    continue
                acquired = resolver.qualify(function, acquisition.lock)
                held_before = {
                    resolver.qualify(function, lock)
                    for lock in acquisition.held_before
                } | requires
                where = (function.path, acquisition.line, acquisition.column)
                if acquired in held_before:
                    if resolver.lock_kind(function, acquisition.lock) != "rlock":
                        yield Diagnostic(
                            path=function.path,
                            line=acquisition.line,
                            column=acquisition.column,
                            code=self.code,
                            message=(
                                f"{function.qualname}() re-acquires "
                                f"`{acquired}` while already holding it — "
                                f"self-deadlock on a non-reentrant lock"
                            ),
                        )
                    continue
                for held in held_before:
                    add_edge(held, acquired, where)
            for call in function.calls:
                callee = resolver.resolve(function, call.target, call.target_class)
                if callee is None:
                    continue
                held_here = {
                    resolver.qualify(function, lock)
                    for lock in _effective_held(function, call.held)
                }
                if not held_here:
                    continue
                callee_requires = {
                    resolver.qualify(callee, lock) for lock in callee.requires
                }
                where = (function.path, call.line, call.column)
                for acquired in may_acquire[id(callee)]:
                    if acquired in callee_requires:
                        continue
                    if acquired in held_here:
                        yield Diagnostic(
                            path=function.path,
                            line=call.line,
                            column=call.column,
                            code=self.code,
                            message=(
                                f"{function.qualname}() holds `{acquired}` "
                                f"while calling {callee.qualname}(), which "
                                f"may re-acquire it — self-deadlock on a "
                                f"non-reentrant lock"
                            ),
                        )
                        continue
                    for held in held_here:
                        add_edge(held, acquired, where)

        yield from self._report_cycles(edges)

    def _may_acquire(
        self, model: ProjectModel, resolver: _Resolver
    ) -> dict[int, frozenset[str]]:
        """Transitive blocking-acquisition sets, fixpoint over call edges."""
        functions = list(model.iter_functions())
        acquired: dict[int, set[str]] = {
            id(f): {
                resolver.qualify(f, acquisition.lock)
                for acquisition in f.acquisitions
                if acquisition.blocking
            }
            for f in functions
        }
        changed = True
        while changed:
            changed = False
            for function in functions:
                own = acquired[id(function)]
                for call in function.calls:
                    callee = resolver.resolve(
                        function, call.target, call.target_class
                    )
                    if callee is None:
                        continue
                    extra = acquired[id(callee)] - own
                    if extra:
                        own.update(extra)
                        changed = True
        return {key: frozenset(value) for key, value in acquired.items()}

    def _report_cycles(
        self, edges: dict[tuple[str, str], tuple[str, int, int]]
    ) -> Iterator[Diagnostic]:
        graph: dict[str, set[str]] = {}
        for held, acquired in edges:
            graph.setdefault(held, set()).add(acquired)
            graph.setdefault(acquired, set())
        for component in _strongly_connected(graph):
            if len(component) < 2:
                continue
            members = sorted(component)
            cycle_edges = sorted(
                (edges[(a, b)], (a, b))
                for a in members
                for b in graph[a]
                if b in component and (a, b) in edges
            )
            where, (held, acquired) = cycle_edges[0]
            order = " -> ".join(members + [members[0]])
            yield Diagnostic(
                path=where[0],
                line=where[1],
                column=where[2],
                code=self.code,
                message=(
                    f"lock-order cycle {order}: acquiring `{acquired}` while "
                    f"holding `{held}` closes the cycle — a deadlock hazard; "
                    f"acquire these locks in one global order"
                ),
            )


def _strongly_connected(graph: dict[str, set[str]]) -> list[set[str]]:
    """Tarjan's SCC, iterative, deterministic over sorted nodes."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[set[str]] = []
    counter = 0

    for root in sorted(graph):
        if root in index:
            continue
        work: list[tuple[str, Iterator[str]]] = [(root, iter(sorted(graph[root])))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for successor in successors:
                if successor not in index:
                    index[successor] = low[successor] = counter
                    counter += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(sorted(graph[successor]))))
                    advanced = True
                    break
                if successor in on_stack:
                    low[node] = min(low[node], index[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component: set[str] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
    return components


# ----------------------------------------------------------------------
# REP203 — condition-variable discipline
# ----------------------------------------------------------------------
@register_rule
class Rep203ConditionDiscipline(ProjectRule):
    """``wait`` in a while-loop under the lock; ``notify`` under the lock."""

    code = "REP203"
    name = "condition-discipline"
    summary = (
        "Condition.wait() only inside a while-predicate loop with the lock "
        "held; notify/notify_all only under the lock"
    )
    history = (
        "an if-guarded wait() misses wakeups raced between predicate check "
        "and sleep and swallows spurious wakeups; a notify outside the lock "
        "can fire between a waiter's predicate check and its wait — both "
        "hang the dispatcher forever"
    )

    def check_project(self, model: ProjectModel) -> Iterator[Diagnostic]:
        for function in model.iter_functions():
            for op in function.condition_ops:
                held = _effective_held(function, op.held)
                if op.lock not in held:
                    yield Diagnostic(
                        path=function.path,
                        line=op.line,
                        column=op.column,
                        code=self.code,
                        message=(
                            f"{op.condition}.{op.op}() in {function.qualname}() "
                            f"without holding the condition's lock "
                            f"`{op.lock}` (RuntimeError at run time, lost "
                            f"wakeups before that)"
                        ),
                    )
                    continue
                if op.op == "wait" and not op.in_loop:
                    yield Diagnostic(
                        path=function.path,
                        line=op.line,
                        column=op.column,
                        code=self.code,
                        message=(
                            f"{op.condition}.wait() in {function.qualname}() "
                            f"outside a while-predicate loop — spurious "
                            f"wakeups and stolen wakeups break an if-guard; "
                            f"use `while not predicate: {op.condition}.wait()`"
                        ),
                    )


# ----------------------------------------------------------------------
# REP204 — future-resolution totality
# ----------------------------------------------------------------------
@register_rule
class Rep204FutureTotality(ProjectRule):
    """A pending ``Future`` is resolved or handed off on every path."""

    code = "REP204"
    name = "future-totality"
    summary = (
        "every path through a function owning a pending Future ends in one "
        "set_result/set_exception or an explicit hand-off"
    )
    history = (
        "first enablement caught DetectionService.submit() constructing the "
        "reply Future before its admission checks: every rejected submit "
        "dropped a pending Future a caller could still be holding"
    )

    def check_project(self, model: ProjectModel) -> Iterator[Diagnostic]:
        for function in model.iter_functions():
            names = {creation.name for creation in function.future_creations}
            for name in sorted(names):
                creation = next(
                    c for c in function.future_creations if c.name == name
                )
                yield from _FuturePathWalker(
                    self.code, function, name, creation
                ).run()


class _FuturePathWalker:
    """Abstract interpreter for one future variable through one function.

    Tracks the set of possible states — ``unborn`` (before the creation
    statement), ``pending``, ``resolved``, ``escaped`` — along every path,
    merging at joins.  Terminating a path (return / raise / function end)
    while ``pending`` is possible is the violation; resolving when already
    definitely resolved is the double-resolution variant.

    Ownership is taint-tracked through locals: wrapping the future
    (``request = _Admitted(future=future)``) moves ownership onto the
    wrapper rather than handing it off, so a later ``raise`` still strands
    the pending future — the exact shape of the rejected-submit leak.  Only
    leaving the function counts as a hand-off: a tainted value passed to a
    *method* call (``self._queue.append(request)``), stored into an
    attribute / subscript, returned, yielded, awaited, or captured by a
    nested function.  Resolution and the read-only ``Future`` API are
    recognized through attribute chains (``request.future.set_exception``).
    """

    def __init__(
        self,
        code: str,
        function: FunctionModel,
        name: str,
        creation: FutureCreation,
    ) -> None:
        self.code = code
        self.function = function
        self.name = name
        self.creation = creation
        self.tainted: set[str] = {name}
        self.diagnostics: dict[tuple[int, int, str], Diagnostic] = {}

    def run(self) -> Iterator[Diagnostic]:
        final = self._walk(self.function.node.body, {"unborn"})
        if "pending" in final:
            self._report(
                self.creation.line,
                self.creation.column,
                f"Future `{self.name}` is not resolved or handed off on "
                f"every path through {self.function.qualname}() — a waiter "
                f"would block forever",
            )
        yield from sorted(self.diagnostics.values())

    def _report(self, line: int, column: int, message: str) -> None:
        key = (line, column, message)
        self.diagnostics.setdefault(
            key,
            Diagnostic(
                path=self.function.path,
                line=line,
                column=column,
                code=self.code,
                message=message,
            ),
        )

    # -- statement walking ----------------------------------------------
    def _walk(self, statements: list[ast.stmt], states: set[str]) -> set[str]:
        states = set(states)
        for statement in statements:
            if not states:
                break  # unreachable after a terminating statement
            states = self._statement(statement, states)
        return states

    def _statement(self, stmt: ast.stmt, states: set[str]) -> set[str]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # A closure capturing the future may resolve it later: hand-off.
            if any(
                isinstance(node, ast.Name) and node.id in self.tainted
                for node in ast.walk(stmt)
            ):
                return self._escape(states)
            return states
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                states = self._expression(stmt.value, states)
                if self._uses_tainted(stmt.value):
                    states = self._escape(states)  # returning IS the hand-off
            return self._terminate(stmt, states)
        if isinstance(stmt, ast.Raise):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    states = self._expression(child, states)
            return self._terminate(stmt, states)
        if isinstance(stmt, ast.If):
            states = self._expression(stmt.test, states)
            then = self._walk(stmt.body, states)
            other = self._walk(stmt.orelse, states)
            return then | other
        if isinstance(stmt, (ast.While,)):
            states = self._expression(stmt.test, states)
            body = self._walk(stmt.body, states)
            other = self._walk(stmt.orelse, states | body)
            return states | body | other
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            states = self._expression(stmt.iter, states)
            body = self._walk(stmt.body, states)
            other = self._walk(stmt.orelse, states | body)
            return states | body | other
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                states = self._expression(item.context_expr, states)
            return self._walk(stmt.body, states)
        if isinstance(stmt, ast.Try):
            body = self._walk(stmt.body, states)
            raised = states | body  # an exception may hit at any point
            handler_exits: set[str] = set()
            for handler in stmt.handlers:
                handler_exits |= self._walk(handler.body, raised)
            orelse = self._walk(stmt.orelse, body)
            merged = orelse | handler_exits
            if stmt.finalbody:
                merged = self._walk(stmt.finalbody, merged or states)
            return merged
        if isinstance(stmt, ast.Match):
            states = self._expression(stmt.subject, states)
            exits: set[str] = set()
            for case in stmt.cases:
                exits |= self._walk(case.body, states)
            if not self._match_is_exhaustive(stmt):
                exits |= states  # no case may match: straight fall-through
            return exits
        if isinstance(stmt, ast.Assign):
            states = self._expression(stmt.value, states, is_assign_value=True)
            value_tainted = self._uses_tainted(stmt.value)
            for target in stmt.targets:
                states = self._assign_target(stmt, target, value_tainted, states)
            return states
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            states = self._expression(stmt.value, states, is_assign_value=True)
            return self._assign_target(
                stmt, stmt.target, self._uses_tainted(stmt.value), states
            )
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                states = self._expression(child, states)
        return states

    def _assign_target(
        self, stmt: ast.stmt, target: ast.expr, value_tainted: bool, states: set[str]
    ) -> set[str]:
        value = getattr(stmt, "value", None)
        if isinstance(target, ast.Name):
            if target.id == self.name:
                if value is not None and _is_future_constructor(value):
                    if states == {"pending"}:
                        self._report(
                            stmt.lineno,
                            stmt.col_offset + 1,
                            f"Future `{self.name}` is rebound while still "
                            f"pending — the previous future is dropped "
                            f"unresolved",
                        )
                    return {"pending"}
                # Rebound to something else: stop tracking the old binding
                # (conservatively treated as handed off, not as a leak).
                return self._escape(states)
            if value_tainted:
                # Ownership flows into the wrapper local (`request = ...`);
                # the future is still this function's to resolve.
                self.tainted.add(target.id)
            else:
                self.tainted.discard(target.id)
            return states
        if value_tainted and isinstance(target, (ast.Attribute, ast.Subscript)):
            # Stored somewhere that outlives the call: an explicit hand-off.
            return self._escape(states)
        return states

    @staticmethod
    def _match_is_exhaustive(stmt: ast.Match) -> bool:
        """Whether a final un-guarded ``case _:`` catches every subject."""
        if not stmt.cases:
            return False
        last = stmt.cases[-1]
        return (
            last.guard is None
            and isinstance(last.pattern, ast.MatchAs)
            and last.pattern.pattern is None
        )

    def _terminate(self, stmt: ast.stmt, states: set[str]) -> set[str]:
        if "pending" in states:
            verb = "returns" if isinstance(stmt, ast.Return) else "raises"
            self._report(
                stmt.lineno,
                stmt.col_offset + 1,
                f"{self.function.qualname}() {verb} while Future "
                f"`{self.name}` may still be pending — resolve it or hand "
                f"it off first",
            )
        return set()

    # -- expression effects ----------------------------------------------
    def _tainted_root(self, expr: ast.expr) -> ast.Name | None:
        """The tainted root ``Name`` of an attribute chain, if any."""
        while isinstance(expr, ast.Attribute):
            expr = expr.value
        if isinstance(expr, ast.Name) and expr.id in self.tainted:
            return expr
        return None

    def _uses_tainted(self, expr: ast.expr) -> bool:
        return any(
            isinstance(node, ast.Name)
            and node.id in self.tainted
            and isinstance(node.ctx, ast.Load)
            for node in ast.walk(expr)
        )

    def _expression(
        self, expr: ast.expr, states: set[str], *, is_assign_value: bool = False
    ) -> set[str]:
        consumed: set[int] = set()  # Name node ids already accounted for
        resolutions: list[ast.Call] = []
        escapes = False
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute):
                    root = self._tainted_root(func.value)
                    if root is not None:
                        # A method on the owned value itself: the future's
                        # own API (resolving or read-only) stays in-owner.
                        if func.attr in _RESOLVING_FUTURE_METHODS:
                            resolutions.append(node)
                        consumed.add(id(root))
                        continue
                    # Method call on some *other* object: tainted arguments
                    # leave the function (`self._queue.append(request)`).
                    for argument in [*node.args, *(k.value for k in node.keywords)]:
                        for sub in ast.walk(argument):
                            if (
                                isinstance(sub, ast.Name)
                                and sub.id in self.tainted
                                and isinstance(sub.ctx, ast.Load)
                            ):
                                escapes = True
                                consumed.add(id(sub))
                elif isinstance(func, ast.Name) and not is_assign_value:
                    # Constructor/function call whose result is *discarded*:
                    # the callee is the only remaining owner — a hand-off.
                    # (On an assignment RHS the wrapper result is captured
                    # and _assign_target taints the target instead.)
                    for argument in [*node.args, *(k.value for k in node.keywords)]:
                        for sub in ast.walk(argument):
                            if (
                                isinstance(sub, ast.Name)
                                and sub.id in self.tainted
                                and isinstance(sub.ctx, ast.Load)
                            ):
                                escapes = True
                                consumed.add(id(sub))
            elif isinstance(node, (ast.Await, ast.Yield, ast.YieldFrom)):
                inner = node.value
                if inner is not None and self._uses_tainted(inner):
                    escapes = True  # handed to the awaiting/consuming side
            elif isinstance(node, ast.Lambda):
                if self._uses_tainted(node.body):
                    escapes = True  # captured by a closure
        for call in resolutions:
            if states == {"resolved"}:
                self._report(
                    call.lineno,
                    call.col_offset + 1,
                    f"Future `{self.name}` is resolved a second time — "
                    f"set_result/set_exception on a done future raises "
                    f"InvalidStateError",
                )
            states = {"resolved" if s == "pending" else s for s in states}
        if escapes:
            states = self._escape(states)
        return states

    @staticmethod
    def _escape(states: set[str]) -> set[str]:
        return {"escaped" if s == "pending" else s for s in states}

"""The repo-specific lint rules and their registry.

Each rule is an :class:`ast.NodeVisitor`-style check with a stable code, a
one-line summary, and a rationale naming the historical bug class it guards
against (the long-form ledger lives in ``CONTRIBUTING.md``).  Rules are
registered with :func:`register_rule` and discovered through
:func:`all_rules`; a rule applies to a file when the file's path matches the
rule's ``packages`` scope (``None`` = everywhere) and, for rules with
``include_tests = False``, the file is not a test module.

The shipped rules:

========  ===========================================================
``REP101``  RNG discipline — no ``random`` module, no legacy
            ``np.random.*`` global-state API; randomness flows through
            :class:`numpy.random.Generator` objects.
``REP102``  Exact round accounting — no float ``log2`` in congest /
            k-machine / random-walk round and step counts; use
            :func:`repro.utils.ceil_log2`.
``REP103``  Shared-memory hygiene — every ``SharedMemory(create=True)``
            needs a ``weakref.finalize`` registration in the same class.
``REP104``  Registry discipline — backend ``*_impl`` functions are only
            imported by the engine internals and tests; everything else
            goes through :func:`repro.api.detect`.
``REP105``  Kernel dtype discipline — ``np.zeros/empty/ones/full`` in the
            kernel packages must pass an explicit ``dtype=``.
``REP106``  Picklable worker tasks — callables handed to a pool
            ``.submit()`` must be module-level (no lambdas, no closures).
``REP107``  Storage-layer confinement — ``SharedMemory`` and
            ``np.memmap`` construction lives in ``graphs/storage.py``
            only; everything else goes through the storage backends.
``REP108``  Non-blocking event loop — no ``time.sleep``, bare
            ``.result()`` or synchronous socket/file I/O inside
            ``async def`` bodies in the service package.
========  ===========================================================
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from .diagnostics import Diagnostic

if TYPE_CHECKING:
    from .model import ProjectModel

__all__ = [
    "FileContext",
    "ProjectRule",
    "Rule",
    "all_rules",
    "get_rule",
    "register_rule",
]


@dataclass(frozen=True)
class FileContext:
    """Everything a rule may inspect about one source file.

    Attributes
    ----------
    path:
        The path as it should appear in diagnostics.
    parts:
        The path split into components (used for package scoping).
    tree:
        The parsed module.
    source:
        The raw source text.
    is_test:
        Whether the file is a test module (under a ``tests`` directory, or
        named ``test_*.py`` / ``conftest.py``).
    """

    path: str
    parts: tuple[str, ...]
    tree: ast.Module
    source: str
    is_test: bool


class Rule:
    """Base class of one lint rule.

    Subclasses set the class attributes and implement :meth:`check`, which
    yields :class:`~repro.analysis.diagnostics.Diagnostic` records.  The
    :meth:`report` helper anchors a diagnostic to an AST node with the
    rule's own code.
    """

    #: Stable diagnostic code, e.g. ``"REP101"``.
    code: str = ""
    #: Short kebab-case name, shown by ``repro lint --list-rules``.
    name: str = ""
    #: One-line summary of the enforced invariant.
    summary: str = ""
    #: The historical bug class that motivated the rule — one sentence,
    #: printed by ``repro lint --list-rules`` as the rule's ledger entry.
    history: str = ""
    #: Directory names scoping the rule (``None`` = every file).  A file is
    #: in scope when any of its parent directories matches an entry.
    packages: tuple[str, ...] | None = None
    #: Whether the rule also applies to test modules.
    include_tests: bool = True

    def applies_to(self, context: FileContext) -> bool:
        """Return whether this rule should run on ``context``'s file."""
        if context.is_test and not self.include_tests:
            return False
        if self.packages is None:
            return True
        directories = context.parts[:-1]
        return any(package in directories for package in self.packages)

    def check(self, context: FileContext) -> Iterator[Diagnostic]:
        """Yield the diagnostics of this rule for one file."""
        raise NotImplementedError

    def report(self, context: FileContext, node: ast.AST, message: str) -> Diagnostic:
        """Build a diagnostic for ``node`` with this rule's code."""
        return Diagnostic(
            path=context.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
        )


class ProjectRule(Rule):
    """Base class of the whole-project (REP2xx) concurrency rules.

    Unlike :class:`Rule`, a project rule does not look at one file at a
    time: the linter first builds a :class:`~repro.analysis.model.
    ProjectModel` over every in-scope file of the run, then calls
    :meth:`check_project` once.  Diagnostics may therefore point at any
    file of the model (a lock-order cycle names edges in two classes), and
    the linter routes each one through *its own file's* suppression
    directives.

    Scope: the concurrent packages only — ``service.py``,
    ``service_net.py``, ``session.py``, ``execution*.py`` and the storage
    tier ``storage.py`` — and never test modules.  The per-file
    :meth:`Rule.check` is intentionally a no-op.
    """

    include_tests = False

    #: Module basenames (regex) the concurrency tier models and checks.
    scope_pattern = re.compile(r"^(service|service_net|session|execution\w*|storage)\.py$")

    def applies_to(self, context: FileContext) -> bool:
        if context.is_test:
            return False
        return bool(self.scope_pattern.match(context.parts[-1]))

    def check(self, context: FileContext) -> Iterator[Diagnostic]:
        return iter(())

    def check_project(self, model: "ProjectModel") -> Iterator[Diagnostic]:
        """Yield the diagnostics of this rule over the whole project model."""
        raise NotImplementedError


_registry: dict[str, Rule] = {}


def register_rule(rule_class: type[Rule]) -> type[Rule]:
    """Class decorator registering a rule under its ``code``.

    Codes are unique; re-registering one raises ``ValueError`` (tests that
    need a scratch registry instantiate rules directly instead).
    """
    if not rule_class.code:
        raise ValueError(f"rule {rule_class.__name__} has no code")
    if rule_class.code in _registry:
        raise ValueError(f"duplicate rule code {rule_class.code!r}")
    _registry[rule_class.code] = rule_class()
    return rule_class


def all_rules() -> tuple[Rule, ...]:
    """Return every registered rule, sorted by code."""
    return tuple(_registry[code] for code in sorted(_registry))


def get_rule(code: str) -> Rule:
    """Return the registered rule with ``code`` (raises ``KeyError``)."""
    return _registry[code.upper()]


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
_NUMPY_ALIASES = ("np", "numpy")


def _numpy_attribute(node: ast.AST, attribute: str) -> bool:
    """Return whether ``node`` is ``np.<attribute>`` / ``numpy.<attribute>``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attribute
        and isinstance(node.value, ast.Name)
        and node.value.id in _NUMPY_ALIASES
    )


def _walk_with_class(
    tree: ast.Module,
) -> Iterator[tuple[ast.AST, ast.ClassDef | None]]:
    """Yield ``(node, enclosing_class)`` pairs for every node in ``tree``."""

    def visit(node: ast.AST, enclosing: ast.ClassDef | None) -> Iterator[
        tuple[ast.AST, ast.ClassDef | None]
    ]:
        for child in ast.iter_child_nodes(node):
            yield child, enclosing
            yield from visit(
                child, child if isinstance(child, ast.ClassDef) else enclosing
            )

    yield from visit(tree, None)


# ----------------------------------------------------------------------
# REP101 — RNG discipline
# ----------------------------------------------------------------------
#: The modern Generator-based surface of ``numpy.random``; everything else
#: on the module (``seed``, ``rand``, ``randint`` …) is hidden global state.
_GENERATOR_API = frozenset(
    {
        "Generator",
        "default_rng",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)


@register_rule
class RngDisciplineRule(Rule):
    """All randomness flows through a passed :class:`numpy.random.Generator`.

    The stdlib ``random`` module and the legacy ``np.random.*`` global-state
    API (``np.random.seed`` / ``rand`` / ``randint`` …) draw from hidden
    process-wide state, which breaks the engine's bit-identical-replay
    guarantee the moment two executors (threads, worker processes, resident
    sessions) interleave draws.  Only the Generator construction surface
    (``default_rng``, ``Generator``, ``SeedSequence``, the bit generators)
    is allowed; call sites receive a generator, they never reach for global
    state.
    """

    code = "REP101"
    name = "rng-discipline"
    summary = (
        "no `random` module and no legacy `np.random.*` global-state API; "
        "pass a numpy.random.Generator"
    )
    history = (
        "global RNG state made runs irreproducible the moment two "
        "executors interleaved draws; the PR 4 facade made every draw "
        "flow through an explicit Generator"
    )

    def check(self, context: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.report(
                            context,
                            node,
                            "the stdlib `random` module draws from hidden global "
                            "state; use a passed numpy.random.Generator",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module == "random":
                    yield self.report(
                        context,
                        node,
                        "the stdlib `random` module draws from hidden global "
                        "state; use a passed numpy.random.Generator",
                    )
                elif node.level == 0 and node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name not in _GENERATOR_API:
                            yield self.report(
                                context,
                                node,
                                f"legacy numpy.random.{alias.name} uses global "
                                "state; use a passed numpy.random.Generator",
                            )
            elif isinstance(node, ast.Attribute):
                value = node.value
                if (
                    isinstance(value, ast.Attribute)
                    and value.attr == "random"
                    and isinstance(value.value, ast.Name)
                    and value.value.id in _NUMPY_ALIASES
                    and node.attr not in _GENERATOR_API
                ):
                    yield self.report(
                        context,
                        node,
                        f"legacy np.random.{node.attr} uses global state; use a "
                        "passed numpy.random.Generator",
                    )


# ----------------------------------------------------------------------
# REP102 — exact round accounting
# ----------------------------------------------------------------------
@register_rule
class ExactLog2Rule(Rule):
    """Round/step counts use exact integer ``ceil_log2``, never float ``log2``.

    ``ceil(log2(float(n)))`` misrounds near powers of two once ``n`` is
    large (the float ``log2`` of ``2**k + 1`` can round down to exactly
    ``k``), silently undercharging a round.  The PR 3 cost-accounting sweep
    replaced every binary-search round charge with the bit-length based
    :func:`repro.utils.ceil_log2`; this rule keeps float ``log2`` out of the
    congest / k-machine / random-walk count code for good.
    """

    code = "REP102"
    name = "exact-log2"
    summary = (
        "no float `log2` in congest/kmachine/randomwalk round accounting; "
        "use repro.utils.ceil_log2"
    )
    history = (
        "ceil(log2(float(n))) rounded down at 2**k + 1 and undercharged a "
        "round; the PR 3 cost-accounting sweep replaced every such charge"
    )
    packages = ("congest", "kmachine", "randomwalk")
    include_tests = False

    _MESSAGE = (
        "float log2 misrounds near powers of two; use repro.utils.ceil_log2 "
        "for integer round/step accounting"
    )

    def check(self, context: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Attribute) and node.attr == "log2":
                value = node.value
                if isinstance(value, ast.Name) and value.id in (
                    "math",
                    *_NUMPY_ALIASES,
                ):
                    yield self.report(context, node, self._MESSAGE)
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module in ("math", "numpy"):
                    for alias in node.names:
                        if alias.name == "log2":
                            yield self.report(context, node, self._MESSAGE)


# ----------------------------------------------------------------------
# REP103 — shared-memory hygiene
# ----------------------------------------------------------------------
@register_rule
class SharedMemoryFinalizerRule(Rule):
    """Every owned shared-memory segment is backed by a ``weakref.finalize``.

    PR 6 fixed a ``SharedGraph`` leak where abandoning the owner (without
    calling ``close()``) left the ``SharedMemory(create=True)`` segments
    allocated until reboot.  The repaired pattern registers a
    ``weakref.finalize`` guard in the owning class so garbage collection and
    interpreter exit unlink the segments; this rule requires every
    ``SharedMemory(create=True)`` call to live in a class that registers
    such a finalizer.
    """

    code = "REP103"
    name = "shared-memory-finalizer"
    summary = (
        "every SharedMemory(create=True) needs a weakref.finalize "
        "registration in the same class"
    )
    history = (
        "the PR 6 segment leak: sessions that never reached close() left "
        "shared-memory segments allocated until reboot"
    )
    include_tests = False

    def check(self, context: FileContext) -> Iterator[Diagnostic]:
        finalizing_classes: set[ast.ClassDef] = set()
        creators: list[tuple[ast.Call, ast.ClassDef | None]] = []
        for node, enclosing in _walk_with_class(context.tree):
            if not isinstance(node, ast.Call):
                continue
            if self._is_finalize(node.func) and enclosing is not None:
                finalizing_classes.add(enclosing)
            if self._creates_segment(node):
                creators.append((node, enclosing))
        for call, enclosing in creators:
            if enclosing is None:
                yield self.report(
                    context,
                    call,
                    "SharedMemory(create=True) outside a class: segment "
                    "ownership needs a class registering weakref.finalize",
                )
            elif enclosing not in finalizing_classes:
                yield self.report(
                    context,
                    call,
                    f"class {enclosing.name} creates a SharedMemory segment "
                    "but registers no weakref.finalize guard; abandoned "
                    "owners would leak the segment until reboot",
                )

    @staticmethod
    def _is_finalize(func: ast.AST) -> bool:
        if isinstance(func, ast.Attribute) and func.attr == "finalize":
            value = func.value
            return isinstance(value, ast.Name) and value.id == "weakref"
        return isinstance(func, ast.Name) and func.id == "finalize"

    @staticmethod
    def _creates_segment(call: ast.Call) -> bool:
        func = call.func
        named = (
            isinstance(func, ast.Name) and func.id == "SharedMemory"
        ) or (isinstance(func, ast.Attribute) and func.attr == "SharedMemory")
        if not named:
            return False
        return any(
            keyword.arg == "create"
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value is True
            for keyword in call.keywords
        )


# ----------------------------------------------------------------------
# REP104 — registry discipline
# ----------------------------------------------------------------------
#: Module-private backend entry points follow the ``_…_impl`` convention:
#: the batch driver ``_detect_community_batch_impl`` and the simulators'
#: ``_detect_communities_congest_impl`` / ``_detect_communities_kmachine_impl``.
_IMPL_NAME_RE = re.compile(r"^_\w*_impl$")

#: Engine-internal modules allowed to bypass the facade: the facade itself
#: (its runners call the simulators' impls), the session and the process
#: tier (they run the batch driver on the calling thread and in the
#: workers), the core package the driver lives in, and the k-machine
#: simulator (a backend behind ``detect()`` that runs the batch driver with
#: a cost callback).  The rule stays as long as the simulator ``_…_impl``
#: functions do.
_ENGINE_FILES = frozenset({"api.py", "session.py", "execution_process.py"})
_ENGINE_PACKAGES = ("core", "kmachine")


@register_rule
class RegistryDisciplineRule(Rule):
    """Backend ``*_impl`` functions are reached only through the registry.

    PR 4 collapsed seven ad-hoc entry points into the ``detect()`` facade
    with module-private ``_…_impl`` functions behind it; every caller that
    bypasses the registry re-creates the pre-facade drift this redesign
    removed (bespoke knob handling, missed report metadata, RNG-sequence
    skew).  Only the engine internals (``api.py``, ``session.py``,
    ``execution_process.py``, the ``core`` and ``kmachine`` packages) and
    tests may import or reference ``_…_impl`` names.
    """

    code = "REP104"
    name = "registry-discipline"
    summary = (
        "no `_…_impl` imports outside the engine internals and tests; "
        "go through repro.api.detect"
    )
    history = (
        "pre-facade callers drifted: bespoke knob handling, missed report "
        "metadata and RNG-sequence skew the PR 4 registry redesign removed"
    )

    def applies_to(self, context: FileContext) -> bool:
        if context.is_test:
            return False
        directories = context.parts[:-1]
        if context.parts[-1] in _ENGINE_FILES and "repro" in directories:
            return False
        if any(package in directories for package in _ENGINE_PACKAGES):
            return False
        return True

    def check(self, context: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if _IMPL_NAME_RE.match(alias.name):
                        yield self.report(
                            context,
                            node,
                            f"{alias.name} is a module-private backend "
                            "implementation; call repro.api.detect instead",
                        )
            elif isinstance(node, ast.Attribute) and _IMPL_NAME_RE.match(node.attr):
                yield self.report(
                    context,
                    node,
                    f"{node.attr} is a module-private backend implementation; "
                    "call repro.api.detect instead",
                )


# ----------------------------------------------------------------------
# REP105 — kernel dtype discipline
# ----------------------------------------------------------------------
_ALLOCATORS = frozenset({"zeros", "empty", "ones", "full"})


@register_rule
class ExplicitDtypeRule(Rule):
    """Kernel allocations always pass an explicit ``dtype=``.

    The equivalence suites pin kernels bit-for-bit across executors, so an
    allocation that silently inherits numpy's defaults (``float64`` today,
    platform-dependent for integer fills via ``np.full``) is an invariant
    waiting to drift — e.g. an integer fill that is ``int32`` on one
    platform and ``int64`` on another.  Every ``np.zeros`` / ``np.empty`` /
    ``np.ones`` / ``np.full`` in the kernel packages states its dtype.
    """

    code = "REP105"
    name = "explicit-dtype"
    summary = "np.zeros/empty/ones/full in kernel packages must pass dtype="
    history = (
        "implicit float64 buffers are a precision drift waiting to happen; "
        "pinned when the search's exactness contract was first stated"
    )
    packages = (
        "randomwalk",
        "core",
        "graphs",
        "congest",
        "kmachine",
        "baselines",
    )
    include_tests = False

    def check(self, context: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in _ALLOCATORS
                and isinstance(func.value, ast.Name)
                and func.value.id in _NUMPY_ALIASES
            ):
                continue
            if any(keyword.arg == "dtype" for keyword in node.keywords):
                continue
            # Positional dtype: np.zeros(shape, dtype) / np.full(shape, fill,
            # dtype) — accepted, though the keyword form is the house style.
            positional_dtype = 3 if func.attr == "full" else 2
            if len(node.args) >= positional_dtype:
                continue
            yield self.report(
                context,
                node,
                f"np.{func.attr} without an explicit dtype= inherits numpy's "
                "default and can drift across kernels; state the dtype",
            )


# ----------------------------------------------------------------------
# REP106 — picklable worker tasks
# ----------------------------------------------------------------------
@register_rule
class PicklableTaskRule(Rule):
    """Callables handed to a pool ``.submit()`` are module-level.

    The process tier pickles every submitted task; lambdas and closures
    (functions defined inside another function) fail to pickle — but only
    at run time, only on the ``process`` executor, and only on the first
    submission, which is exactly how such a bug escapes a thread-tier test
    run.  Submitting a module-level function (or a bound method of a
    picklable object, which this rule permits) works on both tiers.
    """

    code = "REP106"
    name = "picklable-task"
    summary = "callables passed to pool .submit() must be module-level"
    history = (
        "lambdas submitted to the process tier fail to pickle only at run "
        "time on the first submission — exactly how a thread-tier test run "
        "misses it"
    )
    include_tests = False

    def check(self, context: FileContext) -> Iterator[Diagnostic]:
        nested_names = self._nested_function_names(context.tree)
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "submit"):
                continue
            if not node.args:
                continue
            task = node.args[0]
            if isinstance(task, ast.Lambda):
                yield self.report(
                    context,
                    task,
                    "lambda submitted to a pool: lambdas do not pickle on the "
                    "process executor; submit a module-level function",
                )
            elif isinstance(task, ast.Name) and task.id in nested_names:
                yield self.report(
                    context,
                    task,
                    f"{task.id} is defined inside another function and will "
                    "not pickle on the process executor; hoist it to module "
                    "level",
                )

    @staticmethod
    def _nested_function_names(tree: ast.Module) -> frozenset[str]:
        """Names of functions defined inside another function."""
        nested: set[str] = set()

        def visit(node: ast.AST, inside_function: bool) -> None:
            for child in ast.iter_child_nodes(node):
                is_function = isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                )
                if is_function and inside_function:
                    nested.add(child.name)
                visit(child, inside_function or is_function)

        visit(tree, False)
        return frozenset(nested)


# ----------------------------------------------------------------------
# REP107 — storage-layer confinement
# ----------------------------------------------------------------------
#: The one module allowed to construct raw storage primitives.
_STORAGE_FILE = "storage.py"
_STORAGE_PACKAGE = "graphs"


@register_rule
class StorageLayerRule(Rule):
    """Raw storage primitives are constructed only in ``graphs/storage.py``.

    The storage-backend abstraction exists so that exactly one module owns
    the failure modes of raw segments and mappings: finalizer-based unlink
    (REP103), the bpo-39959 tracker opt-out, zero-length mapping fallbacks,
    read-only pinning.  A ``SharedMemory(...)`` or ``np.memmap(...)`` call
    anywhere else re-opens those holes one at a time — the pre-abstraction
    ``execution_process.py`` carried all of them privately.  Everything
    outside the storage module goes through :class:`SharedCSRStorage`,
    :class:`MemmapStorage` or ``Graph`` construction (which routes through
    :func:`repro.graphs.storage.storage_from_arrays`).
    """

    code = "REP107"
    name = "storage-layer"
    summary = (
        "SharedMemory/np.memmap construction is confined to "
        "graphs/storage.py; use the storage backends"
    )
    history = (
        "the pre-abstraction execution_process.py privately carried every "
        "shared-memory workaround (bpo-39959 opt-out, zero-length mappings, "
        "read-only pinning) the PR 8 storage tier centralised"
    )
    include_tests = False

    def applies_to(self, context: FileContext) -> bool:
        if not super().applies_to(context):
            return False
        directories = context.parts[:-1]
        if (
            context.parts[-1] == _STORAGE_FILE
            and _STORAGE_PACKAGE in directories
        ):
            return False
        return True

    def check(self, context: FileContext) -> Iterator[Diagnostic]:
        # Only Call nodes: annotations and docstrings naming the types
        # (e.g. a handle dataclass typed `SharedMemory`) are not leaks.
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if self._is_shared_memory(func):
                yield self.report(
                    context,
                    node,
                    "SharedMemory construction outside graphs/storage.py; "
                    "allocate through SharedCSRStorage (storage backend)",
                )
            elif self._is_memmap(func):
                yield self.report(
                    context,
                    node,
                    "np.memmap construction outside graphs/storage.py; map "
                    "files through MemmapStorage / read_csr_graph",
                )

    @staticmethod
    def _is_shared_memory(func: ast.AST) -> bool:
        if isinstance(func, ast.Name):
            return func.id == "SharedMemory"
        return isinstance(func, ast.Attribute) and func.attr == "SharedMemory"

    @staticmethod
    def _is_memmap(func: ast.AST) -> bool:
        # numpy.lib.format.open_memmap is the other public mapping
        # constructor, imported bare or called through the module path.
        if isinstance(func, ast.Name):
            return func.id == "open_memmap"
        if not isinstance(func, ast.Attribute):
            return False
        if func.attr == "memmap":
            value = func.value
            return isinstance(value, ast.Name) and value.id in _NUMPY_ALIASES
        return func.attr == "open_memmap"


# ----------------------------------------------------------------------
# REP108 — non-blocking event loop
# ----------------------------------------------------------------------
#: The service-package modules whose coroutines must never block.
_SERVICE_FILES = frozenset({"service.py", "service_net.py"})
_SERVICE_PACKAGE = "repro"

#: Socket methods that block the calling thread until the peer acts.
_BLOCKING_SOCKET_METHODS = frozenset(
    {"accept", "connect", "recv", "recv_into", "sendall"}
)


@register_rule
class AsyncNoBlockingRule(Rule):
    """Coroutines in the service package never block the event loop.

    The service's async surface exists so one event loop can multiplex
    many clients; a single blocking call inside an ``async def`` —
    ``time.sleep``, a bare ``Future.result()``, a synchronous
    ``open()`` / socket operation — stalls *every* connection on that
    loop, which is precisely the failure mode the wire server cannot
    exhibit under load.  Coroutines await instead: ``asyncio.sleep``,
    ``asyncio.wrap_future(...)``, the stream reader/writer API.  Work
    that must block runs on a thread (``loop.run_in_executor``) or on
    the service's own dispatcher.  ``.result(timeout)`` with an explicit
    timeout is tolerated — it bounds the stall and is sometimes the
    right bridge in shutdown paths.
    """

    code = "REP108"
    name = "async-no-blocking"
    summary = (
        "no time.sleep / bare .result() / sync socket or file I/O inside "
        "async def bodies in the service package"
    )
    history = (
        "one blocking call in a PR 9 wire-server coroutine stalls every "
        "connection on the event loop at once"
    )
    include_tests = False

    def applies_to(self, context: FileContext) -> bool:
        if not super().applies_to(context):
            return False
        return (
            context.parts[-1] in _SERVICE_FILES
            and _SERVICE_PACKAGE in context.parts[:-1]
        )

    def check(self, context: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_coroutine(context, node)

    def _check_coroutine(
        self, context: FileContext, coroutine: ast.AsyncFunctionDef
    ) -> Iterator[Diagnostic]:
        for node in self._coroutine_body(coroutine):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if self._is_time_sleep(func):
                yield self.report(
                    context,
                    node,
                    "time.sleep inside a coroutine stalls every connection "
                    "on the event loop; await asyncio.sleep instead",
                )
            elif self._is_bare_result(node):
                yield self.report(
                    context,
                    node,
                    "bare .result() inside a coroutine blocks the event "
                    "loop until the future resolves; await "
                    "asyncio.wrap_future(...) instead",
                )
            elif self._is_sync_io(func):
                yield self.report(
                    context,
                    node,
                    "synchronous I/O inside a coroutine blocks the event "
                    "loop; use the asyncio stream API or "
                    "loop.run_in_executor",
                )

    @staticmethod
    def _coroutine_body(coroutine: ast.AsyncFunctionDef) -> Iterator[ast.AST]:
        """Nodes executing in the coroutine itself.

        Nested function bodies are skipped: a sync helper defined inside a
        coroutine runs wherever it is later called (often a thread), and a
        nested ``async def`` is visited on its own by the outer walk.
        """

        def visit(node: ast.AST) -> Iterator[ast.AST]:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    continue
                yield child
                yield from visit(child)

        for statement in coroutine.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield statement
            yield from visit(statement)

    @staticmethod
    def _is_time_sleep(func: ast.AST) -> bool:
        if isinstance(func, ast.Name):
            return func.id == "sleep"
        return (
            isinstance(func, ast.Attribute)
            and func.attr == "sleep"
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
        )

    @staticmethod
    def _is_bare_result(call: ast.Call) -> bool:
        func = call.func
        return (
            isinstance(func, ast.Attribute)
            and func.attr == "result"
            and not call.args
            and not call.keywords
        )

    @staticmethod
    def _is_sync_io(func: ast.AST) -> bool:
        if isinstance(func, ast.Name):
            return func.id == "open"
        if not isinstance(func, ast.Attribute):
            return False
        if func.attr in ("create_connection", "socket"):
            value = func.value
            return isinstance(value, ast.Name) and value.id == "socket"
        return func.attr in _BLOCKING_SOCKET_METHODS


def rule_table() -> Sequence[tuple[str, str, str]]:
    """Return ``(code, name, summary)`` rows for ``repro lint --list-rules``."""
    return [(rule.code, rule.name, rule.summary) for rule in all_rules()]


def rule_ledger() -> Sequence[tuple[str, str, str, str]]:
    """Return ``(code, name, summary, history)`` — the full rule ledger.

    Includes the synthetic ``REP000`` row (syntax errors are reported
    through the diagnostic channel but are not a registered rule), so the
    printed ledger covers every code a lint run can emit.
    """
    rows: list[tuple[str, str, str, str]] = [
        (
            "REP000",
            "syntax-error",
            "the file must parse; reported when ast.parse fails",
            "not a rule: an unparseable file would silently skip every "
            "other check, so it fails the run through the same channel",
        )
    ]
    rows.extend(
        (rule.code, rule.name, rule.summary, rule.history) for rule in all_rules()
    )
    return rows

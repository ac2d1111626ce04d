"""Unit tests of the ``repro lint`` invariant checker (:mod:`repro.analysis`).

Every rule gets one violating and one clean fixture, plus cases for the
inline suppression comments, multi-file diagnostic ordering, and the
self-check that the repository's own tree lints clean.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import Diagnostic, all_rules, get_rule, lint_file, lint_paths, main
from repro.analysis.diagnostics import Suppressions
from repro.analysis.linter import SYNTAX_ERROR_CODE
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
TESTS = REPO_ROOT / "tests"


def write_module(tmp_path: Path, relative: str, source: str) -> Path:
    """Write a dedented fixture module under ``tmp_path`` and return its path."""
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def codes_of(path: Path) -> list[str]:
    return [diagnostic.code for diagnostic in lint_file(path)]


# ----------------------------------------------------------------------
# Registry basics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_rules_registered_with_stable_codes(self):
        codes = [rule.code for rule in all_rules()]
        assert codes == sorted(codes)
        assert {
            "REP101",
            "REP102",
            "REP103",
            "REP104",
            "REP105",
            "REP106",
            "REP107",
            "REP108",
        } <= set(codes)

    def test_get_rule_is_case_insensitive(self):
        assert get_rule("rep101").code == "REP101"

    def test_every_rule_names_itself(self):
        for rule in all_rules():
            assert rule.name and rule.summary


# ----------------------------------------------------------------------
# REP101 — RNG discipline
# ----------------------------------------------------------------------
class TestRngDiscipline:
    def test_flags_stdlib_random_import(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/experiments/bad_rng.py",
            """
            import random

            def draw():
                return random.random()
            """,
        )
        assert "REP101" in codes_of(path)

    def test_flags_legacy_numpy_random_globals(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/experiments/bad_np_rng.py",
            """
            import numpy as np

            def draw(n):
                np.random.seed(0)
                return np.random.randint(0, n)
            """,
        )
        assert codes_of(path).count("REP101") == 2

    def test_flags_from_numpy_random_legacy_import(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/experiments/bad_from_rng.py",
            """
            from numpy.random import randint
            """,
        )
        assert "REP101" in codes_of(path)

    def test_clean_generator_discipline(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/experiments/good_rng.py",
            """
            import numpy as np

            def draw(rng: np.random.Generator, n: int) -> int:
                return int(rng.integers(0, n))

            def make_rng(seed):
                return np.random.default_rng(seed)
            """,
        )
        assert codes_of(path) == []


# ----------------------------------------------------------------------
# REP102 — exact round accounting
# ----------------------------------------------------------------------
class TestExactLog2:
    def test_flags_math_log2_in_round_accounting_packages(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/congest/bad_rounds.py",
            """
            import math

            def rounds(n):
                return int(math.ceil(math.log2(n)))
            """,
        )
        assert "REP102" in codes_of(path)

    def test_flags_log2_import_and_numpy_log2(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/kmachine/bad_rounds.py",
            """
            import numpy as np
            from math import log2

            def rounds(n):
                return int(np.log2(n))
            """,
        )
        assert codes_of(path).count("REP102") == 2

    def test_clean_ceil_log2(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/randomwalk/good_rounds.py",
            """
            from repro.utils import ceil_log2

            def rounds(n):
                return ceil_log2(max(n, 2))
            """,
        )
        assert codes_of(path) == []

    def test_out_of_scope_packages_may_use_float_log2(self, tmp_path):
        # experiments/ builds float ratio formulas (0.2·log₂²n …) — not
        # integer round counts — so the rule does not apply there.
        path = write_module(
            tmp_path,
            "repro/experiments/ratios.py",
            """
            import math

            def ratio(n):
                return 0.2 * math.log2(n) ** 2
            """,
        )
        assert codes_of(path) == []


# ----------------------------------------------------------------------
# REP103 — shared-memory hygiene
# ----------------------------------------------------------------------
class TestSharedMemoryFinalizer:
    def test_flags_class_without_finalizer(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/leaky.py",
            """
            from multiprocessing import shared_memory

            class Broadcast:
                def share(self, nbytes):
                    self._segment = shared_memory.SharedMemory(
                        create=True, size=nbytes
                    )
                    return self._segment.name
            """,
        )
        assert "REP103" in codes_of(path)

    def test_flags_module_level_creation(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/leaky_module.py",
            """
            from multiprocessing.shared_memory import SharedMemory

            segment = SharedMemory(create=True, size=64)
            """,
        )
        assert "REP103" in codes_of(path)

    def test_clean_class_with_finalizer(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/guarded.py",
            """
            import weakref
            from multiprocessing import shared_memory

            class Broadcast:
                def __init__(self):
                    self._segments = []
                    self._finalizer = weakref.finalize(
                        self, _release, self._segments
                    )

                def share(self, nbytes):
                    segment = shared_memory.SharedMemory(create=True, size=nbytes)
                    self._segments.append(segment)
                    return segment.name

            def _release(segments):
                for segment in segments:
                    segment.close()
            """,
        )
        # REP103 is satisfied; REP107 still flags the segment construction
        # because the fixture lives outside graphs/storage.py.
        assert codes_of(path) == ["REP107"]

    def test_attaching_existing_segments_is_fine(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/attach.py",
            """
            from multiprocessing import shared_memory

            def attach(name):
                return shared_memory.SharedMemory(name=name)
            """,
        )
        # Attach needs no finalizer (REP103 clean) but is still a raw
        # segment handle, which REP107 confines to the storage layer.
        assert codes_of(path) == ["REP107"]


# ----------------------------------------------------------------------
# REP104 — registry discipline
# ----------------------------------------------------------------------
class TestRegistryDiscipline:
    def test_flags_impl_import_outside_engine(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/experiments/bypass.py",
            """
            from repro.core.batched import _detect_communities_batched_impl

            def run(graph):
                return _detect_communities_batched_impl(graph, None, None)
            """,
        )
        # Both the import and the call-site name reference are attributable;
        # the import line is the one that must be flagged.
        diagnostics = lint_file(path)
        assert any(d.code == "REP104" and d.line == 2 for d in diagnostics)

    def test_flags_impl_attribute_access(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/experiments/bypass_attr.py",
            """
            from repro.core import batched

            def run(graph):
                return batched._detect_communities_batched_impl(graph, None, None)
            """,
        )
        assert "REP104" in codes_of(path)

    @pytest.mark.parametrize(
        "relative",
        [
            "repro/api.py",
            "repro/session.py",
            "repro/execution_process.py",
            "repro/core/parallel.py",
            "repro/kmachine/cdrw_kmachine.py",
            "tests/test_backdoor.py",
        ],
    )
    def test_engine_internals_and_tests_are_exempt(self, tmp_path, relative):
        path = write_module(
            tmp_path,
            relative,
            """
            from repro.core.batched import _detect_communities_batched_impl
            """,
        )
        assert codes_of(path) == []

    def test_clean_facade_usage(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/experiments/facade.py",
            """
            from repro.api import detect

            def run(graph):
                return detect(graph, backend="batched")
            """,
        )
        assert codes_of(path) == []


# ----------------------------------------------------------------------
# REP105 — kernel dtype discipline
# ----------------------------------------------------------------------
class TestExplicitDtype:
    def test_flags_allocation_without_dtype(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/randomwalk/alloc.py",
            """
            import numpy as np

            def buffers(n):
                a = np.zeros(n)
                b = np.empty((n, 2))
                c = np.ones(n)
                d = np.full(n, -1)
                return a, b, c, d
            """,
        )
        assert codes_of(path) == ["REP105"] * 4

    def test_clean_explicit_dtype(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/core/alloc.py",
            """
            import numpy as np

            def buffers(n):
                a = np.zeros(n, dtype=np.float64)
                b = np.empty((n, 2), dtype=np.int64)
                c = np.full(n, -1, dtype=np.int64)
                d = np.zeros(n, bool)  # positional dtype is accepted
                return a, b, c, d
            """,
        )
        assert codes_of(path) == []

    def test_out_of_scope_package_not_flagged(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/experiments/alloc.py",
            """
            import numpy as np

            def scratch(n):
                return np.zeros(n)
            """,
        )
        assert codes_of(path) == []


# ----------------------------------------------------------------------
# REP106 — picklable worker tasks
# ----------------------------------------------------------------------
class TestPicklableTask:
    def test_flags_lambda_submission(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/pool_lambda.py",
            """
            def run(executor, items):
                return [executor.submit(lambda item: item + 1, item) for item in items]
            """,
        )
        assert "REP106" in codes_of(path)

    def test_flags_nested_function_submission(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/pool_closure.py",
            """
            def run(executor, items):
                def task(item):
                    return item + 1

                return [executor.submit(task, item) for item in items]
            """,
        )
        assert "REP106" in codes_of(path)

    def test_clean_module_level_submission(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/pool_clean.py",
            """
            def _task(item):
                return item + 1

            def run(executor, items):
                return [executor.submit(_task, item) for item in items]
            """,
        )
        assert codes_of(path) == []


# ----------------------------------------------------------------------
# REP107 — storage-layer confinement
# ----------------------------------------------------------------------
class TestStorageLayer:
    def test_flags_shared_memory_outside_storage(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/rogue_segment.py",
            """
            import weakref
            from multiprocessing.shared_memory import SharedMemory

            class Owner:
                def __init__(self, size):
                    self._finalizer = weakref.finalize(self, lambda: None)
                    self._segment = SharedMemory(create=True, size=size)
            """,
        )
        assert "REP107" in codes_of(path)

    def test_flags_np_memmap_outside_storage(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/experiments/rogue_map.py",
            """
            import numpy as np

            def load(path, n):
                return np.memmap(path, dtype=np.int64, mode="r", shape=(n,))
            """,
        )
        assert "REP107" in codes_of(path)

    def test_flags_open_memmap(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/rogue_open.py",
            """
            from numpy.lib.format import open_memmap

            def load(path):
                return open_memmap(path, mode="r")
            """,
        )
        assert "REP107" in codes_of(path)

    def test_storage_module_itself_is_exempt(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/graphs/storage.py",
            """
            import numpy as np

            def map_array(path, n):
                return np.memmap(path, dtype=np.int64, mode="r", shape=(n,))
            """,
        )
        assert "REP107" not in codes_of(path)

    def test_annotations_naming_the_types_are_clean(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/typed_handle.py",
            """
            from multiprocessing.shared_memory import SharedMemory

            def close_segment(segment: SharedMemory) -> None:
                segment.close()
            """,
        )
        assert "REP107" not in codes_of(path)

    def test_tests_are_exempt(self, tmp_path):
        path = write_module(
            tmp_path,
            "tests/test_rogue.py",
            """
            import numpy as np

            def test_mapping(path):
                assert np.memmap(path, dtype=np.int64, mode="r").size >= 0
            """,
        )
        assert "REP107" not in codes_of(path)


# ----------------------------------------------------------------------
# REP108 — no blocking calls in service coroutines
# ----------------------------------------------------------------------
class TestAsyncNoBlocking:
    def test_flags_time_sleep_and_bare_result_in_coroutine(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/service.py",
            """
            import time

            async def detect(self, seed):
                time.sleep(0.1)
                future = self.submit(seed)
                return future.result()
            """,
        )
        assert codes_of(path).count("REP108") == 2

    def test_flags_sync_io_in_coroutine(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/service_net.py",
            """
            import socket

            async def handle(self, request):
                connection = socket.create_connection(("localhost", 80))
                with open("/tmp/log") as handle:
                    handle.read()
                return connection.recv(1)
            """,
        )
        assert codes_of(path).count("REP108") == 3

    def test_result_with_timeout_and_async_idiom_are_clean(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/service.py",
            """
            import asyncio

            async def detect(self, seed):
                await asyncio.sleep(0)
                return await asyncio.wrap_future(self.submit(seed))

            def blocking_surface(self, seed):
                # Sync defs may block; the rule only polices coroutines.
                return self.submit(seed).result(timeout=60)
            """,
        )
        assert "REP108" not in codes_of(path)

    def test_nested_sync_def_inside_coroutine_is_clean(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/service.py",
            """
            import time

            async def detect(self, seed):
                def worker():
                    time.sleep(0.1)
                    return self.submit(seed).result()
                loop = self.loop
                return await loop.run_in_executor(None, worker)
            """,
        )
        assert "REP108" not in codes_of(path)

    def test_other_modules_are_out_of_scope(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/experiments/runner.py",
            """
            import time

            async def sweep(self):
                time.sleep(0.1)
            """,
        )
        assert "REP108" not in codes_of(path)


# ----------------------------------------------------------------------
# Suppression comments
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_inline_disable_silences_only_that_line(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/core/suppressed.py",
            """
            import numpy as np

            def buffers(n):
                a = np.zeros(n)  # repro-lint: disable=REP105
                b = np.zeros(n)
                return a, b
            """,
        )
        diagnostics = lint_file(path)
        assert [d.code for d in diagnostics] == ["REP105"]
        assert diagnostics[0].line == 6  # the un-suppressed allocation

    def test_disable_file_silences_the_whole_file(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/core/suppressed_file.py",
            """
            # repro-lint: disable-file=REP105
            import numpy as np

            def buffers(n):
                return np.zeros(n), np.empty(n)
            """,
        )
        assert codes_of(path) == []

    def test_disable_all_and_multiple_codes(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/randomwalk/suppressed_multi.py",
            """
            import math
            import numpy as np

            def rounds(n):
                return np.zeros(n), math.log2(n)  # repro-lint: disable=REP105,REP102
            """,
        )
        assert codes_of(path) == []

    def test_directive_inside_string_is_not_a_suppression(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/core/string_trap.py",
            """
            import numpy as np

            def buffers(n):
                note = "repro-lint: disable=REP105"
                return np.zeros(n), note
            """,
        )
        assert codes_of(path) == ["REP105"]

    def test_suppression_parser_units(self):
        suppressions = Suppressions.from_source(
            "x = 1  # repro-lint: disable=rep101, REP105\n"
            "# repro-lint: disable-file=all\n"
        )
        assert suppressions.is_suppressed(1, "REP101")
        assert suppressions.is_suppressed(1, "REP105")
        # disable-file=all silences everything everywhere.
        assert suppressions.is_suppressed(99, "REP103")


# ----------------------------------------------------------------------
# Diagnostics: format, ordering, syntax errors
# ----------------------------------------------------------------------
class TestDiagnostics:
    def test_format_is_path_line_col_code_message(self):
        diagnostic = Diagnostic(
            path="src/repro/x.py", line=3, column=7, code="REP105", message="boom"
        )
        assert diagnostic.format() == "src/repro/x.py:3:7: REP105 boom"

    def test_multi_file_diagnostics_are_ordered(self, tmp_path):
        write_module(
            tmp_path,
            "repro/randomwalk/b_second.py",
            """
            import numpy as np

            def f(n):
                return np.zeros(n), np.ones(n)
            """,
        )
        write_module(
            tmp_path,
            "repro/randomwalk/a_first.py",
            """
            import math
            import numpy as np

            def f(n):
                return np.zeros(n), math.log2(n)
            """,
        )
        result = lint_paths([tmp_path])
        assert result.files_checked == 2
        ordered = [(Path(d.path).name, d.line, d.code) for d in result.diagnostics]
        # (path, line, column, code) order: a_first before b_second, and on
        # a_first line 6 the np.zeros call (col 12) anchors before
        # math.log2 (col 25), so REP105 precedes REP102.
        assert ordered == [
            ("a_first.py", 6, "REP105"),
            ("a_first.py", 6, "REP102"),
            ("b_second.py", 5, "REP105"),
            ("b_second.py", 5, "REP105"),
        ]

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        path = write_module(tmp_path, "repro/broken.py", "def f(:\n")
        diagnostics = lint_file(path)
        assert [d.code for d in diagnostics] == [SYNTAX_ERROR_CODE]


# ----------------------------------------------------------------------
# The command-line front end and the self-check
# ----------------------------------------------------------------------
class TestCommandLine:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        write_module(
            tmp_path,
            "repro/core/clean.py",
            """
            import numpy as np

            def f(n):
                return np.zeros(n, dtype=np.float64)
            """,
        )
        assert main([str(tmp_path)]) == 0
        assert capsys.readouterr().out == ""

    def test_exit_nonzero_with_file_line_diagnostics(self, tmp_path, capsys):
        path = write_module(
            tmp_path,
            "repro/core/dirty.py",
            """
            import numpy as np

            def f(n):
                return np.zeros(n)
            """,
        )
        assert main([str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert f"{path}:5:12: REP105" in captured.out
        assert "1 diagnostic" in captured.err

    def test_missing_path_is_a_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in (
            "REP101",
            "REP102",
            "REP103",
            "REP104",
            "REP105",
            "REP106",
            "REP107",
            "REP108",
        ):
            assert code in out

    def test_cli_lint_subcommand(self, tmp_path, capsys):
        path = write_module(
            tmp_path,
            "repro/core/dirty.py",
            """
            import numpy as np

            def f(n):
                return np.empty(n)
            """,
        )
        assert cli_main(["lint", str(tmp_path)]) == 1
        assert "REP105" in capsys.readouterr().out
        assert cli_main(["lint", "--list-rules"]) == 0


class TestSelfCheck:
    def test_repro_lint_src_exits_zero(self, capsys):
        """The repository's own tree satisfies every invariant it enforces."""
        assert main([str(SRC)]) == 0
        assert capsys.readouterr().out == ""

    def test_repro_lint_tests_exits_zero(self, capsys):
        assert main([str(TESTS)]) == 0
        assert capsys.readouterr().out == ""

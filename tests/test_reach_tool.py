"""tools/reach.py: the reach classifier and its keep-list.

The full report takes minutes (CI's ``reach`` job runs it); here the
tool classifies a three-function fixture package, and the committed
keep-list is checked against the functions that exist.
"""

from __future__ import annotations

import importlib.util
import os
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reach.py"


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FIXTURE = '''\
import functools


def by_driver():
    return 1


@functools.lru_cache(maxsize=None)
def by_test():
    return 2


class Shelf:
    def by_nothing(self):
        return 3
'''


@pytest.fixture(scope="module")
def verdict(reach, tmp_path_factory):
    root = tmp_path_factory.mktemp("reach")
    package = root / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(FIXTURE)
    (root / "driver.py").write_text("from pkg.mod import by_driver\nby_driver()\n")
    (root / "a_test.py").write_text(
        "from pkg.mod import by_driver, by_test\nby_driver()\nby_test()\n"
    )
    env = dict(os.environ, PYTHONPATH=str(root))
    functions = reach.inventory(package)
    by_drivers = reach.reached([["driver.py"]], package, root, env)
    by_tests = reach.reached([["a_test.py"]], package, root, env)
    return functions, reach.classify(functions, by_drivers, by_tests)


def test_fixture_package_is_classified(verdict):
    functions, kinds = verdict
    named = {functions[key][0]: (key, kind) for key, kind in kinds.items()}
    assert {name: kind for name, (_, kind) in named.items()} == {
        "by_driver": "driver",
        "by_test": "tests-only",
        "Shelf.by_nothing": "nothing",
    }
    # The decorated function is keyed where its code object starts: on
    # the decorator line, one above the ``def``.
    (path, line), _ = named["by_test"]
    assert FIXTURE.splitlines()[line - 1].startswith("@functools.lru_cache")
    assert functions[path, line] == ("by_test", 3)


def test_a_failing_command_is_fatal(reach, tmp_path):
    (tmp_path / "boom.py").write_text("raise SystemExit(3)\n")
    with pytest.raises(SystemExit, match="exited 3"):
        reach.reached([["boom.py"]], tmp_path, tmp_path, dict(os.environ))


def test_judge_excuses_by_keep_list_and_flags_the_rest(reach, verdict, tmp_path):
    functions, kinds = verdict
    keep = tmp_path / "keep.txt"
    keep.write_text(
        "mod.py::orphan\n"
        "== memoised on purpose\n"
        "mod.py::by_test\n"
        "mod.py::long_gone\n"
        "not-an-entry\n"
    )
    entries, errors = reach.load_keep(keep)
    assert [e.split(": ", 1)[1] for e in errors] == [
        "'mod.py::orphan' has no reason",
        "'not-an-entry' is not path::name",
    ]
    excused, problems = reach.judge(functions, kinds, entries[1:3])
    assert list(excused.values()) == ["memoised on purpose"]
    assert problems == [
        "stale keep-list entry (names no function): mod.py::long_gone",
        "nothing, not on the keep-list: mod.py::Shelf.by_nothing (line 14)",
    ]
    assert "tests-only (kept)" in reach.report(functions, kinds, excused)


def test_every_keep_list_entry_names_a_function_and_has_a_reason(reach):
    entries, errors = reach.load_keep(reach.KEEP_FILE)
    assert entries and not errors
    functions = reach.inventory(reach.PACKAGE)
    everything_reached = dict.fromkeys(functions, "driver")
    _, stale = reach.judge(functions, everything_reached, entries)
    assert stale == []

"""The linter's own suite: fixture corpus, suppressions, contract, self-host.

The corpus under ``tests/lint_corpus/`` is the executable
specification: every ``*_bad.py`` must trip exactly the rules its
``# lint-fixture:`` header names (driven through the real CLI, so the
exit-code gate contract is what is tested), every ``*_good.py`` must
come back clean.  The self-host test is the repository's blocking
gate: ``src``, ``tests``, ``benchmarks``, ``tools`` and ``examples``
lint clean, and the shipped ``layers.toml`` matches the actual
load-time import graph.
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path

import pytest

from repro.analysis import (
    ContractError,
    LintConfig,
    lint_paths,
    lint_source,
    load_contract,
)
from repro.analysis.cli import ALL_RULES, main
from repro.analysis.contract import parse_contract
from repro.analysis.engine import (
    categorize,
    module_level_imports,
    module_name_for,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).resolve().parent / "lint_corpus"

_HEADER = re.compile(
    r"#\s*lint-fixture:\s*expect=([a-z\-,]+)(?:\s+module=(\S+))?"
)


def fixture_cases() -> list[tuple[str, tuple[str, ...], str | None]]:
    cases = []
    for path in sorted(CORPUS.glob("*.py")):
        match = _HEADER.match(path.read_text())
        assert match, f"{path.name} lacks a lint-fixture header"
        expected = tuple(match.group(1).split(","))
        cases.append((path.name, expected, match.group(2)))
    return cases


def run_cli(argv: list[str], capsys) -> tuple[int, dict]:
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestFixtureCorpus:
    @pytest.mark.parametrize(
        "name,expected,module", fixture_cases(), ids=lambda v: str(v)[:40]
    )
    def test_fixture(self, name, expected, module, capsys):
        argv = ["--treat-as", "src", "--format", "json", str(CORPUS / name)]
        if module:
            argv = ["--module-name", module] + argv
        code, payload = run_cli(argv, capsys)
        rules = {f["rule"] for f in payload["findings"]}
        if expected == ("clean",):
            assert code == 0, f"{name}: unexpected findings {payload}"
            assert rules == set()
        else:
            assert code == 1, f"{name}: expected a non-zero exit"
            assert set(expected) <= rules, (
                f"{name}: wanted {expected}, got {sorted(rules)}"
            )

    def test_every_rule_has_a_bad_and_a_good_fixture(self):
        """Each non-engine rule appears in >=1 bad fixture; each bad
        fixture file has a good twin exercising the same area."""
        covered: set[str] = set()
        for _, expected, _ in fixture_cases():
            covered.update(expected)
        covered.discard("clean")
        checkable = set(ALL_RULES) - {"syntax-error"}
        assert checkable <= covered, (
            f"rules without a bad fixture: {sorted(checkable - covered)}"
        )
        names = {name for name, _, _ in fixture_cases()}
        for name in sorted(names):
            if name.endswith("_bad.py"):
                area = name.removesuffix("_bad.py")
                twins = [
                    n for n in names
                    if n.startswith(area.rsplit("_", 0)[0]) and n.endswith("_good.py")
                ]
                # suppression-hygiene fixtures share one good twin
                if "suppression" in name:
                    twins = [n for n in names if "suppression" in n and n.endswith("_good.py")]
                assert twins, f"{name} has no *_good.py twin"


class TestSuppressions:
    def test_roundtrip(self):
        code = (
            "import time\n"
            "def f():\n"
            "    return time.time()  # repro-lint: ignore[wall-clock] -- test\n"
        )
        assert lint_source(code, category="src") == []

    def test_wrong_rule_does_not_suppress(self):
        code = (
            "import time\n"
            "def f():\n"
            "    return time.time()  # repro-lint: ignore[entropy] -- wrong rule\n"
        )
        rules = {f.rule for f in lint_source(code, category="src")}
        # the wall-clock finding survives AND the suppression is unused
        assert rules == {"wall-clock", "unused-suppression"}

    def test_missing_reason_is_bad_suppression(self):
        code = (
            "import time\n"
            "def f():\n"
            "    return time.time()  # repro-lint: ignore[wall-clock]\n"
        )
        rules = {f.rule for f in lint_source(code, category="src")}
        assert rules == {"wall-clock", "bad-suppression"}

    def test_unused_suppression_flagged(self):
        code = "x = 1  # repro-lint: ignore[wall-clock] -- nothing here\n"
        findings = lint_source(code, category="src")
        assert [f.rule for f in findings] == ["unused-suppression"]

    def test_syntax_in_docstring_is_inert(self):
        code = (
            '"""Docs quoting `# repro-lint: ignore[wall-clock] -- x`."""\n'
            "x = 1\n"
        )
        assert lint_source(code, category="src") == []

    def test_multiple_rules_one_comment(self):
        code = (
            "import os, time\n"
            "def f():\n"
            "    return os.getenv('X'), time.time()  "
            "# repro-lint: ignore[env-read,wall-clock] -- test both\n"
        )
        assert lint_source(code, category="src") == []

    def test_engine_rules_not_suppressible(self):
        code = (
            "x = 1  # repro-lint: ignore[unused-suppression] -- try to hide\n"
        )
        findings = lint_source(code, category="src")
        assert [f.rule for f in findings] == ["unused-suppression"]


class TestScoping:
    def test_tests_category_skips_determinism(self):
        code = "import time\nt = time.time()\n"
        assert lint_source(code, category="tests") == []

    def test_src_category_applies(self):
        code = "import time\nt = time.time()\n"
        assert [f.rule for f in lint_source(code, category="src")] == ["wall-clock"]

    def test_allowlisted_module_exempt(self):
        code = "import os\nv = os.environ.get('REPRO_X')\n"
        findings = lint_source(
            code, category="src", module="repro.experiments.cli"
        )
        assert findings == []

    def test_categorize(self):
        assert categorize("src/repro/sim/core.py") == "src"
        assert categorize("tests/test_sim.py") == "tests"
        assert categorize("benchmarks/test_micro.py") == "benchmarks"
        assert categorize("somewhere/else.py") == "other"

    def test_module_name(self):
        assert module_name_for("src/repro/sim/core.py") == "repro.sim.core"
        assert module_name_for("src/repro/__init__.py") == "repro"
        assert module_name_for("src/repro/analysis/__init__.py") == "repro.analysis"


class TestContract:
    def _base(self):
        return {
            "contract": {"root-package": "repro"},
            "layer": [
                {"name": "low", "modules": ["repro.low"], "may-import": []},
                {"name": "high", "modules": ["repro.high"],
                 "may-import": ["low"]},
            ],
        }

    def test_cycle_rejected(self):
        data = self._base()
        data["layer"][0]["may-import"] = ["high"]
        with pytest.raises(ContractError, match="cyclic"):
            parse_contract(data)

    def test_three_way_cycle_rejected(self):
        data = {
            "layer": [
                {"name": "a", "modules": ["repro.a"], "may-import": ["b"]},
                {"name": "b", "modules": ["repro.b"], "may-import": ["c"]},
                {"name": "c", "modules": ["repro.c"], "may-import": ["a"]},
            ]
        }
        with pytest.raises(ContractError, match="cyclic"):
            parse_contract(data)

    def test_unknown_layer_reference_rejected(self):
        data = self._base()
        data["layer"][1]["may-import"] = ["ghost"]
        with pytest.raises(ContractError, match="unknown"):
            parse_contract(data)

    def test_duplicate_ownership_rejected(self):
        data = self._base()
        data["layer"][1]["modules"] = ["repro.low"]
        with pytest.raises(ContractError, match="owned by both"):
            parse_contract(data)

    def test_duplicate_name_rejected(self):
        data = self._base()
        data["layer"][1]["name"] = "low"
        with pytest.raises(ContractError, match="duplicate"):
            parse_contract(data)

    def test_cyclic_toml_file_rejected(self, tmp_path):
        bad = tmp_path / "layers.toml"
        bad.write_text(
            "[[layer]]\n"
            'name = "a"\nmodules = ["repro.a"]\nmay-import = ["b"]\n'
            "[[layer]]\n"
            'name = "b"\nmodules = ["repro.b"]\nmay-import = ["a"]\n'
        )
        with pytest.raises(ContractError, match="cyclic"):
            load_contract(bad)

    def test_root_prefix_matches_only_init(self):
        contract = load_contract()
        assert contract.layer_of("repro") == "root"
        assert contract.layer_of("repro.brand_new_pkg.mod") is None

    def test_longest_prefix_wins(self):
        contract = load_contract()
        assert contract.layer_of("repro.network.node") == "network"
        assert contract.layer_of("repro.seeding") == "util"


class TestLayerRules:
    def test_upward_import_flagged(self):
        code = "from repro.network.messages import EventMessage\n"
        findings = lint_source(
            code, category="src", module="repro.model.bad"
        )
        assert [f.rule for f in findings] == ["layer-violation"]

    def test_downward_import_clean(self):
        code = "from repro.model.events import SimpleEvent\n"
        assert lint_source(
            code, category="src", module="repro.network.good"
        ) == []

    def test_type_checking_import_exempt(self):
        code = (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.experiments.runner import RunResult\n"
        )
        assert lint_source(
            code, category="src", module="repro.model.good"
        ) == []

    def test_lazy_import_exempt(self):
        code = (
            "def late():\n"
            "    from repro.api.session import Session\n"
            "    return Session\n"
        )
        assert lint_source(
            code, category="src", module="repro.workload.good"
        ) == []

    def test_relative_import_resolved(self):
        code = "from ..network import routing\n"
        findings = lint_source(
            code, category="src", module="repro.model.bad"
        )
        assert [f.rule for f in findings] == ["layer-violation"]

    def test_same_layer_import_allowed(self):
        code = "from repro.baselines.naive import naive_approach\n"
        assert lint_source(
            code, category="src", module="repro.protocols.registry"
        ) == []


class TestSelfHost:
    """The blocking gate: the repository lints clean against itself."""

    def test_repository_is_clean(self):
        paths = [
            REPO_ROOT / p
            for p in ("src", "tests", "benchmarks", "tools", "examples")
            if (REPO_ROOT / p).exists()
        ]
        findings = lint_paths(paths, LintConfig.default())
        assert findings == [], findings

    def test_contract_matches_actual_import_graph(self):
        """Every load-time repro->repro import edge is contract-allowed,
        and every repro module is assigned to a layer — recomputed from
        the AST here, independently of the lint pass."""
        contract = load_contract()
        src = REPO_ROOT / "src" / "repro"
        for path in sorted(src.rglob("*.py")):
            module = module_name_for(path)
            layer = contract.layer_of(module)
            assert layer is not None, f"{module} unassigned in layers.toml"
            tree = ast.parse(path.read_text())
            for node, typing_only in module_level_imports(tree):
                if typing_only:
                    continue
                targets = []
                if isinstance(node, ast.Import):
                    targets = [
                        a.name for a in node.names
                        if a.name.startswith("repro")
                    ]
                elif node.module and not node.level:
                    if node.module.startswith("repro"):
                        targets = [node.module]
                elif node.level:
                    parts = module.split(".")
                    if path.name != "__init__.py":
                        parts = parts[:-1]
                    parts = parts[: len(parts) - (node.level - 1)]
                    if node.module:
                        parts += node.module.split(".")
                    targets = [".".join(parts)]
                for target in targets:
                    dst = contract.layer_of(target)
                    assert dst is not None, f"{target} unassigned"
                    assert contract.allows(layer, dst), (
                        f"{module} ({layer}) -> {target} ({dst}) "
                        "violates layers.toml"
                    )


class TestCli:
    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule in out

    def test_unknown_rule_id_rejected(self, capsys):
        assert main(["--rules", "no-such-rule", "src"]) == 2

    def test_missing_contract_rejected(self, capsys):
        assert main(["--contract", "/no/such/layers.toml", "src"]) == 2

    def test_missing_path_rejected(self, capsys):
        assert main(["/no/such/dir"]) == 2

    def test_rules_filter(self, capsys):
        """--rules restricts reporting to the named rules."""
        bad = CORPUS / "wall_clock_bad.py"
        code, payload = run_cli(
            ["--treat-as", "src", "--rules", "entropy", "--format", "json",
             str(bad)], capsys,
        )
        assert code == 0 and payload["count"] == 0
        code, payload = run_cli(
            ["--treat-as", "src", "--rules", "wall-clock", "--format", "json",
             str(bad)], capsys,
        )
        assert code == 1 and payload["count"] == 1

    def test_text_format_clean_and_dirty(self, capsys):
        assert main(["--treat-as", "src", str(CORPUS / "wall_clock_good.py")]) == 0
        assert "clean" in capsys.readouterr().out
        assert main(["--treat-as", "src", str(CORPUS / "wall_clock_bad.py")]) == 1
        out = capsys.readouterr().out
        assert "[wall-clock]" in out and "finding" in out

"""The rule engine: file walking, suppressions, and shared AST helpers.

A *rule family* is a module exposing ``check(ctx) -> list[Finding]``;
the engine owns everything rule-independent: categorising paths
(``src`` / ``tests`` / ``benchmarks`` / ...), computing dotted module
names, parsing inline suppressions, and the alias-resolution helpers
every family uses to turn ``np.random.default_rng`` back into
``numpy.random.default_rng``.

Suppression contract (checked here, not in the families):

* ``# repro-lint: ignore[rule-a,rule-b] -- reason`` on the finding's
  line silences exactly those rules on exactly that line;
* the reason is mandatory — a bare ``ignore[...]`` is a
  ``bad-suppression`` finding and silences nothing;
* a suppression that silenced nothing in the run is an
  ``unused-suppression`` finding, so stale exceptions surface the
  moment the underlying hazard is fixed.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .contract import LayerContract, load_contract

#: Path categories the rule families scope themselves by.
CATEGORIES = ("src", "tests", "benchmarks", "tools", "examples", "other")

#: Rules emitted by the engine itself; never suppressible (a
#: suppressible suppression-hygiene rule could hide its own rot).
ENGINE_RULES = ("bad-suppression", "unused-suppression", "syntax-error")


@dataclass(frozen=True, slots=True)
class Finding:
    """One linter finding, anchored to a source line."""

    path: str
    line: int
    rule: str
    message: str


@dataclass(slots=True)
class Suppression:
    """A parsed ``# repro-lint: ignore[...]`` comment."""

    line: int
    rules: tuple[str, ...]
    reason: str
    used: bool = False


@dataclass(slots=True)
class LintContext:
    """Everything a rule family sees about one file."""

    path: str
    module: str
    category: str
    is_package: bool
    tree: ast.Module
    lines: list[str]
    contract: LayerContract
    #: ``import`` alias map: local name -> dotted origin ("np" ->
    #: "numpy", "derive_seed" -> "repro.seeding.derive_seed").
    aliases: dict[str, str] = field(default_factory=dict)

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        return Finding(self.path, getattr(node, "lineno", 1), rule, message)


@dataclass(slots=True)
class LintConfig:
    """Run configuration shared by the CLI and the test harness."""

    contract: LayerContract
    #: Restrict to these rule ids (None = all).
    rules: frozenset[str] | None = None
    #: Force every file into one category (the fixture corpus is linted
    #: *as if* it lived under ``src/repro``).
    treat_as: str | None = None
    #: Force the dotted module name (single-file runs only; lets a
    #: corpus snippet pose as e.g. ``repro.model.bad`` for layering).
    module_override: str | None = None

    @classmethod
    def default(cls) -> "LintConfig":
        return cls(contract=load_contract())


# ----------------------------------------------------------------------
# path -> category / module name
# ----------------------------------------------------------------------

def categorize(path: str | Path) -> str:
    """Which scope a file belongs to, from its path segments."""
    parts = Path(path).as_posix().split("/")
    if "repro" in parts and "src" in parts:
        return "src"
    for category in ("tests", "benchmarks", "tools", "examples"):
        if category in parts:
            return category
    return "other"


def module_name_for(path: str | Path) -> str:
    """Dotted module name; ``src/repro/sim/core.py`` -> ``repro.sim.core``."""
    parts = list(Path(path).with_suffix("").parts)
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    elif "repro" in parts:
        parts = parts[parts.index("repro") :]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or Path(path).stem


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------

def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local-name -> dotted-origin map over *every* import in the file.

    Function-level imports are included: an aliased entropy call is
    just as nondeterministic inside a helper as at module scope.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                aliases[item.asname or item.name.split(".")[0]] = (
                    item.name if item.asname else item.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for item in node.names:
                aliases[item.asname or item.name] = f"{node.module}.{item.name}"
    return aliases


def dotted_name(node: ast.expr, aliases: dict[str, str] | None = None) -> str | None:
    """Reduce ``a.b.c`` / aliased names to a dotted string, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    head = node.id
    if aliases and head in aliases:
        head = aliases[head]
    parts.append(head)
    return ".".join(reversed(parts))


def module_level_imports(
    tree: ast.Module,
) -> Iterable[tuple[ast.Import | ast.ImportFrom, bool]]:
    """Yield ``(import_node, typing_only)`` for load-time imports.

    Imports inside ``if TYPE_CHECKING:`` are yielded with
    ``typing_only=True`` (they never execute, so they are exempt from
    the layer DAG); imports inside functions are not yielded at all —
    a deliberately lazy upward import is the sanctioned cycle-breaking
    idiom (see ``workload/program.py``).
    """
    def walk(body: Sequence[ast.stmt], typing_only: bool):
        for node in body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield node, typing_only
            elif isinstance(node, ast.If):
                test_name = dotted_name(node.test)
                guard = typing_only or (
                    test_name is not None and test_name.endswith("TYPE_CHECKING")
                )
                yield from walk(node.body, guard)
                yield from walk(node.orelse, typing_only)
            elif isinstance(node, ast.Try):
                for block in (node.body, node.orelse, node.finalbody):
                    yield from walk(block, typing_only)
                for handler in node.handlers:
                    yield from walk(handler.body, typing_only)

    yield from walk(tree.body, False)


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------

_SUPPRESSION = re.compile(
    r"#\s*repro-lint:\s*ignore\[([A-Za-z0-9_\-, ]+)\]"
    r"(?:\s*--\s*(\S.*?))?\s*$"
)
_MARKER = re.compile(r"#\s*repro-lint:")


def _comment_tokens(code: str) -> list[tuple[int, str]]:
    """``(lineno, comment_text)`` for every real comment token.

    Tokenizing (rather than regex over raw lines) keeps suppression
    syntax quoted inside strings and docstrings inert.
    """
    comments: list[tuple[int, str]] = []
    try:
        for token in tokenize.generate_tokens(io.StringIO(code).readline):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass  # unparsable files surface as syntax-error findings
    return comments


def parse_suppressions(
    path: str, code: str
) -> tuple[dict[int, Suppression], list[Finding]]:
    """Parse inline suppressions; malformed ones become findings."""
    table: dict[int, Suppression] = {}
    findings: list[Finding] = []
    for lineno, text in _comment_tokens(code):
        if not _MARKER.search(text):
            continue
        match = _SUPPRESSION.search(text)
        if match is None:
            findings.append(Finding(
                path, lineno, "bad-suppression",
                "malformed repro-lint comment; expected "
                "'# repro-lint: ignore[rule] -- reason'",
            ))
            continue
        rules = tuple(
            r.strip() for r in match.group(1).split(",") if r.strip()
        )
        reason = (match.group(2) or "").strip()
        if not rules or not reason:
            findings.append(Finding(
                path, lineno, "bad-suppression",
                "suppression needs both a rule list and a '-- reason'",
            ))
            continue
        table[lineno] = Suppression(lineno, rules, reason)
    return table, findings


def apply_suppressions(
    path: str, findings: list[Finding], table: dict[int, Suppression]
) -> list[Finding]:
    """Drop suppressed findings; surface unused suppressions."""
    kept: list[Finding] = []
    for finding in findings:
        suppression = table.get(finding.line)
        if (
            suppression is not None
            and finding.rule not in ENGINE_RULES
            and finding.rule in suppression.rules
        ):
            suppression.used = True
            continue
        kept.append(finding)
    for lineno in sorted(table):
        suppression = table[lineno]
        if not suppression.used:
            kept.append(Finding(
                path,
                lineno,
                "unused-suppression",
                f"suppression ignore[{','.join(suppression.rules)}] "
                "matched no finding; delete it or fix the rule list",
            ))
    return kept


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------

def _rule_families() -> list[Callable[[LintContext], list[Finding]]]:
    from . import rules_determinism, rules_layering, rules_simsafety

    return [
        rules_determinism.check,
        rules_layering.check,
        rules_simsafety.check,
    ]


def lint_source(
    code: str,
    *,
    path: str = "<memory>",
    module: str = "module",
    category: str = "other",
    is_package: bool = False,
    config: LintConfig | None = None,
) -> list[Finding]:
    """Lint one source string (the unit-test / corpus entry point)."""
    config = config or LintConfig.default()
    lines = code.splitlines()
    table, findings = parse_suppressions(path, code)
    try:
        tree = ast.parse(code, filename=path)
    except SyntaxError as exc:
        findings.append(Finding(
            path, exc.lineno or 1, "syntax-error", f"cannot parse: {exc.msg}"
        ))
        return findings
    ctx = LintContext(
        path=path,
        module=config.module_override or module,
        category=config.treat_as or category,
        is_package=is_package,
        tree=tree,
        lines=lines,
        contract=config.contract,
        aliases=import_aliases(tree),
    )
    for family in _rule_families():
        findings.extend(family(ctx))
    if config.rules is not None:
        findings = [
            f for f in findings
            if f.rule in config.rules or f.rule in ENGINE_RULES
        ]
    findings = apply_suppressions(path, findings, table)
    return sorted(findings, key=lambda f: (f.line, f.rule))


def lint_file(path: str | Path, config: LintConfig | None = None) -> list[Finding]:
    path = Path(path)
    return lint_source(
        path.read_text(encoding="utf-8"),
        path=str(path),
        module=module_name_for(path),
        category=categorize(path),
        is_package=path.name == "__init__.py",
        config=config,
    )


def lint_paths(
    paths: Iterable[str | Path], config: LintConfig | None = None
) -> list[Finding]:
    """Lint files and/or directory trees; order-stable output."""
    config = config or LintConfig.default()
    files: list[Path] = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            # The fixture corpus is deliberately full of findings; it is
            # linted file-by-file (explicit paths) by its own test
            # harness, never swept up in a directory scan.
            files.extend(
                f for f in sorted(entry.rglob("*.py"))
                if "lint_corpus" not in f.parts
            )
        elif entry.suffix == ".py":
            files.append(entry)
    findings: list[Finding] = []
    for file in files:
        findings.extend(lint_file(file, config))
    return findings

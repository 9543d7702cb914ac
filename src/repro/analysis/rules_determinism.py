"""Determinism rules: the source-level side of "seedable and replayable".

Every rule here is the static shadow of an invariant the test suite
samples dynamically (PYTHONHASHSEED-subprocess bit-identity,
sharded==serial, facade==manual):

``wall-clock``
    No ``time.time()`` / ``datetime.now()`` etc. anywhere under
    ``src/repro``: virtual time comes from the simulator only.
``entropy``
    No ambient entropy — ``os.urandom``, ``uuid.uuid1/uuid4``,
    ``secrets.*``, module-level ``random.*`` draws, unseeded
    ``random.Random()``, and numpy's legacy global-state
    ``numpy.random.<draw>`` helpers.
``env-read``
    ``os.environ`` / ``os.getenv`` reads make behaviour depend on
    ambient shell state; only the documented knob modules
    (:data:`ENV_ALLOWLIST`) may read them.
``unordered-iter``
    Iterating a ``set``/``frozenset`` in an order-sensitive position:
    hash order of strings varies with PYTHONHASHSEED, so a bare
    ``for x in some_set`` feeding bookkeeping, scheduling, or
    serialization silently breaks cross-process identity.  Iteration
    into order-insensitive sinks (``len``/``any``/``all``/``min``/
    ``max``/``sum``/``set``/``frozenset``/``sorted``, or building
    another set) is allowed.
``rng-stream``
    ``numpy.random.default_rng(x)`` where ``x`` is neither a
    ``derive_seed(...)`` call nor an integer literal: ad-hoc seed
    arithmetic is exactly how the PR-2 PYTHONHASHSEED bug happened,
    and ``default_rng()`` with no argument draws from the OS.

All five apply only to ``category == "src"``; tests and benchmarks
may use wall clocks freely.  :data:`ENTROPY_ALLOWLIST` exempts the
modules whose *job* is ambient state: seed derivation, the CLI's
env-knob plumbing, and the sanitizer that patches these very calls.
"""

from __future__ import annotations

import ast

from .engine import Finding, LintContext, dotted_name

#: Modules exempt from wall-clock/entropy/env-read (their job is the
#: boundary itself).
ENTROPY_ALLOWLIST = frozenset({
    "repro.seeding",
    "repro.experiments.cli",
    "repro.analysis.sanitizer",
})

#: Modules exempt from env-read only (documented runtime knobs).
ENV_ALLOWLIST = ENTROPY_ALLOWLIST

WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

ENTROPY_CALLS = frozenset({
    "os.urandom", "os.getrandom",
    "uuid.uuid1", "uuid.uuid4",
})

#: numpy.random module-level constructors that are deterministic and
#: seed-disciplined; everything else on numpy.random is legacy global
#: state.
NUMPY_RANDOM_OK = frozenset({
    "numpy.random.default_rng", "numpy.random.Generator",
    "numpy.random.SeedSequence", "numpy.random.PCG64",
    "numpy.random.Philox", "numpy.random.BitGenerator",
})

#: Dotted suffixes known (by convention in this codebase) to denote
#: frozenset accessors: ``Slot.sensors`` / ``CorrelationOperator.sensors``
#: are frozensets, while ``deployment.sensors`` is an
#: ordered tuple of placements — so the *suffix*, not the bare
#: attribute name, is what disambiguates.
SET_ATTRIBUTE_SUFFIXES = (
    "operator.sensors",
    "root.sensors",
    "slot.sensors",
    "subscription.sensor_ids",
)

#: Call sinks into which unordered iteration is order-insensitive.
ORDER_INSENSITIVE_SINKS = frozenset({
    "len", "any", "all", "min", "max", "sum", "set", "frozenset", "sorted",
})

SET_METHODS = frozenset({
    "intersection", "union", "difference", "symmetric_difference",
})


def _is_set_producing(node: ast.expr, set_vars: set[str]) -> bool:
    """Syntactically set-valued: literal, comp, set() call, set method,
    a known frozenset attribute, or a local assigned from one."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in SET_METHODS:
            return True
        return False
    if isinstance(node, ast.Attribute):
        dotted = dotted_name(node)
        if dotted is not None and any(
            dotted == suffix or dotted.endswith("." + suffix)
            for suffix in SET_ATTRIBUTE_SUFFIXES
        ):
            return True
        return False
    if isinstance(node, ast.Name) and node.id in set_vars:
        return True
    return False


def _scope_set_vars(scope: ast.AST) -> set[str]:
    """Names assigned *only* from set-producing expressions in ``scope``.

    A name ever rebound to a non-set expression is dropped — better to
    miss a hazard than to flag a false one (the dynamic sanitizer and
    the equivalence suites back this rule up).  Scopes are analysed
    per-function (via :func:`_collect_set_vars`), so a dict-valued
    ``sensors`` in one method does not shadow a set-valued ``sensors``
    in another.
    """
    candidates: set[str] = set()
    rebound: set[str] = set()
    for node in _walk_scope(scope):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                if _is_set_producing(node.value, set()):
                    candidates.add(target.id)
                else:
                    rebound.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            annotation = ast.unparse(node.annotation)
            if annotation.startswith(("set[", "frozenset[", "set", "frozenset")):
                candidates.add(node.target.id)
            else:
                rebound.add(node.target.id)
        elif isinstance(node, (ast.For, ast.comprehension)):
            target = node.target
            if isinstance(target, ast.Name):
                rebound.add(target.id)
    return candidates - rebound


def _walk_scope(scope: ast.AST):
    """Descendants of ``scope`` without entering nested functions."""
    stack = [scope]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack.append(child)
            yield child


def _scope_tables(tree: ast.Module) -> tuple[dict[ast.AST, ast.AST], dict[ast.AST, set[str]]]:
    """(node -> owning scope, scope -> set-typed names) for the file."""
    owner: dict[ast.AST, ast.AST] = {}
    tables: dict[ast.AST, set[str]] = {}
    scopes: list[ast.AST] = [tree] + [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for scope in scopes:
        tables[scope] = _scope_set_vars(scope)
        for node in _walk_scope(scope):
            owner[node] = scope
    return owner, tables


def check(ctx: LintContext) -> list[Finding]:
    if ctx.category != "src":
        return []
    findings: list[Finding] = []
    allow_entropy = ctx.module in ENTROPY_ALLOWLIST
    allow_env = ctx.module in ENV_ALLOWLIST
    scope_of, set_tables = _scope_tables(ctx.tree)

    def set_vars_at(node: ast.AST) -> set[str]:
        return set_tables.get(scope_of.get(node, ctx.tree), set())

    imports_stdlib_random = ctx.aliases.get("random") == "random" or any(
        origin == "random" or origin.startswith("random.")
        for origin in ctx.aliases.values()
    )

    #: generator-exps that appear as the sole argument of a safe sink
    safe_comps: set[ast.expr] = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call) and len(node.args) == 1:
            name = dotted_name(node.func, ctx.aliases)
            if name in ORDER_INSENSITIVE_SINKS:
                safe_comps.add(node.args[0])

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            findings.extend(_check_call(
                ctx, node, allow_entropy, allow_env,
                imports_stdlib_random, set_vars_at(node),
            ))
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            if not allow_env and dotted_name(node.value, ctx.aliases) == "os.environ":
                findings.append(ctx.finding(
                    node, "env-read",
                    "os.environ read outside the env-knob allowlist; "
                    "thread the value through configuration instead",
                ))
        elif isinstance(node, ast.For):
            if _is_set_producing(node.iter, set_vars_at(node)):
                findings.append(ctx.finding(
                    node.iter, "unordered-iter",
                    "iterating a set in hash order (PYTHONHASHSEED-"
                    "dependent); wrap in sorted(...)",
                ))
        elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
            if isinstance(node, ast.GeneratorExp) and node in safe_comps:
                continue
            for generator in node.generators:
                if _is_set_producing(generator.iter, set_vars_at(node)):
                    findings.append(ctx.finding(
                        generator.iter, "unordered-iter",
                        "comprehension over a set materialises hash "
                        "order; wrap the source in sorted(...)",
                    ))
    return findings


def _check_call(
    ctx: LintContext,
    node: ast.Call,
    allow_entropy: bool,
    allow_env: bool,
    imports_stdlib_random: bool,
    set_vars: set[str],
) -> list[Finding]:
    findings: list[Finding] = []
    name = dotted_name(node.func, ctx.aliases)
    if name is None:
        return findings

    if not allow_entropy:
        if name in WALL_CLOCK_CALLS:
            findings.append(ctx.finding(
                node, "wall-clock",
                f"{name}() reads the wall clock; simulation time comes "
                "from Simulator.now only",
            ))
        elif name in ENTROPY_CALLS or name.startswith("secrets."):
            findings.append(ctx.finding(
                node, "entropy",
                f"{name}() draws ambient entropy; derive randomness "
                "from the run seed via derive_seed",
            ))
        elif (
            imports_stdlib_random
            and name.startswith("random.")
            and name.count(".") == 1
        ):
            if name == "random.Random" and node.args:
                pass  # seeded instance: deterministic
            else:
                findings.append(ctx.finding(
                    node, "entropy",
                    f"{name}() uses the global random stream; use a "
                    "seeded generator derived via derive_seed",
                ))
        elif name.startswith("numpy.random.") and name not in NUMPY_RANDOM_OK:
            findings.append(ctx.finding(
                node, "entropy",
                f"{name}() mutates numpy's legacy global RNG state; "
                "use default_rng(derive_seed(...))",
            ))

    if not allow_env and name in ("os.getenv", "os.environ.get"):
        findings.append(ctx.finding(
            node, "env-read",
            f"{name}() reads the process environment outside the "
            "env-knob allowlist",
        ))

    if name in ("numpy.random.default_rng", "numpy.random.Generator"):
        findings.extend(_check_rng_stream(ctx, node))

    # list()/tuple() over a set materialises hash order into a sequence.
    if (
        isinstance(node.func, ast.Name)
        and node.func.id in ("list", "tuple")
        and len(node.args) == 1
        and _is_set_producing(node.args[0], set_vars)
    ):
        findings.append(ctx.finding(
            node, "unordered-iter",
            f"{node.func.id}() over a set freezes hash order into a "
            "sequence; use sorted(...)",
        ))
    return findings


def _check_rng_stream(ctx: LintContext, node: ast.Call) -> list[Finding]:
    if not node.args:
        return [ctx.finding(
            node, "rng-stream",
            "default_rng() with no seed draws OS entropy; pass "
            "derive_seed(...)",
        )]
    seed = node.args[0]
    if isinstance(seed, ast.Constant) and isinstance(seed.value, int):
        return []  # fixed literal: deterministic by construction
    if isinstance(seed, ast.Call):
        callee = dotted_name(seed.func, ctx.aliases)
        if callee is not None and callee.split(".")[-1] == "derive_seed":
            return []
    return [ctx.finding(
        node, "rng-stream",
        "RNG stream seeded by ad-hoc arithmetic; route the seed "
        "through derive_seed(...) so streams stay independent and "
        "PYTHONHASHSEED-free",
    )]

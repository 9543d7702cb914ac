"""The machine-readable import-layer contract (``layers.toml``).

The repo's architecture docs have always *described* a layering —
model at the bottom, experiments at the top — but nothing enforced
it.  ``layers.toml`` encodes that DAG as data: each layer names the
``repro`` module prefixes it owns and the layers it may import at
module load time.  The loader validates the contract itself (unknown
layer references, duplicate ownership, cycles in the declared graph)
before any file is linted, so a bad contract fails loudly rather
than silently allowing everything.

Resolution is longest-prefix on dot boundaries: ``repro.network.node``
belongs to the layer owning ``repro.network``.  The bare root package
name (``repro``) is special-cased to match only the package
``__init__`` itself — otherwise every future unassigned package would
silently inherit the root layer's (maximal) privileges instead of
being flagged ``layer-unassigned``.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass
from pathlib import Path

#: The contract shipped next to this module; the CLI default.
DEFAULT_CONTRACT_PATH = Path(__file__).with_name("layers.toml")


class ContractError(ValueError):
    """The contract file itself is invalid (not a lint finding)."""


@dataclass(frozen=True, slots=True)
class Layer:
    name: str
    modules: tuple[str, ...]
    may_import: frozenset[str]


@dataclass(frozen=True, slots=True)
class LayerContract:
    root_package: str
    layers: tuple[Layer, ...]

    def layer_of(self, module: str) -> str | None:
        """Layer owning ``module``, by longest prefix; None if unassigned."""
        best: tuple[int, str] | None = None
        for layer in self.layers:
            for prefix in layer.modules:
                if prefix == self.root_package:
                    if module != prefix:
                        continue
                elif module != prefix and not module.startswith(prefix + "."):
                    continue
                if best is None or len(prefix) > best[0]:
                    best = (len(prefix), layer.name)
        return best[1] if best else None

    def allows(self, src_layer: str, dst_layer: str) -> bool:
        """May load-time code in ``src_layer`` import ``dst_layer``?"""
        if src_layer == dst_layer:
            return True
        by_name = {layer.name: layer for layer in self.layers}
        return dst_layer in by_name[src_layer].may_import


def _detect_cycle(layers: tuple[Layer, ...]) -> list[str] | None:
    """First cycle in the declared may-import graph, as a name path."""
    edges = {layer.name: sorted(layer.may_import) for layer in layers}
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {name: WHITE for name in edges}
    stack: list[str] = []

    def visit(name: str) -> list[str] | None:
        colour[name] = GREY
        stack.append(name)
        for succ in edges[name]:
            if colour[succ] == GREY:
                return stack[stack.index(succ) :] + [succ]
            if colour[succ] == WHITE:
                cycle = visit(succ)
                if cycle is not None:
                    return cycle
        stack.pop()
        colour[name] = BLACK
        return None

    for name in sorted(edges):
        if colour[name] == WHITE:
            cycle = visit(name)
            if cycle is not None:
                return cycle
    return None


def parse_contract(data: dict) -> LayerContract:
    """Validate raw TOML data into a :class:`LayerContract`."""
    meta = data.get("contract", {})
    root_package = meta.get("root-package", "repro")
    raw_layers = data.get("layer", [])
    if not raw_layers:
        raise ContractError("contract declares no [[layer]] tables")

    layers: list[Layer] = []
    seen_names: set[str] = set()
    owned: dict[str, str] = {}
    for raw in raw_layers:
        name = raw.get("name")
        if not name:
            raise ContractError("every [[layer]] needs a name")
        if name in seen_names:
            raise ContractError(f"duplicate layer name {name!r}")
        seen_names.add(name)
        modules = tuple(raw.get("modules", ()))
        if not modules:
            raise ContractError(f"layer {name!r} owns no modules")
        for prefix in modules:
            if prefix in owned:
                raise ContractError(
                    f"module prefix {prefix!r} owned by both "
                    f"{owned[prefix]!r} and {name!r}"
                )
            owned[prefix] = name
        layers.append(Layer(
            name=name,
            modules=modules,
            may_import=frozenset(raw.get("may-import", ())),
        ))

    for layer in layers:
        unknown = sorted(layer.may_import - seen_names)
        if unknown:
            raise ContractError(
                f"layer {layer.name!r} may-import unknown layers: {unknown}"
            )

    cycle = _detect_cycle(tuple(layers))
    if cycle is not None:
        raise ContractError(
            "layer contract is cyclic: " + " -> ".join(cycle)
        )
    return LayerContract(root_package=root_package, layers=tuple(layers))


def load_contract(path: str | Path | None = None) -> LayerContract:
    """Load and validate ``layers.toml`` (the shipped one by default)."""
    contract_path = Path(path) if path is not None else DEFAULT_CONTRACT_PATH
    try:
        with open(contract_path, "rb") as handle:
            data = tomllib.load(handle)
    except FileNotFoundError as exc:
        raise ContractError(f"contract file not found: {contract_path}") from exc
    except tomllib.TOMLDecodeError as exc:
        raise ContractError(f"contract is not valid TOML: {exc}") from exc
    return parse_contract(data)

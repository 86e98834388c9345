"""Reference functionality table and component-model resolution.

A system's evaluation units form a three-level hierarchy: level-1 user goal
(data / problem / model), level-2 functionality, and level-3 terminal
component. The built-in reference table fixes the first two levels; a
builder-supplied configuration resolves it into a concrete
:class:`ComponentModel` by choosing one action per level-2 entry: adopt it
unchanged, split it into finer components, omit it, or add a brand-new
level-2 entry of their own.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Any, Iterable, Mapping, Sequence

from .errors import EvalCardsError, decode_utf8

__all__ = [
    "Level1",
    "ActionKind",
    "ReferenceFunctionality",
    "ComponentSpec",
    "ResolutionAction",
    "Component",
    "ComponentModel",
    "AlignmentRow",
    "AlignmentMap",
    "load_reference",
    "resolve_model",
    "resolution_warnings",
    "align_models",
    "load_config",
    "parse_config",
    "config_skeleton",
    "slugify",
]


class Level1(str, Enum):
    """Top-level user goal a functionality belongs to."""

    DATA = "data"
    PROBLEM = "problem"
    MODEL = "model"

    @classmethod
    def parse(cls, text: str) -> "Level1":
        try:
            return cls(str(text).strip().lower())
        except ValueError:
            raise InvalidAction(
                f"unknown level-1 id {text!r} (expected one of: data, problem, model)"
            ) from None


class ActionKind(str, Enum):
    APPLY = "apply"
    SUBDIVIDE = "subdivide"
    DROP = "drop"
    CREATE = "create"


@dataclass(frozen=True)
class ReferenceFunctionality:
    """One built-in level-2 functionality: what a user does with a system."""

    l1_id: Level1
    l2_id: str
    description: str


_REFERENCE: tuple[ReferenceFunctionality, ...] = (
    ReferenceFunctionality(Level1.DATA, "open_dataset", "A user selects a dataset"),
    ReferenceFunctionality(
        Level1.DATA,
        "explore_dataset",
        "A user looks up a dataset (e.g., check the distribution of a feature, "
        "see a specific instance)",
    ),
    ReferenceFunctionality(
        Level1.DATA,
        "augment_dataset",
        "A user augments a dataset (e.g., a user searches other relevant datasets "
        "and joins new features with the chosen dataset) or adds/removes features",
    ),
    ReferenceFunctionality(
        Level1.DATA, "transform_dataset", "A user cleans/bins features in a dataset"
    ),
    ReferenceFunctionality(
        Level1.PROBLEM,
        "specify_problem",
        "A user specifies a series of parameters required for an AutoML system to "
        "generate models (i.e., target metric, type of ML models, advanced "
        "settings, etc.)",
    ),
    ReferenceFunctionality(
        Level1.MODEL,
        "summarize_models",
        "A user requests/looks up general information about a set of models "
        "generated by an AutoML system",
    ),
    ReferenceFunctionality(
        Level1.MODEL,
        "explain_model",
        "A user views detailed information about a model (e.g., performance, "
        "cases for making accurate or inaccurate predictions)",
    ),
    ReferenceFunctionality(
        Level1.MODEL, "compare_models", "A user requests information to compare multiple models"
    ),
    ReferenceFunctionality(Level1.MODEL, "export_model", "A user exports a model"),
)

# Display titles for the reference level-2 keys; applied components inherit these.
_L2_TITLES: dict[str, str] = {
    "open_dataset": "Open a dataset",
    "explore_dataset": "Explore a dataset",
    "augment_dataset": "Augment a dataset",
    "transform_dataset": "Transform a dataset",
    "specify_problem": "Specify a problem",
    "summarize_models": "Summarize models",
    "explain_model": "Explain a model",
    "compare_models": "Compare models",
    "export_model": "Export a model",
}

_REFERENCE_KEYS: tuple[str, ...] = tuple(ref.l2_id for ref in _REFERENCE)


def load_reference() -> list[ReferenceFunctionality]:
    """Return the nine built-in level-2 functionalities, in table order."""
    return list(_REFERENCE)


# --------------------------------------------------------------------------
# Errors
# --------------------------------------------------------------------------


class TaxonomyError(EvalCardsError):
    pass


class InvalidAction(TaxonomyError):
    pass


class UnknownL2Target(TaxonomyError):
    pass


class DuplicateTarget(TaxonomyError):
    pass


class MissingL2Action(TaxonomyError):
    def __init__(self, missing: Sequence[str]):
        self.missing = tuple(missing)
        super().__init__(
            "no action assigned for reference level-2 functionality: "
            + ", ".join(self.missing)
        )


class CreatedL2Collision(TaxonomyError):
    pass


class EmptyModel(TaxonomyError):
    pass


class DuplicateComponentId(TaxonomyError):
    pass


class FewerThanTwoModels(TaxonomyError):
    pass


class ConfigError(TaxonomyError):
    pass


# --------------------------------------------------------------------------
# Actions
# --------------------------------------------------------------------------

_SLUG_RE = re.compile(r"[^a-z0-9]+")


def slugify(label: str) -> str:
    """Derive a component id from a human label: ``See PDPs`` -> ``see_pdps``."""
    slug = _SLUG_RE.sub("_", label.lower()).strip("_")
    if not slug:
        raise InvalidAction(f"cannot derive a component id from label {label!r}")
    return slug


@dataclass(frozen=True)
class ComponentSpec:
    """A terminal component requested by a subdivide or create action."""

    comp_id: str
    label: str


def _coerce_specs(items: Iterable) -> tuple[ComponentSpec, ...]:
    specs = []
    for item in items:
        if isinstance(item, ComponentSpec):
            specs.append(item)
        elif isinstance(item, str):
            specs.append(ComponentSpec(slugify(item), item))
        elif isinstance(item, (tuple, list)) and len(item) == 2:
            specs.append(ComponentSpec(str(item[0]), str(item[1])))
        else:
            raise InvalidAction(f"bad component entry: {item!r}")
    return tuple(specs)


@dataclass(frozen=True)
class ResolutionAction:
    """One builder decision about a level-2 functionality."""

    kind: ActionKind
    target_l2: str | None = None
    new_components: tuple[ComponentSpec, ...] = ()
    new_l1: Level1 | None = None
    new_l2: str | None = None

    def __post_init__(self):
        kind = self.kind
        if kind in (ActionKind.APPLY, ActionKind.DROP):
            if not self.target_l2:
                raise InvalidAction(f"{kind.value} requires a target level-2 key")
            if self.new_components or self.new_l1 or self.new_l2:
                raise InvalidAction(f"{kind.value} takes no new components or labels")
        elif kind is ActionKind.SUBDIVIDE:
            if not self.target_l2:
                raise InvalidAction("subdivide requires a target level-2 key")
            if len(self.new_components) < 2:
                raise InvalidAction(
                    f"subdivide of {self.target_l2!r} lists "
                    f"{len(self.new_components)} component(s); at least 2 required"
                )
            if self.new_l1 or self.new_l2:
                raise InvalidAction("subdivide keeps the reference hierarchy")
        elif kind is ActionKind.CREATE:
            if self.target_l2:
                raise InvalidAction("create does not target a reference key")
            if self.new_l1 is None or not self.new_l2:
                raise InvalidAction("create requires both a level-1 parent and a fresh level-2 key")
            if not self.new_components:
                raise InvalidAction(f"create {self.new_l2!r} lists no components")

    @classmethod
    def apply(cls, target_l2: str) -> "ResolutionAction":
        return cls(ActionKind.APPLY, target_l2=target_l2)

    @classmethod
    def drop(cls, target_l2: str) -> "ResolutionAction":
        return cls(ActionKind.DROP, target_l2=target_l2)

    @classmethod
    def subdivide(cls, target_l2: str, components: Iterable) -> "ResolutionAction":
        return cls(ActionKind.SUBDIVIDE, target_l2=target_l2, new_components=_coerce_specs(components))

    @classmethod
    def create(cls, l1: Level1 | str, l2: str, components: Iterable) -> "ResolutionAction":
        l1 = l1 if isinstance(l1, Level1) else Level1.parse(l1)
        return cls(
            ActionKind.CREATE,
            new_l1=l1,
            new_l2=l2,
            new_components=_coerce_specs(components),
        )


# --------------------------------------------------------------------------
# Component model
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Component:
    """A terminal (level-3) evaluation unit with its full ancestry."""

    comp_id: str
    label: str
    l1_id: Level1
    l2_id: str
    origin: ActionKind


@dataclass(frozen=True)
class ComponentModel:
    """A system's resolved hierarchy; component order is the canonical order."""

    system_name: str
    components: tuple[Component, ...]

    def __post_init__(self):
        seen = set()
        for comp in self.components:
            if comp.comp_id in seen:
                raise DuplicateComponentId(f"duplicate component id {comp.comp_id!r}")
            seen.add(comp.comp_id)
        if not self.components:
            raise EmptyModel(f"model {self.system_name!r} has no terminal components")

    def __len__(self) -> int:
        return len(self.components)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # The hash dataclass would give, computed once: every lru_cache keyed
        # by a model hashes it on each call. Equality stays field by field.
        return hash((self.system_name, self.components))

    @cached_property
    def comp_ids(self) -> tuple[str, ...]:
        return tuple(c.comp_id for c in self.components)

    @cached_property
    def index(self) -> Mapping[str, int]:
        """Position of each comp_id in canonical order."""
        return MappingProxyType({comp_id: i for i, comp_id in enumerate(self.comp_ids)})

    @property
    def l2_order(self) -> tuple[str, ...]:
        """Level-2 keys in canonical order (first appearance wins)."""
        order: list[str] = []
        for comp in self.components:
            if comp.l2_id not in order:
                order.append(comp.l2_id)
        return tuple(order)

    def components_of_l2(self, l2_id: str) -> tuple[Component, ...]:
        return tuple(c for c in self.components if c.l2_id == l2_id)

    def to_dict(self) -> dict:
        return {
            "system_name": self.system_name,
            "components": [
                {
                    "comp_id": c.comp_id,
                    "label": c.label,
                    "l1_id": c.l1_id.value,
                    "l2_id": c.l2_id,
                    "origin": c.origin.value,
                }
                for c in self.components
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ComponentModel":
        try:
            components = tuple(
                Component(
                    comp_id=str(entry["comp_id"]),
                    label=str(entry["label"]),
                    l1_id=Level1.parse(entry["l1_id"]),
                    l2_id=str(entry["l2_id"]),
                    origin=ActionKind(entry["origin"]),
                )
                for entry in data["components"]
            )
            return cls(system_name=str(data["system_name"]), components=components)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed component model document: {exc}") from exc


def resolve_model(system_name: str, actions: Sequence[ResolutionAction]) -> ComponentModel:
    """Resolve builder actions against the reference table.

    Every reference level-2 key must be covered by exactly one apply,
    subdivide, or drop; created level-2 keys must be fresh. Raises
    :class:`UnknownL2Target`, :class:`DuplicateTarget`,
    :class:`MissingL2Action`, :class:`CreatedL2Collision`,
    :class:`EmptyModel`, or :class:`DuplicateComponentId`.
    """
    by_target: dict[str, ResolutionAction] = {}
    creates: list[ResolutionAction] = []
    for action in actions:
        if action.kind is ActionKind.CREATE:
            creates.append(action)
            continue
        target = action.target_l2
        assert target is not None
        if target not in _L2_TITLES:
            raise UnknownL2Target(f"unknown reference level-2 key {target!r}")
        if target in by_target:
            raise DuplicateTarget(f"level-2 key {target!r} targeted by more than one action")
        by_target[target] = action

    missing = [key for key in _REFERENCE_KEYS if key not in by_target]
    if missing:
        raise MissingL2Action(missing)

    created_keys = set()
    for action in creates:
        assert action.new_l2 is not None
        if action.new_l2 in _L2_TITLES:
            raise CreatedL2Collision(
                f"created level-2 key {action.new_l2!r} collides with a reference key"
            )
        if action.new_l2 in created_keys:
            raise CreatedL2Collision(f"level-2 key {action.new_l2!r} created twice")
        created_keys.add(action.new_l2)

    components: list[Component] = []
    for ref in _REFERENCE:
        action = by_target[ref.l2_id]
        if action.kind is ActionKind.DROP:
            continue
        if action.kind is ActionKind.APPLY:
            components.append(
                Component(
                    comp_id=ref.l2_id,
                    label=_L2_TITLES[ref.l2_id],
                    l1_id=ref.l1_id,
                    l2_id=ref.l2_id,
                    origin=ActionKind.APPLY,
                )
            )
        else:
            for spec in action.new_components:
                components.append(
                    Component(
                        comp_id=spec.comp_id,
                        label=spec.label,
                        l1_id=ref.l1_id,
                        l2_id=ref.l2_id,
                        origin=ActionKind.SUBDIVIDE,
                    )
                )
    for action in creates:
        assert action.new_l1 is not None and action.new_l2 is not None
        for spec in action.new_components:
            components.append(
                Component(
                    comp_id=spec.comp_id,
                    label=spec.label,
                    l1_id=action.new_l1,
                    l2_id=action.new_l2,
                    origin=ActionKind.CREATE,
                )
            )

    if not components:
        raise EmptyModel(
            f"model {system_name!r} resolves to no components "
            "(all reference functionality dropped, nothing created)"
        )
    return ComponentModel(system_name=system_name, components=tuple(components))


def resolution_warnings(actions: Sequence[ResolutionAction]) -> list[str]:
    """Non-fatal flags worth surfacing when validating a configuration.

    Creating a sibling under a level-1 goal that still retains reference
    functionality is allowed but easy to do by accident, so it is flagged.
    """
    retained_l1 = set()
    ref_l1 = {ref.l2_id: ref.l1_id for ref in _REFERENCE}
    for action in actions:
        if action.kind in (ActionKind.APPLY, ActionKind.SUBDIVIDE) and action.target_l2:
            retained_l1.add(ref_l1[action.target_l2])
    warnings = []
    for action in actions:
        if action.kind is ActionKind.CREATE and action.new_l1 in retained_l1:
            warnings.append(
                f"created level-2 {action.new_l2!r} sits under {action.new_l1.value!r} "
                "alongside retained reference functionality; check it is not a duplicate"
            )
    return warnings


# --------------------------------------------------------------------------
# Cross-system alignment
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AlignmentRow:
    """One reference level-2 key and each system's components beneath it."""

    l2_id: str
    systems: Mapping[str, tuple[str, ...]]


@dataclass(frozen=True)
class AlignmentMap:
    rows: tuple[AlignmentRow, ...]
    unaligned: Mapping[str, tuple[tuple[str, tuple[str, ...]], ...]]
    system_names: tuple[str, ...] = field(default=())

    def row(self, l2_id: str) -> AlignmentRow:
        for row in self.rows:
            if row.l2_id == l2_id:
                return row
        raise KeyError(l2_id)


def align_models(models: Sequence[ComponentModel]) -> AlignmentMap:
    """Map each surviving reference level-2 key to every system's components.

    Created (non-reference) level-2 keys do not align; they land in the
    per-system ``unaligned`` residue instead.
    """
    if len(models) < 2:
        raise FewerThanTwoModels(f"alignment needs at least 2 models, got {len(models)}")
    names = [m.system_name for m in models]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate system names in alignment input: {names}")

    rows = []
    for key in _REFERENCE_KEYS:
        systems = {}
        for model in models:
            comps = model.components_of_l2(key)
            if comps:
                systems[model.system_name] = tuple(c.comp_id for c in comps)
        if systems:
            rows.append(AlignmentRow(l2_id=key, systems=systems))

    unaligned = {}
    for model in models:
        residue = []
        for l2 in model.l2_order:
            if l2 not in _L2_TITLES:
                residue.append((l2, tuple(c.comp_id for c in model.components_of_l2(l2))))
        unaligned[model.system_name] = tuple(residue)
    return AlignmentMap(rows=tuple(rows), unaligned=unaligned, system_names=tuple(names))


# --------------------------------------------------------------------------
# Configuration documents
# --------------------------------------------------------------------------

_ACTION_WORDS = ("apply", "subdivide", "drop")


def _parse_spec_entry(entry) -> ComponentSpec:
    if isinstance(entry, str):
        return ComponentSpec(slugify(entry), entry)
    if isinstance(entry, Mapping):
        unknown = set(entry) - {"id", "label"}
        if unknown:
            raise ConfigError(f"unknown component keys {sorted(unknown, key=str)}")
        label = entry.get("label")
        comp_id = entry.get("id")
        if label is None and comp_id is None:
            raise ConfigError("component needs an id or a label")
        if label is None:
            label = str(comp_id).replace("_", " ").capitalize()
        if comp_id is None:
            comp_id = slugify(str(label))
        return ComponentSpec(str(comp_id), str(label))
    raise ConfigError("component entries must be strings or id/label mappings")


def _created_action(entry) -> ResolutionAction:
    if not isinstance(entry, Mapping):
        raise ConfigError("must be a mapping with l1, l2, components")
    unknown_keys = set(entry) - {"l1", "l2", "components"}
    if unknown_keys:
        raise ConfigError(f"unknown keys {sorted(unknown_keys, key=str)}")
    l1 = Level1.parse(entry.get("l1", ""))
    l2 = entry.get("l2")
    if not l2 or not isinstance(l2, str):
        raise ConfigError("must name a fresh level-2 key under 'l2'")
    items = entry.get("components")
    if not isinstance(items, list) or not items:
        raise ConfigError("'components' must be a non-empty list")
    return ResolutionAction.create(l1, l2, [_parse_spec_entry(item) for item in items])


def yaml_document(text: str, error: type[EvalCardsError]) -> tuple[Any, dict[Any, tuple[int, Any]]]:
    """Load one YAML document as ``yaml.safe_load`` does, and return it with
    the 1-based line and the value node of each top-level key, from the
    node marks. The keys are the document's own, so ``1:`` is keyed by the
    integer 1. Text that is not YAML raises ``error`` with its location.
    """
    import yaml  # here, so that reading an export never loads the YAML parser

    try:
        loader = yaml.SafeLoader(text)
        try:
            node = loader.get_single_node()
            doc = None if node is None else loader.construct_document(node)
            pairs = node.value if isinstance(node, yaml.MappingNode) else ()
            keys = {loader.construct_object(k, deep=True): (k.start_mark.line + 1, v) for k, v in pairs}
        finally:
            loader.dispose()
    except RecursionError:
        raise error("not valid YAML (nested too deeply)") from None
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = f"line {mark.line + 1}, column {mark.column + 1}"
        raise error(f"{where}: not valid YAML ({exc.problem})") from None
    except yaml.reader.ReaderError as exc:  # a character that YAML does not allow
        where = f"character {exc.position}"
        raise error(f"{where}: not valid YAML (#x{exc.character:04x}: {exc.reason})") from None
    return doc, keys


def parse_config(text: str) -> tuple[str, list[ResolutionAction]]:
    """Parse a taxonomy configuration document into (system_name, actions).

    An error about one top-level key or one ``create`` item starts with
    ``line L:``, the line of that key or item. Checks across entries, such
    as a reference key that no entry covers, are left to :func:`resolve_model`.
    """
    doc, keys = yaml_document(text, ConfigError)
    if not isinstance(doc, Mapping):
        raise ConfigError("configuration must be a mapping at top level")

    def at(key) -> str:
        return f"line {keys[key][0]}: " if key in keys else ""

    system_name = doc.get("system_name")
    if not system_name or not isinstance(system_name, str):
        raise ConfigError(f"{at('system_name')}configuration must set a non-empty 'system_name'")

    known = set(_REFERENCE_KEYS) | {"system_name", "create"}
    unknown = [k for k in doc if k not in known]
    if unknown:
        raise ConfigError(
            f"{at(unknown[0])}unknown top-level key {unknown[0]!r} "
            f"(expected the reference level-2 keys, 'system_name', 'create')"
        )

    actions: list[ResolutionAction] = []
    unassigned: list[str] = []
    for key in _REFERENCE_KEYS:
        if key not in doc:
            continue  # resolve_model reports the full missing set
        value = doc[key]
        word = value.strip().lower() if isinstance(value, str) else None
        if isinstance(value, Mapping) and set(value) == {"subdivide"}:
            word, value = "subdivide", value["subdivide"]
        if word not in _ACTION_WORDS:
            unassigned.append(f"{key} (line {keys[key][0]})")
            continue
        try:
            if word != "subdivide":
                actions.append(ResolutionAction(ActionKind(word), target_l2=key))
            elif not isinstance(value, list):
                raise ConfigError("subdivide must carry a component list")
            else:
                actions.append(ResolutionAction.subdivide(key, map(_parse_spec_entry, value)))
        except TaxonomyError as exc:
            raise ConfigError(f"{at(key)}{key}: {exc}") from exc
    if unassigned:
        raise ConfigError(
            "no action chosen for: "
            + ", ".join(unassigned)
            + f" (each entry must be one of: {', '.join(_ACTION_WORDS)})"
        )

    creates = doc.get("create") or []
    if not isinstance(creates, list):
        raise ConfigError(f"{at('create')}'create' must be a list of l1/l2/components mappings")
    for i, (entry, node) in enumerate(zip(creates, keys["create"][1].value if creates else ())):
        try:
            actions.append(_created_action(entry))
        except TaxonomyError as exc:
            raise ConfigError(f"line {node.start_mark.line + 1}: create[{i}]: {exc}") from exc

    return system_name, actions


def load_config(path: str | Path) -> tuple[str, list[ResolutionAction]]:
    """Read and parse a taxonomy configuration file; every error names ``path`` once."""
    try:
        return parse_config(decode_utf8(Path(path).read_bytes(), ConfigError))
    except TaxonomyError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_skeleton(system_name: str = "my-system") -> str:
    """An editable configuration listing every reference key, action unassigned."""
    lines = [
        "# Component definition skeleton.",
        "#",
        "# For every reference level-2 functionality below, replace 'unassigned'",
        "# with exactly one action:",
        "#   apply        adopt it unchanged as a single terminal component",
        "#   drop         omit it (no matching feature in this system)",
        "#   subdivide    split it into >= 2 system-specific components, e.g.",
        "#                  explain_model:",
        "#                    subdivide:",
        "#                      - {id: see_confusion_matrix, label: See a confusion matrix}",
        "#",
        "# Extra level-2 functionality, if any, goes under 'create':",
        "#   create:",
        "#     - l1: model",
        "#       l2: tune_model",
        "#       components: [{id: adjust_search_depth, label: Adjust search depth}]",
        "",
        f"system_name: {system_name}",
        "",
    ]
    for ref in _REFERENCE:
        lines.append(f"# [{ref.l1_id.value}] {ref.description}")
        lines.append(f"{ref.l2_id}: unassigned")
        lines.append("")
    return "\n".join(lines)

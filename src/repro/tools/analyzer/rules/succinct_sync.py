"""RL007 — succinct-sync.

The succinct symbol backend (:mod:`repro.engine.succinct`) keeps a
wavelet-matrix mirror of the store's symbol columns.  Unlike the
top-k profile index, its staleness protocol is *eager at the notification
edge*: the index must snapshot the pre-mutation layout **before** the
column write lands (copy-on-write is impossible after the fact), so
every mutation path through a succinct-backed store has to tell the
index about the write — by calling the mark-stale hook or touching
``self._succinct`` directly — in the same method that performs it.
A path that forgets leaves the wavelet matrices answering over a
layout that no longer exists, and count/position answers silently
diverge from the scan oracle.

The rule applies to *succinct-backed store classes* — classes whose
``__init__`` assigns ``_succinct`` and at least one attribute from a
``_ColumnSet(...)`` constructor — and checks that every method which
directly rewrites column storage (the same mutation grammar as RL001:
mutating calls on a column-set attribute, or subscript writes through
a column-set attribute or column-view property) also *notifies the
succinct index*: a call to a ``self._succinct*`` method (e.g.
``self._succinct_mark_stale()``), a method call on ``self._succinct``
itself (e.g. ``self._succinct.note_mutation()``), or an assignment to
``self._succinct``.  Methods that only delegate to such a mutator are
exempt — the notification duty travels with the direct write.
``__init__`` is exempt: binding the column sets constructs the
pre-index baseline.
"""

from __future__ import annotations

import ast

from repro.tools.analyzer.findings import Finding
from repro.tools.analyzer.project import ClassModel, Project, is_self_attribute
from repro.tools.analyzer.registry import rule
from repro.tools.analyzer.rules.journalled_mutation import MUTATING_COLUMN_CALLS

RULE_ID = "RL007"


def _is_succinct_store(model: ClassModel) -> bool:
    return "_succinct" in model.init_attrs and bool(_column_set_attrs(model))


def _column_set_attrs(model: ClassModel) -> "set[str]":
    """Attributes initialised from a ``_ColumnSet(...)`` constructor."""
    attrs: "set[str]" = set()
    for name, value in model.init_attrs.items():
        if isinstance(value, ast.Call):
            func = value.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if called == "_ColumnSet":
                attrs.add(name)
    return attrs


def _subscript_root_attr(target: ast.AST) -> "str | None":
    while isinstance(target, ast.Subscript):
        target = target.value
    return is_self_attribute(target)


def _directly_mutates(
    func: ast.FunctionDef, column_sets: "set[str]", column_views: "set[str]"
) -> "tuple[int, int] | None":
    """(line, col) of the first direct column write in ``func``."""
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            called = node.func
            if (
                isinstance(called, ast.Attribute)
                and called.attr in MUTATING_COLUMN_CALLS
                and is_self_attribute(called.value) in column_sets
            ):
                return node.lineno, node.col_offset
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                root = _subscript_root_attr(target)
                if root is not None and (root in column_sets or root in column_views):
                    return node.lineno, node.col_offset
    return None


def _notifies_succinct(func: ast.FunctionDef) -> bool:
    """Whether ``func`` tells the succinct index about the mutation."""
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            # self._succinct_mark_stale() / self._succinct_anything().
            attr = is_self_attribute(node.func)
            if attr is not None and attr.startswith("_succinct"):
                return True
            # self._succinct.note_mutation() and friends.
            if (
                isinstance(node.func, ast.Attribute)
                and is_self_attribute(node.func.value) == "_succinct"
            ):
                return True
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(is_self_attribute(target) == "_succinct" for target in targets):
                return True
    return False


@rule(
    RULE_ID,
    "succinct-sync",
    "column mutations in a succinct-backed store must notify the succinct "
    "symbol index (mark-stale hook or a self._succinct call) in the same method",
)
def check(project: Project) -> "list[Finding]":
    findings: "list[Finding]" = []
    for model in project.all_classes():
        if not _is_succinct_store(model):
            continue
        column_sets = _column_set_attrs(model)
        column_views = {
            name
            for name in model.properties
            if model.property_backing(name) & column_sets
        }
        for name in sorted(model.methods):
            if name == "__init__":
                continue
            func = model.methods[name]
            site = _directly_mutates(func, column_sets, column_views)
            if site is None or _notifies_succinct(func):
                continue
            findings.append(
                Finding(
                    path=model.path,
                    line=func.lineno,
                    col=func.col_offset,
                    rule_id=RULE_ID,
                    message=(
                        f"{model.name}.{name} rewrites column storage (line "
                        f"{site[0]}) without notifying the succinct symbol "
                        f"index; the wavelet-matrix mirror cannot snapshot "
                        f"the pre-mutation layout after the write lands"
                    ),
                )
            )
    return findings

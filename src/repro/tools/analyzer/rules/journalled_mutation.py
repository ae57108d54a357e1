"""RL001 — journalled-mutation.

The byte-parity contract behind the delta-revalidated result cache
(PR 5) is that *every* columnar-store mutation bumps ``_generation``
and records the touched sequence ids in the store's
:class:`~repro.engine.journal.MutationJournal`.  A mutation path that
forgets either leaves cached answers silently stale.

The rule applies to *journalled store classes* — classes whose
``__init__`` assigns both ``_generation`` and ``_journal`` — and
checks two things:

1. **Whitelist** — when the class has a mutator whitelist entry (the
   shipped :class:`~repro.engine.columnar.ColumnarSegmentStore` does),
   any method that writes column storage without being whitelisted is
   an error.  New mutation surfaces must be reviewed into the list,
   not discovered in review.
2. **Journal-on-all-paths** — every mutating method must, on every
   exit path that performed a mutation, both bump ``self._generation``
   and call ``self._journal.record(...)``.  The check walks an
   abstract state (mutated / bumped / recorded) through the method
   body: branches merge conservatively (a bump counts only if it
   happens on *all* merged branches), loop bodies may execute zero
   times (mutations inside count, bumps inside do not), and ``raise``
   exits are exempt (a validation failure before or during a mutation
   is the caller's problem, not a journalling one).

Column mutations are: mutating calls (``extend`` / ``delete_range`` /
``delete_where`` / ``splice``) on an attribute initialised from
``_ColumnSet(...)``; subscript writes through a column-view property
(a property whose getter reads a column-set attribute); and calls to a
private helper of the same class that itself mutates (the helper is
exempt from journalling — its journalled callers own the bump).
``__init__`` is exempt throughout: binding the column sets is how the
generation-0 baseline comes to exist, and no cached answer can predate
construction.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace

from repro.tools.analyzer.findings import Finding
from repro.tools.analyzer.project import ClassModel, Project, is_self_attribute
from repro.tools.analyzer.registry import rule

RULE_ID = "RL001"

#: _ColumnSet methods that rewrite rows.
MUTATING_COLUMN_CALLS = frozenset(
    {"extend", "delete_range", "delete_where", "splice"}
)

#: Reviewed mutation surfaces per store class.  A journalled class with
#: an entry here may only mutate columns through these methods; classes
#: without an entry skip the whitelist check (the journalling check
#: still applies to every mutating method).
MUTATOR_WHITELIST: "dict[str, frozenset[str]]" = {
    "ColumnarSegmentStore": frozenset(
        {
            "insert",
            "extend",
            "delete",
            "delete_many",
            "replace",
            "replace_many",
            "replace_stacked",
        }
    ),
}


def _is_journalled_store(model: ClassModel) -> bool:
    return "_generation" in model.init_attrs and "_journal" in model.init_attrs


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


def _column_view_properties(model: ClassModel, column_sets: "set[str]") -> "set[str]":
    """Properties whose getter reads a column-set attribute."""
    return {
        name
        for name in model.properties
        if model.property_backing(name) & column_sets
    }


def _subscript_root_attr(target: ast.AST) -> "str | None":
    """``self.<attr>`` at the root of a subscripted assignment target."""
    while isinstance(target, ast.Subscript):
        target = target.value
    return is_self_attribute(target)


class _MutationScanner:
    """Classifies statements of one journalled class's methods."""

    def __init__(self, model: ClassModel) -> None:
        self.model = model
        self.column_sets = _column_set_attrs(model)
        self.column_views = _column_view_properties(model, self.column_sets)
        # Fixpoint over helper calls: a method mutates if it touches
        # columns directly or calls a same-class method that mutates.
        # __init__ is exempt: it binds the column sets in the first
        # place, establishing the generation-0 baseline that no cached
        # answer can predate.
        self.direct_mutators = {
            name
            for name, func in model.methods.items()
            if name != "__init__" and self._directly_mutates(func)
        }
        self.mutators = set(self.direct_mutators)
        changed = True
        while changed:
            changed = False
            for name, func in model.methods.items():
                if name in self.mutators or name == "__init__":
                    continue
                if model.self_calls(func) & self.mutators:
                    # Only *private* helpers propagate mutation to their
                    # callers; a call to a public mutator delegates the
                    # journalling duty along with the mutation.
                    if any(
                        called in self.mutators and called.startswith("_")
                        for called in model.self_calls(func)
                    ):
                        self.mutators.add(name)
                        changed = True
        # Private mutating helpers with a mutating caller journal
        # through that caller.
        self.exempt_helpers = {
            name
            for name in self.mutators
            if name.startswith("_")
            and any(
                name in model.self_calls(func)
                for caller, func in model.methods.items()
                if caller != name and caller in self.mutators
            )
        }

    def _directly_mutates(self, func: ast.FunctionDef) -> bool:
        for node in ast.walk(func):
            if self.is_mutation(node):
                return True
        return False

    def is_mutation(self, node: ast.AST) -> bool:
        """Whether one AST node directly rewrites column storage."""
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in MUTATING_COLUMN_CALLS
                and is_self_attribute(func.value) in self.column_sets
            ):
                return True
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                root = _subscript_root_attr(target)
                if root is not None and (
                    root in self.column_views or root in self.column_sets
                ):
                    return True
        return False

    def is_helper_mutation_call(self, node: ast.AST) -> bool:
        """A call to a private mutating helper of the same class."""
        if isinstance(node, ast.Call):
            attr = is_self_attribute(node.func)
            return (
                attr is not None
                and attr.startswith("_")
                and attr in self.mutators
                and attr in self.model.methods
            )
        return False


@dataclass(frozen=True)
class _State:
    mutated: bool = False
    bumped: bool = False
    recorded: bool = False

    def join(self, other: "_State") -> "_State":
        # Conservative merge at control-flow joins: a mutation on either
        # branch taints, a bump/record counts only when on both.
        return _State(
            mutated=self.mutated or other.mutated,
            bumped=self.bumped and other.bumped,
            recorded=self.recorded and other.recorded,
        )

    @property
    def violating(self) -> bool:
        return self.mutated and not (self.bumped and self.recorded)


def _is_generation_bump(stmt: ast.stmt) -> bool:
    if isinstance(stmt, ast.AugAssign):
        return is_self_attribute(stmt.target) == "_generation"
    if isinstance(stmt, ast.Assign):
        return any(is_self_attribute(target) == "_generation" for target in stmt.targets)
    return False


def _is_journal_record(stmt: ast.stmt) -> bool:
    for node in ast.walk(stmt):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if (
                node.func.attr == "record"
                and is_self_attribute(node.func.value) == "_journal"
            ):
                return True
    return False


class _PathChecker:
    """Walks a method body tracking (mutated, bumped, recorded)."""

    def __init__(self, scanner: _MutationScanner) -> None:
        self.scanner = scanner
        #: (line, col) of exits whose state violates the contract.
        self.violations: "list[tuple[int, int, _State]]" = []

    def check(self, func: ast.FunctionDef) -> None:
        final = self._walk_body(func.body, _State())
        if final is not None and final.violating:
            # Fell off the end of the function with an unjournalled
            # mutation: report at the function head.
            self.violations.append((func.lineno, func.col_offset, final))

    def _effects(self, stmt: ast.stmt, state: _State) -> _State:
        """Statement-local effects, ignoring control flow."""
        mutated = state.mutated
        for node in ast.walk(stmt):
            if self.scanner.is_mutation(node) or self.scanner.is_helper_mutation_call(node):
                mutated = True
        bumped = state.bumped or _is_generation_bump(stmt)
        recorded = state.recorded or _is_journal_record(stmt)
        return _State(mutated=mutated, bumped=bumped, recorded=recorded)

    def _walk_body(self, body: "list[ast.stmt]", state: "_State | None") -> "_State | None":
        """Returns the fall-through state, or None if all paths exited."""
        for stmt in body:
            if state is None:
                return None
            state = self._walk_stmt(stmt, state)
        return state

    def _walk_stmt(self, stmt: ast.stmt, state: _State) -> "_State | None":
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # Defining a nested callable executes nothing from its body.
            return state
        if isinstance(stmt, ast.Return):
            exit_state = self._effects(stmt, state)
            if exit_state.violating:
                self.violations.append((stmt.lineno, stmt.col_offset, exit_state))
            return None
        if isinstance(stmt, ast.Raise):
            # Error exits are exempt: validation raises before (or
            # mid-) mutation are surfaced to the caller as failures.
            return None
        if isinstance(stmt, ast.If):
            branch_states = [
                self._walk_body(stmt.body, self._condition_effects(stmt.test, state)),
                self._walk_body(stmt.orelse, self._condition_effects(stmt.test, state)),
            ]
            live = [branch for branch in branch_states if branch is not None]
            if not live:
                return None
            merged = live[0]
            for branch in live[1:]:
                merged = merged.join(branch)
            return merged
        if isinstance(stmt, (ast.For, ast.While)):
            # Loop bodies may run zero times: mutations inside count
            # (they may happen), bumps/records inside do not (they may
            # not).  The else-branch runs on normal loop exit.
            header = self._condition_effects(
                stmt.iter if isinstance(stmt, ast.For) else stmt.test, state
            )
            body_state = self._walk_body(stmt.body, header)
            after = header
            if body_state is not None:
                after = replace(after, mutated=after.mutated or body_state.mutated)
            return self._walk_body(stmt.orelse, after)
        if isinstance(stmt, ast.With):
            with_state = state
            for item in stmt.items:
                with_state = self._effects_expr(item.context_expr, with_state)
            return self._walk_body(stmt.body, with_state)
        if isinstance(stmt, ast.Try):
            body_state = self._walk_body(stmt.body, state)
            results = [] if body_state is None else [body_state]
            body_may_mutate = any(
                self.scanner.is_mutation(node) or self.scanner.is_helper_mutation_call(node)
                for inner in stmt.body
                for node in ast.walk(inner)
            )
            for handler in stmt.handlers:
                # A handler may have caught the exception at any point
                # in the body — assume the worst (mutated) if the body
                # could mutate at all.
                handler_entry = (
                    replace(state, mutated=True) if body_may_mutate else state
                )
                handler_state = self._walk_body(handler.body, handler_entry)
                if handler_state is not None:
                    results.append(handler_state)
            if not results:
                merged: "_State | None" = None
            else:
                merged = results[0]
                for candidate in results[1:]:
                    merged = merged.join(candidate)
            if stmt.finalbody:
                return self._walk_body(stmt.finalbody, merged if merged is not None else state)
            return merged
        return self._effects(stmt, state)

    def _condition_effects(self, expr: "ast.AST | None", state: _State) -> _State:
        if expr is None:
            return state
        return self._effects_expr(expr, state)

    def _effects_expr(self, expr: ast.AST, state: _State) -> _State:
        mutated = state.mutated
        for node in ast.walk(expr):
            if self.scanner.is_mutation(node) or self.scanner.is_helper_mutation_call(node):
                mutated = True
        return replace(state, mutated=mutated)


@rule(
    RULE_ID,
    "journalled-mutation",
    "column-store mutations must be whitelisted and must bump _generation "
    "and record the touched ids in the mutation journal on every path",
)
def check(project: Project) -> "list[Finding]":
    findings: "list[Finding]" = []
    for model in project.all_classes():
        if not _is_journalled_store(model):
            continue
        scanner = _MutationScanner(model)
        whitelist = MUTATOR_WHITELIST.get(model.name)
        for name in sorted(scanner.direct_mutators):
            func = model.methods[name]
            if whitelist is not None and name not in whitelist:
                findings.append(
                    Finding(
                        path=model.path,
                        line=func.lineno,
                        col=func.col_offset,
                        rule_id=RULE_ID,
                        message=(
                            f"{model.name}.{name} writes column storage but is not "
                            f"a whitelisted mutator; route the write through a "
                            f"journalled mutator or review it into the whitelist"
                        ),
                    )
                )
        for name in sorted(scanner.mutators):
            if name in scanner.exempt_helpers:
                continue
            func = model.methods[name]
            checker = _PathChecker(scanner)
            checker.check(func)
            for line, col, state in checker.violations:
                missing = []
                if not state.bumped:
                    missing.append("bump self._generation")
                if not state.recorded:
                    missing.append("call self._journal.record(...)")
                findings.append(
                    Finding(
                        path=model.path,
                        line=line,
                        col=col,
                        rule_id=RULE_ID,
                        message=(
                            f"{model.name}.{name} mutates column storage on a path "
                            f"that does not {' or '.join(missing)}; stale cached "
                            f"answers would survive this mutation"
                        ),
                    )
                )
    return findings

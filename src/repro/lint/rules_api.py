"""API001: ``__all__`` must agree with the module's public surface.

Both directions are bugs: a name in ``__all__`` that does not exist
breaks ``from module import *`` and misdocuments the API; a public
``def``/``class`` missing from ``__all__`` is an accidental export that
drifts out of the package ``__init__`` re-export lists.

A package ``__init__`` may bind some exports lazily (PEP 562) through
:func:`repro._lazy.lazy_exports`: ``__getattr__ = lazy_exports(__name__,
TABLE, globals())`` where ``TABLE`` is a ``{name: submodule}`` dict
literal, inline or assigned at module level.  Each key of that table
counts as bound, and each key must itself be listed in ``__all__``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.engine import LintContext, Rule, register
from repro.lint.findings import Finding

__all__ = ["DunderAllConsistency"]


def _find_all(tree: ast.Module) -> Optional[Tuple[ast.Assign, List[str]]]:
    """The module's ``__all__ = [...]`` assignment and its names."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    try:
                        names = list(ast.literal_eval(node.value))
                    except (ValueError, TypeError):
                        return None
                    if all(isinstance(n, str) for n in names):
                        return node, names
    return None


def _top_level_bindings(tree: ast.Module) -> Set[str]:
    """Names bound at module top level, descending into top-level
    ``if``/``try`` blocks (conditional definitions still count)."""
    bound: Set[str] = set()

    def visit(body) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            bound.add(name.id)
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name):
                    bound.add(node.target.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound.add((alias.asname or alias.name).split(".")[0])
            elif isinstance(node, ast.If):
                visit(node.body)
                visit(node.orelse)
            elif isinstance(node, ast.Try):
                visit(node.body)
                for handler in node.handlers:
                    visit(handler.body)
                visit(node.orelse)
                visit(node.finalbody)

    visit(tree.body)
    return bound


def _lazy_table(tree: ast.Module) -> Dict[str, ast.expr]:
    """Keys of the ``lazy_exports`` table behind a module-level
    ``__getattr__``, each mapped to its key node (empty if none)."""
    dicts: Dict[str, ast.Dict] = {}
    call: Optional[ast.Call] = None
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if isinstance(value, ast.Dict):
                dicts[target.id] = value
            if (target.id == "__getattr__" and isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id == "lazy_exports"):
                call = value
    if call is None or len(call.args) < 2:
        return {}
    table: Optional[ast.expr] = call.args[1]
    if isinstance(table, ast.Name):
        table = dicts.get(table.id)
    if not isinstance(table, ast.Dict):
        return {}
    return {key.value: key for key in table.keys
            if isinstance(key, ast.Constant) and isinstance(key.value, str)}


def _public_defs(tree: ast.Module) -> Iterator[ast.stmt]:
    """Top-level public function/class definitions (incl. conditional)."""

    def visit(body) -> Iterator[ast.stmt]:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not node.name.startswith("_"):
                    yield node
            elif isinstance(node, ast.If):
                yield from visit(node.body)
                yield from visit(node.orelse)
            elif isinstance(node, ast.Try):
                yield from visit(node.body)
                for handler in node.handlers:
                    yield from visit(handler.body)
                yield from visit(node.orelse)
                yield from visit(node.finalbody)

    return visit(tree.body)


@register
class DunderAllConsistency(Rule):
    rule_id = "API001"
    title = "__all__ out of sync with the module's public definitions"
    rationale = (
        "A phantom __all__ entry breaks star-imports and misdocuments"
        " the API; a public def/class missing from __all__ is an"
        " accidental export the package __init__ re-export lists will"
        " miss. Keys of a lazy_exports table count as bound and must be"
        " exported. Modules without __all__ are exempt."
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        found = _find_all(ctx.tree)
        if found is None:
            return
        all_node, exported = found
        lazy = _lazy_table(ctx.tree)
        bound = _top_level_bindings(ctx.tree) | set(lazy)
        for name in exported:
            if name not in bound:
                yield ctx.finding(
                    self.rule_id, all_node,
                    f"__all__ exports {name!r} but the module does not"
                    " define it",
                )
        exported_set = set(exported)
        for name, key in lazy.items():
            if name not in exported_set:
                yield ctx.finding(
                    self.rule_id, key,
                    f"lazy export {name!r} is missing from __all__"
                    " (export it or drop it from the table)",
                )
        for node in _public_defs(ctx.tree):
            name = getattr(node, "name", "")
            if name not in exported_set:
                yield ctx.finding(
                    self.rule_id, node,
                    f"public definition {name!r} is missing from __all__"
                    " (export it or prefix with an underscore)",
                )

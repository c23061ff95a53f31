"""RL007 — the docstring rule.

The standalone docs gate predates the lint framework; its policy lives
here so ``repro lint`` is the single static gate (``python -m
repro.lint --rules RL007`` runs just this rule):

* every module needs a module docstring,
* every public class (not ``_``-prefixed) needs a class docstring,
* every public module-level function needs a docstring,
* under ``repro/report/`` — the documented extension surface — public
  *methods* of public classes need docstrings too.

Methods elsewhere are deliberately exempt: the simulator packages
document interface contracts once, on the ABC or class docstring.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.base import LintRule, SourceFile, register_rule
from repro.lint.diagnostics import Diagnostic

#: Path fragment selecting the stricter methods-need-docstrings policy.
METHODS_REQUIRED_FRAGMENT = "repro/report/"


@register_rule
class DocstringRule(LintRule):
    """Public modules, classes and functions need docstrings."""

    rule_id = "RL007"
    title = "public API needs docstrings"
    scope = "file"

    def check_file(self, src: SourceFile) -> Iterator[Diagnostic]:
        """Apply the docstring policy to one module."""
        if src.tree is None:
            return
        require_methods = METHODS_REQUIRED_FRAGMENT in src.rel
        if ast.get_docstring(src.tree) is None:
            yield self.diagnostic(src.rel, 1, "module missing docstring")
        for node in src.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("_") \
                        and ast.get_docstring(node) is None:
                    yield self.diagnostic(
                        src.rel, node.lineno,
                        f"{node.name}() missing docstring")
            elif isinstance(node, ast.ClassDef) \
                    and not node.name.startswith("_"):
                if ast.get_docstring(node) is None:
                    yield self.diagnostic(
                        src.rel, node.lineno,
                        f"class {node.name} missing docstring")
                if require_methods:
                    yield from self._check_methods(src, node)

    def _check_methods(self, src: SourceFile,
                       node: ast.ClassDef) -> Iterator[Diagnostic]:
        for member in node.body:
            if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if member.name.startswith("_"):
                continue
            if ast.get_docstring(member) is None:
                yield self.diagnostic(
                    src.rel, member.lineno,
                    f"method {node.name}.{member.name}() missing docstring")

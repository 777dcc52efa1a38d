"""Tiny arithmetic expression language for test functions on the CLI.

Accepted: the variables ``s`` and ``t``, numeric literals, ``+ - * /``,
``^`` with a numeric-literal exponent, and the call forms ``sqr(...)`` and
``inv(...)``.  Anything else is rejected with :class:`ExprError` so the CLI
can map it to a usage failure.
"""

from __future__ import annotations

import ast
from typing import Callable

__all__ = ["ExprError", "compile_expr"]


class ExprError(ValueError):
    """The expression falls outside the supported grammar."""


_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_NAMES = {"s", "t"}
_CALLS = {"sqr", "inv"}


def _validate(node: ast.AST) -> None:
    if isinstance(node, ast.Expression):
        _validate(node.body)
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, _BINOPS):
            raise ExprError(f"operator {type(node.op).__name__} is not supported")
        if isinstance(node.op, ast.Pow) and not _is_literal(node.right):
            raise ExprError("exponent of ^ must be a numeric literal")
        _validate(node.left)
        _validate(node.right)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, (ast.USub, ast.UAdd)):
            raise ExprError(f"operator {type(node.op).__name__} is not supported")
        _validate(node.operand)
    elif isinstance(node, ast.Call):
        if not (isinstance(node.func, ast.Name) and node.func.id in _CALLS):
            raise ExprError("only sqr(...) and inv(...) calls are supported")
        if len(node.args) != 1 or node.keywords:
            raise ExprError(f"{node.func.id}() takes exactly one positional argument")
        _validate(node.args[0])
    elif isinstance(node, ast.Name):
        if node.id not in _NAMES:
            raise ExprError(f"unknown name {node.id!r}; only s and t are available")
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ExprError(f"literal {node.value!r} is not numeric")
    else:
        raise ExprError(f"syntax {type(node).__name__} is not supported")


def _is_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_literal(node.operand)
    return isinstance(node, ast.Constant) and isinstance(node.value, (int, float))


def compile_expr(text: str) -> Callable[[float, float], float]:
    """Compile the expression to a callable of (s, t)."""
    if not text or not text.strip():
        raise ExprError("empty expression")
    source = text.replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ExprError(f"cannot parse expression {text!r}: {exc.msg}") from None
    _validate(tree)
    # lambda s, t=0.0: float(<expression>), evaluated once; its globals hold
    # only the helpers and float, and no builtins.
    args = ast.arguments(
        posonlyargs=[], args=[ast.arg("s"), ast.arg("t")], kwonlyargs=[],
        kw_defaults=[], defaults=[ast.Constant(0.0)],
    )
    body = ast.Call(ast.Name("float", ast.Load()), [tree.body], [])
    func = ast.fix_missing_locations(ast.Expression(ast.Lambda(args, body)))
    env = {
        "__builtins__": {},
        "float": float,
        "sqr": lambda x: x * x,
        "inv": lambda x: 1.0 / x,
    }
    return eval(compile(func, "<qfrac --f>", "eval"), env)

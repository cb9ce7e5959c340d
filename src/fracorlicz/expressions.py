"""Coefficient expressions in config files, read by a whitelist over Python's ``ast``.

The grammar: numeric literals, x, + - * /, unary minus, exp(expr), pow(expr,
const) and the Gaussian bump(center, width) = exp(-((x - center)/width)^2),
where a const is a literal with at most one leading minus.  Any other syntax
Python parses (``**``, unary plus, comments, hex, underscored or complex
literals, integers with leading zeros, keyword arguments), and nesting too
deep to parse, is an ExpressionError carrying the 1-based column.
"""

from __future__ import annotations

import ast
import operator
import re
import warnings
from typing import Union

import numpy as np

__all__ = ["ExpressionError", "parse_expression", "evaluate_expression"]

_NUMBER = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_SIGNED = rf"\s*(-?\s*{_NUMBER.pattern})\s*"
_BAD_CHAR = re.compile(r"[^0-9A-Za-z_ .()+\-*/,]")  # ast drops "#..." and counts bytes
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}
# the source patterns see what the tree drops: a parenthesised const, a trailing comma
_CALLS = {
    "exp": ("exp(expr)", 1, re.compile(r"exp\s*\(.*[^,\s]\s*\)")),
    "pow": ("pow(expr, const)", 2, re.compile(rf"pow\s*\(.*,{_SIGNED}\)")),
    "bump": ("bump(const, const)", 2, re.compile(rf"bump\s*\({_SIGNED},{_SIGNED}\)")),
}


class ExpressionError(ValueError):
    """Parse or evaluation failure, carrying the 1-based column."""

    def __init__(self, message: str, column: int):
        super().__init__(f"column {column}: {message}")
        self.column = column


def _check(node: ast.expr, text: str, lead: int) -> None:
    """Reject every node outside the grammar; literals become floats."""
    source = text[node.col_offset:node.end_col_offset]
    column = lead + node.col_offset + 1
    if isinstance(node, ast.Constant) and _NUMBER.fullmatch(source):
        node.value = float(source)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        _check(node.operand, text, lead)
    elif isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        _check(node.left, text, lead)
        _check(node.right, text, lead)
    elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in _CALLS:
        usage, arity, pattern = _CALLS[node.func.id]
        if len(node.args) != arity or node.keywords or not pattern.fullmatch(source):
            raise ExpressionError(f"expected {usage}", column)
        for arg in node.args:
            _check(arg, text, lead)
    elif not (isinstance(node, ast.Name) and node.id == "x"):
        raise ExpressionError(f"{source!r} is outside the grammar "
                              "(numbers, x, + - * /, exp, pow, bump)", column)


def parse_expression(text: str) -> ast.expr:
    """Check text against the grammar; the result is reusable by evaluate_expression."""
    text = re.sub(r"\s", " ", text)  # configparser continuation lines carry newlines
    body = text.lstrip()  # ast.parse rejects leading blanks: columns add them back
    lead = len(text) - len(body)
    if not body:
        raise ExpressionError("empty expression", 1)
    if bad := _BAD_CHAR.search(body):
        raise ExpressionError(f"unexpected character {bad.group()!r}", lead + bad.start() + 1)
    try:
        with warnings.catch_warnings():  # "1if" warns; make that the SyntaxError
            warnings.simplefilter("error")
            tree = ast.parse(body, mode="eval").body
        _check(tree, body, lead)
    except SyntaxError as err:  # "too many nested parentheses" included
        raise ExpressionError(err.msg, lead + (err.offset or len(body) + 1)) from None
    except (RecursionError, MemoryError):  # the parser's and the walk's stack limits
        raise ExpressionError("expression nested too deeply", lead + 1) from None
    return tree


def _const(node: ast.expr) -> float:
    return -node.operand.value if isinstance(node, ast.UnaryOp) else node.value


def _eval(node: ast.expr, x: np.ndarray) -> np.ndarray:
    if isinstance(node, ast.Constant):
        return np.full_like(x, node.value, dtype=float)
    if isinstance(node, ast.Name):
        return np.array(x, dtype=float)
    if isinstance(node, ast.UnaryOp):
        return -_eval(node.operand, x)
    if isinstance(node, ast.BinOp):
        return _BINARY[type(node.op)](_eval(node.left, x), _eval(node.right, x))
    if node.func.id == "exp":
        return np.exp(_eval(node.args[0], x))
    if node.func.id == "pow":
        return _eval(node.args[0], x) ** _const(node.args[1])
    return np.exp(-(((x - _const(node.args[0])) / _const(node.args[1])) ** 2))


def evaluate_expression(expr: Union[str, ast.expr], x) -> np.ndarray:
    """Evaluate an expression (source text or parsed form) at abscissae x."""
    node = parse_expression(expr) if isinstance(expr, str) else expr
    return _eval(node, np.atleast_1d(np.asarray(x, dtype=float)))

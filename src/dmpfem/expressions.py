"""Tiny arithmetic expression language for coefficient callbacks.

Coefficient formulas crossing the command-line boundary are plain strings over
the coordinates (x, y and z in 3D), the state value `eta` and the state
gradient components (p1, p2 and p3 in 3D), combined with + - * / ^, unary
minus, numeric literals and the functions sin, cos, exp, abs, min, max.
Each formula is parsed once, through the Python ast with a strict whitelist;
evaluation is numpy-vectorized, and every compiled callable records the
variables its formula uses in `variables`.
"""
from __future__ import annotations

import ast

import numpy as np

from .errors import InvalidParameters

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "abs": np.abs,
    "min": np.minimum,
    "max": np.maximum,
}

_COORDINATES = ("x", "y", "z")
_GRADIENT = ("p1", "p2", "p3")
_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_UNARYOPS = (ast.USub, ast.UAdd)


def _validate_node(node: ast.AST, names: set, source: str) -> None:
    if isinstance(node, ast.Expression):
        _validate_node(node.body, names, source)
    elif isinstance(node, ast.BinOp) and isinstance(node.op, _BINOPS):
        _validate_node(node.left, names, source)
        _validate_node(node.right, names, source)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _UNARYOPS):
        _validate_node(node.operand, names, source)
    elif isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        pass
    elif isinstance(node, ast.Name):
        if node.id not in names:
            raise InvalidParameters(
                f"unknown variable {node.id!r} in {source!r}; allowed: {sorted(names)}")
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise InvalidParameters(f"unknown function call in {source!r}")
        if node.keywords:
            raise InvalidParameters(f"keyword arguments not allowed in {source!r}")
        if node.func.id in ("min", "max") and len(node.args) != 2:
            raise InvalidParameters(f"{node.func.id} takes exactly 2 arguments")
        if node.func.id not in ("min", "max") and len(node.args) != 1:
            raise InvalidParameters(f"{node.func.id} takes exactly 1 argument")
        for arg in node.args:
            _validate_node(arg, names, source)
    else:
        raise InvalidParameters(
            f"unsupported syntax {type(node).__name__} in {source!r}")


def _evaluate(code, source: str, env: dict) -> np.ndarray:
    """Run compiled formula code.  Constant subexpressions run in Python
    arithmetic, where division by zero and overflow raise and a negative base
    to a fractional power gives a complex number (a TypeError for float)."""
    try:
        return np.asarray(eval(code, {"__builtins__": {}}, env), dtype=float)
    except (ArithmeticError, TypeError) as exc:
        raise InvalidParameters(f"cannot evaluate {source!r}: {exc}") from exc


def _formula(source: str, dim: int, names: tuple):
    """Parse and whitelist `source` over the variables `names`, once.

    The returned `fn(x, eta=None, p=None)` binds the coordinates of the points
    `x`, the state `eta` and the gradient components of `p`, each when given,
    and broadcasts the value to the shape of `eta`, else of the points.
    `fn.variables` is the set of variables the formula uses."""
    try:
        tree = ast.parse(source.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise InvalidParameters(f"cannot parse expression {source!r}: {exc}") from exc
    _validate_node(tree, set(names), source)
    code = compile(tree, f"<expr {source!r}>", "eval")

    def fn(x, eta=None, p=None):
        x = np.asarray(x, dtype=float)
        env = dict(_FUNCTIONS)
        env.update((name, x[..., k]) for k, name in enumerate(_COORDINATES[:dim]))
        shape = x.shape[:-1]
        if eta is not None:
            env["eta"] = np.asarray(eta, dtype=float)
            shape = np.shape(eta)
        if p is not None:
            p = np.asarray(p, dtype=float)
            env.update((name, p[..., k]) for k, name in enumerate(_GRADIENT[:dim]))
        return np.broadcast_to(_evaluate(code, source, env), shape)

    fn.variables = frozenset(code.co_names).intersection(names)
    return fn


def point_function(source: str, dim: int):
    """Compile a formula over coordinates only (sources, boundary data)."""
    return _formula(source, dim, _COORDINATES[:dim])


def state_function(source: str, dim: int, with_gradient: bool = True):
    """Compile a formula over coordinates, state and optionally its gradient."""
    names = _COORDINATES[:dim] + ("eta",) + (_GRADIENT[:dim] if with_gradient else ())
    return _formula(source, dim, names)


def vector_state_function(sources, dim: int):
    """Compile per-component formulas into one gradient-shaped callable;
    `variables` is the union of the components' variables."""
    if len(sources) != dim:
        raise InvalidParameters(f"need {dim} drift components, got {len(sources)}")
    components = [state_function(s, dim) for s in sources]

    def fn(x, eta, p):
        x = np.asarray(x, dtype=float)
        vals = [np.broadcast_to(c(x, eta, p), x.shape[:-1]) for c in components]
        return np.stack(vals, axis=-1)

    fn.variables = frozenset().union(*(c.variables for c in components))
    return fn

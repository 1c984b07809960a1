"""Tiny arithmetic expression language for coefficient callbacks.

Coefficient formulas crossing the command-line boundary are plain strings over
the coordinates (x, y and z in 3D), the state value `eta` and the state
gradient components (p1, p2 and p3 in 3D), combined with + - * / ^, unary
minus, numeric literals and the functions sin, cos, exp, abs, min, max.
Parsing goes through the Python ast with a strict whitelist; evaluation is
numpy-vectorized.
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


def _compile(source: str, names: set):
    text = source.replace("^", "**")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise InvalidParameters(f"cannot parse expression {source!r}: {exc}") from exc
    _validate_node(tree, names, source)
    return compile(tree, f"<expr {source!r}>", "eval")


def _evaluate(code, source: str, env: dict) -> np.ndarray:
    """Run compiled formula code.  Constant subexpressions run in Python
    arithmetic, where division by zero and overflow raise and a negative base
    to a fractional power gives a complex number (a TypeError for float)."""
    try:
        return np.asarray(eval(code, {"__builtins__": {}}, env), dtype=float)
    except (ArithmeticError, TypeError) as exc:
        raise InvalidParameters(f"cannot evaluate {source!r}: {exc}") from exc


def _coordinate_env(x: np.ndarray, dim: int) -> dict:
    env = {"x": x[..., 0], "y": x[..., 1]}
    if dim == 3:
        env["z"] = x[..., 2]
    return env


def point_function(source: str, dim: int):
    """Compile a formula over coordinates only (sources, boundary data)."""
    names = {"x", "y"} | ({"z"} if dim == 3 else set())
    code = _compile(source, names)

    def fn(x):
        x = np.asarray(x, dtype=float)
        env = dict(_FUNCTIONS)
        env.update(_coordinate_env(x, dim))
        return np.broadcast_to(_evaluate(code, source, env), x.shape[:-1])

    return fn


def state_function(source: str, dim: int, with_gradient: bool = True):
    """Compile a formula over coordinates, state and optionally its gradient."""
    names = {"x", "y", "eta"} | ({"z"} if dim == 3 else set())
    if with_gradient:
        names |= {f"p{k + 1}" for k in range(dim)}
    code = _compile(source, names)

    if with_gradient:
        def fn(x, eta, p):
            x = np.asarray(x, dtype=float)
            env = dict(_FUNCTIONS)
            env.update(_coordinate_env(x, dim))
            env["eta"] = np.asarray(eta, dtype=float)
            p = np.asarray(p, dtype=float)
            for k in range(dim):
                env[f"p{k + 1}"] = p[..., k]
            return np.broadcast_to(_evaluate(code, source, env), np.shape(eta))
        return fn

    def fn(x, eta):
        x = np.asarray(x, dtype=float)
        env = dict(_FUNCTIONS)
        env.update(_coordinate_env(x, dim))
        env["eta"] = np.asarray(eta, dtype=float)
        return np.broadcast_to(_evaluate(code, source, env), np.shape(eta))
    return fn


def vector_state_function(sources, dim: int):
    """Compile per-component formulas into one gradient-shaped callable."""
    if len(sources) != dim:
        raise InvalidParameters(f"need {dim} drift components, got {len(sources)}")
    components = [state_function(s, dim) for s in sources]

    def fn(x, eta, p):
        x = np.asarray(x, dtype=float)
        vals = [np.broadcast_to(c(x, eta, p), x.shape[:-1]) for c in components]
        return np.stack(vals, axis=-1)

    return fn


def uses_state(source: str) -> bool:
    """Whether a formula references the state or its gradient."""
    text = source.replace("^", "**")
    tree = ast.parse(text, mode="eval")
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and (node.id == "eta" or node.id.startswith("p")):
            return True
    return False


def uses_coordinates(source: str) -> bool:
    text = source.replace("^", "**")
    tree = ast.parse(text, mode="eval")
    return any(isinstance(n, ast.Name) and n.id in ("x", "y", "z")
               for n in ast.walk(tree))

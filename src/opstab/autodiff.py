"""Tape-based reverse-mode differentiation.

The engine works on float64 numpy arrays. A :class:`Tape` records every
primitive operation in construction order; one reverse sweep over that
record yields gradients for any set of leaves. Every operation also runs
on plain arrays, so the same code path serves recorded training graphs
and plain evaluation.

The primitive set is fixed and small: add, sub, mul, tanh, square,
matmul, sum, mean. Everything else (negation, the coordinate jets of
deeponet, ...) is composed from these.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "AutodiffError",
    "NonScalarOutputError",
    "MissingLeafError",
    "ShapeMismatchError",
    "Tape",
    "Var",
    "grad",
    "add", "sub", "mul", "neg", "tanh", "square", "matmul", "total", "mean",
]


class AutodiffError(ValueError):
    """Base class for differentiation contract violations."""


class NonScalarOutputError(AutodiffError):
    """grad was asked to differentiate a non-scalar output."""


class MissingLeafError(AutodiffError):
    """A requested leaf does not belong to the output's tape."""


class ShapeMismatchError(AutodiffError):
    """Operand shapes are incompatible for the requested operation."""


def _f64(x):
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(g, shape):
    """Sum g down to `shape`, undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# --------------------------------------------------------------------------
# primitive registry: forward rule + one vector-Jacobian rule per operand
# --------------------------------------------------------------------------

_FORWARD = {}
_VJP = {}


def _register(name, forward, *vjp_rules):
    """vjp_rules[i](out, parent_values, g) is the cotangent of operand
    i; grad evaluates only the rules of operands that need a gradient."""
    _FORWARD[name] = forward
    _VJP[name] = vjp_rules


def _matmul_vjp_a(out, pv, g):
    a, b = pv
    if b.ndim == 2:
        return g @ b.T
    if a.ndim == 2:
        return np.outer(g, b)
    return g * b  # 1d @ 1d -> scalar


def _matmul_vjp_b(out, pv, g):
    a, b = pv
    if a.ndim == 2:
        return a.T @ g
    if b.ndim == 2:
        return np.outer(a, g)
    return g * a  # 1d @ 1d -> scalar


_register("add", lambda a, b: a + b,
          lambda out, pv, g: _unbroadcast(g, pv[0].shape),
          lambda out, pv, g: _unbroadcast(g, pv[1].shape))
_register("sub", lambda a, b: a - b,
          lambda out, pv, g: _unbroadcast(g, pv[0].shape),
          lambda out, pv, g: _unbroadcast(-g, pv[1].shape))
_register("mul", lambda a, b: a * b,
          lambda out, pv, g: _unbroadcast(g * pv[1], pv[0].shape),
          lambda out, pv, g: _unbroadcast(g * pv[0], pv[1].shape))
_register("tanh", np.tanh,
          lambda out, pv, g: g * (1.0 - out * out))
_register("square", lambda a: a * a,
          lambda out, pv, g: g * 2.0 * pv[0])
_register("matmul", lambda a, b: a @ b, _matmul_vjp_a, _matmul_vjp_b)
_register("sum", np.sum,
          lambda out, pv, g: np.full(pv[0].shape, float(g)))
_register("mean", np.mean,
          lambda out, pv, g: np.full(pv[0].shape, float(g) / pv[0].size))


# --------------------------------------------------------------------------
# tape and variables
# --------------------------------------------------------------------------

class Tape:
    """Append-only, topologically ordered record of primitive operations.

    Construction order is evaluation order, so a single reverse iteration
    over the record visits children before parents. The record is never
    mutated by grad(); it can back any number of reverse sweeps.
    """

    def __init__(self):
        self._ops = []        # (name, parent indices)
        self._values = []     # computed float64 arrays
        self._requires = []   # does this node depend on any leaf?
        self._is_leaf = []

    def __len__(self):
        return len(self._ops)

    def _push(self, name, parents, value, requires, is_leaf=False):
        self._ops.append((name, parents))
        self._values.append(value)
        self._requires.append(requires)
        self._is_leaf.append(is_leaf)
        return Var(self, len(self._ops) - 1)

    def leaf(self, value):
        """Record a differentiable input."""
        return self._push("leaf", (), _f64(value), True, is_leaf=True)

    def constant(self, value):
        """Record a non-differentiable input."""
        return self._push("const", (), _f64(value), False)

    def apply(self, name, *operands):
        operand_vars = []
        for x in operands:
            if isinstance(x, Var):
                if x.tape is not self:
                    raise AutodiffError("operands recorded on different tapes")
                operand_vars.append(x)
            else:
                operand_vars.append(self.constant(x))
        values = [v.value for v in operand_vars]
        try:
            out = _FORWARD[name](*values)
        except ValueError as exc:
            raise ShapeMismatchError(f"{name}: {exc}") from exc
        requires = any(self._requires[v.index] for v in operand_vars)
        return self._push(name, tuple(v.index for v in operand_vars),
                          _f64(out), requires)


class Var:
    """Handle to one recorded node."""

    __slots__ = ("tape", "index")

    def __init__(self, tape, index):
        self.tape = tape
        self.index = index

    @property
    def value(self):
        return self.tape._values[self.index]

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(#{self.index}, shape={self.value.shape})"


# --------------------------------------------------------------------------
# dispatching operations: Var -> numpy
# --------------------------------------------------------------------------

def _is_var(*xs):
    return any(isinstance(x, Var) for x in xs)


def _tape_of(*xs):
    for x in xs:
        if isinstance(x, Var):
            return x.tape
    raise AutodiffError("no tape among operands")


def add(a, b):
    if _is_var(a, b):
        return _tape_of(a, b).apply("add", a, b)
    return _f64(a) + _f64(b)


def sub(a, b):
    if _is_var(a, b):
        return _tape_of(a, b).apply("sub", a, b)
    return _f64(a) - _f64(b)


def mul(a, b):
    if _is_var(a, b):
        return _tape_of(a, b).apply("mul", a, b)
    return _f64(a) * _f64(b)


def neg(a):
    return sub(0.0, a)


def matmul(a, b):
    if _is_var(a, b):
        return _tape_of(a, b).apply("matmul", a, b)
    return _f64(a) @ _f64(b)


def tanh(a):
    if isinstance(a, Var):
        return a.tape.apply("tanh", a)
    return np.tanh(_f64(a))


def square(a):
    if isinstance(a, Var):
        return a.tape.apply("square", a)
    a = _f64(a)
    return a * a


def total(a):
    """Sum of all entries (named to avoid shadowing builtins at import sites)."""
    if isinstance(a, Var):
        return a.tape.apply("sum", a)
    return np.sum(_f64(a))


def mean(a):
    if isinstance(a, Var):
        return a.tape.apply("mean", a)
    return np.mean(_f64(a))


# --------------------------------------------------------------------------
# reverse sweep
# --------------------------------------------------------------------------

def grad(output: Var, leaves: Sequence[Var]) -> dict:
    """Reverse sweep: d(output)/d(leaf) for every requested leaf.

    output must be a recorded scalar. Returns {leaf: gradient array};
    leaves the output does not depend on get zero gradients. The tape is
    left untouched and remains reusable.
    """
    if not isinstance(output, Var):
        raise NonScalarOutputError("output is not a recorded variable")
    if output.value.size != 1:
        raise NonScalarOutputError(
            f"output must be scalar, got shape {output.value.shape}")
    tape = output.tape
    for leaf in leaves:
        if not isinstance(leaf, Var) or leaf.tape is not tape:
            raise MissingLeafError("leaf was not recorded on the output's tape")
        if not tape._is_leaf[leaf.index]:
            raise MissingLeafError(f"node #{leaf.index} is not a leaf")

    adjoint = {output.index: np.ones_like(output.value)}
    leaf_grads = {}
    for idx in range(output.index, -1, -1):
        g = adjoint.pop(idx, None)
        if g is None:
            continue
        name, parents = tape._ops[idx]
        if name == "leaf":
            leaf_grads[idx] = g
            continue
        if name == "const":
            continue
        parent_values = [tape._values[p] for p in parents]
        for p, rule in zip(parents, _VJP[name]):
            if not tape._requires[p]:
                continue
            pg = rule(tape._values[idx], parent_values, g)
            if p in adjoint:
                adjoint[p] = adjoint[p] + pg
            else:
                adjoint[p] = pg
    return {leaf: leaf_grads.get(leaf.index, np.zeros_like(leaf.value))
            for leaf in leaves}

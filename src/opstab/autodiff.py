"""Tape-based reverse-mode differentiation.

The engine works on float64 numpy arrays. A :class:`Tape` records its
leaves and, in construction order, every primitive operation with at
least one recorded operand; a plain-array operand is kept in its node as
a value, never recorded. One reverse sweep over that record yields
gradients for any set of leaves. Every operation also runs on plain
arrays, so the same code path serves recorded training graphs and plain
evaluation.

The primitive set is fixed and small: add, sub, mul, tanh, square,
matmul (2-d operands on the tape), mean. Everything else (negation, the
coordinate jets of deeponet, ...) is composed from these.
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
    "add", "sub", "mul", "neg", "tanh", "square", "matmul", "mean",
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
    """vjp_rules[i](out, operand_values, g) is the cotangent of operand
    i; grad evaluates only the rules of recorded operands."""
    _FORWARD[name] = forward
    _VJP[name] = vjp_rules


def _matmul_2d(a, b):
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"operands must be 2-d, got {a.shape} and {b.shape}")
    return a @ b


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
_register("matmul", _matmul_2d,
          lambda out, pv, g: g @ pv[1].T,
          lambda out, pv, g: pv[0].T @ g)
_register("mean", np.mean,
          lambda out, pv, g: np.full(pv[0].shape, float(g) / pv[0].size))


# --------------------------------------------------------------------------
# tape and variables
# --------------------------------------------------------------------------

class Tape:
    """Append-only, topologically ordered record of leaves and the
    primitive operations that depend on them.

    Each node is (name, parents, operand values), with a node index per
    recorded operand and None per plain one. Construction order is
    evaluation order, so a single reverse iteration over the record
    visits children before parents. The record is never mutated by
    grad(); it can back any number of reverse sweeps.
    """

    def __init__(self):
        self._ops = []        # (name, parents, operand values)
        self._values = []     # computed float64 arrays

    def __len__(self):
        return len(self._ops)

    def _push(self, node, value):
        self._ops.append(node)
        self._values.append(value)
        return Var(self, len(self._ops) - 1)

    def leaf(self, value):
        """Record a differentiable input."""
        return self._push(("leaf", (), ()), _f64(value))

    def apply(self, name, *operands):
        """Record one primitive; at least one operand is a Var of this tape."""
        parents, values = [], []
        for x in operands:
            if isinstance(x, Var):
                if x.tape is not self:
                    raise AutodiffError("operands recorded on different tapes")
                parents.append(x.index)
                values.append(x.value)
            else:
                parents.append(None)
                values.append(_f64(x))
        try:
            out = _FORWARD[name](*values)
        except ValueError as exc:
            raise ShapeMismatchError(f"{name}: {exc}") from exc
        return self._push((name, tuple(parents), tuple(values)), _f64(out))


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

def _apply(name, *operands):
    """Record name on the tape of the first Var operand, or run it on
    plain arrays."""
    for x in operands:
        if isinstance(x, Var):
            return x.tape.apply(name, *operands)
    return _FORWARD[name](*map(_f64, operands))


def add(a, b):
    return _apply("add", a, b)


def sub(a, b):
    return _apply("sub", a, b)


def mul(a, b):
    return _apply("mul", a, b)


def neg(a):
    return sub(0.0, a)


def matmul(a, b):
    """2-d operands on the tape; plain arrays follow numpy's @."""
    if isinstance(a, Var) or isinstance(b, Var):
        return _apply("matmul", a, b)
    return _f64(a) @ _f64(b)


def tanh(a):
    return _apply("tanh", a)


def square(a):
    return _apply("square", a)


def mean(a):
    return _apply("mean", a)


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
        if tape._ops[leaf.index][0] != "leaf":
            raise MissingLeafError(f"node #{leaf.index} is not a leaf")

    adjoint = {output.index: np.ones_like(output.value)}
    leaf_grads = {}
    for idx in range(output.index, -1, -1):
        g = adjoint.pop(idx, None)
        if g is None:
            continue
        name, parents, operand_values = tape._ops[idx]
        if name == "leaf":
            leaf_grads[idx] = g
            continue
        for p, rule in zip(parents, _VJP[name]):
            if p is None:
                continue
            pg = rule(tape._values[idx], operand_values, g)
            if p in adjoint:
                adjoint[p] = adjoint[p] + pg
            else:
                adjoint[p] = pg
    return {leaf: leaf_grads.get(leaf.index, np.zeros_like(leaf.value))
            for leaf in leaves}

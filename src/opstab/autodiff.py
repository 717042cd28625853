"""Tape-based reverse-mode differentiation plus forward-mode duals.

The engine works on float64 numpy arrays. A :class:`Tape` records every
primitive operation in construction order; one reverse sweep over that
record yields gradients for any set of leaves, and the record can be
replayed to reproduce all intermediate values bit-for-bit.

Forward mode is provided by :class:`Dual` values. A Dual's components may
be plain arrays or tape variables, and duals nest, so pushing a
second-order jet through a recorded computation yields exact first and
second coordinate derivatives that are themselves recorded (and therefore
differentiable with respect to any other leaf, e.g. network weights).

The primitive set is fixed and small: add, sub, mul, div, tanh, exp, sin,
matmul, sum, mean, square, abs, sign, clip. Everything else (negation,
cosine, norms, ...) is composed from these. sign(0) is defined as 0 so a
zero gradient produces no ascent step downstream.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "AutodiffError",
    "NonScalarOutputError",
    "MissingLeafError",
    "ShapeMismatchError",
    "Tape",
    "Var",
    "Dual",
    "grad",
    "jvp",
    "vjp",
    "jet1",
    "jet2",
    "primal_of",
    "tangent_of",
    "second_of",
    "second_coordinate_derivative",
    "add", "sub", "mul", "div", "neg",
    "tanh", "exp", "sin", "cos", "square", "absolute", "sign", "clip",
    "matmul", "total", "mean",
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
    """vjp_rules[i](ctx, out, parent_values, g) is the cotangent of operand
    i; grad evaluates only the rules of operands that need a gradient."""
    _FORWARD[name] = forward
    _VJP[name] = vjp_rules


def _matmul_vjp_a(ctx, out, pv, g):
    a, b = pv
    if b.ndim == 2:
        return g @ b.T
    if a.ndim == 2:
        return np.outer(g, b)
    return g * b  # 1d @ 1d -> scalar


def _matmul_vjp_b(ctx, out, pv, g):
    a, b = pv
    if a.ndim == 2:
        return a.T @ g
    if b.ndim == 2:
        return np.outer(a, g)
    return g * a  # 1d @ 1d -> scalar


_register("add", lambda ctx, a, b: a + b,
          lambda ctx, out, pv, g: _unbroadcast(g, pv[0].shape),
          lambda ctx, out, pv, g: _unbroadcast(g, pv[1].shape))
_register("sub", lambda ctx, a, b: a - b,
          lambda ctx, out, pv, g: _unbroadcast(g, pv[0].shape),
          lambda ctx, out, pv, g: _unbroadcast(-g, pv[1].shape))
_register("mul", lambda ctx, a, b: a * b,
          lambda ctx, out, pv, g: _unbroadcast(g * pv[1], pv[0].shape),
          lambda ctx, out, pv, g: _unbroadcast(g * pv[0], pv[1].shape))
_register("div", lambda ctx, a, b: a / b,
          lambda ctx, out, pv, g: _unbroadcast(g / pv[1], pv[0].shape),
          lambda ctx, out, pv, g: _unbroadcast(-g * out / pv[1], pv[1].shape))
_register("tanh", lambda ctx, a: np.tanh(a),
          lambda ctx, out, pv, g: g * (1.0 - out * out))
_register("exp", lambda ctx, a: np.exp(a),
          lambda ctx, out, pv, g: g * out)
_register("sin", lambda ctx, a: np.sin(a),
          lambda ctx, out, pv, g: g * np.cos(pv[0]))
_register("square", lambda ctx, a: a * a,
          lambda ctx, out, pv, g: g * 2.0 * pv[0])
_register("abs", lambda ctx, a: np.abs(a),
          lambda ctx, out, pv, g: g * np.sign(pv[0]))
_register("sign", lambda ctx, a: np.sign(a),
          lambda ctx, out, pv, g: np.zeros_like(pv[0]))
_register("clip", lambda ctx, a: np.clip(a, ctx[0], ctx[1]),
          lambda ctx, out, pv, g: g * ((pv[0] > ctx[0]) & (pv[0] < ctx[1])))
_register("matmul", lambda ctx, a, b: a @ b, _matmul_vjp_a, _matmul_vjp_b)
_register("sum", lambda ctx, a: np.sum(a),
          lambda ctx, out, pv, g: np.full(pv[0].shape, float(g)))
_register("mean", lambda ctx, a: np.mean(a),
          lambda ctx, out, pv, g: np.full(pv[0].shape, float(g) / pv[0].size))


# --------------------------------------------------------------------------
# tape and variables
# --------------------------------------------------------------------------

class Tape:
    """Append-only, topologically ordered record of primitive operations.

    Construction order is evaluation order, so a single reverse iteration
    over the record visits children before parents. The record is never
    mutated by grad(); it can back any number of reverse sweeps and can be
    replayed to recompute every value.
    """

    def __init__(self):
        self._ops = []        # (name, parent indices, ctx)
        self._values = []     # computed float64 arrays
        self._requires = []   # does this node depend on any leaf?
        self._is_leaf = []

    def __len__(self):
        return len(self._ops)

    def _push(self, name, parents, ctx, value, requires, is_leaf=False):
        self._ops.append((name, parents, ctx))
        self._values.append(value)
        self._requires.append(requires)
        self._is_leaf.append(is_leaf)
        return Var(self, len(self._ops) - 1)

    def leaf(self, value):
        """Record a differentiable input."""
        return self._push("leaf", (), None, _f64(value), True, is_leaf=True)

    def constant(self, value):
        """Record a non-differentiable input."""
        return self._push("const", (), None, _f64(value), False)

    def apply(self, name, ctx, *operands):
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
            out = _FORWARD[name](ctx, *values)
        except ValueError as exc:
            raise ShapeMismatchError(f"{name}: {exc}") from exc
        requires = any(self._requires[v.index] for v in operand_vars)
        return self._push(name, tuple(v.index for v in operand_vars), ctx,
                          _f64(out), requires)

    def replay(self):
        """Recompute every node from the record; returns the value list."""
        values = []
        for (name, parents, ctx), stored in zip(self._ops, self._values):
            if name in ("leaf", "const"):
                values.append(stored)
            else:
                values.append(_f64(_FORWARD[name](ctx, *[values[p] for p in parents])))
        return values


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

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def __neg__(self):
        return neg(self)


# --------------------------------------------------------------------------
# forward-mode duals (nestable, tape-aware)
# --------------------------------------------------------------------------

class Dual:
    """A (primal, tangent) pair obeying the chain rule exactly.

    tangent may be None, meaning an identically zero tangent; rules skip
    the corresponding products so constants stay off the tape. Components
    may be arrays, Vars, or Duals (nesting gives higher derivatives).
    """

    __slots__ = ("primal", "tangent")

    def __init__(self, primal, tangent=None):
        self.primal = primal
        self.tangent = tangent

    def __repr__(self):
        return f"Dual({self.primal!r}, {self.tangent!r})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def __neg__(self):
        return neg(self)


def _as_dual(x):
    return x if isinstance(x, Dual) else Dual(x, None)


def _is_dual(*xs):
    return any(isinstance(x, Dual) for x in xs)


def _is_var(*xs):
    return any(isinstance(x, Var) for x in xs)


def _tape_of(*xs):
    for x in xs:
        if isinstance(x, Var):
            return x.tape
    raise AutodiffError("no tape among operands")


# tangent helpers treating None as a structural zero
def _tadd(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return add(a, b)


def _tsub(a, b):
    if a is None and b is None:
        return None
    if b is None:
        return a
    if a is None:
        return neg(b)
    return sub(a, b)


def _tmul(t, x):
    return None if t is None else mul(t, x)


def _tmatmul(a, b):
    if a is None or b is None:
        return None
    return matmul(a, b)


# --------------------------------------------------------------------------
# dispatching operations: Dual -> Var -> numpy
# --------------------------------------------------------------------------

def add(a, b):
    if _is_dual(a, b):
        a, b = _as_dual(a), _as_dual(b)
        return Dual(add(a.primal, b.primal), _tadd(a.tangent, b.tangent))
    if _is_var(a, b):
        return _tape_of(a, b).apply("add", None, a, b)
    return _f64(a) + _f64(b)


def sub(a, b):
    if _is_dual(a, b):
        a, b = _as_dual(a), _as_dual(b)
        return Dual(sub(a.primal, b.primal), _tsub(a.tangent, b.tangent))
    if _is_var(a, b):
        return _tape_of(a, b).apply("sub", None, a, b)
    return _f64(a) - _f64(b)


def mul(a, b):
    if _is_dual(a, b):
        a, b = _as_dual(a), _as_dual(b)
        t = _tadd(_tmul(a.tangent, b.primal), _tmul(b.tangent, a.primal))
        return Dual(mul(a.primal, b.primal), t)
    if _is_var(a, b):
        return _tape_of(a, b).apply("mul", None, a, b)
    return _f64(a) * _f64(b)


def div(a, b):
    if _is_dual(a, b):
        a, b = _as_dual(a), _as_dual(b)
        q = div(a.primal, b.primal)
        num = _tsub(a.tangent, _tmul(b.tangent, q))
        return Dual(q, None if num is None else div(num, b.primal))
    if _is_var(a, b):
        return _tape_of(a, b).apply("div", None, a, b)
    return _f64(a) / _f64(b)


def neg(a):
    return sub(0.0, a)


def matmul(a, b):
    if _is_dual(a, b):
        a, b = _as_dual(a), _as_dual(b)
        t = _tadd(_tmatmul(a.tangent, b.primal), _tmatmul(a.primal, b.tangent))
        return Dual(matmul(a.primal, b.primal), t)
    if _is_var(a, b):
        return _tape_of(a, b).apply("matmul", None, a, b)
    return _f64(a) @ _f64(b)


def tanh(a):
    if isinstance(a, Dual):
        p = tanh(a.primal)
        return Dual(p, _tmul(a.tangent, sub(1.0, square(p))))
    if isinstance(a, Var):
        return a.tape.apply("tanh", None, a)
    return np.tanh(_f64(a))


def exp(a):
    if isinstance(a, Dual):
        p = exp(a.primal)
        return Dual(p, _tmul(a.tangent, p))
    if isinstance(a, Var):
        return a.tape.apply("exp", None, a)
    return np.exp(_f64(a))


def sin(a):
    if isinstance(a, Dual):
        return Dual(sin(a.primal), _tmul(a.tangent, cos(a.primal)))
    if isinstance(a, Var):
        return a.tape.apply("sin", None, a)
    return np.sin(_f64(a))


def cos(a):
    # composed: cos(x) = sin(x + pi/2)
    return sin(add(a, np.pi / 2.0))


def square(a):
    if isinstance(a, Dual):
        return Dual(square(a.primal), _tmul(a.tangent, mul(2.0, a.primal)))
    if isinstance(a, Var):
        return a.tape.apply("square", None, a)
    a = _f64(a)
    return a * a


def absolute(a):
    if isinstance(a, Dual):
        return Dual(absolute(a.primal), _tmul(a.tangent, sign(a.primal)))
    if isinstance(a, Var):
        return a.tape.apply("abs", None, a)
    return np.abs(_f64(a))


def sign(a):
    if isinstance(a, Dual):
        return Dual(sign(a.primal), None)
    if isinstance(a, Var):
        return a.tape.apply("sign", None, a)
    return np.sign(_f64(a))


def clip(a, lo, hi):
    lo = float(lo)
    hi = float(hi)
    if isinstance(a, Dual):
        # derivative 1 strictly inside the band, 0 outside; indicator is
        # composed from sign so the rule stays within the primitive set
        inside = mul(mul(add(sign(sub(a.primal, lo)), 1.0), 0.5),
                     mul(add(sign(sub(hi, a.primal)), 1.0), 0.5))
        return Dual(clip(a.primal, lo, hi), _tmul(a.tangent, inside))
    if isinstance(a, Var):
        return a.tape.apply("clip", (lo, hi), a)
    return np.clip(_f64(a), lo, hi)


def total(a):
    """Sum of all entries (named to avoid shadowing builtins at import sites)."""
    if isinstance(a, Dual):
        return Dual(total(a.primal),
                    None if a.tangent is None else total(a.tangent))
    if isinstance(a, Var):
        return a.tape.apply("sum", None, a)
    return np.sum(_f64(a))


def mean(a):
    if isinstance(a, Dual):
        return Dual(mean(a.primal),
                    None if a.tangent is None else mean(a.tangent))
    if isinstance(a, Var):
        return a.tape.apply("mean", None, a)
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
        name, parents, ctx = tape._ops[idx]
        if name == "leaf":
            leaf_grads[idx] = g
            continue
        if name == "const":
            continue
        parent_values = [tape._values[p] for p in parents]
        for p, rule in zip(parents, _VJP[name]):
            if not tape._requires[p]:
                continue
            pg = rule(ctx, tape._values[idx], parent_values, g)
            if p in adjoint:
                adjoint[p] = adjoint[p] + pg
            else:
                adjoint[p] = pg
    return {leaf: leaf_grads.get(leaf.index, np.zeros_like(leaf.value))
            for leaf in leaves}


# --------------------------------------------------------------------------
# functional wrappers
# --------------------------------------------------------------------------

def _plain(x):
    """Strip Var/Dual wrappers down to a numpy value."""
    if isinstance(x, Dual):
        return _plain(x.primal)
    if isinstance(x, Var):
        return x.value
    return _f64(x)


def jvp(fn: Callable, point, direction):
    """Directional derivative J @ direction of fn at point (forward mode)."""
    p = _f64(point)
    d = _f64(direction)
    if p.shape != d.shape:
        raise ShapeMismatchError(
            f"direction shape {d.shape} != point shape {p.shape}")
    out = fn(Dual(p, d))
    if not isinstance(out, Dual) or out.tangent is None:
        return np.zeros_like(_plain(out))
    return _plain(out.tangent)


def vjp(fn: Callable, point, covector):
    """Covector pullback J^T @ covector of fn at point (reverse mode)."""
    tape = Tape()
    x = tape.leaf(point)
    out = fn(x)
    out_value = _plain(out)
    w = _f64(covector)
    if w.shape != out_value.shape:
        raise ShapeMismatchError(
            f"covector shape {w.shape} != output shape {out_value.shape}")
    if isinstance(out, Var):
        scalar = total(mul(out, w))
        return grad(scalar, [x])[x]
    # fn ignored its input; Jacobian is zero
    return np.zeros_like(_f64(point))


def jet1(x, tangent):
    """First-order jet: evaluate through this to get value + 1st derivative."""
    return Dual(x, tangent)


def jet2(x, tangent):
    """Second-order jet along `tangent`: nesting duals yields d and d^2."""
    return Dual(Dual(x, tangent), Dual(tangent, None))


def primal_of(x):
    while isinstance(x, Dual):
        x = x.primal
    return x


def tangent_of(x):
    """First derivative carried by a jet1/jet2 output (0 if absent)."""
    if not isinstance(x, Dual):
        return None
    t = x.tangent
    if isinstance(t, Dual):
        t = t.primal
    return t


def second_of(x):
    """Second derivative carried by a jet2 output (None if absent)."""
    if not isinstance(x, Dual) or not isinstance(x.tangent, Dual):
        return None
    return x.tangent.tangent


def second_coordinate_derivative(network: Callable, params, f_samples, coord,
                                 axis: int) -> float:
    """d^2 u / d coord[axis]^2 of network(params, f_samples, coords) at coord.

    network must accept coordinates as a (dim, 1) column that may carry
    dual numbers; the result is exact for the recorded graph.
    """
    coord = _f64(coord).reshape(-1)
    dim = coord.size
    if not 0 <= axis < dim:
        raise AutodiffError(f"axis {axis} out of range for {dim} coordinates")
    column = coord.reshape(dim, 1)
    direction = np.zeros((dim, 1))
    direction[axis, 0] = 1.0
    out = network(params, f_samples, jet2(column, direction))
    second = second_of(out)
    if second is None:
        return 0.0
    return float(np.asarray(_plain(second)).reshape(-1)[0])

"""Compiled derivative programs: the only code in the package that
differentiates.

The bound trees of L and V are lowered once into a DAG (equal subtrees
one node, constants folded, each partial a memoised node by the chain
rule, the inverse metric's by d(g^-1) = -g^-1 (dg) g^-1), and each
program kind is emitted as one straight-line function of the state
``[x1..xn, y1..yn]``.  On one shared DAG forward-mode propagation and
symbolic differentiation are the same computation (Laue,
arXiv:1904.02990; Griewank & Walther, *Evaluating Derivatives*, 2nd ed.,
2008, ch. 13), so every Jacobian is a partial of the DAG.

The same code runs on floats at one point and on (B,) arrays over a
batch: ``+ - * /`` are elementwise IEEE either way, elementary functions
and real powers are evaluated by :mod:`math` entry by entry, a guard
fires if its test holds at any point, and the 2x2 inverse runs its closed
forms' IEEE operations as masked array operations, so each point of a
batch gets the bits of its one-point run.

``evolution``   L to order 2 and V, the rank gate and inverse (the one
                gate and inverse, ``jets._invert``; run once, at build
                time, where every metric entry is a finite constant), and
                x'' = -2 G = -2 (G0 - V/4)
``horizontal``  x'' = -N y, the partial of G along y in the direction y
``geodesic``    x'' = -gamma^i_jk y^j y^k from d3L/dy dy dx (V is None)
``record``      E, L, sigma . y and max |Lagrange defect| at z and its
                acceleration ``a1..an``, V lowered (and, on a geodesic
                alone, checked) as the curve's own stage would
``report``      a report's values (its arg names an entry of ``_REPORTS``):
                ``point``, what :class:`~lagmech.mechanics.PointGeometry`
                holds; ``classify`` and ``inspect``, the CLI's; ``context``
                (dg/dx and the Christoffel symbols among its members),
                ``verify`` (``verify_finsler`` with the two Finsler
                residuals) and ``identities``, residuals.  Each makes the
                point report's checks, the identities then the Euler test,
                and one that reads g's x-partials then those of the
                x-derivative pass of g (the tests' reference tower's)
``jet``         L to order 0..3, a :class:`~lagmech.jets.Jet`'s blocks
``euler``       |(dL/dy) y - 2 L|, checked finite, and L, from L to order
                1; given V, to order 2 with the max |partial| of d_yy / 2
                and of V along y in the direction y
``value``       one field's value, or each force component's (given V
                alone), an exact zero +0.0: what a field's call and
                ``at`` return

The curve kinds return z', ``value`` its values as a list and ``record``
its traces summed as floats sum them; :func:`run` returns any other
kind's outputs at a phase point by name, as floats and arrays (the curve
kinds and ``record`` run on floats alone: a check tests a bool).
:func:`stepper` emits an RK4 step or a Dormand-Prince attempt as one
straight-line function around a curve's program, passed in.
The domain rules are those of the same pass run on a forward-mode tower
(the tests' reference): L propagated as an order-2 jet (order o for
``jet``) and V in floats, each carrying tangents along the seeded
directions (``value`` in floats alone).  Each node is evaluated behind
the check the tower makes there and takes the terms of the jets'
derivative sequence the tower takes.  Programs sit behind one bounded
cache, keyed by kind, the fields' structural keys and the arg: a jet's
or Euler test's order, a record's curve or a report.
"""

from __future__ import annotations

import math
import warnings
from functools import cached_property, lru_cache, reduce
from itertools import islice
from operator import attrgetter, or_

import numpy as np

from .dsl import Bin, Call, Neg, Num, Var
from .errors import DomainError, SingularMetric
from .jets import _BLOCKS, SCALAR_FUNCTIONS, _invert, _power, _real_power, batch_shape, ipow
from .phase import PhasePoint

__all__ = ["program", "run", "stepper"]

_X, _Y = 1, 2  # what a node depends on
_DIR = "dir"  # the partial along y in the direction y itself


def _seq(f, m, v):
    """f(v), f'(v), ... to m terms of a named elementary function."""
    return tuple(islice(SCALAR_FUNCTIONS[f](v), m))


def _fold_fn(f, a, b=None):
    return (_power(a, b, 1) if f == "pow" else _real_power(a, f[1], 1) if isinstance(f, tuple)
            else _seq(f, 1, a))[0]


def _max_abs(*el):
    """max |e| over the entries, NaN first, as ``np.abs(a).max()`` propagates
    NaN: a float, or per point where an entry is a batch's array."""
    if any(isinstance(e, np.ndarray) for e in el):
        return np.abs(np.array(np.broadcast_arrays(*el))).max(axis=0)
    return max(map(abs, el), key=lambda e: (e != e, e))


def _euler_gate(defect, value, z):
    """The Euler test of :mod:`lagmech.finsler` at the phase point z."""
    from .finsler import _require_euler

    _require_euler(defect, value, PhasePoint(z[:len(z) // 2], z[len(z) // 2:]))


_RUNTIME = {"_DomainError": DomainError, "_seq": _seq, "_pow": _power, "_rpow": _real_power,
            "_ipow": ipow, "_invert": _invert, "_ndarray": np.ndarray,
            "_INF": float("inf"), "_NAN": float("nan"), "_max_abs": _max_abs,
            "_euler_gate": _euler_gate}
# folding evaluates as the program would; a constant that fails is left
# to fail, behind its check, at run time
_FOLD = {"add": lambda _, a, b: a + b, "sub": lambda _, a, b: a - b, "mul": lambda _, a, b: a * b,
         "div": lambda _, a, b: a / b, "neg": lambda _, a: -a, "ipow": lambda k, a: ipow(a, k),
         "fn": _fold_fn, "maxabs": lambda _, *a: _max_abs(*a)}
_EXPR = {"add": "{} + {}", "sub": "{} - {}", "mul": "{} * {}", "div": "{} / {}", "neg": "-{}",
         0: "1.0", 2: "{0} * {0}", 3: "{0} * {0} * {0}", 4: "({0} * {0}) * ({0} * {0})"}


def _fold_invert(n, entries):
    """``_invert``'s inverse, min and max |eig| of the metric whose entry
    nodes are ``entries``, taken once at build time, where every entry is
    a finite constant; None where one is not, or where the gate fails,
    ``_invert`` warns or raises, or a result is not finite: that metric is
    left to its statement, to fail (or not) at run time as it would."""
    if any(op != "const" or not abs(v) < np.inf for op, _, v in entries):
        return None
    try:
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            inverse, mn, mx = _invert(n, [v for _, _, v in entries], False)
    except (SingularMetric, ArithmeticError, ValueError, Warning):
        return None
    out = [*inverse, mn, mx]
    return out if all(abs(v) < np.inf for v in out) else None


class _Dag:
    """The hash-consed nodes ``(op, operands, parameter)`` of one program, its
    memoised partials (None when zero) and its statements, in order."""

    def __init__(self, n: int, floats=False):
        self.floats = floats  # whether the program runs on floats alone
        self.nodes, self.deps, self.ids, self.partials, self.counts = [], [], {}, {}, {}
        self.lines, self.done, self.guarded, self.solved = [], set(), set(), {}
        self.x, self.y = ([self.node(c, (), i) for i in range(n)] for c in "xy")
        self.inputs = self.x + self.y
        self.inv, self.g = [], None  # g: the entries of a metric inverted at run time

    def node(self, op, kids=(), arg=None):
        key = (op, kids, repr(arg))  # repr tells -0.0 from 0.0
        if key in self.ids:
            return self.ids[key]
        if kids and op in _FOLD and all(self.nodes[k][0] == "const" for k in kids):
            try:
                return self.const(_FOLD[op](arg, *(self.nodes[k][2] for k in kids)))
            except (ArithmeticError, ValueError, DomainError):
                pass
        i = self.ids[key] = len(self.nodes)
        self.nodes.append((op, kids, arg))
        self.deps.append(reduce(or_, (self.deps[k] for k in kids), {"x": _X, "y": _Y}.get(op, 0)))
        if not kids or op == "term":  # a term is set by its function's statement
            self.done.add(i)
        return i

    def const(self, v):
        return self.node("const", (), float(v))

    def add(self, a, b):
        return b if a is None else a if b is None else self.node("add", (a, b))

    def sub(self, a, b):
        return a if b is None else self.neg(b) if a is None else self.node("sub", (a, b))

    def mul(self, a, b):
        if a is None or b is None:
            return None
        one = [self.nodes[k] == ("const", (), 1.0) for k in (a, b)]
        return b if one[0] else a if one[1] else self.node("mul", (a, b))

    def div(self, a, b):
        return None if a is None else self.node("div", (a, b))

    def neg(self, a):
        return None if a is None else self.node("neg", (a,))

    def dot(self, a, b):
        """sum_m a[m] b[m], left to right."""
        return reduce(self.add, map(self.mul, a, b), None)

    def fdot(self, a, b):
        """sum_m a[m] b[m] as floats sum it, the rule of every tensor sum of a
        report or a record: from +0.0, left to right, a structural zero (None)
        a 0.0 term, so that 0 inf is NaN (ordered recursive summation; Higham,
        *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 2002, 4.1)."""
        z = self.const(0.0)
        return reduce(lambda s, u: self.node("add", (s, self.node("mul", tuple(
            z if e is None else e for e in u)))), zip(a, b), z)

    def d(self, i, wrt):
        """Node i's partial derivative along ("x", k), ("y", k) or _DIR."""
        if i is None or not self.deps[i] & (_X if wrt[0] == "x" else _Y):
            return None
        if (i, wrt) in self.partials:
            return self.partials[i, wrt]
        op, kids, arg = self.nodes[i]
        if i in self.solved:  # d(g^-1 u) = g^-1 (du - (dg) g^-1 u)
            row, u, s = self.solved[i]
            n = len(self.x)
            r = self.dot(self.inv[row * n:row * n + n], [self.sub(self.d(u[j], wrt), self.dot(
                [self.d(self.g[j * n + k], wrt) for k in range(n)], s)) for j in range(n)])
        elif op in ("fn", "term"):  # a runtime exponent does not vary along wrt
            fn, k = (i, 1) if op == "fn" else (kids[0], arg + 1)
            r = self.mul(self.node("term", (fn,), k), self.d(self.nodes[fn][1][0], wrt))
        elif op in ("x", "y"):
            r = self.y[arg] if wrt == _DIR else self.const(1.0) if wrt == (op, arg) else None
        elif op == "inv":
            raise ValueError("g^-1 is differentiated where it multiplies a vector (solve)")
        else:
            a, b = (kids + (None,))[:2]
            da, db = self.d(a, wrt), self.d(b, wrt)
            if op in ("add", "sub", "neg"):
                r = self.neg(da) if op == "neg" else getattr(self, op)(da, db)
            elif op == "mul":
                r = self.add(self.mul(da, b), self.mul(db, a))
            elif op == "div":  # (da - db q) / b, by the reciprocal
                r = self.div(da, b) if self.nodes[b][0] == "const" else self.mul(
                    self.sub(da, self.mul(db, i)), self.div(self.const(1.0), b))
            else:  # a^k
                f = self.node("ipow", (a,), arg - 1) if arg > 2 else a if arg == 2 else self.div(i, a)
                r = self.mul(self.mul(self.const(arg), f), da) if arg else None
        self.partials[i, wrt] = r
        return r

    def solve(self, u):
        """Nodes of g^-1 u, g^-1 the inverse this program took, whose partial
        follows d(g^-1) = -g^-1 (dg) g^-1 as d(g^-1 u) = g^-1 (du - (dg) g^-1 u):
        2 n^2 products a direction, not the 2 n^3 of d(g^-1) itself.  A
        folded (constant) g^-1 is differentiated by the chain rule."""
        n = len(self.x)
        s = tuple(self.dot(self.inv[i * n:i * n + n], u) for i in range(n))
        if self.g is not None:
            self.solved.update((v, (i, tuple(u), s)) for i, v in enumerate(s) if v is not None)
        return list(s)

    def invert(self, entries):
        """Nodes of the inverse of the symmetric matrix of row-major entry
        nodes, then of its min and max |eig|: one statement, behind the rank
        gate, or constants where the gate and inverse fold."""
        n, kids = len(self.x), tuple(self.const(0.0) if e is None else e for e in entries)
        folded = _fold_invert(n, [self.nodes[k] for k in kids])
        if folded is not None:
            out = [self.const(v) for v in folded]
            self.inv = out[:-2]
            return out
        out = [self.node("inv", kids, k) for k in [*range(n * n), "min", "max"]]
        self.inv, self.g = out[:-2], kids
        names = [self.name(i) for i in out]
        self.lines.append(f"({', '.join(names[:-2])},), {names[-2]}, {names[-1]} = _invert("
                          f"{n}, ({self.names(kids)},), isinstance(x1, _ndarray))")
        self.done.update(out)
        return out

    def name(self, i) -> str:
        if i is None:
            return "0.0"
        op, kids, v = self.nodes[i]
        if op == "const":
            text = repr(v) if abs(v) < np.inf else "_NAN" if v != v else "_INF" if v > 0 else "-_INF"
            return f"({text})" if text.startswith("-") else text
        return f"{op}{v + 1}" if op in ("x", "y", "a") else f"ginv_{v}" if op == "inv" else \
            f"v{kids[0]}_{v}" if op == "term" else f"v{i}"

    def emit(self, i):
        """Emit node i after every node it reads, with an explicit stack so
        that a deep DAG takes no deep recursion."""
        stack = [i]
        while stack:
            k = stack[-1]
            if k is None or k in self.done:
                stack.pop()
                continue
            todo = [c for c in self.nodes[k][1] if c not in self.done]
            if todo:
                stack.extend(reversed(todo))
                continue
            stack.pop()
            self.statement(k)

    def statement(self, i):
        op, kids, arg = self.nodes[i]
        a = [self.name(k) for k in kids]
        if op == "fn":
            m = self.counts[i]
            outs = "".join([f"v{i}, "] + [f"v{i}_{k}, " for k in range(1, m)])
            call = f"_rpow({a[0]}, {arg[1]!r}, {m})" if isinstance(arg, tuple) else \
                f"_pow({', '.join(a)}, {m})" if arg == "pow" else f"_seq({arg!r}, {m}, {a[0]})"
            self.lines.append(f"{outs}= {call}")
        elif op == "ipow":
            self.lines.append(f"v{i} = " + _EXPR.get(arg, f"_ipow({{}}, {arg})").format(*a))
        elif op == "maxabs":
            self.lines.append(f"v{i} = _max_abs({', '.join(a)})")
        else:
            self.lines.append(f"v{i} = " + _EXPR[op].format(*a))
        self.done.add(i)

    def raise_if(self, test, message):
        """Raise DomainError(message) where ``test`` holds: a bool at a point,
        an array over a batch (``jets._any``'s test, inline), a bool alone in
        a program that runs on floats alone."""
        test = test if self.floats else f"(_t := {test}) is not False and (_t is True or _t.any())"
        self.lines.append(f"if {test}: raise _DomainError({message!r})")

    def lower(self, e, tower):
        """The node of e, as the tower ``(order, seeded)`` evaluates it: an
        order-o jet (floats for None), with tangents along ``seeded``."""
        if isinstance(e, Num):
            return self.const(e.value)
        if isinstance(e, Var):
            return (self.x if e.kind == "x" else self.y)[e.index - 1]
        if isinstance(e, Neg):
            return self.guard(self.neg(self.lower(e.arg, tower)), tower)
        if isinstance(e, Call) and e.name != "pow":
            return self.guard(self.node("fn", (self.lower(e.args[0], tower),), e.name), tower)
        a, b = (self.lower(s, tower) for s in (e.args if isinstance(e, Call) else (e.left, e.right)))
        if isinstance(e, Bin) and e.op != "^":
            ops = {"+": self.add, "-": self.sub, "*": self.mul, "/": self.div}
            return self.guard(ops[e.op](a, b), tower)
        op, _, v = self.nodes[b]
        if op == "const":
            k = int(v) if v.is_integer() else None  # a^0 of a pushed float is pushed
            return self.guard(self.node("fn", (a,), ("rpow", v)) if k is None else self.const(1.0)
                              if k == 0 and (tower[0] is not None or not self.carries(a, tower))
                              else a if k == 1 else self.node("ipow", (a,), k), tower)
        if self.carries(b, tower):  # a^b = exp(b log a), as the jets take it
            log = self.guard(self.node("fn", (a,), "log"), tower)
            return self.guard(self.node("fn", (self.guard(self.mul(b, log), tower),), "exp"), tower)
        return self.guard(self.node("fn", (a, b), "pow"), tower)

    def carries(self, i, tower) -> bool:
        """Whether node i carries derivatives in the tower."""
        return bool(self.deps[i] and (tower[0] is not None or self.deps[i] & tower[1]))

    def guard(self, i, tower):
        """Schedule node i behind the check the tower makes there."""
        op, kids, arg = self.nodes[i]
        if i in self.guarded or not kids:
            return i
        self.guarded.add(i)
        if op == "div" or op == "ipow" and arg < 0:
            dual = tower[0] is None and (self.deps[kids[0]] | self.deps[kids[-1]]) & tower[1]
            message = ("zero raised to a negative power" if op == "ipow" else
                       "division by zero in dual evaluation" if dual else "division by zero")
            self.raise_if(f"{self.names(kids[-1:])} == 0.0", message)
        if op == "fn":
            self.counts[i] = ((1 if tower[0] is None else tower[0] + 1)
                              + bool(self.deps[i] & tower[1]) if self.carries(i, tower) else 1)
        self.emit(i)
        return i

    def deepen(self, fns):
        """Run each function node of ``fns`` (L's, as an order-2 jet) that
        depends on x and took three terms again to four, as the x-derivative
        pass of g of the tests' reference tower does: its fourth term's
        checks, after every statement so far."""
        for i in fns:
            if self.counts[i] == 3 and self.deps[i] & _X:
                self.counts[i] = 4
                self.statement(i)

    def check(self, nodes, message):
        """Raise DomainError(message) unless every node is finite."""
        nodes = [i for i in dict.fromkeys(nodes) if i is not None and not (
            self.nodes[i][0] == "const" and abs(self.nodes[i][2]) < np.inf)]
        if nodes:
            zeros = " + ".join(f"{self.names([i])} * 0.0" for i in nodes)
            self.raise_if(f"{zeros} != 0.0", message)

    def names(self, nodes) -> str:
        for i in nodes:
            self.emit(i)
        return ", ".join(self.name(i) for i in nodes)


def _operator(op, swap=False):
    return lambda s, *o: s.op(op, *o, s) if swap else s.op(op, s, *o)


class _Node:
    """A node of a :class:`_Dag` (None: a structural zero) as a number:
    ``+ - * /`` and unary ``-`` build nodes by the DAG's rules, a float a
    constant, so an object array of them takes a tensor formula as numpy
    writes it."""

    __slots__ = ("dag", "i")

    def __init__(self, dag, i):
        self.dag, self.i = dag, i

    def op(self, name, *args):
        return _Node(self.dag, getattr(self.dag, name)(*(
            a.i if isinstance(a, _Node) else self.dag.const(a) for a in args)))

    __add__, __radd__ = _operator("add"), _operator("add", True)
    __sub__, __rsub__ = _operator("sub"), _operator("sub", True)
    __mul__, __rmul__ = _operator("mul"), _operator("mul", True)
    __truediv__ = _operator("div")  # by 1 + a maximum: never by a zero
    __neg__ = _operator("neg")


class _Geometry:
    """The ``point`` report's nodes as tensors (object arrays of
    :class:`_Node`) and the tensor formulas the reports read, each lowered
    once, when first read, with the bits of the formula on float arrays: a
    contraction is :meth:`_Dag.fdot`'s sum, and a structural zero is skipped
    only where a float operation would give a zero (whose sign the outputs
    drop)."""

    def __init__(self, dag, **parts):
        self.dag, self.n = dag, len(dag.x)
        self.update(y=(dag.y, (self.n,)), **parts)

    def update(self, **parts):
        """Set each part, ``(nodes, shape)``, as a tensor."""
        for name, (nodes, shape) in parts.items():
            setattr(self, name, self.tensor(nodes, shape))

    def tensor(self, nodes, shape):
        """An object array of the nodes (of structural zeros, given none)."""
        a = np.empty(shape, dtype=object)
        a.flat = [_Node(self.dag, i) for i in nodes] or [_Node(self.dag, None)]
        return a[()] if not shape else a

    def contract(self, a, b):
        """sum_m a[..., m] b[m, ...]."""
        k, out = a.ndim - 1, np.empty(a.shape[:-1] + b.shape[1:], dtype=object)
        for i in np.ndindex(out.shape):
            out[i] = _Node(self.dag, self.dag.fdot([e.i for e in a[i[:k]]],
                                                   [e.i for e in b[(slice(None),) + i[k:]]]))
        return out[()] if not out.shape else out

    def norm(self, a):
        """The max-norm, max |a| over its entries, NaN first."""
        kids = tuple(e.i for e in np.ravel(a) if e.i is not None)
        return _Node(self.dag, self.dag.node("maxabs", kids or (self.dag.const(0.0),)))

    energy = cached_property(lambda q: q.contract(q.y, q.d_y) - q.value)
    power = cached_property(lambda q: q.contract(q.sigma, q.y))
    euler_defect = cached_property(lambda q: q.norm(q.contract(q.y, q.d_y) - 2.0 * q.value))
    # (dE/dx, dE/dy), and as one vector
    de = cached_property(lambda q: (q.contract(q.y, q.d_xy) - q.d_x, q.contract(q.y, q.d_yy)))
    dE = cached_property(lambda q: np.concatenate(q.de))
    # the antisymmetrized mixed block of the Cartan 2-form
    mixed = cached_property(lambda q: (q.d_xy - q.d_xy.T) * 0.5)
    # 4 gbar = J + J^T and 2 F = J - J^T, J = dsigma/dy; the Cartan tensor d3L/dy3 / 4
    gbar = cached_property(lambda q: (q.dsigma_dy + q.dsigma_dy.T) * 0.25)
    helicoidal = cached_property(lambda q: (q.dsigma_dy - q.dsigma_dy.T) * 0.5)
    cartan = cached_property(lambda q: q.d_yyy * 0.25)
    # the normalisation of the metric defects: 1 + max |g|
    scale = cached_property(lambda q: 1.0 + q.norm(q.g))

    def sode(self, spray, sigma=None):
        """max |i_S omega + dE (- sigma)| over the 2n basis vectors, S having
        the natural components (y, -2 spray) and sigma acting on x-slots."""
        res_x = (self.contract(self.g, spray * (-2.0)) * 2.0
                 + self.contract(self.mixed, self.y) * 2.0 + self.de[0])
        if sigma is not None:
            res_x = res_x - sigma
        return self.norm(np.concatenate([res_x, self.contract(self.g, self.y) * (-2.0)
                                         + self.de[1]]))

    evolution_equation_residual = cached_property(lambda q: q.sode(q.spray, q.sigma))
    # max |S(dL/dy) - dL/dx - sigma| along the evolution semispray
    lie_theta_residual = cached_property(lambda q: q.norm(
        q.contract(q.d_xy, q.y) - 2.0 * q.contract(q.d_yy, q.spray) - q.d_x - q.sigma))
    symplectic_defect = cached_property(lambda q: q.norm(q.horizontal_two_form(q.conn)))

    def horizontal_two_form(self, conn):
        """omega(delta_i, delta_k), delta_i = (e_i, -N[:, i]): 2 (g N - (g N)^T) + a^T - a."""
        gn = self.contract(self.g, conn)
        return 2.0 * (gn - gn.T) + (self.mixed.T - self.mixed)

    @cached_property
    def dg_dx(self):
        return self.tensor([self.dag.d(v.i, ("x", c)) for v in self.g.flat for c in range(self.n)],
                           (self.n,) * 3)

    @cached_property
    def christoffel(self):
        d = self.dg_dx
        return 0.5 * self.contract(self.g_inv, d + d.transpose(0, 2, 1) - d.transpose(2, 0, 1))

    def dyn_cov_deriv_g(self, spray, conn):
        gn = self.contract(self.g, conn)
        return (self.contract(self.dg_dx, self.y) - self.contract(self.d_yyy, spray)) - gn - gn.T

    horizontal_dL = cached_property(lambda q: q.d_x - q.contract(q.d_y, q.conn))
    horizontal_dE = cached_property(lambda q: q.de[0] - q.contract(q.de[1], q.conn))
    # the force-only form of the horizontal dE of a 2-homogeneous L
    slope = cached_property(lambda q: 0.5 * q.contract(q.contract(q.g, q.y), q.dV_dy))
    horizontal_dE_closed = cached_property(lambda q: 2.0 * q.contract(
        q.g, 2.0 * q.spray0 - q.contract(q.conn0, q.y)) + q.slope)
    gamma_yy = cached_property(lambda q: q.contract(q.contract(q.christoffel, q.y), q.y))
    lagrangian_condition = cached_property(lambda q: q.contract(q.contract(q.dV_dy, q.y), q.d_y)
                                           + 2.0 * q.contract(q.dS0L_dy, q.y))
    energy_condition = cached_property(lambda q: 2.0 * q.contract(q.horizontal_dE_closed, q.y))


# each ``report`` program (its arg): its per-point values by name, in output order
_REPORTS = {
    "point": {name: attrgetter(name) for name in (
        *_BLOCKS, "g", "g_inv", "eig_min", "eig_max", "spray0", "V", "spray", "sigma", "conn0",
        "dV_dy", "conn", "dsigma_dy", "dSL_dy", "dS0L_dy", "energy", "power", "gbar",
        "helicoidal", "cartan")},
    "classify": {"metric_defect": lambda q: q.norm(q.gbar) / q.scale,
                 "symplectic_defect": lambda q: q.norm(q.helicoidal) / q.scale,
                 "worst_power": attrgetter("power")},
    "inspect": {key: attrgetter(name) for key, name in dict(
        g="g", g_inv="g_inv", E="energy", G0="spray0", N0="conn0", C="cartan", sigma="sigma",
        G="spray", N="conn", F="helicoidal", gbar="gbar", power="power").items()},
    "context": {name: attrgetter(name) for name in (
        "dE", "dg_dx", "christoffel", "horizontal_dL", "horizontal_dE", "horizontal_dE_closed",
        "evolution_equation_residual", "lie_theta_residual", "symplectic_defect",
        "lagrangian_condition", "energy_condition")},
    "verify": {
        "canonical_spray_equation": lambda q: q.sode(q.spray0),
        "evolution_spray_equation": attrgetter("evolution_equation_residual"),
        "cartan_form_transport": attrgetter("lie_theta_residual"),
        "canonical_metricity": lambda q: q.norm(q.dyn_cov_deriv_g(q.spray0, q.conn0)) / q.scale,
        "canonical_horizontal_two_form": lambda q: q.norm(q.horizontal_two_form(q.conn0)),
        "metric_derivative_agreement": lambda q: q.norm(
            q.gbar - q.dyn_cov_deriv_g(q.spray, q.conn)),
        "symplectic_vs_helicoidal": lambda q: q.norm(q.horizontal_two_form(q.conn) + q.helicoidal),
        "lagrangian_horizontal_routes": lambda q: q.norm(
            q.horizontal_dL - (q.dSL_dy - q.sigma) * 0.5),
        "energy_horizontal_routes": lambda q: q.norm(q.horizontal_dE - q.horizontal_dE_closed),
    },
    "identities": {
        "energy_residual": lambda q: q.norm(q.energy - q.value) / (1.0 + q.norm(q.value)),
        "spray_homogeneity_residual": lambda q: q.norm(
            2.0 * q.spray0 - q.contract(q.conn0, q.y)),
        "energy_slope_residual": lambda q: q.norm(q.horizontal_dE - q.slope),
        "christoffel_residual": lambda q: q.norm(q.gamma_yy - 2.0 * q.spray0),
    },
}
# verify's residuals, then two Finsler ones: the identities' formulas
_REPORTS["verify_finsler"] = dict(
    _REPORTS["verify"], christoffel_contraction=_REPORTS["identities"]["christoffel_residual"],
    finsler_energy_formula=_REPORTS["identities"]["energy_slope_residual"])

# kind: (the order of L's jet, the seeded coordinates); jet's order is its
# arg, as is euler's (1, or 2 with the partials along y itself)
_TOWERS = {"evolution": (2, 0), "horizontal": (2, _Y), "geodesic": (2, _X),
           "record": (2, 0), "report": (2, _Y)}


def _groups(values: dict) -> dict:
    """Named output groups: each tensor or scalar of nodes as its list of
    nodes and the array shape they fill."""
    return {name: ([e.i for e in np.ravel(v)], np.shape(v)) for name, v in values.items()}


def _build(kind: str, n: int, ltree, vtrees, arg):
    """The DAG of a kind, and its return statement (a curve kind, ``record``
    or ``value``) or its named output groups.  ``arg`` is a jet's order, a
    record's curve or a report's name."""
    g, r = _Dag(n, kind in ("evolution", "horizontal", "geodesic", "record")), range(n)
    if kind == "value":  # in floats: one field's value, or each component's
        field = "field" if vtrees is None else "force"
        values = [g.lower(t, (None, 0)) for t in ((ltree,) if vtrees is None else vtrees)]
        g.check(values, f"{field} evaluation produced a non-finite value")
        out = [f"{g.names([v])} + 0.0" for v in values]  # an exact zero as +0.0, as run gives it
        return g, f"return [{', '.join(out)}]"
    if kind in ("jet", "euler"):
        order, seeded = (2, _Y) if arg == 3 or kind == "euler" and arg == 2 else (arg, 0)
    else:
        order, seeded = _TOWERS[kind]
    # the blocks' partials along the seeded directions, as the tower checks them
    wrts = [_DIR] if kind == "horizontal" or kind == "euler" and arg == 2 else \
        [("x" if seeded == _X else "y", k) for k in r] if seeded else []
    half, quarter = g.const(0.5), g.const(0.25)
    L = g.lower(ltree, (order, seeded))
    fns = list(g.counts)  # L's function nodes
    dx, dy = ([g.d(L, (c, i)) for i in r] if order else [] for c in "xy")
    # d_yy from i <= j only, so that it is bitwise symmetric
    dyy = [g.d(dy[min(i, j)], ("y", max(i, j))) for i in r for j in r] if order > 1 else []
    dxy = [g.d(dy[i], ("x", j)) for i in r for j in r] if order > 1 else []
    G = [g.mul(v, half) for v in dyy]
    q = _Geometry(g, value=([L], ()), d_x=(dx, (n,)), d_y=(dy, (n,)), d_yy=(dyy, (n, n)),
                  d_xy=(dxy, (n, n)), g=(G, (n, n)))
    if kind == "record":  # at z and its acceleration a; the curve's stage checked L there
        a = [g.node("a", (), i) for i in r]
        g.inputs += a
        V = [g.lower(t, (None, _Y if arg == "horizontal" else 0)) for t in vtrees]
        if arg == "geodesic":  # whose stage never saw V
            g.check(V, "force evaluation produced a non-finite value")
        q.update(a=(a, (n,)), V=(V, (n,)))
        sigma = q.contract(q.g, q.V)
        el = q.contract(q.d_xy, q.y) + q.contract(q.d_yy, q.a) - q.d_x - sigma
        return g, f"return {g.names([q.energy.i, L, q.contract(sigma, q.y).i, q.norm(el).i])}"
    blocks = dx + dy + dyy + dxy
    g.check([L] + [g.d(L, w) for w in wrts], "field evaluation produced a non-finite value")
    g.check(blocks + [g.d(v, w) for w in wrts for v in blocks],
            "field evaluation produced a non-finite derivative")
    # d_yyy[i, j, k] from its sorted indices, so that it is bitwise totally symmetric
    q.update(d_yyy=([g.d(dyy[a * n + b], ("y", c)) for i in r for j in r for k in r
                     for a, b, c in [sorted((i, j, k))]] if ("y", 0) in wrts else [], (n, n, n)))
    if kind == "jet":
        return g, _groups({name: getattr(q, name) for name in _BLOCKS})
    if kind == "euler":  # the Euler test of L; given V, max |(dg/dy) y| and max |(dV/dy) y|
        V = [g.lower(t, (None, seeded)) for t in vtrees or ()]
        g.check([q.euler_defect.i], "field evaluation produced a non-finite value")
        out = {"defect": q.euler_defect, "value": q.value}
        if vtrees is not None:
            out["metric_residual"] = q.norm(q.tensor([g.mul(g.d(v, _DIR), half) for v in dyy],
                                                     (n, n)))
            out["force_residual"] = q.norm(q.tensor([g.d(v, _DIR) for v in V], (n,)))
        return g, _groups(out)
    inv = g.invert(G)
    q.update(g_inv=(inv[:-2], (n, n)), eig_min=(inv[-2:-1], ()), eig_max=(inv[-1:], ()))
    ys = g.names(g.y)
    if kind == "geodesic":
        # gamma^i_jk y^j y^k = g^ih (2 dg_hj/dx_k - dg_jk/dx_h) y^j y^k / 2,
        # with dg_ab/dx_c = d3L/dy_a dy_b dx_c / 2
        dg = [[[g.d(G[a * n + b], ("x", c)) for c in r] for b in r] for a in r]
        s = [g.dot([g.sub(g.mul(g.dot(dg[h][j], g.y), g.const(2.0)),
                          g.dot([dg[j][k][h] for k in r], g.y)) for j in r], g.y) for h in r]
        accel = [g.neg(g.mul(g.dot(inv[i * n:i * n + n], s), half)) for i in r]
        return g, f"return [{ys}, {g.names(accel)}]"
    dxy_y = [g.dot(dxy[i * n:i * n + n], g.y) for i in r]
    spray0 = [g.mul(v, quarter) for v in g.solve([g.sub(dxy_y[j], dx[j]) for j in r])]
    g.names(spray0)  # before V, as the tower
    V = [g.lower(t, (None, seeded)) for t in vtrees]
    g.check(V + [g.d(v, w) for w in wrts for v in V],
            "force evaluation produced a non-finite value")
    spray = [g.sub(spray0[i], g.mul(V[i], quarter)) for i in r]
    if kind in ("evolution", "horizontal"):
        accel = [g.mul(g.const(-2.0), s) if kind == "evolution" else g.neg(g.d(s, _DIR))
                 for s in spray]
        return g, f"return [{ys}, {g.names(accel)}]"
    sigma = [g.dot(G[i * n:i * n + n], V) for i in r]
    s_l = [g.sub(g.dot(g.y, dx), g.mul(g.const(2.0), g.dot(w, dy))) for w in (spray, spray0)]
    jac = lambda w: [g.d(v, ("y", k)) for v in w for k in r]  # noqa: E731
    q.update(spray0=(spray0, (n,)), V=(V, (n,)), spray=(spray, (n,)), sigma=(sigma, (n,)),
             conn0=(jac(spray0), (n, n)), dV_dy=(jac(V), (n, n)), conn=(jac(spray), (n, n)),
             dsigma_dy=(jac(sigma), (n, n)), dSL_dy=(jac(s_l[:1]), (n,)),
             dS0L_dy=(jac(s_l[1:]), (n,)))
    # a report: the point report's checks, and for the identities the Euler test
    if arg == "identities":
        g.check([q.euler_defect.i], "field evaluation produced a non-finite value")
        g.lines.append(f"_euler_gate({g.names([q.euler_defect.i, L])}, z)")
    out = {name: value(q) for name, value in _REPORTS[arg].items()}
    if "dg_dx" in vars(q):  # the x-derivative pass's checks; no formula emitted a statement yet
        g.deepen(fns)
        g.check([g.d(v, ("x", k)) for k in r for v in blocks],
                "field evaluation produced a non-finite derivative")
    return g, _groups(out)


@lru_cache(maxsize=128)
def _program(kind: str, L, V, arg):
    """The ``kind`` program of fields L and V (either may be None) and its
    outputs' shapes by name (None for a kind that returns a list).  A field
    hashes and compares by the structural key it made at construction, so
    equal trees share a program and a lookup renders no tree."""
    g, out = _build(kind, (L or V).n, L and L.tree, V and V.trees, arg)
    shapes = None
    if not isinstance(out, str):  # named output groups, as lists
        shapes = {name: shape for name, (_, shape) in out.items()}
        out = "return (" + "".join(f"[{g.names(nodes)}], " for nodes, _ in out.values()) + ")"
    namespace = dict(_RUNTIME)
    head = ", ".join(g.name(i) for i in g.inputs)
    src = "\n    ".join([f"def program(z):\n    {head}, = z", *g.lines, out])
    exec(compile(src, "<lagmech compiled program>", "exec"), namespace)
    return namespace["program"], shapes


def program(kind: str, L, V=None, arg=2):
    """The compiled ``kind`` program of fields L and V, built at its first
    request and shared by equal fields; callers pass V only to the kinds
    that read it (``evolution``, ``horizontal``, ``record``, ``report``,
    ``euler`` for its partials along y, and ``value`` given V alone), and
    ``arg``, a jet's or an Euler test's order, a record's curve or a
    report's name."""
    return _program(kind, L, V, arg)[0]


def run(kind: str, L, V, p, arg=2) -> dict:
    """The outputs of the ``kind`` program (a kind of named outputs) at the
    phase point ``p`` by name: a float or an array each at one point, and
    over a batch (``p``'s coordinates (B,) arrays) each with a trailing
    point axis.  An exact zero is +0.0, as a sum of float products from
    +0.0 gives it."""
    fn, shapes = _program(kind, L, V, arg)
    lanes = batch_shape(p)
    out = fn([*p.x, *p.y])
    values = {}
    for (name, shape), vals in zip(shapes.items(), out):
        if not lanes:
            values[name] = vals[0] + 0.0 if not shape else np.array(vals).reshape(shape) + 0.0
            continue
        a = np.empty((len(vals),) + lanes)
        for k, v in enumerate(vals):
            a[k] = v
        a += 0.0
        values[name] = a.reshape(shape + lanes)
    return values


@lru_cache(maxsize=64)
def stepper(states: tuple, staged: int, n: int, guard=None):
    """An integration step in 2n floats as one function ``(rhs, z, k0, h)``.
    Each formula of ``states`` makes a state, entry by entry, as z plus the
    formula in the stages ``{i}`` (k0 given; ``hh`` and ``h6`` are h / 2 and
    h / 6); each of the first ``staged`` states is then passed to ``rhs``,
    behind the zero-section check ``guard`` (min |y|, message) if given.
    It returns the last staged state, the states after it and its stage."""
    m = 2 * n
    names = lambda v, lo=0: ", ".join(f"{v}_{j}" for j in range(lo, m))  # noqa: E731
    lines = ["def step(rhs, z, k0, h):", f"{names('z')}, = z", f"{names('k0')}, = k0",
             "hh, h6 = 0.5 * h, h / 6.0"]
    for i, formula in enumerate(states):
        lines += [f"s{i}_{j} = z_{j} + " + formula.format(*(f"k{q}_{j}" for q in range(i + 1)))
                  for j in range(m)]
        if i < staged:
            lines += [f"if _hypot({names(f's{i}', n)}) < {guard[0]!r}: raise _DomainError("
                      f"{guard[1]!r})"] if guard else []
            lines.append(f"k{i + 1} = rhs([{names(f's{i}')}])")
            lines += [f"{names(f'k{i + 1}')}, = k{i + 1}"] if i + 1 < len(states) else []
    outs = "".join(f"[{names(f's{i}')}], " for i in range(staged - 1, len(states)))
    namespace = {"_hypot": math.hypot, "_DomainError": DomainError}
    src = "\n    ".join([*lines, f"return {outs}k{staged}"])
    exec(compile(src, "<lagmech step>", "exec"), namespace)
    return namespace["step"]

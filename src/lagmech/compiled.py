"""Compiled derivative programs: the bound trees of L and V lowered once
into a DAG (equal subtrees one node, constants folded, each partial a
memoised node by the chain rule; Laue, arXiv:1904.02990), and emitted as
one straight-line function of the state ``[x1..xn, y1..yn]`` returning
``(z', (L, d_x, d_y, d_yy, d_xy, V))``, blocks as row-major lists.
``evolution`` runs L to order 2 and V, the jets' rank gate and inverse
(their float closed forms up to 2x2, numpy beyond), and x'' = -2 (G0 -
V/4); ``horizontal`` adds the derivatives along y of L's blocks and of
V, for x'' = -N y; ``geodesic`` emits the Christoffel contraction
gamma^i_jk y^j y^k from d3L/dy dy dx as its own straight-line sums (V
is None).  The domain rules are those of the same pass run on jets
(``mechanics._evolution_pass``, the tests' reference route): each node
is evaluated where ``dsl.eval_expr`` evaluates it, behind the same
check, and takes the terms of the jets' own derivative sequence that
the jet tower of the same pass takes.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import islice
from operator import or_

import numpy as np

from .dsl import Bin, Call, Neg, Num, Var
from .errors import DomainError
from .jets import (SCALAR_FUNCTIONS, KDual, _inverse, _inverse2, _rank_gate, _real_power,
                   _spectrum2, _spectrum_range, ipow, power, tangent_part, value_of)

__all__ = ["program"]

_X, _Y = 1, 2  # what a node depends on
_DIR = "dir"  # the derivative in the y-directions along y itself: a push along y


def _seq(f, m, v, b=None):
    """f(v), f'(v), ... to m terms, as the jets take them; f is ("rpow", b)
    for v**b, or "pow" for v**b with b known at run time (m = 2: a push)."""
    if f == "pow":
        d = power(v if m == 1 else KDual(v, np.ones(1)), b)
        return (d,) if m == 1 else (value_of(d), float(tangent_part(d, 1)[0]))
    if isinstance(f, tuple):
        return _real_power(v, f[1], m)
    return tuple(islice(SCALAR_FUNCTIONS[f](v), m))


def _invert(n, e):
    """The inverse of the symmetric matrix of row-major entries e, row-major,
    behind the jets' rank gate: their float closed forms up to 2x2, numpy's beyond."""
    if n < 3:
        _rank_gate(*(_spectrum2(e[0], e[1], e[3]) if n == 2 else (abs(e[0]),) * 2))
        return _inverse2(e[0], e[1], e[3]) if n == 2 else [1.0 / e[0]]
    a = np.array(e).reshape(n, n)
    _rank_gate(*_spectrum_range(a, False))
    return _inverse(a).ravel().tolist()


_RUNTIME = {"_DomainError": DomainError, "_seq": _seq, "_rpow": _real_power, "_ipow": ipow,
            "_invert": _invert, "_INF": float("inf"), "_NAN": float("nan")}
# folding evaluates as the program would; a constant that fails is left
# to fail, behind its check, at run time
_FOLD = {"add": lambda _, a, b: a + b, "sub": lambda _, a, b: a - b, "mul": lambda _, a, b: a * b,
         "div": lambda _, a, b: a / b, "neg": lambda _, a: -a, "ipow": lambda k, a: ipow(a, k),
         "fn": lambda f, a: _seq(f, 1, a)[0]}
_EXPR = {"add": "{} + {}", "sub": "{} - {}", "mul": "{} * {}", "div": "{} / {}", "neg": "-{}",
         0: "1.0", 2: "{0} * {0}", 3: "{0} * {0} * {0}", 4: "({0} * {0}) * ({0} * {0})"}


class _Dag:
    """The hash-consed nodes ``(op, operands, parameter)`` of one program, its
    memoised partials (None when zero) and its statements, in order."""

    def __init__(self, n: int):
        self.nodes, self.deps, self.ids, self.partials, self.counts = [], [], {}, {}, {}
        self.lines, self.done, self.guarded = [], set(), set()
        self.x, self.y = ([self.node(c, (), i) for i in range(n)] for c in "xy")

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

    def d(self, i, wrt):
        """Node i's partial derivative along ("x", k), ("y", k) or _DIR."""
        if i is None or not self.deps[i] & (_X if wrt[0] == "x" else _Y):
            return None
        if (i, wrt) in self.partials:
            return self.partials[i, wrt]
        op, kids, arg = self.nodes[i]
        if op in ("fn", "term"):  # a runtime exponent does not vary along wrt
            fn, k = (i, 1) if op == "fn" else (kids[0], arg + 1)
            r = self.mul(self.node("term", (fn,), k), self.d(self.nodes[fn][1][0], wrt))
        elif op in ("x", "y"):
            r = self.y[arg] if wrt == _DIR else self.const(1.0) if wrt == (op, arg) else None
        else:
            a, b = (kids + (None,))[:2]
            da, db = self.d(a, wrt), self.d(b, wrt)
            if op in ("add", "sub", "neg"):
                r = self.neg(da) if op == "neg" else getattr(self, op)(da, db)
            elif op == "mul":
                r = self.add(self.mul(da, b), self.mul(db, a))
            elif op == "div":  # as Jet.__truediv__: (da - db q) / b, by the reciprocal
                r = self.div(da, b) if self.nodes[b][0] == "const" else self.mul(
                    self.sub(da, self.mul(db, i)), self.div(self.const(1.0), b))
            else:  # a^k
                f = self.node("ipow", (a,), arg - 1) if arg > 2 else a if arg == 2 else self.div(i, a)
                r = self.mul(self.mul(self.const(arg), f), da) if arg else None
        self.partials[i, wrt] = r
        return r

    def name(self, i) -> str:
        if i is None:
            return "0.0"
        op, kids, v = self.nodes[i]
        if op == "const":
            text = repr(v) if abs(v) < np.inf else "_NAN" if v != v else "_INF" if v > 0 else "-_INF"
            return f"({text})" if text.startswith("-") else text
        return f"{op}{v + 1}" if op in ("x", "y") else v if op == "name" else \
            f"v{kids[0]}_{v}" if op == "term" else f"v{i}"

    def emit(self, i):
        if i is None or i in self.done:
            return
        op, kids, arg = self.nodes[i]
        a = [self.names([k]) for k in kids]
        if op == "fn":
            m = self.counts[i]
            outs = "".join([f"v{i}, "] + [f"v{i}_{k}, " for k in range(1, m)])
            call = f"_rpow({a[0]}, {arg[1]!r}, {m})" if isinstance(arg, tuple) else \
                f"_seq({arg!r}, {m}, {', '.join(a)})"
            self.lines.append(f"{outs}= {call}")
        elif op == "ipow":
            self.lines.append(f"v{i} = " + _EXPR.get(arg, f"_ipow({{}}, {arg})").format(*a))
        else:
            self.lines.append(f"v{i} = " + _EXPR[op].format(*a))
        self.done.add(i)

    def lower(self, e, tower):
        """The node of e, as ``dsl.eval_expr`` evaluates it over ``tower = (jet,
        seeded)``: order-2 jets or floats, with tangents along ``seeded``."""
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
                              if k == 0 and (tower[0] or not self.carries(a, tower)) else a
                              if k == 1 else self.node("ipow", (a,), k), tower)
        if self.carries(b, tower):  # a^b = exp(b log a), as the jets take it
            log = self.guard(self.node("fn", (a,), "log"), tower)
            return self.guard(self.node("fn", (self.guard(self.mul(b, log), tower),), "exp"), tower)
        return self.guard(self.node("fn", (a, b), "pow"), tower)

    def carries(self, i, tower) -> bool:
        """Whether node i carries derivatives in the tower."""
        return bool(self.deps[i] and (tower[0] or self.deps[i] & tower[1]))

    def guard(self, i, tower):
        """Schedule node i behind the check the jet route makes there."""
        op, kids, arg = self.nodes[i]
        if i in self.guarded or not kids:
            return i
        self.guarded.add(i)
        if op == "div" or op == "ipow" and arg < 0:
            dual = not tower[0] and (self.deps[kids[0]] | self.deps[kids[-1]]) & tower[1]
            message = ("zero raised to a negative power" if op == "ipow" else
                       "division by zero in dual evaluation" if dual else "division by zero")
            self.lines.append(f"if {self.name(kids[-1])} == 0.0: raise _DomainError({message!r})")
        if op == "fn":
            self.counts[i] = ((3 if tower[0] else 1) + bool(self.deps[i] & tower[1])
                             if self.carries(i, tower) else 1)
        self.emit(i)
        return i

    def check(self, nodes, message):
        """Raise DomainError(message) unless every node is finite."""
        nodes = [i for i in dict.fromkeys(nodes) if i is not None and not (
            self.nodes[i][0] == "const" and abs(self.nodes[i][2]) < np.inf)]
        if nodes:
            zeros = " + ".join(f"{self.names([i])} * 0.0" for i in nodes)
            self.lines.append(f"if {zeros} != 0.0: raise _DomainError({message!r})")

    def names(self, nodes) -> str:
        for i in nodes:
            self.emit(i)
        return ", ".join(self.name(i) for i in nodes)


def _build(kind: str, n: int, ltree, vtrees):
    g, r = _Dag(n), range(n)
    seeded = {"horizontal": _Y, "geodesic": _X}.get(kind, 0)
    ys, half, quarter = g.names(g.y), g.const(0.5), g.const(0.25)
    L = g.lower(ltree, (True, seeded))
    dx, dy = ([g.d(L, (c, i)) for i in r] for c in "xy")
    # d_yy from i <= j only, so that it is bitwise symmetric as the jet's
    dyy = [g.d(dy[min(i, j)], ("y", max(i, j))) for i in r for j in r]
    dxy = [g.d(dy[i], ("x", j)) for i in r for j in r]
    blocks = dx + dy + dyy + dxy
    # the blocks' tangents along the seeded directions, as the jet route checks them
    wrts = {"horizontal": [_DIR], "geodesic": [("x", c) for c in r]}.get(kind, [])
    tan = {w: [g.d(v, w) for v in blocks] for w in wrts}
    g.check([L] + [g.d(L, w) for w in wrts], "field evaluation produced a non-finite value")
    g.check(blocks + sum(tan.values(), []), "field evaluation produced a non-finite derivative")
    entries = g.names([g.mul(v, half) for v in dyy])
    inv = [[g.node("name", (), f"i{i}_{j}") for j in r] for i in r]
    g.lines.append(f"{g.names(sum(inv, []))}, = _invert({n}, ({entries},))")
    seen = f"({g.name(L)}, [{g.names(dx)}], [{g.names(dy)}], [{g.names(dyy)}], [{g.names(dxy)}]"
    dot = lambda row, vec: reduce(g.add, (g.mul(row[j], vec[j]) for j in r), None)  # noqa: E731
    if kind == "geodesic":
        # gamma^i_jk y^j y^k = g^ih (2 dg_hj/dx_k - dg_jk/dx_h) y^j y^k / 2,
        # with dg_ab/dx_c = d3L/dy_a dy_b dx_c / 2
        dg = [[[g.mul(tan["x", c][2 * n + a * n + b], half) for c in r] for b in r] for a in r]
        s = [dot([g.sub(g.mul(dot(dg[h][j], g.y), g.const(2.0)),
                        dot([dg[j][k][h] for k in r], g.y)) for j in r], g.y) for h in r]
        accel = [g.neg(g.mul(dot(inv[i], s), half)) for i in r]
        return g, f"return [{ys}, {g.names(accel)}], {seen}, None)"
    dxy_y = [dot(dxy[i * n:], g.y) for i in r]
    spray0 = [g.mul(dot(inv[i], [g.sub(dxy_y[j], dx[j]) for j in r]), quarter) for i in r]
    g.names(spray0)  # before V, as the jet route
    V = [g.lower(t, (False, seeded)) for t in vtrees]
    tV = [g.d(v, _DIR) for v in V] if kind == "horizontal" else []
    g.check(V + tV, "force evaluation produced a non-finite value")
    if kind == "evolution":
        accel = [g.mul(g.const(-2.0), g.sub(spray0[i], g.mul(V[i], quarter))) for i in r]
    else:
        # N y = D_y G0 - (dV/dy) y / 4, with D_y G0 =
        #   g^-1 [(d_xyy y) y + d_xy y - d_xy^T y] / 4 - g^-1 (d_yyy y / 2) G0
        t_dx, t_dyy, t_dxy = tan[_DIR][:n], tan[_DIR][2 * n:2 * n + n * n], tan[_DIR][2 * n + n * n:]
        u = [g.sub(g.add(dot(t_dxy[i * n:], g.y), dxy_y[i]), t_dx[i]) for i in r]
        m = [dot([g.mul(v, half) for v in t_dyy[i * n:i * n + n]], spray0) for i in r]
        accel = [g.neg(g.sub(g.sub(g.mul(dot(inv[i], u), quarter), dot(inv[i], m)),
                             g.mul(tV[i], quarter))) for i in r]
    return g, f"return [{ys}, {g.names(accel)}], {seen}, [{g.names(V)}])"


@lru_cache(maxsize=64)
def _program(kind: str, n: int, key: str, ltree, vtrees):
    g, tail = _build(kind, n, ltree, vtrees)
    namespace = dict(_RUNTIME)
    head = ", ".join(g.name(i) for i in g.x + g.y)
    src = "\n    ".join([f"def program(z):\n    {head}, = z", *g.lines, tail])
    exec(compile(src, "<lagmech compiled program>", "exec"), namespace)
    return namespace["program"]


def program(kind: str, L, V):
    """The compiled ``kind`` program of fields L and V that carry their
    trees, built at its first request and shared by equal trees (their
    repr tells -0.0 from 0.0)."""
    vtrees = None if kind == "geodesic" else V.trees
    return _program(kind, L.n, repr((L.tree, vtrees)), L.tree, vtrees)

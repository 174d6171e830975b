"""Span tracer installed around lagmech's public functions.

The tracer never edits lagmech's source.  It replaces, for the duration of
a traced pass, every attribute of a ``lagmech.*`` module that names one of
the traced functions (modules import names directly, so one function can
sit under several attributes), and puts the originals back afterwards.

Spans are kept in memory as ``[name, start_ns, end_ns, parent, op]`` lists
and written out once the pass is over.  Span times are read from a clock
that stops while the tracer fingerprints the inputs of ``eval_jet`` and
``sym_invert``, so that work shows in no span's self time.  A name whose
function no longer exists is reported as absent; its statistics read zero.
"""

from __future__ import annotations

import contextlib
import sys
import time

# (span name, module, attribute path).  Several attributes may feed one span.
TARGETS = [
    ("jets.eval_jet", "jets", "eval_jet"),
    ("jets.sym_invert", "jets", "sym_invert"),
    ("jets.push_direction", "jets", "push_direction"),
    ("dsl.parse", "dsl", "parse"),
    ("dsl.field_eval", "phase", "ScalarField.__call__"),
    ("dsl.field_eval", "phase", "ScalarField.at"),
    ("dsl.field_eval", "phase", "VerticalField.__call__"),
    ("dsl.field_eval", "phase", "VerticalField.at"),
    ("geometry.lagrange_geometry", "geometry", "lagrange_geometry"),
    ("geometry.canonical_spray_at", "geometry", "canonical_spray_at"),
    ("geometry.metric_at", "geometry", "metric_at"),
    ("geometry.dyn_cov_deriv_g", "geometry", "dyn_cov_deriv_g"),
    ("geometry.spray_equation_residual", "geometry", "spray_equation_residual"),
    ("mechanics.evolution_bundle_at", "mechanics", "evolution_bundle_at"),
    ("mechanics.evolution_spray_at", "mechanics", "evolution_spray_at"),
    ("mechanics.sigma_at", "mechanics", "sigma_at"),
    ("mechanics.force_jacobian_y", "mechanics", "force_jacobian_y"),
    ("mechanics.evolution_equation_residual", "mechanics", "evolution_equation_residual"),
    ("mechanics.lie_theta_residual", "mechanics", "lie_theta_residual"),
    ("mechanics.horizontal_dE", "mechanics", "horizontal_dE"),
    ("mechanics.classify", "mechanics", "classify"),
    ("finsler.christoffel_at", "finsler", "christoffel_at"),
    ("finsler.homogeneity_residual_at", "finsler", "homogeneity_residual_at"),
    ("finsler.homogeneity_report", "finsler", "homogeneity_report"),
    ("finsler.finsler_identities", "finsler", "finsler_identities"),
    ("verify.run_verification", "verify", "run_verification"),
    ("trajectories.integrate_evolution", "trajectories", "integrate_evolution"),
    ("trajectories.integrate_horizontal", "trajectories", "integrate_horizontal"),
    ("trajectories.integrate_geodesic", "trajectories", "integrate_geodesic"),
    ("trajectories.Trajectory.to_csv", "trajectories", "Trajectory.to_csv"),
    ("cli.build_samples", "cli", "build_samples"),
    ("cli.render_json", "cli", "render_json"),
    ("systems.instantiate", "systems", "instantiate"),
    ("sampling.sample_box", "sampling", "sample_box"),
]

# Spans whose inputs are fingerprinted: dual inputs, jet orders and
# distinct inputs measure how much of their work is repeated.
_KEYED = ("jets.eval_jet", "jets.sym_invert")


def _scalar_key(v, dual):
    if dual is not None and isinstance(v, dual):
        return (v.val, v.dot)
    return float(v)


class Tracer:
    """Records spans for one traced pass; not reentrant across threads."""

    def __init__(self, lagmech):
        self.lm = lagmech
        self.spans: list = []
        self.stack: list = []
        self.active: dict = {}
        self.op = -1
        self.absent: list = []
        self.keys = {name: set() for name in _KEYED}
        self.dual_calls = {name: 0 for name in _KEYED}
        self.order_calls = {1: 0, 2: 0, 3: 0}
        self._undo: list = []
        self._paused_ns = 0  # time spent fingerprinting, kept off the span clock
        self._dual = getattr(getattr(lagmech, "jets", None), "Dual", None)
        self._notes = {"jets.eval_jet": self._note_eval_jet,
                       "jets.sym_invert": self._note_sym_invert}

    # -- span recording -------------------------------------------------

    def now(self) -> int:
        return time.perf_counter_ns() - self._paused_ns

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.now(), 0, parent, self.op])
        self.stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = self.now()
        self.stack.pop()

    def root(self, name: str):
        """Open a root span for one benchmark operation; returns its index."""
        self.op += 1
        return self.begin(name)

    def _wrap(self, name, fn):
        tracer = self
        note = self._notes.get(name)

        def traced(*args, **kwargs):
            if not tracer.stack or tracer.active.get(name):
                # only calls made inside a benchmark operation are recorded;
                # recursion folds into the outermost span of the same name
                return fn(*args, **kwargs)
            if note is not None:
                t0 = time.perf_counter_ns()
                note(args, kwargs)
                tracer._paused_ns += time.perf_counter_ns() - t0
            tracer.active[name] = 1
            idx = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(idx)
                tracer.active[name] = 0

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _note_eval_jet(self, args, kwargs):
        f = args[0] if args else kwargs["f"]
        p = args[1] if len(args) > 1 else kwargs["p"]
        order = args[2] if len(args) > 2 else kwargs.get("order", 3)
        coords = tuple(_scalar_key(v, self._dual) for v in (*p.x, *p.y))
        if any(isinstance(c, tuple) for c in coords):
            self.dual_calls["jets.eval_jet"] += 1
        if order in self.order_calls:
            self.order_calls[order] += 1
        ident = getattr(f, "source", None) or id(f)
        self.keys["jets.eval_jet"].add((ident, order, coords))

    def _note_sym_invert(self, args, kwargs):
        m = args[0] if args else kwargs["m"]
        flat = tuple(_scalar_key(v, self._dual) for row in m for v in row)
        if any(isinstance(c, tuple) for c in flat):
            self.dual_calls["jets.sym_invert"] += 1
        rel_tol = args[1] if len(args) > 1 else kwargs.get("rel_tol")
        self.keys["jets.sym_invert"].add((rel_tol, flat))

    # -- installation ---------------------------------------------------

    def install(self):
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "lagmech" or k.startswith("lagmech."))]
        for name, modname, path in TARGETS:
            owner = getattr(self.lm, modname, None)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            fn = getattr(owner, parts[-1], None) if owner is not None else None
            if fn is None:
                if name not in self.absent:
                    self.absent.append(name)
                continue
            wrapped = self._wrap(name, fn)
            if len(parts) > 1:
                self._set(owner, parts[-1], fn, wrapped)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, attr, fn, wrapped)

    def _set(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results --------------------------------------------------------

    def stats(self) -> dict:
        """Per-span statistics keyed ``<span>.<stat>``, times in seconds."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        acc: dict = {}
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            a = acc.setdefault(name, [0, 0, 0])
            a[0] += 1
            a[1] += end - start
            a[2] += end - start - child[i]
        out = {}
        for name in sorted({t[0] for t in TARGETS}):
            calls, incl, self_ns = acc.get(name, (0, 0, 0))
            out[f"{name}.calls"] = calls
            out[f"{name}.incl_s"] = incl * 1e-9
            out[f"{name}.self_s"] = self_ns * 1e-9
        for name in _KEYED:
            calls = out[f"{name}.calls"]
            out[f"{name}.dual_calls"] = self.dual_calls[name]
            out[f"{name}.distinct_ratio"] = len(self.keys[name]) / calls if calls else 0.0
        for order, calls in self.order_calls.items():
            out[f"jets.eval_jet.o{order}.calls"] = calls
        return out

    def check(self) -> list:
        """Structural problems: spans that do not nest in their parent or
        overlap a sibling, negative self times, or self times that do not
        add up to their root's duration."""
        problems = []
        child = [0] * len(self.spans)
        last_end: dict = {}
        roots = {}
        self_sum: dict = {}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if end < start:
                problems.append(f"span {i} ({name}) ends before it starts")
            if parent < 0:
                roots[op] = end - start
                continue
            ps = self.spans[parent]
            if not (ps[1] <= start and end <= ps[2]) or ps[4] != op:
                problems.append(f"span {i} ({name}) does not nest in span {parent}")
            if start < last_end.get(parent, start):
                problems.append(f"span {i} ({name}) overlaps its previous sibling")
            last_end[parent] = end
            child[parent] += end - start
        for i, (name, start, end, _parent, op) in enumerate(self.spans):
            own = end - start - child[i]
            if own < 0:
                problems.append(f"span {i} ({name}) has negative self time")
            self_sum[op] = self_sum.get(op, 0) + own
        for op, dur in roots.items():
            if self_sum.get(op) != dur:
                problems.append(f"op {op}: self times sum to {self_sum.get(op)} ns, "
                                f"root lasts {dur} ns")
        if self.stack:
            problems.append(f"{len(self.stack)} spans left open")
        return problems


def write_spans(tracers, path):
    """One CSV of spans; ``pass`` numbers the tracers in order."""
    with open(path, "w") as fh:
        fh.write("pass,index,op,parent,name,start_ns,end_ns\n")
        for k, tracer in enumerate(tracers):
            for i, (name, start, end, parent, op) in enumerate(tracer.spans):
                fh.write(f"{k},{i},{op},{parent},{name},{start},{end}\n")

"""Outside-in layer tracing of the logint package.

``install`` replaces, by module attribute, the functions each layer calls
in the next one: ``integrate_semi_infinite`` and
``integrate_semi_infinite_2d`` in every module that imported them by name
(the quadrature module included, which catches the inner integrals of
the 2-D engine), the integrand each 1-D integral receives, the public
functions of the application modules, the ``special`` functions they
imported, and ``cli.main``.  No file of the package changes.

Each wrapper records a span in memory: kind, name, start, end, parent
span and op id, plus the points an integrand saw or the subdivisions and
convergence of an integral.  Self times are each span's duration minus
that of its children.  A wrapper returns exactly what the wrapped call
returns, so traced values are bit-identical to untraced ones.
"""

from __future__ import annotations

import functools
import inspect
import time

import numpy as np

OP, CLI, APP, SPECIAL, QUAD1D, QUAD2D, INTEGRAND, OUTER = range(8)
KIND_NAMES = ("op", "cli", "app", "special", "quad1d", "quad2d", "integrand", "outer2d")

APP_MODULES = ("cauchy", "coding", "simo", "logmoments")
QUAD_IMPORTERS = ("quadrature", "cauchy", "coding", "simo", "logmoments", "special", "cli")


class Tracer:
    """Spans kept in flat lists; nothing is written until ``save``."""

    def __init__(self):
        self.kind, self.name, self.parent, self.op = [], [], [], []
        self.t0, self.t1, self.points, self.subdiv, self.unconv = [], [], [], [], []
        self.names = ["", "inner", "outer"]
        self._stack = [-1]
        self.op_id = -1
        self._undo = []

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, kind: int, name: int = 0, points: int = 0) -> int:
        i = len(self.t0)
        self.kind.append(kind)
        self.name.append(name)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.points.append(points)
        self.subdiv.append(0)
        self.unconv.append(0)
        self.t1.append(0.0)
        self._stack.append(i)
        self.t0.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.t1[i] = time.perf_counter()
        self._stack.pop()

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, kind: int, label: str):
        nid = self.name_id(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.open(kind, nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return wrapper

    def _quad1d(self, fn):
        @functools.wraps(fn)
        def integrate_semi_infinite(f, *args, **kwargs):
            axis = kwargs.get("_axis", "")
            kind = OUTER if axis == "outer" else INTEGRAND

            def integrand(u):
                j = self.open(kind, 0, np.size(u))
                try:
                    return f(u)
                finally:
                    self.close(j)

            i = self.open(QUAD1D, self.name_id(axis))
            try:
                res = fn(integrand, *args, **kwargs)
            finally:
                self.close(i)
            self.subdiv[i] = getattr(res, "subdivisions_used", 0)
            self.unconv[i] = 0 if getattr(res, "converged", True) else 1
            return res

        return integrate_semi_infinite

    def _quad2d(self, fn):
        @functools.wraps(fn)
        def integrate_semi_infinite_2d(*args, **kwargs):
            i = self.open(QUAD2D)
            try:
                res = fn(*args, **kwargs)
            finally:
                self.close(i)
            self.unconv[i] = 0 if getattr(res, "converged", True) else 1
            return res

        return integrate_semi_infinite_2d

    def _patch(self, mod, attr: str, new) -> None:
        self._undo.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def install(self, pkg) -> None:
        """Wrap the layer boundaries of the imported package ``pkg``."""
        mods = {m: getattr(pkg, m) for m in set(QUAD_IMPORTERS) | set(APP_MODULES)}
        q1 = self._quad1d(mods["quadrature"].integrate_semi_infinite)
        q2 = self._quad2d(mods["quadrature"].integrate_semi_infinite_2d)
        for name in QUAD_IMPORTERS:
            mod = mods[name]
            if hasattr(mod, "integrate_semi_infinite"):
                self._patch(mod, "integrate_semi_infinite", q1)
            if hasattr(mod, "integrate_semi_infinite_2d"):
                self._patch(mod, "integrate_semi_infinite_2d", q2)
        special = mods["special"]
        for fname in special.__all__:
            fn = getattr(special, fname)
            if not inspect.isfunction(fn):
                continue
            wrapped = self._span(fn, SPECIAL, f"special.{fname}")
            for mod in [special] + [mods[m] for m in APP_MODULES]:
                if getattr(mod, fname, None) is fn:
                    self._patch(mod, fname, wrapped)
        for mname in APP_MODULES:
            mod = mods[mname]
            for fname in mod.__all__:
                fn = getattr(mod, fname)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    self._patch(mod, fname, self._span(fn, APP, f"{mname}.{fname}"))
        self._patch(mods["cli"], "main", self._span(mods["cli"].main, CLI, "cli.main"))

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, old = self._undo.pop()
            setattr(mod, attr, old)

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "kind": np.array(self.kind, dtype=np.int8),
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
            "t0": np.array(self.t0), "t1": np.array(self.t1),
            "points": np.array(self.points, dtype=np.int64),
            "subdiv": np.array(self.subdiv, dtype=np.int64),
            "unconv": np.array(self.unconv, dtype=np.int8),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), kinds=np.array(KIND_NAMES),
                            **self.arrays())


def self_times(a: dict) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = a["t1"] - a["t0"]
    has = a["parent"] >= 0
    child = np.bincount(a["parent"][has], weights=dur[has], minlength=dur.size)
    return dur - child


def layer_metrics(a: dict, names: list, app_functions) -> dict:
    """Per-layer counts and self times from the span arrays."""
    kind = a["kind"]
    self_s = self_times(a)
    quad1d = kind == QUAD1D
    calls = (kind == INTEGRAND) | (kind == OUTER)
    inner = quad1d & (a["name"] == names.index("inner"))
    n_calls = int(calls.sum())
    n_points = int(a["points"][calls].sum())
    engine = float(self_s[quad1d | (kind == QUAD2D)].sum())
    integrand = float(self_s[kind == INTEGRAND].sum())
    m = {
        "quadrature.integrals_1d": int(quad1d.sum()),
        "quadrature.integrals_2d": int((kind == QUAD2D).sum()),
        "quadrature.inner_integrals": int(inner.sum()),
        "quadrature.integrand_calls": n_calls,
        "quadrature.integrand_points": n_points,
        "quadrature.subdivisions": int(a["subdiv"][quad1d].sum()),
        "quadrature.unconverged": int(a["unconv"].sum()),
        "quadrature.engine_self_s": engine,
        "quadrature.engine_us_per_call": engine / n_calls * 1e6 if n_calls else 0.0,
        "quadrature.outer2d_self_s": float(self_s[kind == OUTER].sum()),
        "integrand.self_s": integrand,
        "integrand.ns_per_point": integrand / n_points * 1e9 if n_points else 0.0,
        "special.calls": int((kind == SPECIAL).sum()),
        "special.self_s": float(self_s[kind == SPECIAL].sum()),
        "cli.self_s": float(self_s[kind == CLI].sum()),
    }
    app = kind == APP
    for fname in app_functions:
        sel = app & (a["name"] == names.index(fname)) if fname in names else np.zeros_like(app)
        m[f"{fname}.calls"] = int(sel.sum())
        m[f"{fname}.self_s"] = float(self_s[sel].sum())
    return m

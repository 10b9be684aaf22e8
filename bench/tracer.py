"""Span tracer that instruments poincare_ext from outside the package.

``Tracer.install()`` wraps every function in each package module's
``__all__`` (a module without ``__all__`` contributes its public
functions), the ``cli.suite_*`` functions, and the scipy entry points
bound in ``group``, ``orbits`` and ``dynamics``.  Each wrapper is rebound
in every ``poincare_ext`` namespace that holds the original, so a call
from one layer into another (``irreps`` -> ``wavefunctions``) gets its own
span.  ``uninstall()`` puts the originals back.

A span records its name, layer, parent, request, start and end, and its
self time: wall and thread CPU time minus the part its children on the
same thread cover.  Busy time is self CPU time; wait time is self wall
time minus busy time, which under the thread pool is GIL and scheduler
wait.  Span stacks are per thread.  A span that opens on an empty stack
in a pool thread links to the request span open on the installing
thread, so a suite links to its ``run_all_checks``.  Spans stay in memory
until ``summary()`` or ``write()`` is called when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
import types

#: package modules, one layer each, in dependency order
LAYERS = ("conventions", "group", "cohomology", "orbits", "wavefunctions",
          "irreps", "quantization", "dynamics", "cli")

#: scipy names bound in package modules; each becomes a span in layer "scipy"
SCIPY_NAMES = {"group": ("solve_ivp",), "orbits": ("null_space",),
               "dynamics": ("quad", "solve_ivp")}

#: suite report names, in the order ``run_all_checks`` reports them
SUITES = ("cohomology", "structure", "coadjoint", "orbits", "representations",
          "generators", "quantization", "classical", "dynamics")

INTEGRAND = "wavefunctions.integrand"

# span record fields
_FIELDS = ("id", "parent", "request", "name", "layer", "start", "end",
           "self_wall", "self_cpu", "escaped", "extra")
_ID, _PARENT, _REQUEST, _NAME, _LAYER, _T0, _T1, _SELF_WALL, _SELF_CPU, \
    _ESCAPED, _EXTRA = range(len(_FIELDS))


class Tracer:
    """Collects spans from every thread that calls an instrumented function."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers = []          # one span list per thread
        self._threads = set()       # idents of threads that recorded spans
        self._ids = itertools.count(1)
        self._home = threading.get_ident()
        self._request = None        # outermost open span on the home thread
        self._patches = []          # (namespace, key, original)
        self.suite_names = {}       # cli span name -> suite report name

    # -- recording ----------------------------------------------------------

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])      # (stack, spans)
            with self._lock:
                self._buffers.append(state[1])
                self._threads.add(threading.get_ident())
        return state

    def wrap(self, fn, name: str, layer: str, hook=None):
        """Return fn wrapped in a span.

        hook(args, kwargs) may return (args, kwargs, finish); finish(result)
        gives the span's extra field (a count such as nodes or nfev).
        """
        tracer = self
        perf_counter, thread_time = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans = tracer._thread_state()
            sid = next(tracer._ids)
            home_root = False
            if stack:
                parent, request = stack[-1][0], stack[-1][1]
            elif threading.get_ident() == tracer._home:
                parent, request, home_root = None, sid, True
                tracer._request = sid
            else:
                parent = request = tracer._request
            finish = None
            if hook is not None:
                args, kwargs, finish = hook(args, kwargs)
            frame = [sid, request, layer, 0.0, 0.0]   # child wall, child cpu
            stack.append(frame)
            escaped = False
            result = None
            w0, c0 = perf_counter(), thread_time()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                # an exception leaves the layer unless the caller is in it
                escaped = len(stack) < 2 or stack[-2][2] != layer
                raise
            finally:
                c1, w1 = thread_time(), perf_counter()
                stack.pop()
                wall, cpu = w1 - w0, c1 - c0
                if stack:
                    stack[-1][3] += wall
                    stack[-1][4] += cpu
                if home_root:
                    tracer._request = None
                extra = finish(result) if finish is not None else None
                spans.append((sid, parent, request, name, layer, w0, w1,
                              wall - frame[3], cpu - frame[4], escaped, extra))

        return traced

    def _integrate_vec_hook(self, args, kwargs):
        """Count integrand nodes and levels and time the integrand apart."""
        box = {"levels": 0, "nodes": 0, "last": 0}

        def count(fn):
            inner = self.wrap(fn, INTEGRAND, "integrand")

            def integrand(x):
                box["levels"] += 1
                box["nodes"] += x.size
                box["last"] = x.size
                return inner(x)
            return integrand

        if args:
            args = (count(args[0]),) + tuple(args[1:])
        else:
            kwargs = dict(kwargs, fn=count(kwargs["fn"]))

        def finish(result):
            accepted = box["last"] if result is not None else 0
            return (box["levels"], box["nodes"], accepted)
        return args, kwargs, finish

    @staticmethod
    def _nfev_hook(args, kwargs):
        return args, kwargs, lambda sol: int(getattr(sol, "nfev", 0) or 0)

    # -- instrumentation ----------------------------------------------------

    def install(self):
        """Wrap the package's public functions and its scipy entry points."""
        pkg = importlib.import_module("poincare_ext")
        mods = {name: importlib.import_module(f"poincare_ext.{name}")
                for name in LAYERS}
        targets = {}
        for layer, mod in mods.items():
            names = list(getattr(mod, "__all__", None)
                         or [n for n in vars(mod) if not n.startswith("_")])
            if layer == "cli":
                names += [n for n in vars(mod) if n.startswith("suite_")]
            for key in names:
                obj = vars(mod).get(key)
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__.startswith("poincare_ext.")):
                    owner = obj.__module__.rpartition(".")[2]
                    targets.setdefault(id(obj), (obj, owner))
        wrapped = {}
        for key, (obj, owner) in targets.items():
            name = f"{owner}.{obj.__name__}"
            hook = (self._integrate_vec_hook
                    if name == "wavefunctions.integrate_vec" else None)
            wrapped[key] = self.wrap(obj, name, owner, hook)
        for ns in [vars(pkg)] + [vars(m) for m in mods.values()]:
            for key, obj in list(ns.items()):
                if isinstance(obj, types.FunctionType) and id(obj) in wrapped:
                    self._patch(ns, key, wrapped[id(obj)])
        cli = mods["cli"]
        suites = getattr(cli, "_SUITES", None)
        if suites is not None:
            # run_all_checks iterates this table, which holds the originals
            self.suite_names = {f"cli.{fn.__name__}": report
                                for report, fn in suites}
            self._patch(vars(cli), "_SUITES",
                        tuple((report, wrapped.get(id(fn), fn))
                              for report, fn in suites))
        for mod_name, names in SCIPY_NAMES.items():
            ns = vars(mods[mod_name])
            for key in names:
                if key in ns:
                    hook = self._nfev_hook if key == "solve_ivp" else None
                    self._patch(ns, key, self.wrap(
                        ns[key], f"scipy.{mod_name}.{key}", "scipy", hook))
        return self

    def _patch(self, ns, key, value):
        self._patches.append((ns, key, ns[key]))
        ns[key] = value

    def uninstall(self):
        while self._patches:
            ns, key, original = self._patches.pop()
            ns[key] = original

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ------------------------------------------------------------

    def spans(self):
        with self._lock:
            return [s for buf in self._buffers for s in buf]

    def summary(self) -> dict:
        """Per-name totals: calls, self busy/wait, inclusive wall, extras."""
        names = {}
        for s in self.spans():
            row = names.get(s[_NAME])
            if row is None:
                row = names[s[_NAME]] = {
                    "layer": s[_LAYER], "calls": 0, "busy_s": 0.0,
                    "wait_s": 0.0, "wall_s": 0.0, "errors": 0,
                    "nodes": 0, "levels": 0, "accepted": 0, "nfev": 0}
            row["calls"] += 1
            row["busy_s"] += s[_SELF_CPU]
            row["wait_s"] += s[_SELF_WALL] - s[_SELF_CPU]
            row["wall_s"] += s[_T1] - s[_T0]
            row["errors"] += bool(s[_ESCAPED])
            extra = s[_EXTRA]
            if isinstance(extra, tuple):
                row["levels"] += extra[0]
                row["nodes"] += extra[1]
                row["accepted"] += extra[2]
            elif extra is not None:
                row["nfev"] += extra
        return {"names": names, "suite_names": dict(self.suite_names),
                "threads": len(self._threads), "spans": sum(
                    r["calls"] for r in names.values())}

    def records(self) -> list:
        """Every span as a dict, in the order the spans opened."""
        return [dict(zip(_FIELDS, s))
                for s in sorted(self.spans(), key=lambda s: s[_ID])]


def write_spans(path, records) -> None:
    """Write span records as JSON lines."""
    with open(path, "w") as out:
        for rec in records:
            out.write(json.dumps(rec))
            out.write("\n")


def merge(summaries) -> dict:
    """Add up summaries from several processes (traced CLI invocations)."""
    names, suite_names, threads, spans = {}, {}, 0, 0
    for summ in summaries:
        suite_names.update(summ["suite_names"])
        threads = max(threads, summ["threads"])
        spans += summ["spans"]
        for name, row in summ["names"].items():
            acc = names.setdefault(name, {
                k: v if k == "layer" else 0 for k, v in row.items()})
            for k, v in row.items():
                if k != "layer":
                    acc[k] += v
    return {"names": names, "suite_names": suite_names, "threads": threads,
            "spans": spans}


def layer_metrics(summ: dict) -> dict:
    """The per-layer metrics the benchmark reports, from a summary."""
    names = summ["names"]

    def get(name, key):
        row = names.get(name)
        return row[key] if row else 0

    out = {}
    for layer in LAYERS + ("scipy",):
        rows = [r for r in names.values() if r["layer"] == layer]
        out[f"{layer}.calls"] = sum(r["calls"] for r in rows)
        out[f"{layer}.busy_s"] = sum(r["busy_s"] for r in rows)
        out[f"{layer}.wait_s"] = sum(r["wait_s"] for r in rows)
        out[f"{layer}.errors"] = sum(r["errors"] for r in rows)
    iv = "wavefunctions.integrate_vec"
    nodes = get(iv, "nodes")
    out.update({
        f"{iv}.calls": get(iv, "calls"),
        f"{iv}.nodes": nodes,
        f"{iv}.levels": get(iv, "levels"),
        f"{iv}.useful_ratio": get(iv, "accepted") / nodes if nodes else 0.0,
        "wavefunctions.integrand_busy_s": get(INTEGRAND, "busy_s"),
        "irreps.rep_apply.calls": get("irreps.rep_apply", "calls"),
    })
    for name in ("dynamics.oracle_propagate", "group.exp_map",
                 "group.log_map", "scipy.dynamics.quad",
                 "scipy.orbits.null_space"):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.busy_s"] = get(name, "busy_s")
    for name in ("scipy.dynamics.solve_ivp", "scipy.group.solve_ivp"):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.nfev"] = get(name, "nfev")
        out[f"{name}.busy_s"] = get(name, "busy_s")
    out["group.compose.calls"] = get("group.compose", "calls")
    out["group.inverse.calls"] = get("group.inverse", "calls")
    out["group.coadjoint_action.busy_s"] = get("group.coadjoint_action",
                                               "busy_s")
    suite_wall = {report: names[span]["wall_s"]
                  for span, report in summ["suite_names"].items()
                  if span in names}
    for report in SUITES:
        out[f"cli.suite.{report}_s"] = suite_wall.get(report, 0.0)
    return out

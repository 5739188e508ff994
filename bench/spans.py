"""Span tracing of timopigp's layers, installed from outside the package.

The tracer replaces every public function of the eight layer modules with
a wrapper that records a span (id, parent id, name, start, end) and adds
to per-function call counts, total time and self time.  The package is
not edited: the wrappers are set on the module objects, and on every
other timopigp module that imported the function by name, and the
originals are put back by ``uninstall``.

Self time is a span's duration minus the time its child spans cover.  A
few functions also feed counters from their arguments and results, so
that the ratios in ``layer_metrics`` are measured where the work happens.
"""

from __future__ import annotations

import csv
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("kernels", "gp", "mcmc", "placement", "experiments", "beam",
          "data", "cli")

# se_derivative is the per-term derivative inside kernels.kernel (up to
# four calls per kernel call); as a span of its own it would leave the
# kernel span with only the bookkeeping as self time.
NOT_TRACED = {"kernels.se_derivative"}


def _layer_functions():
    """(layer, name, function) for every public function of each layer."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"timopigp.{layer}"]
        for name, obj in vars(mod).items():
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or f"{layer}.{name}" in NOT_TRACED):
                continue
            out.append((layer, name, obj))
    return out


def _theta_key(theta):
    return (theta.sigma_s2, theta.ell, theta.EI, theta.kGA,
            tuple(sorted(theta.sigma_n.items())))


def _entry_key(e):
    z = None if e.z is None else e.z.tobytes()
    return (e.kind.code, e.x.tobytes(), z, e.y.tobytes(),
            getattr(e, "sigma_n", 0.0), getattr(e, "learn_noise", False),
            getattr(e, "label", ""))


class Tracer:
    """Records spans and per-function statistics while installed."""

    def __init__(self):
        # Span i is (parent[i] or -1, names[name_of[i]], start[i], end[i]);
        # flat arrays keep a million spans in tens of megabytes.
        self.parent, self.name_of = array("q"), array("H")
        self.start, self.end = array("d"), array("d")
        self.names = []
        # name -> [calls, total seconds, self seconds, calls that raised]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.counts = defaultdict(float)
        self._stack = []           # [span id, name, child time]
        self._patched = []         # (module, attribute, original)
        self._layouts = {}
        self._assembled = set()
        self._entropy_sets = set()
        self._observers = {
            "kernels.kernel": self._observe_kernel,
            "gp.assemble": self._observe_assemble,
            "mcmc.run_chain": self._observe_run_chain,
            "placement.set_entropy": self._observe_set_entropy,
        }

    # -- installation -----------------------------------------------------

    def install(self):
        wrappers = {}
        for layer, name, fn in _layer_functions():
            wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("timopigp"):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        stack, st = self._stack, self.stats[name]
        parents, name_of = self.parent, self.name_of
        starts, ends = self.start, self.end
        name_idx = len(self.names)
        self.names.append(name)
        observer = self._observers.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = len(starts)
            parents.append(-1 if parent is None else parent[0])
            name_of.append(name_idx)
            starts.append(0.0)
            ends.append(0.0)
            frame = [sid, name, 0.0]
            stack.append(frame)
            raised = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                t1 = clock()
                stack.pop()
                starts[sid], ends[sid] = t0, t1
                dur = t1 - t0
                if parent is not None:
                    parent[2] += dur
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[2]
                st[3] += raised
                if observer is not None:
                    observer(args, kwargs, None if raised else result,
                             parent)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters ---------------------------------------------------------

    def _observe_kernel(self, args, kwargs, result, parent):
        if result is not None:
            self.counts["kernels.kernel.entries"] += np.size(result)

    def _observe_assemble(self, args, kwargs, result, parent):
        datasets, bcs = args[0], args[1]
        theta = args[2] if len(args) > 2 else kwargs["theta"]
        layout = (tuple(_entry_key(d) for d in datasets)
                  + tuple(_entry_key(b) for b in (bcs or [])))
        layout_id = self._layouts.setdefault(layout, len(self._layouts))
        self._assembled.add((layout_id, _theta_key(theta)))
        if result is not None and result.jitter == 0.0:
            self.counts["gp.assemble.first_try"] += 1
        if parent is not None and parent[1] == "mcmc.log_posterior":
            self.counts["mcmc.log_posterior.assembled"] += 1

    def _observe_run_chain(self, args, kwargs, result, parent):
        cfg = args[3] if len(args) > 3 else kwargs["cfg"]
        self.counts["mcmc.steps"] += cfg.n_total
        if result is not None:
            self.counts["mcmc.accepted"] += \
                result.acceptance_rate * cfg.n_total

    def _observe_set_entropy(self, args, kwargs, result, parent):
        selected, problem = args[0], args[1]
        sensors = tuple(sorted((round(float(x), 12), k.code)
                               for x, k in selected))
        bcs = tuple(_entry_key(b) for b in problem.bcs)
        self._entropy_sets.add((sensors, problem.params, bcs))

    # -- results ----------------------------------------------------------

    def layer_metrics(self, names) -> dict:
        """The figures ``names`` asks for.

        ``<function>.calls`` and ``<function>.self_s`` come from the span
        statistics of that traced function; the other names are counters
        and ratios defined here.
        """
        st, c = self.stats, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        def calls(name):
            return st[name][0]

        derived = {
            "kernels.kernel.entries": int(c["kernels.kernel.entries"]),
            "gp.assemble.first_try_ratio":
                ratio(c["gp.assemble.first_try"], calls("gp.assemble")),
            "gp.assemble.distinct_ratio":
                ratio(len(self._assembled), calls("gp.assemble")),
            "mcmc.log_posterior.assembled_ratio":
                ratio(c["mcmc.log_posterior.assembled"],
                      calls("mcmc.log_posterior")),
            "mcmc.acceptance_ratio":
                ratio(c["mcmc.accepted"], c["mcmc.steps"]),
            "placement.set_entropy.distinct_ratio":
                ratio(len(self._entropy_sets),
                      calls("placement.set_entropy")),
            "cli.self_s": sum(v[2] for k, v in st.items()
                              if k.startswith("cli.")),
        }
        out = {}
        for name in names:
            if name in derived:
                out[name] = derived[name]
                continue
            function, _, figure = name.rpartition(".")
            if function not in self.names:
                raise KeyError(f"{name}: {function} is not traced")
            out[name] = {"calls": st[function][0],
                         "self_s": st[function][2]}[figure]
        return out

    def function_table(self) -> dict:
        """calls, total_s, self_s and raised for every traced function."""
        return {name: {"calls": v[0], "total_s": v[1], "self_s": v[2],
                       "raised": v[3]}
                for name, v in sorted(self.stats.items())}

    def write_spans(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "name", "start_s", "end_s"])
            names = self.names
            writer.writerows(
                (i, p, names[n], repr(t0), repr(t1)) for i, (p, n, t0, t1)
                in enumerate(zip(self.parent, self.name_of, self.start,
                                 self.end)))

"""In-memory span tracing of fkpi_lab from the outside.

`Tracer.install` replaces public functions under the names their callers
look up (for example `evolution.nonlinearity`, which `_etdrk4_step` reads
from the `evolution` module's globals) with wrappers that record a span:
(id, name, start, end, parent, request, size).  The request is the label
of the CLI command being run, so the spans of one command share it.
`layer_metrics` turns the spans into the per-layer metrics.

A layer's self time is its span's duration minus the part of that interval
covered by its child spans (children may overlap when sweep points run on
worker threads).
"""

from __future__ import annotations

import builtins
import functools
import itertools
import statistics
import threading
import time
from collections import defaultdict

# (module, attribute looked up by the caller, span name)
FUNCTION_PATCHES = (
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "run", "cli.run"),
    ("cli", "solve", "evolution.solve"),
    ("cli", "mass", "norms.mass"),
    ("cli", "energy_alpha", "norms.energy_alpha"),
    ("cli", "resonance_size_scan", "symbols.resonance_size_scan"),
    ("cli", "transversality_check", "symbols.transversality_check"),
    ("evolution", "step", "evolution.step"),
    ("evolution", "nonlinearity", "evolution.nonlinearity"),
    ("evolution", "dealiased_product", "grid.dealiased_product"),
    ("evolution", "propagate_linear", "evolution.propagate_linear"),
    ("norms", "to_physical", "grid.to_physical"),
    ("probes", "propagate_linear", "evolution.propagate_linear"),
    ("probes", "mass", "norms.mass"),
    ("probes", "spacetime_norm", "norms.spacetime_norm"),
    ("probes", "second_iterate_boxdata", "evolution.second_iterate_boxdata"),
    ("probes", "coarea_product_norm", "probes.coarea_product_norm"),
    ("probes", "trilinear_integral", "probes.trilinear_integral"),
)

FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                 "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")

# Modules whose `open` lookups are redirected to count written files.
WRITER_MODULES = ("cli", "probes", "grid")

_FROM_STACK = object()


def _fft_bytes(args, out):
    """Computed bytes moved by one FFT call: input plus output array."""
    return getattr(args[0], "nbytes", 0) + getattr(out, "nbytes", 0)


# Work counted on a span besides its time: FFT bytes, solver time steps,
# sweep worker lanes.
SIZE_OF = {
    "grid.fft": _fft_bytes,
    "evolution.solve": lambda args, out: out.config.n_steps(),
    "probes.sweep": lambda args, out: args[0],
}


class Tracer:
    """Collects spans in memory; one instance per traced process."""

    def __init__(self):
        self.spans = []
        self.request = None
        self.files_written = defaultdict(set)
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, parent=_FROM_STACK):
        stack = self._stack()
        if parent is _FROM_STACK:
            parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        out = None
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            end = time.perf_counter()
            stack.pop()
            size_of = SIZE_OF.get(name)
            size = size_of(args, out) if size_of is not None and out is not None else 0
            self.spans.append((sid, name, start, end, parent, self.request, size))

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def install(self, package, full=True):
        """Patch the fkpi_lab package in place.

        With full=False only `cli.solve` is wrapped, which is what an
        untraced sample needs to derive steps per second.
        """
        mods = {name: getattr(package, name)
                for name in ("cli", "evolution", "grid", "norms", "probes")}
        patches = FUNCTION_PATCHES if full else (("cli", "solve", "evolution.solve"),)
        for mod, attr, name in patches:
            setattr(mods[mod], attr, self.wrap(name, getattr(mods[mod], attr)))
        if not full:
            return
        cli = mods["cli"]
        for command, handler in list(cli.HANDLERS.items()):
            cli.HANDLERS[command] = self.wrap("cli.handler", handler)
        field_cls = mods["grid"].SpectralField
        field_cls.__post_init__ = self.wrap("grid.field_new", field_cls.__post_init__)
        fft = mods["grid"].np.fft
        for fname in FFT_FUNCTIONS:
            setattr(fft, fname, self.wrap("grid.fft", getattr(fft, fname)))
        probes = mods["probes"]
        probes._run_points = self._traced_sweep(probes._run_points)
        for mod in WRITER_MODULES:
            mods[mod].open = self._counting_open

    def _traced_sweep(self, run_points):
        """Wrap `_run_points`; sweep points run on worker threads, so each
        point span names the sweep span as its parent explicitly."""
        @functools.wraps(run_points)
        def traced(point_fn, keys, workers):
            def sweep(_lanes):
                parent = self._stack()[-1]

                def point(key):
                    return self.call("probes.sweep_point", point_fn, (key,), {},
                                     parent=parent)
                return run_points(point, keys, workers)
            lanes = 1 if workers is None or workers <= 1 else workers
            return self.call("probes.sweep", sweep, (lanes,), {})
        return traced

    def _counting_open(self, file, mode="r", *args, **kwargs):
        if any(c in mode for c in "wax+"):
            self.files_written[self.request].add(str(file))
        return builtins.open(file, mode, *args, **kwargs)


def _covered(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_metrics(spans, labels):
    """Per-layer metrics of one traced sample.

    `labels` holds every command label of every workload.  Every metric is
    always present (0 where the layer did not run), so all workloads report
    the same metric set.  Also returns each label's write time.
    """
    spans = sorted(spans, key=lambda s: s[2])
    name_of = {s[0]: s[1] for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append((s[2], s[3]))
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    sizes = defaultdict(int)
    # nearest enclosing evolution.step, for the per-step counts
    in_step = {}
    step_calls = defaultdict(int)
    step_bytes = 0
    for sid, name, start, end, parent, _req, size in spans:
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - _covered(children[sid], start, end)
        sizes[name] += size
        in_step[sid] = parent is not None and (
            name_of.get(parent) == "evolution.step" or in_step.get(parent, False))
        if in_step[sid]:
            step_calls[name] += 1
            step_bytes += size

    steps = calls["evolution.step"]
    step_spans = [s for s in spans if s[1] == "evolution.step"]
    lane_seconds = sum(s[6] * (s[3] - s[2]) for s in spans if s[1] == "probes.sweep")

    def per_step(value):
        return value / steps if steps else 0.0

    metrics = {
        "grid.fft.calls": calls["grid.fft"],
        "grid.fft.self_s": self_s["grid.fft"],
        "grid.fft.bytes": sizes["grid.fft"],
        "grid.fft.bytes_per_step": per_step(step_bytes),
        "grid.dealiased_product.calls": calls["grid.dealiased_product"],
        "grid.dealiased_product.self_s": self_s["grid.dealiased_product"],
        "grid.field_new.calls": calls["grid.field_new"],
        "grid.field_new.s": total["grid.field_new"],
        "grid.to_physical.calls": calls["grid.to_physical"],
        "grid.to_physical.s": total["grid.to_physical"],
        "evolution.solve.s": total["evolution.solve"],
        "evolution.step.calls": steps,
        "evolution.step.self_s": self_s["evolution.step"],
        "evolution.nonlinearity.calls": calls["evolution.nonlinearity"],
        "evolution.nonlinearity.self_s": self_s["evolution.nonlinearity"],
        "evolution.fft_per_step": per_step(step_calls["grid.fft"]),
        "evolution.rhs_per_step": per_step(step_calls["evolution.nonlinearity"]),
        "evolution.fields_per_step": per_step(step_calls["grid.field_new"]),
        "evolution.first_step_s": (step_spans[0][3] - step_spans[0][2]
                                   if step_spans else 0.0),
        "evolution.propagate_linear.calls": calls["evolution.propagate_linear"],
        "evolution.propagate_linear.self_s": self_s["evolution.propagate_linear"],
        "evolution.second_iterate_boxdata.calls":
            calls["evolution.second_iterate_boxdata"],
        "evolution.second_iterate_boxdata.s": total["evolution.second_iterate_boxdata"],
        "norms.mass.calls": calls["norms.mass"],
        "norms.mass.s": total["norms.mass"],
        "norms.energy_alpha.calls": calls["norms.energy_alpha"],
        "norms.energy_alpha.s": total["norms.energy_alpha"],
        "norms.spacetime_norm.s": total["norms.spacetime_norm"],
        "probes.coarea_product_norm.calls": calls["probes.coarea_product_norm"],
        "probes.coarea_product_norm.s": total["probes.coarea_product_norm"],
        "probes.trilinear_integral.calls": calls["probes.trilinear_integral"],
        "probes.trilinear_integral.s": total["probes.trilinear_integral"],
        "probes.parallel_eff": (total["probes.sweep_point"] / lane_seconds
                                if lane_seconds else 0.0),
        "symbols.resonance_size_scan.s": total["symbols.resonance_size_scan"],
        "symbols.transversality_check.s": total["symbols.transversality_check"],
        "cli.parse_config.s": total["cli.parse_config"],
    }

    # per command: handler time, and write time = run time - handler time
    handler, run = defaultdict(float), defaultdict(float)
    for _sid, name, start, end, _parent, req, _size in spans:
        if name == "cli.handler":
            handler[req] += end - start
        elif name == "cli.run":
            run[req] += end - start
    write = {label: run[label] - handler[label] for label in run}
    for label in labels:
        metrics[f"cli.handler_s.{label}"] = handler[label]
    metrics["cli.write.s"] = sum(write.values())
    metrics["cli.run.s"] = total["cli.run"]
    return metrics, write


STEP_COUNTED = ("grid.fft", "evolution.nonlinearity", "grid.field_new")


def step_profiles(spans):
    """Distinct per-step work counts of one sample, as sorted lists of
    [FFT calls, RHS evaluations, fields built, FFT bytes].

    A solver that does the same work every step gives exactly one profile.
    """
    step_of, counts = {}, defaultdict(lambda: [0, 0, 0, 0])
    name_of = {s[0]: s[1] for s in spans}
    for sid, name, _start, _end, parent, _req, size in sorted(spans, key=lambda s: s[2]):
        if name == "evolution.step":
            counts[sid]  # every step has a profile, even an empty one
            continue
        step = parent if name_of.get(parent) == "evolution.step" else step_of.get(parent)
        if step is None:
            continue
        step_of[sid] = step
        if name in STEP_COUNTED:
            counts[step][STEP_COUNTED.index(name)] += 1
        if name == "grid.fft":
            counts[step][3] += size
    return sorted(map(list, {tuple(c) for c in counts.values()}))


def median_metrics(samples):
    """Element-wise median of several metric dicts with the same keys."""
    return {k: statistics.median(m[k] for m in samples) for k in samples[0]}

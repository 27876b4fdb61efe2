"""Span tracer for the mdgpc layers, installed from outside the package.

`Tracer.install()` replaces every public function of the traced modules by
a timing wrapper. Callers that bound a function with ``from ... import``
hold their own module attribute (``inference.spd_cholesky``,
``model.normal_draws``, ...), so the wrapper is written into every loaded
``mdgpc`` module whose attribute is the original function object.
`uninstall()` puts the originals back. Nothing under ``src/`` changes.

Each call is one span. A span's self time is its duration minus the time
covered by the spans it called; spans nest strictly because the workloads
run in one thread (``--parallel-episodes 1``). Per-name aggregates are kept
in memory: calls, self time, and for the names in `KEEP_DURATIONS` every
inclusive duration. Two counters ride on return values:
``expfam.spd_cholesky.jittered`` (calls that needed jitter > 0) and
``likelihood.normal_draws.values`` (numbers drawn).
"""

import functools
import inspect
import sys
import time

TRACED_MODULES = ("tasks", "kernels", "expfam", "likelihood", "inference", "model", "meta")
ROOT_SPAN = "cli.main"
KEEP_DURATIONS = ("model.fit_episode",)


def percentile(sorted_values, q):
    """Linear-interpolated q-th percentile of an ascending list."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


class SpanStats:
    __slots__ = ("calls", "self_s", "durations", "counter")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.durations = []
        self.counter = 0


# span name -> (counter name, amount a return value adds to it)
COUNTERS = {
    "expfam.spd_cholesky": ("jittered", lambda out: int(out[1] > 0.0)),
    "likelihood.normal_draws": ("values", lambda out: out.size),
}


def traced_functions():
    """(span name, module, attribute) for every function the tracer wraps."""
    import mdgpc.cli  # noqa: F401  (loads every traced module)

    targets = [(ROOT_SPAN, sys.modules["mdgpc.cli"], "main")]
    for short in TRACED_MODULES:
        mod = sys.modules[f"mdgpc.{short}"]
        for attr, obj in vars(mod).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                targets.append((f"{short}.{attr}", mod, attr))
    return targets


class Tracer:
    def __init__(self):
        self.stats = {}
        self._children = []  # per open span: time covered by its child spans
        self._patched = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, SpanStats())
        children = self._children
        keep = name in KEEP_DURATIONS
        count = COUNTERS.get(name, (None, None))[1]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                covered = children.pop()
                if children:
                    children[-1] += dt
                stats.calls += 1
                stats.self_s += dt - covered
                if keep:
                    stats.durations.append(dt)
            if count is not None:
                stats.counter += count(out)
            return out

        return wrapper

    def install(self):
        """Patch every traced function under every name it is bound to."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = traced_functions()
        modules = [m for k, m in sys.modules.items() if k == "mdgpc" or k.startswith("mdgpc.")]
        wrappers = set()
        for name, mod, attr in targets:
            original = getattr(mod, attr)
            if original in wrappers:  # an alias of a function already wrapped
                continue
            wrapper = self._wrap(name, original)
            wrappers.add(wrapper)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, key, original))
                        setattr(holder, key, wrapper)
        return self

    def uninstall(self):
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched = []

    def summary(self):
        """Flat ``{metric: value}`` over every span name seen."""
        out = {}
        for name, st in sorted(self.stats.items()):
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self_s
            if name in KEEP_DURATIONS and st.durations:
                ms = sorted(1e3 * d for d in st.durations)
                out[f"{name}.p50_ms"] = percentile(ms, 50)
                out[f"{name}.p90_ms"] = percentile(ms, 90)
            if name in COUNTERS:
                out[f"{name}.{COUNTERS[name][0]}"] = st.counter
        return out

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

"""Spans and counters taken from outside the program.

The traced run swaps the public functions of each dppd layer, in every
module that calls them by name, for wrappers that open a span; the
originals are put back after each traced operation.  Schedules made while
the hooks are in place come back wrapped in `CountingSchedule`, which
counts matrix lookups against the innermost open span.  Nothing here is
active in an untraced run.
"""

import contextlib
import functools
import importlib
import statistics
import time
from dataclasses import dataclass, field

# span name -> dppd modules holding a reference to the function.  The first
# module defines it; the others imported it by name and call it from there.
HOOKS = {
    "graphs.make_schedule": ("graphs", "scenarios"),
    "graphs.validate_schedule": ("graphs", "cli"),
    "scenarios.load_scenario": ("scenarios", "cli"),
    "cli.main": ("cli",),
    "solver.run": ("solver", "cli", "dualbound"),
    "baseline.run_csp_sg": ("baseline", "cli"),
    "dualbound.compute_dual_radius": ("dualbound", "cli"),
    "dualbound.find_slater": ("dualbound", "cli"),
    "dualbound.certify_negative": ("dualbound",),
    "dualbound.assemble_bound": ("dualbound",),
    "dualbound.max_consensus_round": ("dualbound",),
    "oracle.brute_force_saddle": ("oracle",),
    "traceio.write_trace": ("traceio", "cli"),
    "traceio.read_trace": ("traceio", "cli"),
}
# counted, not spanned: called once per agent and round
COUNTED = {"proxops.prox_solve": ("proxops", "solver")}

LOOKUPS = "graphs.matrix.calls"


@dataclass
class Span:
    id: int
    name: str
    parent: int
    run: str
    start: float
    end: float = None
    counts: dict = field(default_factory=dict)


class Tracer:
    """Spans kept in memory for one benchmark run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, parent, self.run_id, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def count(self, name, n=1):
        if self._stack:
            counts = self._stack[-1].counts
            counts[name] = counts.get(name, 0) + n

    def spanned(self, name, fn, post=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            return post(out) if post else out

        return wrapper

    def counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper


class CountingSchedule:
    """Forwards N, Q, a and matrix() of a schedule, counting lookups."""

    def __init__(self, inner, tracer):
        self.inner = inner
        self.N, self.Q, self.a = inner.N, inner.Q, inner.a
        self._tracer = tracer

    def matrix(self, k):
        self._tracer.count(LOOKUPS)
        return self.inner.matrix(k)


def _post(tracer, name):
    """Schedules made under the hooks, including those a scenario file
    builds, come back counting their lookups."""
    if name == "graphs.make_schedule":
        return lambda sched: CountingSchedule(sched, tracer)
    return None


@contextlib.contextmanager
def hooked(tracer):
    """Install the span and counter wrappers for the duration of the block.

    A function missing from a module is skipped, so a layer that a later
    change moves reads as zero instead of stopping the run.
    """
    saved = []
    try:
        for table, spanned in ((HOOKS, True), (COUNTED, False)):
            for name, hosts in table.items():
                attr = name.split(".", 1)[1]
                for host in hosts:
                    mod = importlib.import_module(f"dppd.{host}")
                    fn = getattr(mod, attr, None)
                    if fn is None:
                        continue
                    if spanned:
                        wrapper = tracer.spanned(name, fn, _post(tracer, name))
                    else:
                        wrapper = tracer.counted(name + ".calls", fn)
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
        yield
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def unwrap(sched):
    return sched.inner if isinstance(sched, CountingSchedule) else sched


def per_call_us(fn, budget_s=0.3, batches=5):
    """Median time of one call to fn, in microseconds, over `batches`
    batches sized to fill about `budget_s` seconds together."""
    fn()
    t0 = time.perf_counter()
    fn()
    once = time.perf_counter() - t0
    n = max(1, int(budget_s / batches / max(once, 1e-7)))
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples) * 1e6


class Tree:
    """Self times and subtree counts of the spans under one root span."""

    def __init__(self, spans, root):
        children = {}
        for sp in spans:
            children.setdefault(sp.parent, []).append(sp)
        self.members = []
        todo = [root]
        while todo:
            sp = todo.pop()
            self.members.append(sp)
            todo.extend(children.get(sp.id, ()))
        self._children = children

    def self_s(self, name):
        """Time inside every span called `name`, less the time of its child spans."""
        total = 0.0
        for sp in self.members:
            if sp.name == name:
                kids = self._children.get(sp.id, ())
                total += (sp.end - sp.start) - sum(k.end - k.start for k in kids)
        return total

    def incl_s(self, name):
        return sum(sp.end - sp.start for sp in self.members if sp.name == name)

    def counts_under(self, name, counter):
        """Sum of `counter` over the subtrees of every span called `name`
        (over the whole tree when name is None)."""
        roots = self.members if name is None else [s for s in self.members if s.name == name]
        total = 0
        for r in roots:
            todo = [r]
            while todo:
                sp = todo.pop()
                total += sp.counts.get(counter, 0)
                if name is not None:
                    todo.extend(self._children.get(sp.id, ()))
        return total

    def calls(self, name):
        return sum(1 for sp in self.members if sp.name == name)

"""dppd benchmark: one workload, one closed-loop process, one operation at a time.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; dppd is imported from its ``src``.
The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it describe the machine, the inputs, every metric the workload
applies to (accuracy and ``fail_ratio`` included), the trajectory digest
and, when traced, the self time of every span.  A traced run also writes
its spans to ``.perfbench-out/`` in the checkout.  README.md explains the
workloads and the metrics.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, field
from statistics import median

from tracing import LOOKUPS, Tracer, Tree, hooked

# one BLAS/OpenMP thread, set before numpy is first imported (in main)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

E2E = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("graphs.matrix.us", "us"),
    ("graphs.matrix.calls", "count"),
    ("graphs.mix.us", "us"),
    ("graphs.mix.bytes", "bytes"),
    ("graphs.schedule.bytes", "bytes"),
    ("graphs.make_schedule.s", "s"),
    ("graphs.validate_schedule.s", "s"),
    ("scenarios.load_scenario.s", "s"),
    ("cli.main.s", "s"),
    ("solver.run.s", "s"),
    ("solver.run.us_per_round", "us"),
    ("solver.dppd_round.us", "us"),
    ("proxops.prox_solve.us", "us"),
    ("proxops.prox_solve.calls", "count"),
    ("baseline.run_csp_sg.s", "s"),
    ("baseline.csp_sg_round.us", "us"),
    ("dualbound.max_consensus_round.us_per_step", "us"),
    ("dualbound.max_consensus.steps", "count"),
    ("dualbound.certify.blocks", "count"),
    ("dualbound.certify_negative.s", "s"),
    ("dualbound.assemble_bound.s", "s"),
    ("dualbound.max_consensus_round.s", "s"),
    ("dualbound.find_slater.s", "s"),
    ("oracle.brute_force_saddle.s", "s"),
    ("oracle.grid.points", "count"),
    ("traceio.write_trace.s", "s"),
    ("traceio.read_trace.s", "s"),
    ("traceio.trace.bytes", "bytes"),
    ("tracing.overhead_s", "s"),
)
# a per-layer metric "<span>.s" is the self time of the spans called <span>
SPAN_METRICS = tuple(name for name, _ in PER_LAYER if name.endswith(".s"))

# The set-up runs SETUP_REPS times before the first operation and again for
# SETUP_SLICE seconds before every operation, so that its samples span the
# whole run like the operations do; setup_s is the median of all of them.
SETUP_REPS, SETUP_SLICE = 15, 0.1


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("paper", "swarm", "protocol", "suite"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload for the smoke test")
    return ap.parse_args(argv)


def import_dppd():
    """dppd from this checkout's src, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import dppd
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import dppd from {src}: {exc}")
    if not os.path.abspath(dppd.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: dppd was imported from {dppd.__file__}, not from {src}")
    return dppd


def git_sha():
    """HEAD of the checkout read from .git, or None outside a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine(np, scipy):
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": git_sha(),
    }


def layer_metrics(tracer, wl, setup_root, op_roots, probes, facts, overhead_s):
    setup = Tree(tracer.spans, setup_root)
    ops = [Tree(tracer.spans, r) for r in op_roots]

    def per_op(fn):
        return median(fn(t) for t in ops)

    m = {name: 0 for name, _ in PER_LAYER}
    for metric in SPAN_METRICS:
        span = metric[: -len(".s")]
        m[metric] = setup.self_s(span) + per_op(lambda t: t.self_s(span))
    m["graphs.matrix.calls"] = per_op(lambda t: t.counts_under(None, LOOKUPS))
    m["proxops.prox_solve.calls"] = per_op(lambda t: t.counts_under(None, "proxops.prox_solve.calls"))
    rounds = per_op(lambda t: t.counts_under("solver.run", LOOKUPS))
    if rounds:
        m["solver.run.us_per_round"] = per_op(lambda t: t.incl_s("solver.run")) / rounds * 1e6
    certify = per_op(lambda t: t.counts_under("dualbound.certify_negative", LOOKUPS))
    m["dualbound.max_consensus.steps"] = certify + per_op(
        lambda t: t.counts_under("dualbound.assemble_bound", LOOKUPS))
    if getattr(wl, "sigma", 0):
        m["dualbound.certify.blocks"] = certify / wl.sigma
    m.update(probes)
    m.update(facts)
    m["tracing.overhead_s"] = overhead_s
    return m


def span_table(tracer):
    """name -> [calls, self s, inclusive s] over every span of the run."""
    table = {}
    for root in (s for s in tracer.spans if s.parent is None):
        tree = Tree(tracer.spans, root)
        for name in {s.name for s in tree.members}:
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += tree.calls(name)
            row[1] += tree.self_s(name)
            row[2] += tree.incl_s(name)
    return table


@dataclass
class Measurement:
    setup_s: list = field(default_factory=list)
    walls: dict = field(default_factory=lambda: {False: [], True: []})  # traced? -> s per op
    attempted: int = 0
    failures: list = field(default_factory=list)  # one line per failed operation
    accuracy: dict = field(default_factory=dict)  # name -> (values, unit)
    digests: list = field(default_factory=list)
    op_roots: list = field(default_factory=list)
    setup_root: object = None
    state: object = None  # the untraced set-up
    last: object = None  # output of the last untraced operation


def time_setups(wl, times, reps, seconds):
    """Repeat the set-up at least `reps` times and for `seconds`, appending
    each duration to `times`; returns the last state."""
    state = None
    n = 0
    t_start = time.perf_counter()
    while n < reps or time.perf_counter() - t_start < seconds:
        state = None
        t0 = time.perf_counter()
        state = wl.setup()
        times.append(time.perf_counter() - t0)
        n += 1
    return state


def measure(wl, seconds, tracer):
    """Set up, then run operations until `seconds` have passed.  With a
    tracer, every second operation runs traced on its own traced set-up."""
    m = Measurement()
    m.state = time_setups(wl, m.setup_s, SETUP_REPS, 0.0)
    if tracer:
        with hooked(tracer), tracer.span("setup") as m.setup_root:
            traced_state = wl.setup()

    # no operation starts that would, at the median pace so far, end after
    # `seconds`; at least one operation runs (one of each kind when traced)
    t_start = time.perf_counter()
    paces = []
    while (m.attempted < (2 if tracer else 1)
           or time.perf_counter() - t_start + (median(paces) if paces else 0.0) < seconds):
        t_iter = time.perf_counter()
        time_setups(wl, m.setup_s, 1, SETUP_SLICE)
        with_trace = tracer is not None and m.attempted % 2 == 1
        m.attempted += 1
        st = traced_state if with_trace else m.state
        root = None
        try:
            with contextlib.ExitStack() as hooks:
                if with_trace:
                    hooks.enter_context(hooked(tracer))
                    root = hooks.enter_context(tracer.span("op"))
                t0 = time.perf_counter()
                out = wl.op(st)
                dt = time.perf_counter() - t0
            verdict = wl.check(st, out)
        except Exception:
            m.failures.append(f"op {m.attempted}: {traceback.format_exc(limit=3)}")
            continue
        m.walls[with_trace].append(dt)
        if root is not None:
            m.op_roots.append(root)
        for name, (value, unit) in verdict.accuracy.items():
            m.accuracy.setdefault(name, ([], unit))[0].append(value)
        problems = list(verdict.failures)
        if m.digests and verdict.digest != m.digests[0]:
            # every operation gets the same inputs, so the trajectory must repeat
            problems.append(f"trajectory digest {verdict.digest} differs from {m.digests[0]}")
        m.digests.append(verdict.digest)
        if problems:
            m.failures.append(f"op {m.attempted}: " + "; ".join(problems))
        if not with_trace:
            m.last = out
        paces.append(time.perf_counter() - t_iter)
    return m


def report(m, metrics, units, tracer):
    """Lines before the JSON result: every figure with its unit."""
    failed = len(m.failures)
    print(f"ops: attempted={m.attempted} failed={failed} wall_s per op: "
          + " ".join(f"{w:.4f}" for w in m.walls[False]))
    if tracer:
        print("traced ops wall_s: " + " ".join(f"{w:.4f}" for w in m.walls[True]))
    print(f"  {'setup_s':<44} {median(m.setup_s):.6g} s (median of {len(m.setup_s)})")
    if m.walls[False]:
        print(f"  {'wall_s':<44} {median(m.walls[False]):.6g} s (median of {len(m.walls[False])})")
    print(f"  {'peak_rss_mb':<44} {peak_rss_mb():.6g} MB")
    print(f"  {'fail_ratio':<44} {failed / m.attempted:.6g} ratio")
    for name, (values, unit) in sorted(m.accuracy.items()):
        print(f"  {name:<44} {median(values):.6g} {unit}")
    print("digest:", " ".join(sorted(set(m.digests))) or "none")
    for line in m.failures:
        print("failure:", line.rstrip().replace("\n", " | "))
    if tracer:
        print(f"spans: {'name':<32} {'calls':>6} {'self_s':>10} {'incl_s':>10}")
        for name, (calls, self_s, incl_s) in sorted(span_table(tracer).items()):
            print(f"spans: {name:<32} {calls:>6} {self_s:>10.4f} {incl_s:>10.4f}")
        for name, value in (metrics or {}).items():
            print(f"  {name:<44} {value:.6g} {units[name]}")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    args = parse_args(argv)
    import_dppd()
    import numpy as np
    import scipy

    from workloads import WORKLOADS

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    host = machine(np, scipy)
    print(f"perfbench {run_id} size={args.size} seconds={args.seconds}")
    print("machine:", json.dumps(host))
    tracer = Tracer(run_id) if args.trace else None

    with tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=ROOT) as workdir:
        wl = WORKLOADS[args.workload](args.seed, args.size, workdir)
        m = measure(wl, args.seconds, tracer)
        print("inputs:", json.dumps(wl.inputs))
        metrics, units = None, {}
        if tracer is None and m.walls[False]:
            metrics = {"setup_s": median(m.setup_s), "wall_s": median(m.walls[False]),
                       "peak_rss_mb": peak_rss_mb()}
            units = dict(E2E)
        elif tracer is not None and m.walls[False] and m.walls[True]:
            metrics = layer_metrics(
                tracer, wl, m.setup_root, m.op_roots,
                wl.probes(m.state, m.last), wl.facts(m.state, m.last),
                median(m.walls[True]) - median(m.walls[False]),
            )
            units = dict(PER_LAYER)
        report(m, metrics, units, tracer)

    if tracer:
        out_dir = os.path.join(ROOT, ".perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"spans-{run_id}.json"), "w") as fh:
            json.dump({"run": run_id, "machine": host, "inputs": wl.inputs,
                       "spans": [asdict(s) for s in tracer.spans]}, fh)
    if metrics is None:
        sys.exit("perfbench: no operation completed")
    print(json.dumps({
        "correct": not m.failures,
        "attempted": m.attempted,
        "failed": len(m.failures),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()

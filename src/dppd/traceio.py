"""CSV serialization of run traces.

Schema (version 1): a comment line ``# schema=1`` followed by the header
``k,alpha,xbar_0..xbar_{n-1},cons_x,cons_mu,lagrangian,run_eval_err,
constr_viol``.  Floats are written with 17 significant digits so that a
write/read round trip reproduces every value exactly.  Both methods share
one trace type; its error column ``eval_err`` is written under the name its
subclass gives (``err_column``): ``run_eval_err`` for a solver trace,
``ergodic_eval_err`` for the comparator's.
"""

import numpy as np

__all__ = ["write_trace", "read_trace", "report_compare"]

SCHEMA = 1


def write_trace(trace, path):
    n = trace.xbar.shape[1]
    header = (
        ["k", "alpha"]
        + [f"xbar_{j}" for j in range(n)]
        + ["cons_x", "cons_mu", "lagrangian", trace.err_column, "constr_viol"]
    )
    cols = np.column_stack(
        (trace.k, trace.alpha, trace.xbar, trace.cons_x, trace.cons_mu,
         trace.lagrangian, trace.eval_err, trace.constr_viol)
    )
    with open(path, "w") as fh:
        fh.write(f"# schema={SCHEMA}\n")
        fh.write(",".join(header) + "\n")
        np.savetxt(fh, cols, fmt=["%d"] + ["%.17g"] * (len(header) - 1), delimiter=",")


def read_trace(path):
    """Columns of a trace CSV as a dict of arrays (keyed by header name)."""
    with open(path) as fh:
        first = fh.readline().strip()
        if not first.startswith("# schema="):
            raise ValueError("missing schema comment line")
        if int(first.split("=", 1)[1]) != SCHEMA:
            raise ValueError(f"unsupported trace schema: {first}")
        names = fh.readline().strip().split(",")
        lines = fh.readlines()
    # the trace of a one-round run (K = 1) has a header and no rows
    data = np.loadtxt(lines, delimiter=",", ndmin=2) if lines else np.empty((0, len(names)))
    out = {name: data[:, j] for j, name in enumerate(names)}
    out["k"] = out["k"].astype(int)
    return out


def _error_series(cols):
    for name in ("run_eval_err", "ergodic_eval_err"):
        if name in cols:
            return cols["k"], cols[name]
    raise ValueError("trace has no error column")


def report_compare(trace_a, trace_b, f_star=None, ks=(100, 1000, 10000)):
    """Rows (k, err_a, err_b, ratio) at the requested round indices.

    Traces are column dicts from read_trace.  Stored error columns are used
    when finite; with f_star given, a trace recorded without an optimum
    falls back to its Lagrangian column: a comparator trace's column is its
    ergodic metric, so the error is |lagrangian_k - f_star|, and a solver
    trace's is the Lagrangian at the averages, so the error is that of its
    cumulative mean over the recorded rows (exact for stride 1).  Requested
    rounds not covered by both traces raise.
    """

    def err_at(cols, k):
        kk, errs = _error_series(cols)
        if kk.size == 0 or k > kk.max() or k < kk.min():
            raise ValueError(f"trace does not cover round {k}")
        idx = int(np.argmin(np.abs(kk - k)))
        e = errs[idx]
        if np.isnan(e):
            if f_star is None:
                raise ValueError("trace has no stored error and no f_star given")
            lag = cols["lagrangian"]
            if "ergodic_eval_err" in cols:
                e = abs(lag[idx] - f_star)
            else:
                e = abs(lag[: idx + 1].mean() - f_star)
        return float(e)

    rows = []
    for k in ks:
        ea = err_at(trace_a, k)
        eb = err_at(trace_b, k)
        rows.append((k, ea, eb, ea / eb if eb != 0 else np.inf))
    return rows

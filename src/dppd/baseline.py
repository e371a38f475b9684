"""Consensus-based saddle-point subgradient comparator with ergodic averaging.

Each round mixes, then takes one projected subgradient step on the local
Lagrangian in each variable (both steps evaluated at the mixed points).  The
evaluation metric is sum_i L_i at the per-agent ergodic averages, which is
the quantity the comparison plots use.  Comparisons against the proximal
solver are qualitative: the reconstruction matches stepsizes and mixing but
not any particular published constant choices.
"""

from dataclasses import dataclass

import numpy as np

from .functions import NonnegBall
from .graphs import mix
from .solver import SwarmState, initial_state

__all__ = ["BaselineTrace", "csp_sg_round", "run_csp_sg"]


@dataclass
class BaselineTrace:
    err_column = "ergodic_eval_err"  # the error column write_trace names

    k: np.ndarray
    alpha: np.ndarray
    xbar: np.ndarray
    cons_x: np.ndarray
    cons_mu: np.ndarray
    lagrangian: np.ndarray  # sum_i L_i at the ergodic averages
    ergodic_eval_err: np.ndarray
    constr_viol: np.ndarray
    stride: int
    f_star: float = None
    final_state: SwarmState = None


def csp_sg_round(p, A, state, alpha, U0):
    """Mix, then projected subgradient steps at the mixed points."""
    if alpha <= 0:
        raise ValueError("stepsize must be positive")
    U = NonnegBall(U0, dim_=p.m)
    xhat = mix(A, state.x)
    muhat = mix(A, state.mu)
    x_new = np.empty_like(state.x)
    mu_new = np.empty_like(state.mu)
    for i in range(p.N):
        grad_x = p.f[i].grad(xhat[i]) + p.g[i].jacobian(xhat[i]).T @ muhat[i]
        x_new[i] = p.X0.project(xhat[i] - alpha * grad_x)
        mu_new[i] = U.project(muhat[i] + alpha * p.g[i].value(xhat[i]))
    return SwarmState(state.k + 1, x_new, mu_new)


def run_csp_sg(p, sched, cfg):
    """Run the comparator and trace the ergodic evaluation metric."""
    if sched.N != p.N:
        raise ValueError("schedule size does not match agent count")
    state = initial_state(p, cfg.U0)
    x_sum = np.zeros_like(state.x)
    mu_sum = np.zeros_like(state.mu)
    rows = []
    cur = state
    for k in range(cfg.K):
        A = sched.matrix(k)
        alpha = cfg.stepsize.alpha(k)
        cur = csp_sg_round(p, A, cur, alpha, cfg.U0)
        x_sum += cur.x
        mu_sum += cur.mu
        if (k >= 1) and ((k % cfg.stride == 0) or (k == cfg.K - 1)):
            count = k + 1
            x_erg = x_sum / count
            mu_erg = mu_sum / count
            metric = sum(
                p.f[i].value(x_erg[i]) + float(mu_erg[i] @ p.g[i].value(x_erg[i]))
                for i in range(p.N)
            )
            xbar = x_erg.mean(axis=0)
            err = abs(metric - cfg.f_star) if cfg.f_star is not None else np.nan
            rows.append(
                (
                    k,
                    alpha,
                    xbar.copy(),
                    float(np.linalg.norm(cur.x - cur.x.mean(axis=0), axis=1).max()),
                    float(np.linalg.norm(cur.mu - cur.mu.mean(axis=0), axis=1).max()),
                    metric,
                    err,
                    float(np.linalg.norm(np.maximum(p.constraint(xbar), 0.0))),
                )
            )
    cols = list(zip(*rows)) if rows else [[]] * 8
    return BaselineTrace(
        k=np.array(cols[0], dtype=int),
        alpha=np.array(cols[1], dtype=float),
        xbar=np.array(cols[2], dtype=float).reshape(-1, p.n),
        cons_x=np.array(cols[3], dtype=float),
        cons_mu=np.array(cols[4], dtype=float),
        lagrangian=np.array(cols[5], dtype=float),
        ergodic_eval_err=np.array(cols[6], dtype=float),
        constr_viol=np.array(cols[7], dtype=float),
        stride=cfg.stride,
        f_star=cfg.f_star,
        final_state=cur,
    )

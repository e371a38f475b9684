"""Scenario configuration: builtin problems and INI-style config files.

A scenario file is plain key/value text with nested [sections], parsed by
configparser.  Example::

    [scenario]
    name = fig1
    solver = dppd
    K = 20000
    stride = 10

    [problem]
    builtin = paper_example
    N = 100
    b = 5.0

    [graph]
    family = round-robin
    Q = 2
    a = 0.1
    seed = 1

    [stepsize]
    rule = inv-sqrt

    [dual]
    U0 = 10.0          ; or: source = dualbound

    [output]
    trace = fig1.csv

Values are read as written (no interpolation: ``%%`` is two characters).
A number must be finite, ``lo`` above -1 and ``trace`` a file name.  A key
the loader does not read from its section, a misspelt one say, is a
ConfigError naming the section, the key and the keys the section defines,
and so are ``[DEFAULT]`` keys, which configparser adds to every section.
"""

import configparser
import math
import os
from dataclasses import dataclass

import numpy as np

from .functions import Affine, Box, NegLog, Problem, VectorConstraint
from .graphs import make_schedule
from .oracle import solve_example_family
from .proxops import ProxError, set_bounds
from .solver import DppdConfig, StepsizeSchedule

__all__ = [
    "ConfigError",
    "Scenario",
    "build_paper_example",
    "paper_example_reference",
    "load_scenario",
]


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


def build_paper_example(N=100, b=5.0, lo=0.0, hi=1.0):
    """Benchmark instance: f_i = (i/N)*x on [lo, hi] with coupled constraint
    sum_i(-(i/(N+1))*log(1+x) + b/N) <= 0."""
    theta = np.arange(1, N + 1) / N
    d = np.arange(1, N + 1) / (N + 1)
    f = tuple(Affine(np.array([t]), 0.0) for t in theta)
    g = tuple(VectorConstraint((NegLog(di, b / N),)) for di in d)
    return Problem(f=f, g=g, X0=Box(np.array([lo]), np.array([hi])))


def paper_example_reference(N=100, b=5.0, lo=0.0, hi=1.0):
    theta = np.arange(1, N + 1) / N
    d = np.arange(1, N + 1) / (N + 1)
    return solve_example_family(theta, d, b, lo, hi)


@dataclass
class Scenario:
    name: str
    solver: str  # dppd | csp_sg | slater | dualbound
    problem: Problem
    schedule: object
    config: DppdConfig  # U0 is a placeholder when u0_source is "dualbound"
    trace_path: str
    u0_source: str = "fixed"  # fixed | dualbound (resolved at run time)


def _get(cp, read, section, key, cast, default=None, required=False):
    """section's key cast, or default; read (section -> {parsed key: key})
    records it as a key the section defines."""
    read.setdefault(section, {})[cp.optionxform(key)] = key
    if not cp.has_option(section, key):
        if required:
            raise ConfigError(f"[{section}] missing required key {key!r}")
        return default
    raw = cp.get(section, key)
    try:
        value = cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    if cast is float and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} = {raw!r}: not a finite number")
    return value


def load_scenario(path):
    """Parse a scenario file into problem, schedule, and solver config."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if cp.defaults():
        raise ConfigError(f"[DEFAULT] keys are not supported: {', '.join(cp.defaults())}")
    read = {}

    for section in ("scenario", "problem", "graph"):
        if not cp.has_section(section):
            raise ConfigError(f"missing required section [{section}]")

    name = _get(cp, read, "scenario", "name", str, default="unnamed")
    solver = _get(cp, read, "scenario", "solver", str, default="dppd")
    if solver not in ("dppd", "csp_sg", "slater", "dualbound"):
        raise ConfigError(f"unknown solver {solver!r}")
    K = _get(cp, read, "scenario", "K", int, required=True)
    if solver in ("dppd", "csp_sg") and K < 2:
        # a trace records rounds k >= 1 only
        raise ConfigError(f"[scenario] solver {solver} needs K >= 2, got {K}")
    stride = _get(cp, read, "scenario", "stride", int, default=10)
    seed = _get(cp, read, "scenario", "seed", int, default=0)

    builtin = _get(cp, read, "problem", "builtin", str, required=True)
    if builtin != "paper_example":
        raise ConfigError(f"unknown builtin problem {builtin!r}")
    N = _get(cp, read, "problem", "N", int, default=100)
    b = _get(cp, read, "problem", "b", float, default=5.0)
    lo = _get(cp, read, "problem", "lo", float, default=0.0)
    hi = _get(cp, read, "problem", "hi", float, default=1.0)
    try:
        problem = build_paper_example(N=N, b=b, lo=lo, hi=hi)
        set_bounds(problem.X0, 1.0)  # the log terms' domain
    except (ValueError, ProxError) as exc:
        raise ConfigError(f"[problem] {exc}") from exc
    try:
        f_star = paper_example_reference(N=N, b=b, lo=lo, hi=hi).f_star
    except ValueError:
        f_star = None

    family = _get(cp, read, "graph", "family", str, default="round-robin")
    Q = _get(cp, read, "graph", "Q", int, default=1)
    a = _get(cp, read, "graph", "a", float, default=0.1)
    gseed = _get(cp, read, "graph", "seed", int, default=seed)
    try:
        schedule = make_schedule(N=N, Q=Q, a=a, seed=gseed, family=family)
    except ValueError as exc:
        raise ConfigError(f"[graph] {exc}") from exc

    rule = _get(cp, read, "stepsize", "rule", str, default="inv-sqrt")
    power = _get(cp, read, "stepsize", "power", float, default=0.5)
    try:
        stepsize = StepsizeSchedule(rule=rule, power=power)
    except ValueError as exc:
        raise ConfigError(f"[stepsize] {exc}") from exc

    u0_source = _get(cp, read, "dual", "source", str, default="fixed")
    if u0_source not in ("fixed", "dualbound"):
        raise ConfigError(f"unknown dual radius source {u0_source!r}")
    u0 = _get(cp, read, "dual", "U0", float, default=10.0)
    if u0_source == "dualbound":
        u0 = 1.0  # placeholder, resolved at run time by the dual-bound protocol

    trace_path = _get(cp, read, "output", "trace", str, default=f"{name}.csv")
    if not os.path.basename(trace_path):
        raise ConfigError(f"[output] trace = {trace_path!r} names no file")

    for section in cp.sections():
        known = read.get(section, {})
        for key in cp.options(section):
            if key not in known:
                defines = ", ".join(known.values()) or "no keys"
                raise ConfigError(f"[{section}] unknown key {key!r}; [{section}] defines {defines}")

    try:
        cfg = DppdConfig(
            K=K,
            U0=u0,
            stepsize=stepsize,
            stride=stride,
            f_star=f_star,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return Scenario(
        name=name,
        solver=solver,
        problem=problem,
        schedule=schedule,
        config=cfg,
        trace_path=trace_path,
        u0_source=u0_source,
    )

"""Computing the dual radius without any central coordinator.

The solver projects its multiplier estimates onto a ball of radius U0, so
it needs a radius that provably contains the optimal multipliers.  The
agents can compute one themselves in three phases, all running on the same
gossip schedule as the solver:

  1. jointly minimize the summed constraint to find a strictly feasible
     point x-check,
  2. certify, by finite-time max-consensus sweeps with averaging between
     them, that every agent agrees the constraint sum is negative there,
  3. agree on max_i f_i(x-check) and min_i q_i(0) by further max-consensus
     sweeps and assemble U0 = N * (f_max - q_min) / gamma.

Phases 2 and 3 agree on numbers each agent holds: its constraint value at
x-check, its objective value there, and its local dual value q_i(0), the
minimum of f_i over the box.  `dppd.compute_dual_radius` reads them off
the compiled problem; the script evaluates them one agent at a time, with
q_i(0) = f_i(0) since each f_i = theta_i * x increases on [0, 1].  It
checks the result against the closed-form optimal multiplier.
"""

import numpy as np

import dppd

problem = dppd.build_paper_example()
reference = dppd.paper_example_reference()
schedule = dppd.make_schedule(N=100, Q=2, a=0.1, seed=0, family="chorded")

print("phase 1: distributed search for a strictly feasible point")
x_check = dppd.find_slater(problem, schedule, dppd.StepsizeSchedule(), K=400)
total = float(problem.constraint(x_check)[0])
print(f"  x_check = {x_check[0]:.4f}, summed constraint = {total:.3f} < 0\n")

print("phase 2: certify negativity by consensus")
g_vals = np.stack([g.value(x_check) for g in problem.g])
z_check, blocks = dppd.certify_negative(schedule, g_vals)
print(f"  agreed per-agent average = {z_check[0]:.4f} < 0 after {blocks} blocks "
      f"of (N-1)*Q rounds")
print("  (some agents start with positive local values; averaging pulls")
print("  every estimate below zero before the max-consensus check agrees)\n")

print("phase 3: assemble the radius")
f_vals = np.array([f.value(x_check) for f in problem.f])
q_vals = np.array([f.value(np.zeros(1)) for f in problem.f])
gamma, f_max, q_min, U0 = dppd.assemble_bound(schedule, z_check, f_vals, q_vals)
print(f"  gamma = {gamma:.3f}, f_max = {f_max:.3f}, q_min = {q_min:.3f}")
print(f"  U0 = {U0:.4f}\n")

mu_star = float(np.linalg.norm(reference.mu_star))
print(f"oracle optimal multiplier: {mu_star:.4f}")
print(f"computed radius {U0:.4f} >= {mu_star:.4f}: {U0 >= mu_star}")
print("every agent ends the protocol holding this same value, so the")
print("solver's dual projection step is identical across the network")

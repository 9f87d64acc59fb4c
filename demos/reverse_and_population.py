"""Ensemble-level unravelings: reverse jumps and variable populations.

Two methods step a whole ensemble at once instead of independent
trajectories. The reverse-jump scheme undoes earlier recorded jumps during
negative-rate windows, which only works when those windows were preceded
by direct jumps through the same channel; the cloning scheme lets the
population itself grow or shrink to track a non-conserved trace.
"""

import numpy as np

from unravel import (
    MissingTargetState,
    TimeGrid,
    delayed_negative_phase_covariant,
    eternally_nm,
    master_equation,
    method_id,
    propagate,
    run_ensemble,
    trace_distance,
)
from unravel.models import PLUS, SIGMA_MINUS

N_TRAJ = 4_000


def reverse_jumps():
    me = delayed_negative_phase_covariant()  # gamma_z = cos(2t)/2, negative on (pi/4, 3pi/4)
    grid = TimeGrid(0.0, 3.0, 1e-2)
    oracle = propagate(me, np.outer(PLUS, PLUS.conj()), grid)
    print("delayed-negative model, nmqj:")
    try:
        run_ensemble(method_id("nmqj"), me, PLUS, grid, N_TRAJ, seed=3)
    except MissingTargetState as err:
        partial = err.partial
        n_pts = len(partial["times"])
        sup = trace_distance(partial["rho_hat"], oracle.states[:n_pts]).max()
        events = [e for log in partial["event_logs"] for e in log]
        n_direct = sum(1 for e in events if e[1] == "direct")
        n_reverse = sum(1 for e in events if e[1] == "reverse")
        print(f"  aborts at t={err.time:g}: {err}")
        print(f"  partial run: {n_direct} direct-jump provenance records, {n_reverse} reverse jumps")
        print(f"  sup distance to oracle over the partial run {sup:.4f}")
        step, _kind, src, tgt, ch = next(e for e in events if e[1] == "reverse")
        print(
            f"  first reverse event: step {step} (t={step * grid.dt:.2f}),"
            f" bucket {src} -> {tgt}, channel {ch}"
        )
        print(
            "  (the exact |-> share reaches 0 at t = pi/2 = 1.571; a finite pool\n"
            "   empties the bucket that must serve the reverse flux at or before that)"
        )

    print("\neternally non-Markovian model, nmqj:")
    try:
        run_ensemble(method_id("nmqj"), eternally_nm(), PLUS, grid, N_TRAJ, seed=3)
    except MissingTargetState as err:
        print(f"  aborts at t={err.time:g}: {err}")
        print("  (gamma_z < 0 from the first step; no direct jump ever populated a source)")


def cloning_population():
    lam = 0.3
    gamma_l = SIGMA_MINUS.conj().T @ SIGMA_MINUS
    me = master_equation(
        2,
        np.zeros((2, 2)),
        [(SIGMA_MINUS, 1.0, "down")],
        trace_sink=lambda t: gamma_l - lam * np.eye(2),
    )
    grid = TimeGrid(0.0, 1.0, 1e-2)
    res = run_ensemble(method_id("cloning"), me, PLUS, grid, N_TRAJ, seed=5)
    pop = res.diagnostics["population"]
    trace = np.trace(res.rho_hat, axis1=1, axis2=2).real
    print(f"\ntrace-gaining sink (rate +{lam}), cloning:")
    print(f"  clones {res.event_counts['clone']}, destroys {res.event_counts['destroy']}")
    print(f"  population {int(pop[0])} -> {int(pop[-1])}")
    print(f"  estimated trace at t=1: {trace[-1]:.4f} (target e^{{{lam}}} = {np.exp(lam):.4f})")


def main():
    reverse_jumps()
    cloning_population()


if __name__ == "__main__":
    main()

"""Replica x rank domain-decomposed MD through one batched force backend.

The paper's Fig 1 (a) picture — spatial domain decomposition feeding a
batched evaluator — applied at both parallelism levels at once: R replicas
(different velocity seeds) are each decomposed across P simulated MPI
ranks, and every step ALL R x P sub-domain frames are submitted to the
shared ForceBackend, which groups them into shape buckets and issues one
batched graph evaluation per bucket.

What to look for in the output:

* evaluations per step == bucket count, strictly fewer than R x P;
* replica 0's trajectory is bitwise identical to an independent
  DistributedSimulation run with the same seed — batching never changes
  physics.

Run:  python examples/distributed_ensemble.py [--replicas 4] [--grid 2 1 1]
      [--steps 20]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.analysis.structures import water_box
from repro.md import boltzmann_velocities
from repro.parallel import DistributedEnsembleSimulation, DistributedSimulation
from repro.zoo import get_water_model


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--replicas", type=int, default=4)
    parser.add_argument("--grid", type=int, nargs=3, default=(2, 1, 1))
    parser.add_argument("--steps", type=int, default=20)
    args = parser.parse_args()

    model = get_water_model()
    base = water_box((4, 4, 4), seed=0)
    grid = tuple(args.grid)
    R, P = args.replicas, int(np.prod(grid))
    print(
        f"{R} replicas x {P} ranks ({grid}) over {base.n_atoms}-atom water "
        f"cells -> {R * P} sub-domain frames per step"
    )

    ens = DistributedEnsembleSimulation.from_system(
        base, model, n_replicas=R, temperature=330.0, seed=12,
        grid=grid, dt=0.0005, skin=1.0, rebuild_every=10, thermo_every=10,
    )
    backend = ens.force_backend
    print("\nRank frames of replica 0:")
    for dom in ens.replicas[0].decomp.domains:
        print(
            f"  rank {dom.rank}: {dom.n_own:>4} local + {dom.n_ghost:>4} "
            f"ghost atoms"
        )

    before = backend.evaluations
    ens.run(args.steps)
    evals = backend.evaluations - before
    print(
        f"\n{args.steps} steps: {evals} batched evaluations "
        f"({evals / args.steps:.1f}/step for {R * P} frames/step; "
        f"bucket count {backend.bucket_count})"
    )
    engine = backend.engine
    print(
        f"engine: {engine.stacked_batches} stacked "
        f"({engine.ghost_stacked_batches} ghost-mode), "
        f"{engine.general_batches} general; "
        f"{engine.frames_evaluated} frames total"
    )
    print(
        f"time-to-solution {ens.time_to_solution():.2e} s/step/atom "
        f"over {ens.total_atoms()} atoms"
    )

    print("\nBitwise check: replica 0 vs an independent distributed run...")
    solo_sys = base.copy()
    boltzmann_velocities(solo_sys, 330.0, seed=12)
    solo = DistributedSimulation(
        solo_sys, model, grid=grid, dt=0.0005, skin=1.0,
        rebuild_every=10, thermo_every=10,
    )
    solo.run(args.steps)
    g_ens = ens.replicas[0].current_system()
    g_solo = solo.current_system()
    exact = np.array_equal(g_ens.positions, g_solo.positions) and np.array_equal(
        ens.replicas[0].forces_now(), solo.forces_now()
    )
    print("  positions+forces:", "BITWISE IDENTICAL" if exact else "MISMATCH")

    print("\nThermo (replica 0 tail):")
    for row in ens.replicas[0].thermo[-3:]:
        print(
            f"  step {row.step:>4}  T={row.temperature:7.1f} K  "
            f"E={row.total_energy:12.6f} eV"
        )


if __name__ == "__main__":
    main()

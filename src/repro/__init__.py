"""repro — a from-scratch Python reproduction of "Pushing the limit of
molecular dynamics with ab initio accuracy to 100 million atoms with machine
learning" (Jia et al., SC '20, Gordon Bell Prize).

Subpackages
-----------
``repro.tfmini``
    Graph tensor engine with higher-order autodiff — the TensorFlow
    substitute, including the paper's Sec 5.3 graph-fusion passes.
``repro.md``
    LAMMPS-like MD substrate: neighbor lists, integrators, thermostats,
    deformation, thermo.
``repro.oracles``
    "Ab initio" stand-in potentials (EAM copper, flexible water) that
    label training data in place of DFT.
``repro.dp``
    The Deep Potential core: se_a descriptor, the Sec 5.2 neighbor layout
    and 64-bit codec, baseline vs optimized custom operators, mixed
    precision, training with force matching, DP-GEN active learning.
``repro.serving``
    Dynamic micro-batching inference service over the batched engine:
    bounded request queue, one coalescing worker thread per model,
    client futures, deterministic server stats.
``repro.parallel``
    Simulated MPI + domain decomposition with ghost halo exchange; the
    distributed driver matches the serial engine bit-for-bit.
``repro.perfmodel``
    Calibrated analytic Summit model regenerating the paper's scaling
    tables and figures.
``repro.analysis``
    Structure builders, RDFs, common neighbor analysis, stress, dynamics.

See README.md for the architecture and ``bench/README.md`` for how
end-to-end performance is measured; each ``benchmarks/`` module prints its
measured values next to the paper's table or figure.
"""

__version__ = "1.0.0"

__all__ = [
    "tfmini",
    "md",
    "oracles",
    "dp",
    "serving",
    "parallel",
    "perfmodel",
    "analysis",
    "units",
    "zoo",
]

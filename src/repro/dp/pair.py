"""``pair_style deepmd`` — the adapter that plugs DeepPot into repro.md.

Mirrors the paper's Sec 5.4 design: LAMMPS (repro.md) owns the atoms and the
spatial bookkeeping; the DP model replaces the EFF force computation.
"""

from __future__ import annotations

from repro.dp.backend import BackendPotential, ForceBackend
from repro.dp.model import DeepPot


class DeepPotPair(BackendPotential):
    """Potential interface around a DeepPot model.

    A :class:`~repro.dp.backend.BackendPotential` over a
    :class:`~repro.dp.backend.ForceBackend` on the model's default engine:
    ``compute`` feeds the shared seam as a one-frame workload (an R=1 shape
    bucket), so the serial ``Simulation`` driver goes through the exact
    layer the ensemble and distributed drivers batch into, and counters /
    plan stats observed through ``model.batched`` keep describing this
    driver.
    """

    def __init__(self, model: DeepPot):
        super().__init__(
            ForceBackend(model, engine=model.batched), model.config.rcut
        )
        self.model = model

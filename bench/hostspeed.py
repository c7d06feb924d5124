"""Host-speed reference: how fast this host is *right now*.

The 2-core shared hosts this benchmark runs on change speed by 10-25% over
tens of seconds, and by 1.5x for minutes at a time (measured: the same
md_copper256 binary read 90 and then 143 us/atom/step in back-to-back runs,
with set-up, p50 and p95 all scaled alike and no steal time reported).
Medians over a 10 s run cannot remove a regime that outlasts the run, so
every pass runs a fixed reference kernel between the chunks of its timed
round (about every 0.25 s, outside every measured interval) and reports its
times *at reference speed*: wall time x (REFERENCE_SECONDS / median kernel
time during the round).  The raw wall-clock figures and the factor are kept
beside every metric (``derived`` in the result file).

The kernel mixes what the program's layers do: a dispatch-bound chain of
small GEMM + tanh, one fitting-net-sized GEMM + tanh, and a gather + sort.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The kernel's time on the reference host (2 x Xeon 2.1 GHz, one BLAS
# thread) in its quiet regime.  Changing it rescales every time metric.
REFERENCE_SECONDS = 0.0200


class ReferenceKernel:
    """Create it before the workload is set up: all its buffers (~25 MB)
    are allocated here, so timing it later allocates nothing and the
    measured process's peak RSS carries a constant, not a varying, extra."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.small = rng.normal(size=(256 * 48, 32))
        self.small_w = rng.normal(size=(32, 32)) / 6.0
        self.small_out = [np.empty_like(self.small) for _ in range(2)]
        self.large = rng.normal(size=(4000, 240))
        self.large_w = rng.normal(size=(240, 240)) / 16.0
        self.large_out = np.empty_like(self.large)
        self.index = rng.integers(0, len(self.small), size=len(self.small))
        self.once()  # touch every page now

    def once(self) -> float:
        """Run the kernel; -> its wall seconds."""
        start = perf_counter()
        x = self.small
        for k in range(4):
            out = self.small_out[k % 2]
            np.tanh(np.matmul(x, self.small_w, out=out), out=out)
            x = out
        np.lexsort((x[self.index, 0], self.index % 7))
        np.tanh(np.matmul(self.large, self.large_w, out=self.large_out),
                out=self.large_out)
        return perf_counter() - start

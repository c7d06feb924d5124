"""The six workloads.  Each drives the program through its public API only
and receives nothing but inputs generated from the seed.

A workload has ``setup(seed)`` (build + warm-up, everything ``setup_s``
counts), ``measure(seconds, fixed, tracer, kernel)`` (one timed round),
``stop()`` (end of the measured processes; returns the peak RSS),
``checks(round)`` (output checks, untimed) and ``counters()`` (the
program's own counters, cumulative, keyed by per-layer metric name).

A timed round stops on the clock (``seconds``); a traced round runs a fixed
number of operations (``ops_per_second * seconds``, sized on the 2-core
reference host so that it lasts about as long), so that the counts it
reports are exact for a seed.  Either way the round is cut into chunks of
about CHUNK_SECONDS with one run of the host-speed reference kernel
(``bench.hostspeed``) between them; the kernel's time is outside every
measured interval.
"""

from __future__ import annotations

import json
import resource
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from bench.spec import ROOT

TEMPERATURE = 330.0  # K, the paper's protocol (Sec 6.1)
CHUNK_SECONDS = 0.25


@dataclass
class Round:
    """What one timed round measured."""

    start: float
    end: float
    durations: np.ndarray  # seconds per operation, in completion order
    seconds_per_op: float  # wall seconds per operation, for time-to-solution
    kernel_seconds: float  # median reference-kernel time between the chunks
    attempted: int
    failed: int = 0
    derived: dict = field(default_factory=dict)  # printed, not gated
    # phase -> (start, end, operations, seconds inside operations)
    windows: dict = field(default_factory=dict)


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def plan_counters(plan) -> dict:
    return {
        "tfmini.plan.records": plan.n_records,
        "tfmini.plan.records_fused": plan.records_fused(),
        "tfmini.plan.arena_mb": plan.arena_nbytes() / 1e6,
        "tfmini.plan.arena_builds": plan.stats.arena_builds,
        "tfmini.plan.arena_allocs": plan.alloc_count(),
        "tfmini.plan.topo_sorts": plan.stats.topo_sorts,
    }


def engine_counters(engine) -> dict:
    """A BatchedEvaluator's public counters (underscore keys feed shares)."""
    return {
        "dp.batch.evals": engine.batch_evaluations,
        "dp.batch.frames": engine.frames_evaluated,
        "dp.batch.scratch_mb": engine.scratch.nbytes() / 1e6,
        "dp.batch.fmt_evictions": engine.fmt_evictions,
        "_stacked": engine.stacked_batches,
        "_general": engine.general_batches,
        "_identity": engine.stage_identity,
        "_gathers": engine.stage_gathers,
        **plan_counters(engine.plan),
    }


class InProcess:
    """A workload whose operations run in this process, one after another."""

    name: str
    atoms: int  # atoms advanced by one operation
    ops_per_second: float  # reference-host rate: sizes chunks and traced rounds
    warmup: int
    dt_ps = 0.0  # MD timestep, for the derived ns/day
    model = None  # the DeepPot whose session the kernel profile pass swaps

    def advance(self, n: int, stamp) -> None:
        raise NotImplementedError

    def last_value(self) -> float:
        """Energy / loss of the operation just done; non-finite = failed."""
        raise NotImplementedError

    def measure(self, seconds: float, fixed: bool, tracer, kernel) -> Round:
        chunk = max(1, round(self.ops_per_second * CHUNK_SECONDS))
        target = max(2, round(self.ops_per_second * seconds)) if fixed else 0
        stamps: list[float] = []
        durations: list[np.ndarray] = []
        kernel_samples: list[float] = []
        values: list[float] = []
        done, busy = 0, 0.0

        def stamp(*_):
            stamps.append(perf_counter())
            values.append(self.last_value())
            if tracer is not None:
                tracer.set_op(done + len(stamps))

        start = perf_counter()
        while (done < target) if fixed else (busy < seconds):
            stamps.clear()
            began = perf_counter()
            self.advance(min(chunk, target - done) if fixed else chunk, stamp)
            durations.append(np.diff([began] + stamps))
            busy += stamps[-1] - began
            done += len(stamps)
            kernel_samples.append(kernel.once())
        end = perf_counter()
        per_op = busy / done
        derived = {"ms_per_op": per_op * 1e3}
        if self.dt_ps:
            derived["ns_per_day"] = self.dt_ps * 1e-3 * 86400.0 / per_op
        return Round(
            start, end, np.concatenate(durations), per_op,
            float(np.median(kernel_samples)), attempted=done,
            failed=int(np.count_nonzero(~np.isfinite(values))), derived=derived,
            windows={"round": (start, end, done, busy)},
        )

    def stop(self) -> float:
        return self_rss_mb()

    def close(self) -> None:
        pass


# ------------------------------------------------------------------ serial MD


class SerialMD(InProcess):
    """``Simulation`` + ``DeepPotPair`` + ``fitted_neighbor_list``, NVE."""

    drift_bound = None  # eV/atom over the round; None = not a trained model

    def build(self, seed: int):
        """-> (model, system without velocities)"""
        raise NotImplementedError

    def setup(self, seed: int) -> None:
        from repro.dp.pair import DeepPotPair
        from repro.md.neighbor import fitted_neighbor_list
        from repro.md.simulation import Simulation
        from repro.md.velocity import boltzmann_velocities

        self.model, system = self.build(seed)
        boltzmann_velocities(system, TEMPERATURE, seed=seed)
        self.atoms = system.n_atoms
        self.sim = Simulation(
            system, DeepPotPair(self.model), dt=self.dt_ps,
            neighbor=fitted_neighbor_list(system, self.model.config.rcut),
        )
        self.sim.run(self.warmup)

    def advance(self, n: int, stamp) -> None:
        self.sim.run(n, callback=stamp)

    def last_value(self) -> float:
        return self.sim.last_result().energy

    def total_energy(self) -> float:
        return self.sim.system.kinetic_energy() + self.last_value()

    def measure(self, seconds, fixed, tracer, kernel) -> Round:
        e_start = self.total_energy()
        rnd = super().measure(seconds, fixed, tracer, kernel)
        self.drift = abs(self.total_energy() - e_start) / self.atoms
        return rnd

    def checks(self, rnd: Round) -> dict:
        sim, nl = self.sim, self.sim.neighbor
        res = sim.last_result()
        ref = self.model.evaluate_serial(sim.system, nl.pair_i, nl.pair_j)
        net_force = float(np.abs(res.forces.sum(axis=0)).max())
        out = {
            "last_frame_bitwise_vs_evaluate_serial": (
                res.energy == ref.energy
                and np.array_equal(res.forces, ref.forces)
                and np.array_equal(res.virial, ref.virial),
                "energy, forces and virial of the last frame",
            ),
            "net_force_below_1e-9": (net_force < 1e-9, f"{net_force:.3e} eV/A"),
        }
        if self.drift_bound is not None:
            out["nve_drift_per_atom"] = (
                self.drift < self.drift_bound,
                f"{self.drift:.3e} eV/atom over the round "
                f"(bound {self.drift_bound:.0e})",
            )
        return out

    def counters(self) -> dict:
        nl = self.sim.neighbor
        return {
            "md.neighbor.builds": nl.n_builds,
            "md.neighbor.pairs": len(nl.pair_i),
            "dp.backend.buckets": self.sim.potential.force_backend.bucket_count,
            **engine_counters(self.model.batched),
        }


class MDWater192(SerialMD):
    name = "md_water192"
    ops_per_second, warmup, dt_ps = 70.0, 30, 0.0005
    drift_bound = 2e-4

    def build(self, seed):
        from repro import zoo
        from repro.analysis.structures import water_box

        return zoo.get_water_model(), water_box((4, 4, 4), seed=0)


class MDCopper256(SerialMD):
    name = "md_copper256"
    ops_per_second, warmup, dt_ps = 40.0, 30, 0.001
    drift_bound = 2e-4

    def build(self, seed):
        from repro import zoo
        from repro.analysis.structures import fcc_lattice

        return zoo.get_copper_model(), fcc_lattice((4, 4, 4))


class MDCopperFig3(SerialMD):
    """Paper-sized nets on the Fig-3 copper fixture (untrained, seeded)."""

    name = "md_copper_fig3"
    ops_per_second, warmup, dt_ps = 2.7, 2, 0.001

    def build(self, seed):
        from repro.analysis.structures import fcc_lattice
        from repro.dp.model import DeepPot, DPConfig

        system = fcc_lattice((4, 4, 4))
        system.positions += np.random.default_rng(seed).normal(
            scale=0.05, size=system.positions.shape
        )
        config = DPConfig(
            type_names=("Cu",), rcut=7.0, rcut_smth=2.0, sel=(220,)
        )
        return DeepPot(config, rng=np.random.default_rng(seed)), system


# ------------------------------------------------------------------- ensemble


class EnsWater81R8Mixed(InProcess):
    name = "ens_water81_r8_mixed"
    replicas = 8
    ops_per_second, warmup, dt_ps = 27.0, 10, 0.0005
    force_rmse_bound = 1e-5  # eV/A vs the double model (Sec 7.1.3)

    def setup(self, seed: int) -> None:
        from repro import zoo
        from repro.analysis.structures import water_box
        from repro.md.ensemble import EnsembleSimulation

        self.double = zoo.get_water_model()
        self.model = zoo.as_mixed_precision(self.double)
        base = water_box((3, 3, 3), seed=0)
        self.atoms = self.replicas * base.n_atoms
        self.ens = EnsembleSimulation.from_system(
            base, self.model, self.replicas, temperature=TEMPERATURE,
            seed=self.replicas * seed, dt=self.dt_ps,
        )
        self.ens.run(self.warmup)

    def advance(self, n: int, stamp) -> None:
        self.ens.run(n, callback=stamp)

    def last_value(self) -> float:
        return sum(r.energy for r in self.ens.last_results())

    def checks(self, rnd: Round) -> dict:
        system, nl = self.ens.systems[0], self.ens.neighbors[0]
        mixed = self.ens.last_results()[0]
        ref = self.double.evaluate(system, nl.pair_i, nl.pair_j)
        rmse = float(np.sqrt(np.mean((mixed.forces - ref.forces) ** 2)))
        return {
            "mixed_force_rmse_vs_double": (
                rmse < self.force_rmse_bound,
                f"{rmse:.3e} eV/A on replica 0 "
                f"(bound {self.force_rmse_bound:.0e})",
            ),
        }

    def counters(self) -> dict:
        return {
            "md.neighbor.builds": sum(nl.n_builds for nl in self.ens.neighbors),
            "md.neighbor.pairs": sum(len(nl.pair_i) for nl in self.ens.neighbors),
            "dp.backend.buckets": self.ens.force_backend.bucket_count,
            **engine_counters(self.ens.engine),
        }


# ------------------------------------------------------------------- training


class TrainWater(InProcess):
    name = "train_water"
    ops_per_second, warmup = 75.0, 10

    def setup(self, seed: int) -> None:
        from repro import zoo
        from repro.dp.model import DeepPot
        from repro.dp.train import TrainConfig, Trainer

        dataset = zoo.build_water_dataset(n_frames=8, seed=seed)
        self.atoms = dataset[0].n_atoms
        self.model = DeepPot(zoo.water_config(), rng=np.random.default_rng(seed))
        dataset.apply_stats(self.model)
        self.trainer = Trainer(self.model, dataset, TrainConfig(seed=seed))
        self.losses: list[float] = []
        self.advance(self.warmup, lambda: None)

    def advance(self, n: int, stamp) -> None:
        for _ in range(n):
            self.losses.append(self.trainer.step())
            stamp()

    def last_value(self) -> float:
        return self.losses[-1]

    def measure(self, seconds, fixed, tracer, kernel) -> Round:
        self.losses.clear()
        return super().measure(seconds, fixed, tracer, kernel)

    def checks(self, rnd: Round) -> dict:
        losses = np.array(self.losses[: rnd.attempted])
        half = len(losses) // 2
        first, last = losses[:half].mean(), losses[half:].mean()
        return {
            "loss_decreased": (
                last < first,
                f"mean loss {first:.4g} (first half) -> {last:.4g} (second)",
            ),
        }

    def counters(self) -> dict:
        plan = self.trainer.plan
        return {**plan_counters(plan),
                "dp.train.arena_mb": plan.arena_nbytes() / 1e6}


# -------------------------------------------------------------------- serving


class ServeSocket:
    """A daemon child process (``bench/daemon.py``) behind ``SocketClient``.

    Closed phase: CLIENTS connections, one thread each, submit -> wait ->
    next; its request latencies are the workload's latency metrics.  Burst
    phase: one connection pipelines BURST frames with ``evaluate_many``
    (twice the daemon's queue bound, so admission backpressure is part of
    it); its wall time per frame is the workload's time-to-solution.
    """

    name = "serve_socket"
    CLIENTS = 2  # = nproc of the reference host; callers wait for forces
    FRAMES = 64
    BURST = 128
    WARM_BURST = 32
    CLOSED_SHARE = 0.5  # of the round's seconds; the bursts take the rest
    SEGMENTS = 4  # of the closed phase, with the reference kernel between
    ops_per_second = 135.0  # closed-loop requests/s, both clients together
    bursts_per_second = 1.1
    CHECK_EVERY = 16
    TIMEOUT = 60.0

    trace = False  # set before setup(): the daemon traces itself

    def __init__(self) -> None:
        self.daemon = None
        self.clients: list = []
        self.report: dict = {}

    def setup(self, seed: int) -> None:
        from repro import zoo
        from repro.analysis.structures import water_box
        from repro.md.neighbor import neighbor_pairs
        from repro.serving import SocketClient, perturbed_frames

        self.direct = zoo.get_water_model()
        self.frames = perturbed_frames(
            water_box((3, 3, 3), seed=0), self.FRAMES, seed0=self.FRAMES * seed
        )
        self.atoms = self.frames[0].n_atoms
        rcut = self.direct.config.rcut
        self.pairs = [neighbor_pairs(f, rcut) for f in self.frames]
        repeat = self.BURST // self.FRAMES
        self.burst_frames = self.frames * repeat
        self.burst_pairs = self.pairs * repeat

        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "bench.daemon", "--trace", str(int(self.trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        hello = self.daemon.stdout.readline()
        if not hello:
            raise RuntimeError("bench.daemon exited before listening")
        address = tuple(json.loads(hello)["address"])
        self.clients = [
            SocketClient(address, "water", client=f"bench-{k}")
            for k in range(self.CLIENTS)
        ]
        self.clients[0].evaluate_many(
            self.burst_frames[: self.WARM_BURST],
            self.burst_pairs[: self.WARM_BURST], timeout=self.TIMEOUT,
        )

    # ---------------------------------------------------------------- phases

    def _closed(self, seconds: float, per_client: int, segment: int, tracer):
        """One segment of the closed loop: every client submits, waits,
        submits the next, for ``seconds`` (or ``per_client`` requests).
        -> (latencies, failed, [(frame, result)] every CHECK_EVERY-th)"""
        latencies: list[list[float]] = [[] for _ in self.clients]
        samples: list[list] = [[] for _ in self.clients]
        failed = [0] * len(self.clients)
        deadline = perf_counter() + seconds

        def run(tid: int) -> None:
            client, n = self.clients[tid], 0
            while (n < per_client) if per_client else (perf_counter() < deadline):
                op = (segment * 10**4 + n) * len(self.clients) + tid
                k = op % self.FRAMES
                if tracer is not None:
                    tracer.set_op(op)
                t0 = perf_counter()
                try:
                    result = client.submit(
                        self.frames[k], *self.pairs[k]
                    ).result(self.TIMEOUT)
                except Exception:  # refused, failed or timed out: a miss
                    failed[tid] += 1
                else:
                    latencies[tid].append(perf_counter() - t0)
                    if n % self.CHECK_EVERY == 0:
                        samples[tid].append((self.frames[k], result))
                n += 1

        threads = [
            threading.Thread(target=run, args=(tid,), daemon=True)
            for tid in range(len(self.clients))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(seconds + 2 * self.TIMEOUT)
            if t.is_alive():
                raise RuntimeError("closed-loop client thread did not finish")
        return (
            [x for per in latencies for x in per],
            sum(failed),
            [s for per in samples for s in per],
        )

    def measure(self, seconds: float, fixed: bool, tracer, kernel) -> Round:
        closed_s = self.CLOSED_SHARE * seconds
        burst_s = seconds - closed_s
        per_client = repeats = 0
        if fixed:
            per_client = max(4, round(
                self.ops_per_second * closed_s / len(self.clients) / self.SEGMENTS
            ))
            repeats = max(2, round(self.bursts_per_second * burst_s))
        control = self.clients[0]
        kernel_samples: list[float] = []
        self.samples: list = []
        self.stats = [control.stats()]

        latencies: list[float] = []
        failed_closed, busy_closed = 0, 0.0
        start = perf_counter()
        for segment in range(self.SEGMENTS):
            began = perf_counter()
            lat, failed, samples = self._closed(
                closed_s / self.SEGMENTS, per_client, segment, tracer
            )
            busy_closed += perf_counter() - began
            latencies += lat
            failed_closed += failed
            self.samples += samples
            kernel_samples.append(kernel.once())
        mid = perf_counter()
        self.stats.append(control.stats())

        walls: list[float] = []
        self.burst_windows: list[tuple[float, float]] = []
        failed_burst = 0
        mid2 = perf_counter()
        while (len(walls) < repeats) if fixed else (
            len(walls) < 2 or sum(walls) < burst_s
        ):
            t0 = perf_counter()
            try:
                # No timeout: evaluate_many would write the seconds left
                # into every SUBMIT header, and bytes_per_req would stop
                # being exact.  A dead daemon fails the futures; a hung one
                # is ended by the runner's pass timeout.
                results = control.evaluate_many(self.burst_frames, self.burst_pairs)
            except Exception:
                failed_burst += self.BURST
                if failed_burst > 2 * self.BURST:  # a dead daemon: give up
                    break
                continue
            t1 = perf_counter()
            walls.append(t1 - t0)
            self.burst_windows.append((t0, t1))
            burst_samples = list(zip(self.burst_frames, results))
            kernel_samples.append(kernel.once())
        end = perf_counter()
        self.stats.append(control.stats())
        if walls:
            self.samples += burst_samples[:: self.CHECK_EVERY]

        n_closed = len(latencies) + failed_closed
        n_burst = len(walls) * self.BURST + failed_burst
        per_frame = float(np.median(walls)) / self.BURST if walls else float("nan")
        return Round(
            start, end, np.asarray(latencies), per_frame,
            float(np.median(kernel_samples)),
            attempted=n_closed + n_burst,
            failed=failed_closed + failed_burst,
            derived={
                "closed_rps": len(latencies) / busy_closed,
                "closed_requests": n_closed,
                "burst_fps": 1.0 / per_frame,
                "burst_repeats": len(walls),
            },
            windows={
                "closed": (start, mid, n_closed, busy_closed),
                "burst": (mid2, end, n_burst, sum(walls)),
            },
        )

    # -------------------------------------------------------------- shutdown

    def stop(self) -> float:
        """SIGTERM the daemon, read its exit report; -> its peak RSS (MB)."""
        for client in self.clients:
            client.close()
        self.clients = []
        self.daemon.send_signal(signal.SIGTERM)
        out, _ = self.daemon.communicate(timeout=120)
        self.returncode = self.daemon.returncode
        lines = out.strip().splitlines()
        self.report = json.loads(lines[-1]) if lines else {}
        return self.report.get("rss_mb", 0.0)

    def close(self) -> None:
        for client in self.clients:
            client.close()
        if self.daemon is not None and self.daemon.poll() is None:
            self.daemon.kill()
            self.daemon.wait()

    def checks(self, rnd: Round) -> dict:
        from repro.serving import served_matches_direct

        matched = sum(
            served_matches_direct(self.direct, frame, result)
            for frame, result in self.samples
        )
        s = self.report.get("stats", {})
        return {
            "served_matches_direct": (
                matched == len(self.samples) > 0,
                f"{matched}/{len(self.samples)} sampled results bitwise equal",
            ),
            "daemon_exit_0_on_sigterm": (
                self.returncode == 0, f"exit code {self.returncode}"
            ),
            "drain_conserved": (
                bool(self.report.get("conserved")),
                f"{s.get('requests_submitted')} submitted == "
                f"{s.get('requests_completed')} completed + "
                f"{s.get('requests_failed')} failed + "
                f"{s.get('requests_cancelled')} cancelled",
            ),
        }

    def counters(self) -> dict:
        return {}


WORKLOADS = {
    w.name: w
    for w in (MDWater192, MDCopper256, MDCopperFig3, EnsWater81R8Mixed,
              ServeSocket, TrainWater)
}

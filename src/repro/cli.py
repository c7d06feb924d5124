"""Command-line interface: ``python -m repro <command>``.

Commands
--------
info        — package/system inventory and model-zoo status
scaling     — regenerate the Summit scaling tables (Tables 1/4, Figs 5/6)
serve       — run the inference service as a socket daemon (the
              repro.serving.net front-end; SIGTERM drains gracefully and
              the exit code asserts request conservation)
md          — deterministic tiny MD run with optional exact-restart
              checkpointing (``--checkpoint-dir``) and a self-SIGTERM
              switch (``--sigterm-at``) for kill/resume testing
resume      — restore an ``md`` checkpoint and finish the trajectory
              (bitwise identical to the uninterrupted run)
chaos-smoke — seeded fault-injection scenario: worker crash + severed
              connection + duplicated frame against a live daemon, plus a
              SIGTERM-interrupted + resumed MD run — asserts conservation
              and bitwise identity, exit code 0/1 (the CI chaos job)
lint        — concurrency/invariant linter over the source tree
              (repro.analysis.lint; rules L101-L111)
check-plans — compile every zoo model's evaluate/train/serving plans and
              run the static plan verifier (repro.analysis.plancheck;
              rules P101-P108); ``--report FILE`` also writes the
              per-plan metrics JSON
plan-report — per-plan compiler metrics across the zoo matrix: record
              count, row blocks per evaluation and arena bytes (of one
              block) before/after interference coloring (JSON to stdout
              or ``--out FILE``)
"""

from __future__ import annotations

import argparse
import sys


def cmd_info(_args) -> int:
    import numpy

    import repro
    from repro.zoo import DEFAULT_CACHE

    print("repro — reproduction of Jia et al., SC '20 (Gordon Bell)")
    print(f"package: {repro.__file__}")
    print(f"numpy:   {numpy.__version__}")
    print("\nsubsystems:")
    for name, what in [
        ("repro.tfmini", "graph tensor engine (TensorFlow substitute)"),
        ("repro.md", "LAMMPS-like MD substrate + multi-replica ensembles"),
        ("repro.oracles", "ab-initio stand-in potentials"),
        ("repro.dp", "Deep Potential core + batched multi-frame engine"),
        ("repro.serving", "micro-batching inference service (multi-worker pool)"),
        ("repro.parallel", "simulated MPI + domain decomposition"),
        ("repro.perfmodel", "calibrated Summit performance model"),
        ("repro.analysis", "RDF / MSD+diffusion / CNA / structures / stress"),
    ]:
        print(f"  {name:<18} {what}")

    # Importing the model registers the DP custom ops, so the coverage
    # count reflects the full registry the compiled plans execute against.
    import repro.dp.model  # noqa: F401
    import repro.tfmini.passes  # noqa: F401
    from repro.tfmini.ops import out_kernel_coverage

    cov = out_kernel_coverage()
    line = (f"\nout= kernel coverage: {cov['covered']}/{cov['eligible']} "
            f"eligible ops (view/structural ops exempt)")
    if cov["missing"]:
        line += "\n  missing: " + ", ".join(cov["missing"])
    print(line)

    print(f"\nmodel zoo cache: {DEFAULT_CACHE}")
    if DEFAULT_CACHE.exists():
        for p in sorted(DEFAULT_CACHE.glob("*.npz")):
            print(f"  cached: {p.name}")
    else:
        print("  (empty — first example run will train the tiny models)")
    return 0


def cmd_scaling(_args) -> int:
    from repro.perfmodel.report import print_all

    print_all()
    return 0


def _bench_tiny_model():
    """The deterministic tiny model ``repro serve --tiny`` hosts.

    Construction is fully seeded, so a client process that builds it too
    holds bitwise-identical weights — cross-process bitwise spot checks
    need no weight shipping.
    """
    from repro.dp.model import DeepPot, DPConfig

    return DeepPot(DPConfig.tiny(sel=(8, 16), rcut=3.0))


def cmd_serve(args) -> int:
    """Run the inference service as a standalone socket daemon.

    Foreground process: prints the listening address, serves until SIGTERM
    or SIGINT, then drains gracefully — queued requests complete, results
    flush to their connections, and the exit status asserts conservation
    (submitted == completed + failed + cancelled).
    """
    import json
    import signal
    from pathlib import Path

    from repro.serving import InferenceServer, ServingDaemon

    common = dict(
        max_batch=args.max_batch,
        max_wait_us=args.max_wait_us,
        max_queue=args.max_queue,
        max_per_client=args.max_per_client,
    )
    if args.tiny:
        server = InferenceServer({"water-tiny": _bench_tiny_model()}, **common)
    else:
        names = [m.strip() for m in args.models.split(",") if m.strip()]
        server = InferenceServer.from_zoo(names, **common)
    stats_path = None
    if args.checkpoint_dir:
        # Lifetime counters survive daemon restarts: restore the last
        # cleanly-drained snapshot, persist a fresh one at drain time.
        stats_path = Path(args.checkpoint_dir) / "serving-stats.json"
        if stats_path.exists():
            server.stats.restore(json.loads(stats_path.read_text()))
            print(
                f"repro serve: restored lifetime counters from {stats_path}",
                flush=True,
            )
    daemon = ServingDaemon(
        server, host=args.host, port=args.port,
        idle_timeout=args.idle_timeout,
    ).start()
    host, port = daemon.address
    print(
        f"repro serve: listening on {host}:{port} "
        f"(models: {', '.join(server.model_names())}; "
        f"max_batch={args.max_batch}, "
        f"max_per_client={args.max_per_client})",
        flush=True,
    )

    def handle(signum, _frame):
        print(
            f"repro serve: caught {signal.Signals(signum).name}, draining...",
            flush=True,
        )
        daemon.stop(drain=True)

    signal.signal(signal.SIGTERM, handle)
    signal.signal(signal.SIGINT, handle)
    while not daemon.wait(1.0):
        pass
    s = server.stats.snapshot()
    print(server.stats.report())
    if stats_path is not None:
        stats_path.parent.mkdir(parents=True, exist_ok=True)
        stats_path.write_text(json.dumps(s, indent=2, sort_keys=True))
        print(f"repro serve: lifetime counters saved to {stats_path}",
              flush=True)
    conserved = s["requests_submitted"] == (
        s["requests_completed"]
        + s["requests_failed"]
        + s["requests_cancelled"]
    )
    print(
        f"drain {'clean' if conserved else 'LEAKED REQUESTS'}: "
        f"{s['requests_submitted']} submitted == "
        f"{s['requests_completed']} completed + {s['requests_failed']} failed "
        f"+ {s['requests_cancelled']} cancelled: "
        f"{'OK' if conserved else 'VIOLATED'}",
        flush=True,
    )
    return 0 if conserved else 1


def _md_tiny_sim(thermostat: str):
    """The deterministic tiny MD setup ``repro md`` and ``repro resume``
    both construct — identical arguments on both sides are the restore
    contract (the code is the checkpoint's schema)."""
    from repro.analysis.structures import water_box
    from repro.dp.pair import DeepPotPair
    from repro.md import boltzmann_velocities
    from repro.md.integrators import Langevin, NoseHoover, VelocityVerlet
    from repro.md.neighbor import fitted_neighbor_list
    from repro.md.simulation import Simulation

    model = _bench_tiny_model()
    base = water_box((2, 2, 2), seed=0)
    boltzmann_velocities(base, 300.0, seed=1)
    integrator = {
        "nve": VelocityVerlet,
        "langevin": lambda: Langevin(temperature=300.0, seed=7),
        "nosehoover": lambda: NoseHoover(temperature=300.0),
    }[thermostat]()
    return Simulation(
        base,
        DeepPotPair(model),
        dt=5e-4,
        integrator=integrator,
        neighbor=fitted_neighbor_list(base, model.config.rcut),
        thermo_every=10,
    )


def _write_md_npz(path: str, sim) -> None:
    import numpy as np

    np.savez(
        path,
        positions=sim.system.positions,
        velocities=sim.system.velocities,
        forces=sim.last_result().forces,
        thermo=np.array(
            [r.as_tuple() for r in sim.thermo.rows], dtype=np.float64
        ).reshape(-1, 7),
        step_count=np.int64(sim.step_count),
    )


def cmd_md(args) -> int:
    """Deterministic tiny MD run with exact-restart checkpointing.

    ``--checkpoint-dir`` saves every ``--checkpoint-every`` steps and arms
    SIGTERM -> checkpoint-then-exit(3); ``--sigterm-at N`` raises SIGTERM
    *on itself* at step N (the deterministic stand-in for an external
    ``kill``, and exactly what the CI chaos job's shell flow exercises
    from outside).  ``repro resume`` finishes the trajectory bitwise.
    """
    import signal

    from repro.md.checkpoint import CheckpointInterrupt, CheckpointWriter

    if args.sigterm_at and not args.checkpoint_dir:
        print("--sigterm-at needs --checkpoint-dir (nothing to resume from)")
        return 2
    sim = _md_tiny_sim(args.thermostat)
    writer = None
    if args.checkpoint_dir:
        writer = CheckpointWriter(
            sim, args.checkpoint_dir, every=args.checkpoint_every
        ).install_sigterm()

    def cb(s):
        if args.sigterm_at and s.step_count == args.sigterm_at:
            signal.raise_signal(signal.SIGTERM)
        if writer is not None:
            writer(s)

    try:
        sim.run(args.steps, callback=cb)
    except CheckpointInterrupt as exc:
        print(f"repro md: interrupted — {exc}", flush=True)
        return 3
    finally:
        if writer is not None:
            writer.uninstall_sigterm()
    if args.out:
        _write_md_npz(args.out, sim)
    print(
        f"repro md: {sim.step_count} steps, "
        f"{sim.force_evaluations} force evaluations, "
        f"{len(sim.thermo.rows)} thermo rows"
        + (f", saved {args.out}" if args.out else "")
        + (f", {writer.saves} checkpoint(s)" if writer is not None else ""),
        flush=True,
    )
    dropped = sim.potential.model.batched.neighbors_dropped
    if dropped:
        print(
            f"repro md: {dropped} neighbors beyond sel were dropped "
            "(truncated descriptors)",
            flush=True,
        )
    return 0


def cmd_resume(args) -> int:
    """Restore an ``md`` checkpoint and run to ``--steps`` total steps."""
    from repro.md.checkpoint import restore_checkpoint

    sim = _md_tiny_sim(args.thermostat)
    restore_checkpoint(sim, args.checkpoint)
    remaining = args.steps - sim.step_count
    if remaining < 0:
        print(
            f"checkpoint is already at step {sim.step_count} > "
            f"--steps {args.steps}"
        )
        return 2
    print(
        f"repro resume: restored step {sim.step_count} from "
        f"{args.checkpoint}, running {remaining} more",
        flush=True,
    )
    sim.run(remaining)
    if args.out:
        _write_md_npz(args.out, sim)
    print(
        f"repro resume: {sim.step_count} steps total, "
        f"{sim.force_evaluations} force evaluations, "
        f"{len(sim.thermo.rows)} thermo rows"
        + (f", saved {args.out}" if args.out else ""),
        flush=True,
    )
    return 0


def cmd_chaos_smoke(args) -> int:
    """Seeded fault-injection end-to-end: the CI chaos job.

    Scenario A (serving): a daemon hosting the tiny model runs under a
    :class:`~repro.serving.faults.FaultPlan` that crashes the worker on
    its first batch, severs the client's connection after 3 frames, and
    duplicates a result frame — while a retrying
    :class:`~repro.dp.backend.ServingForceBackend` evaluates 8 frames.
    Asserts: every result bitwise equal to direct evaluation, daemon
    stayed up, conservation holds, crash/respawn/reconnect counters fired.

    Scenario B (checkpointing): a Langevin MD run is SIGTERM-killed
    mid-run (real signal, delivered to this process), then restored and
    finished; positions/velocities/forces/thermo must be bitwise equal to
    the uninterrupted run.
    """
    import signal
    import tempfile

    import numpy as np

    from repro.analysis.structures import water_box
    from repro.dp.backend import ForceFrame, ServingForceBackend
    from repro.md.checkpoint import (
        CheckpointInterrupt,
        CheckpointWriter,
        restore_checkpoint,
    )
    from repro.md.neighbor import neighbor_pairs
    from repro.serving import (
        CrashWorker,
        FaultPlan,
        InferenceServer,
        ServingDaemon,
        SeverConnection,
        SocketClient,
        TamperFrame,
    )

    checks: dict[str, bool] = {}

    print("chaos-smoke A: serving under a seeded FaultPlan...")
    name = "water-tiny"
    model = _bench_tiny_model()
    base = water_box((2, 2, 2), seed=0)
    from repro.serving import perturbed_frames

    frames = perturbed_frames(base, 8, seed0=4242)
    direct = [
        model.evaluate(f, *neighbor_pairs(f, model.config.rcut))
        for f in frames
    ]
    plan = FaultPlan(
        faults=(
            CrashWorker(worker=name, at_batch=1),
            SeverConnection(client="chaos", after_frames=3),
            TamperFrame(client="chaos", at_frame=5, action="duplicate"),
        ),
        seed=args.seed,
    )
    server = InferenceServer(
        {name: model}, max_batch=4, max_wait_us=2000, faults=plan
    )
    daemon = ServingDaemon(server, faults=plan).start()
    try:
        with SocketClient(
            daemon.address, name, client="chaos", retries=4
        ) as client:
            backend = ServingForceBackend(client, timeout=120, retries=4)
            results = backend.evaluate(
                [
                    ForceFrame(f, *neighbor_pairs(f, model.config.rcut))
                    for f in frames
                ]
            )
            checks["all frames served under faults"] = len(results) == 8
            checks["served bitwise == direct (through crash + sever)"] = all(
                r.energy == d.energy
                and np.array_equal(r.forces, d.forces)
                and np.array_equal(r.virial, d.virial)
                for r, d in zip(results, direct)
            )
            checks["client reconnected after sever"] = client.reconnects >= 1
            checks["client resubmitted in-flight frames"] = (
                client.resubmits >= 1
            )
    finally:
        daemon.stop(drain=True)
    s = server.stats.snapshot()
    checks["worker crashed and was respawned"] = (
        s["worker_crashes"] >= 1 and s["worker_respawns"] >= 1
    )
    checks["conservation through the crash"] = s["requests_submitted"] == (
        s["requests_completed"]
        + s["requests_failed"]
        + s["requests_cancelled"]
    )
    checks["each planned fault fired"] = (
        plan.fired("CrashWorker") == 1
        and plan.fired("SeverConnection") == 1
        and plan.fired("TamperFrame") == 1
    )
    print(server.stats.report())

    print("\nchaos-smoke B: SIGTERM mid-MD, restore, bitwise finish...")
    total, kill_at = 40, 17
    ref = _md_tiny_sim("langevin")
    ref.run(total)
    with tempfile.TemporaryDirectory() as tmp:
        victim = _md_tiny_sim("langevin")
        writer = CheckpointWriter(victim, tmp, every=10).install_sigterm()

        def cb(s):
            if s.step_count == kill_at:
                signal.raise_signal(signal.SIGTERM)
            writer(s)

        interrupted = False
        try:
            victim.run(total, callback=cb)
        except CheckpointInterrupt:
            interrupted = True
        finally:
            writer.uninstall_sigterm()
        checks["SIGTERM interrupted the run mid-way"] = (
            interrupted and victim.step_count == kill_at
        )
        resumed = _md_tiny_sim("langevin")
        restore_checkpoint(resumed, writer.path)
        resumed.run(total - resumed.step_count)
    checks["resumed positions bitwise == uninterrupted"] = np.array_equal(
        resumed.system.positions, ref.system.positions
    )
    checks["resumed velocities bitwise == uninterrupted"] = np.array_equal(
        resumed.system.velocities, ref.system.velocities
    )
    checks["resumed forces bitwise == uninterrupted"] = np.array_equal(
        resumed.last_result().forces, ref.last_result().forces
    )
    checks["resumed thermo rows bitwise == uninterrupted"] = [
        r.as_tuple() for r in resumed.thermo.rows
    ] == [r.as_tuple() for r in ref.thermo.rows]
    checks["resumed evaluation count matches"] = (
        resumed.force_evaluations == ref.force_evaluations
    )

    print()
    for what, ok in checks.items():
        print(f"  {'PASS' if ok else 'FAIL'}  {what}")
    print(f"chaos-smoke: {'PASSED' if all(checks.values()) else 'FAILED'}")
    return 0 if all(checks.values()) else 1


def cmd_lint(args) -> int:
    from pathlib import Path

    import repro
    from repro.analysis.lint import RULES, format_json, format_text, lint_paths

    if args.list_rules:
        for rule, desc in sorted(RULES.items()):
            print(f"{rule}  {desc}")
        return 0
    paths = args.paths or [str(Path(repro.__file__).parent)]
    findings = lint_paths(paths)
    print(format_json(findings) if args.json else format_text(findings))
    if findings and args.strict:
        return 1
    return 0


def _plan_report_entries(results) -> list:
    """JSON-ready per-plan entries (verification verdict + metrics)."""
    out = []
    for e in results:
        entry = {
            "plan": e["plan"],
            "records": e["records"],
            "ok": e["report"].ok,
            "findings": [str(f) for f in e["report"].findings],
        }
        if "metrics" in e:
            entry.update(e["metrics"])
        out.append(entry)
    return out


def cmd_check_plans(args) -> int:
    import json as _json

    from repro.analysis.plancheck import check_all_plans

    results = check_all_plans(report=bool(args.report))
    bad = [e for e in results if not e["report"].ok]
    if args.report:
        with open(args.report, "w") as fh:
            _json.dump(_plan_report_entries(results), fh, indent=2)
            fh.write("\n")
        print(f"plan report written to {args.report}")
    if args.json:
        print(_json.dumps(
            [
                {
                    "plan": e["plan"],
                    "records": e["records"],
                    "ok": e["report"].ok,
                    "findings": [str(f) for f in e["report"].findings],
                    "notes": list(e["report"].notes),
                }
                for e in results
            ],
            indent=2,
        ))
    else:
        for e in results:
            rep = e["report"]
            status = "OK" if rep.ok else f"FAIL ({len(rep.findings)} finding(s))"
            line = f"{e['plan']:<36} {e['records']:>4} records  {status}"
            if "metrics" in e:
                # Every block of an evaluation runs in the one arena of
                # its shape, so the arena bytes are one block's.
                m = e["metrics"]
                line += (f"  {m['blocks_per_evaluation']} block(s)/evaluation, "
                         f"rows {m['rows_run']}/{m['rows_padded']}, "
                         f"arena {m['arena_nbytes_colored']} B")
            print(line)
            for f in rep.findings:
                print(f"    {f}")
            for n in rep.notes:
                print(f"    note: {n}")
        verdict = "clean" if not bad else f"{len(bad)} plan(s) with findings"
        print(f"check-plans: {len(results)} plans verified — {verdict}")
    return 1 if bad else 0


def cmd_plan_report(args) -> int:
    import json as _json

    from repro.analysis.plancheck import check_all_plans

    results = check_all_plans(report=True)
    entries = _plan_report_entries(results)
    payload = _json.dumps(entries, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
        print(f"plan report written to {args.out}")
    else:
        print(payload)
    if not args.out:
        return 1 if any(not e["ok"] for e in entries) else 0
    for e in entries:
        saved = e["arena_bytes_saved"]
        pct = 100.0 * saved / e["arena_nbytes_fifo"] if e["arena_nbytes_fifo"] else 0.0
        print(
            f"  {e['plan']:<36} {e['records']:>4} records "
            f"(+{e['records_pruned']:>2} pruned)  "
            f"{e['blocks_per_evaluation']:>2} block(s)/evaluation  "
            f"rows {e['rows_run']:>5}/{e['rows_padded']:<5}  "
            f"arena {e['arena_nbytes_colored']:>10} B "
            f"(fifo {e['arena_nbytes_fifo']:>10} B, -{pct:.1f}%)"
        )
    return 1 if any(not e["ok"] for e in entries) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("info", help="package inventory and zoo status")
    sub.add_parser("scaling", help="regenerate the Summit scaling tables")
    daemon = sub.add_parser(
        "serve",
        help="run the inference service as a socket daemon "
             "(SIGTERM = graceful drain)",
    )
    daemon.add_argument("--models", default="water",
                        help="comma-separated zoo models: "
                             "water/copper[-double|-single]")
    daemon.add_argument("--tiny", action="store_true",
                        help="host one untrained deterministic tiny model "
                             "(fast; no zoo training)")
    daemon.add_argument("--host", default="127.0.0.1")
    daemon.add_argument("--port", type=int, default=0,
                        help="TCP port (0 = ephemeral, printed at startup)")
    daemon.add_argument("--max-batch", type=int, default=8)
    daemon.add_argument("--max-wait-us", type=float, default=1000.0)
    daemon.add_argument("--max-queue", type=int, default=64)
    daemon.add_argument("--max-per-client", type=int, default=0,
                        help="per-client admission quota (0 = unlimited)")
    daemon.add_argument("--checkpoint-dir", default=None,
                        help="persist lifetime counters across restarts "
                             "(serving-stats.json in this directory)")
    daemon.add_argument("--idle-timeout", type=float, default=0.0,
                        help="sweep client connections idle longer than "
                             "this many seconds (0 = never)")
    md = sub.add_parser(
        "md",
        help="deterministic tiny MD run with exact-restart checkpointing",
    )
    md.add_argument("--steps", type=int, default=40)
    md.add_argument("--out", default=None,
                    help="write final positions/velocities/forces/thermo "
                         "as .npz")
    md.add_argument("--checkpoint-dir", default=None,
                    help="save checkpoints here and arm SIGTERM -> "
                         "checkpoint-then-exit(3)")
    md.add_argument("--checkpoint-every", type=int, default=0,
                    help="also checkpoint every N steps (0 = only on "
                         "SIGTERM)")
    md.add_argument("--sigterm-at", type=int, default=0,
                    help="raise SIGTERM on ourselves at step N "
                         "(deterministic kill, for the chaos CI job)")
    md.add_argument("--thermostat", default="langevin",
                    choices=("nve", "langevin", "nosehoover"))
    res = sub.add_parser(
        "resume",
        help="restore an `md` checkpoint and finish the run bitwise",
    )
    res.add_argument("--checkpoint", required=True,
                     help="checkpoint file written by `repro md`")
    res.add_argument("--steps", type=int, default=40,
                     help="TOTAL steps (matching the original --steps)")
    res.add_argument("--out", default=None,
                     help="write final state as .npz")
    res.add_argument("--thermostat", default="langevin",
                     choices=("nve", "langevin", "nosehoover"),
                     help="must match the original run")
    chaos = sub.add_parser(
        "chaos-smoke",
        help="seeded fault-injection end-to-end: crash/sever/tamper "
             "serving + SIGTERM/resume bitwise MD",
    )
    chaos.add_argument("--seed", type=int, default=0)
    lint = sub.add_parser(
        "lint", help="concurrency/invariant linter (rules L101-L111)"
    )
    lint.add_argument("paths", nargs="*",
                      help="files/directories to lint (default: the "
                           "installed repro package)")
    lint.add_argument("--json", action="store_true", help="JSON report")
    lint.add_argument("--strict", action="store_true",
                      help="exit nonzero when any finding remains")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule table and exit")
    checkp = sub.add_parser(
        "check-plans",
        help="statically verify every zoo model's compiled plans "
             "(rules P101-P108)",
    )
    checkp.add_argument("--json", action="store_true", help="JSON report")
    checkp.add_argument(
        "--report", metavar="FILE", default=None,
        help="also write per-plan compiler metrics (records run and "
             "pruned, blocks per evaluation, colored-vs-FIFO arena bytes) "
             "as JSON to FILE",
    )
    planrep = sub.add_parser(
        "plan-report",
        help="per-plan compiler metrics across the zoo matrix (records run "
             "and pruned, blocks per evaluation, arena bytes before/after "
             "coloring)",
    )
    planrep.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the JSON report to FILE (and print a summary table) "
             "instead of dumping JSON to stdout",
    )
    args = parser.parse_args(argv)
    return {
        "info": cmd_info,
        "scaling": cmd_scaling,
        "serve": cmd_serve,
        "md": cmd_md,
        "resume": cmd_resume,
        "chaos-smoke": cmd_chaos_smoke,
        "lint": cmd_lint,
        "check-plans": cmd_check_plans,
        "plan-report": cmd_plan_report,
    }[args.command](args)


if __name__ == "__main__":
    sys.exit(main())

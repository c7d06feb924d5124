"""Printing one result file, and ``--compare A.json B.json``.

A is the base of every ratio.  A verdict follows the rule in the
choosing-metrics guide: B's median worse (better) than A's by more than the
metric's bound is ``worse`` (``better``), otherwise ``same``; but where the
passes of either file spread (max - min) wider than the bound the pair is
``unresolved``, unless the medians differ by more than the bound and every
pass of one file beats every pass of the other.
"""

from __future__ import annotations

import json

from bench import spec

# Keys that must match for two files to be comparable at all.
COMPARABLE = ("nproc", "cpu_model", "python", "numpy", "blas", "thread_env", "repro_env")


def print_results(document: dict) -> None:
    workloads = document["workloads"]
    host = document["host"]
    print(f"\nhost: {host['nproc']} x {host['cpu_model']}, python {host['python']}, "
          f"numpy {host['numpy']} ({host['blas']}), commit {host['git_commit'][:12]}, "
          f"seed {document['seed']}, {document['passes']} passes, load "
          f"{document['loadavg_before'][0]:.2f} -> {document['loadavg_after'][0]:.2f}")
    print(f"\n== end to end: median of {document['passes']} passes [each pass] ==")
    for name, block in workloads.items():
        for metric, m in block["end_to_end"].items():
            each = " ".join(f"{v:.4g}" for v in m["passes"])
            print(f"{name:<22} {metric:<18} {m['value']:>10.4g} {m['unit']:<13} [{each}]")
        extras = {"fail_share": block["fail_share"], **block["derived"]}
        print(f"{name:<22} derived: "
              + ", ".join(f"{k}={v:.4g}" for k, v in extras.items())
              + f"  (n={block['samples_per_pass']} latency samples per pass)")
    if all("per_layer" in block for block in workloads.values()):
        print("\n== per layer: the traced pass (ms are self time per operation) ==")
        units = spec.per_layer()
        print(f"{'metric':<38}" + "".join(f"{name[:15]:>16}" for name in workloads))
        for metric, meta in units.items():
            row = [block["per_layer"][metric] for block in workloads.values()]
            if any(row):
                print(f"{metric + ' [' + meta['unit'] + ']':<38}"
                      + "".join(f"{v:>16.4g}" for v in row))
        print(f"{'trace_overhead (traced/timed p50 - 1)':<38}"
              + "".join(f"{block['trace_overhead']:>16.3f}" for block in workloads.values()))
    print("\n== output checks ==")
    for name, block in workloads.items():
        for check, (ok, details) in block["checks"].items():
            print(f"{'ok  ' if ok else 'FAIL'} {name:<22} {check}: {details[-1]}")


def verdict(a: list[float], b: list[float], med_a: float, med_b: float,
            better: str, bound: float) -> tuple[str, float]:
    """-> (verdict, B's worsening as a share of A's median; negative = gain)"""
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (med_b - med_a) / med_a
    a, b = [sign * v for v in a], [sign * v for v in b]  # smaller is better
    spread = max((max(v) - min(v)) / abs(m) for v, m in ((a, med_a), (b, med_b)))
    disjoint = max(b) < min(a) or min(b) > max(a)
    if spread > bound and not (disjoint and abs(worsening) > bound):
        return "unresolved", worsening
    if worsening > bound:
        return "worse", worsening
    if worsening < -bound:
        return "better", worsening
    return "same", worsening


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        doc_a, doc_b = json.load(fa), json.load(fb)
    for key in COMPARABLE:
        if doc_a["host"].get(key) != doc_b["host"].get(key):
            print(f"WARNING not comparable: host {key} differs: "
                  f"{doc_a['host'].get(key)!r} vs {doc_b['host'].get(key)!r}")
    for key in ("seed", "passes", "run_seconds", "quick"):
        if doc_a.get(key) != doc_b.get(key):
            print(f"WARNING {key} differs: {doc_a.get(key)!r} vs {doc_b.get(key)!r}")
    for label, doc in (("A", doc_a), ("B", doc_b)):
        print(f"{label} = {doc['label']} @ {doc['host']['git_commit'][:12]}, load "
              f"{doc['loadavg_before'][0]:.2f} -> {doc['loadavg_after'][0]:.2f}")

    metrics = spec.end_to_end()
    shared = [w for w in doc_a["workloads"] if w in doc_b["workloads"]]
    worse = 0
    print(f"\n{'workload':<22} {'metric':<18} {'A median':>10} {'B median':>10} "
          f"{'B/A':>7} {'bound':>6}  verdict     passes A | B")
    for name in shared:
        for metric, meta in metrics.items():
            a = doc_a["workloads"][name]["end_to_end"][metric]
            b = doc_b["workloads"][name]["end_to_end"][metric]
            word, _ = verdict(a["passes"], b["passes"], a["value"], b["value"],
                              meta["better"], meta["bound"])
            worse += word == "worse"
            each = lambda m: " ".join(f"{v:.4g}" for v in m["passes"])
            print(f"{name:<22} {metric:<18} {a['value']:>10.4g} {b['value']:>10.4g} "
                  f"{b['value'] / a['value']:>7.3f} {meta['bound']:>6.2f}  {word:<11} "
                  f"{each(a)} | {each(b)}")
        fa, fb = (d["workloads"][name]["fail_share"] for d in (doc_a, doc_b))
        word = "worse" if fb > fa else "same"
        worse += word == "worse"
        print(f"{name:<22} {'fail_share':<18} {fa:>10.4g} {fb:>10.4g} {'':>7} "
              f"{0:>6.2f}  {word}")

    print(f"\n{'per-layer metric':<38} {'workload':<22} {'A':>12} {'B':>12} {'B/A - 1':>9}")
    for name in shared:
        la = doc_a["workloads"][name].get("per_layer", {})
        lb = doc_b["workloads"][name].get("per_layer", {})
        for metric in spec.per_layer():
            va, vb = la.get(metric, 0.0), lb.get(metric, 0.0)
            if va or vb:
                change = f"{vb / va - 1.0:>+9.3f}" if va else f"{'new':>9}"
                print(f"{metric:<38} {name:<22} {va:>12.5g} {vb:>12.5g} {change}")
    print(f"\n{worse} worse")
    return 1 if worse else 0

"""The repo's benchmark: time-to-solution, operation latency, memory and
set-up time on six named workloads, plus a traced per-layer run.

Run ``python3 -m bench`` from the repo root; ``bench/README.md`` has the
metric and workload tables.  Nothing here is imported by ``src/repro`` —
layers are measured from outside, by wrappers ``bench.trace`` installs
for the traced run only.
"""

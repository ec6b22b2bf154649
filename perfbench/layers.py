"""Per-layer metrics from the span trees that tracer.py writes.

The layers are the package's modules. A node's self time is its
duration minus the durations of its child nodes; a layer's self time is
the sum over its nodes. Per job, times and counts add up over nodes and
RSS rises take the maximum; over a job list they do the same across
jobs, after each job's value has been reduced to its median over the
job's traced runs.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median

LAYERS = ("cli", "wheel", "diophantine", "enumeration", "oracle", "theorems")
BUILDS = ("build_canonical", "build_raw", "canonicalize")
SCANS = ("coprime_scan", "rough_sieve")
FACTORS = ("omega", "spf", "factor_profile")

# Every per-layer metric, in report order, with its unit.
PER_LAYER = (
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("cli.bytes_out", "bytes"),
    ("cli.lines_out", "count"),
    ("wheel.basis_s", "s"),
    ("wheel.build_s", "s"),
    ("wheel.decompose_s", "s"),
    ("wheel.decompose_calls", "count"),
    ("diophantine.solve_s", "s"),
    ("diophantine.solve_calls", "count"),
    ("enumeration.table_build_s", "s"),
    ("enumeration.cache_hits", "count"),
    ("enumeration.cache_misses", "count"),
    ("enumeration.table_entries", "count"),
    ("enumeration.table_bytes", "bytes"),
    ("enumeration.rss_rise_mb", "MB"),
    ("enumeration.table_use_ratio", "ratio"),
    ("enumeration.stream_s", "s"),
    ("enumeration.values", "count"),
    ("enumeration.count_s", "s"),
    ("oracle.scan_s", "s"),
    ("oracle.scan_width", "count"),
    ("oracle.sieve_s", "s"),
    ("oracle.sieve_width", "count"),
    ("oracle.factor_s", "s"),
    ("oracle.factor_calls", "count"),
    ("oracle.rss_rise_mb", "MB"),
    ("theorems.identity25_rows", "count"),
    ("theorems.budget_refusal_s", "s"),
    ("theorems.rss_rise_mb", "MB"),
    ("trace.unspanned_s", "s"),
    ("trace.overhead_frac", "fraction"),
)


def job_metrics(trace: dict, wall_s: float, stdout: bytes) -> dict[str, float]:
    """Per-layer figures of one traced job (everything but the two ratios)."""
    nodes = trace["nodes"]
    children = defaultdict(float)
    for node in nodes:
        if node["parent"] >= 0:
            children[node["parent"]] += node["dur"]
    m: dict[str, float] = defaultdict(float)
    for node in nodes:
        layer, fn, counts = node["layer"], node["name"].rsplit(".", 1)[-1], node["counts"]
        dur, calls = node["dur"], node["calls"]
        self_s = dur - children[node["id"]]
        m[f"{layer}.self_s"] += self_s
        rss = f"{layer}.rss_rise_mb"
        m[rss] = max(m[rss], node["rss_rise_mb"])
        if layer == "wheel":
            if fn == "first":
                m["wheel.basis_s"] += dur
            elif fn in BUILDS:
                m["wheel.build_s"] += dur
            elif fn == "decompose":
                m["wheel.decompose_s"] += dur
                m["wheel.decompose_calls"] += calls
        elif layer == "diophantine":
            m["diophantine.solve_s"] += dur
            m["diophantine.solve_calls"] += calls
        elif layer == "enumeration":
            if fn == "table_build":
                m["enumeration.table_build_s"] += dur
                m["enumeration.table_entries"] += counts.get("entries", 0)
                m["enumeration.table_bytes"] += counts.get("bytes", 0)
            elif fn == "enumerate_interval":
                m["enumeration.stream_s"] += self_s
                m["enumeration.values"] += counts.get("values", 0)
            elif fn in ("count_interval", "count_block"):
                m["enumeration.count_s"] += self_s
        elif layer == "oracle":
            if fn in SCANS:
                m["oracle.scan_s"] += dur
                m["oracle.scan_width"] += counts.get("width", 0)
            elif fn == "primes_in":
                m["oracle.sieve_s"] += dur
                m["oracle.sieve_width"] += counts.get("width", 0)
            elif fn in FACTORS:
                m["oracle.factor_s"] += dur
                m["oracle.factor_calls"] += calls
        elif layer == "theorems":
            m["theorems.identity25_rows"] += counts.get("rows", 0)
            m["theorems.budget_refusal_s"] += node["budget_s"]
    m["enumeration.cache_hits"] = trace["cache"]["hits"]
    m["enumeration.cache_misses"] = trace["cache"]["misses"]
    m["cli.bytes_out"] = len(stdout)
    m["cli.lines_out"] = stdout.count(b"\n")
    main = sum(node["dur"] for node in nodes if node["name"] == "cli.main")
    m["trace.unspanned_s"] = wall_s - main
    return m


def combine(per_job: list[list[dict]], overhead_frac: float) -> dict[str, float]:
    """Job-list totals from each job's traced runs (a list of job_metrics
    dicts per job)."""
    out = {name: 0.0 for name, _ in PER_LAYER}
    for runs in per_job:
        for name in out:
            value = median(run.get(name, 0.0) for run in runs)
            peak = name.endswith("rss_rise_mb")
            out[name] = max(out[name], value) if peak else out[name] + value
    entries = out["enumeration.table_entries"]
    out["enumeration.table_use_ratio"] = out["enumeration.values"] / entries if entries else 0.0
    out["trace.overhead_frac"] = overhead_frac
    return out

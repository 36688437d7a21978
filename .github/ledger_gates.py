#!/usr/bin/env python3
"""Checks one ledger run against the repository's performance gates.

    cargo run --release --quiet --manifest-path crates/juno-bench/src/bin/ledger/Cargo.toml \\
        -- --all --seconds 3 > target/ledger_smoke.jsonl
    python3 .github/ledger_gates.py target/ledger_smoke.jsonl

The input is the ledger's stdout: one full JSON report per workload, each
followed by its result line. Every row of GATES names a workload ("*" for all
four), a quantity, a comparison with a bound, and why the bound sits where it
does. A quantity is a metric of the report, a ratio "a / b" of two metrics of
the same workload, or a dotted field of the report (`provenance.kernel`).
Prints one line per checked row; exits 1 naming every violated row.

The observed ranges in the `why` texts are min–max over three
`--all --seconds 3` runs, seed 1, on the reference host (2 vCPUs, AVX2).
Every timing bound sits at least 2x from the worst of them.
"""

import json
import operator
import sys

ONLINE = "online-s4-small"
FAT = "batch-mono-fatlists"
MIXED = "mixed-rw-wal-s4"
MAPPED = "batch-mapped-budget25"
WORKLOADS = (ONLINE, FAT, MIXED, MAPPED)

OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">=": operator.ge,
    "==": operator.eq,
    "in": lambda value, bound: value in bound,
}

# (workload, quantity, (comparison, bound), why)
GATES = [
    ("*", "correct", ("==", True),
     "every output oracle ran and passed (bit-for-bit replies, recall floor, "
     "fleet = monolith, batch = sequential, mapped = RAM, recovery); "
     "true in 12 of 12 reports"),
    ("*", "failed", ("==", 0),
     "no error, Overloaded, lost shard or oracle mismatch in any operation; "
     "0 in 12 of 12 reports"),
    (FAT, "provenance.kernel", ("in", ("avx2", "avx512vbmi")),
     "the fast-scan kernel dispatches to a SIMD arm: AVX2, or the vpermi2b "
     "arm where the CPU also reports AVX-512 VBMI/VL/BW; never the scalar "
     "arm on an AVX2 host. avx2 in 3 of 3 before the VBMI arm; avx512vbmi "
     "in 6 of 6 after it, on a host that reports VBMI"),
    (FAT, "engine.pruned_ratio", (">=", 0.98),
     "read 0.9980 in all three (deterministic) since the seed visit scores "
     "its list in quantised-bound order; 0.9928 while it streamed the list "
     "in storage order; 0.888 when the nearest probed list is scanned "
     "exactly instead of through the quantised kernel"),
    (FAT, "engine.build_s", ("<", 11),
     "read 4.43-5.24; 12-20 when the offline half falls back to one "
     "bounds-checked scalar distance at a time"),
    (FAT, "layout.scan_ns_per_candidate", ("<", 20),
     "read 2.41-3.43; the f32 ADC scan the block kernel replaced cost ~270"),
    (FAT, "engine.batch_speedup", (">=", 1.2),
     "read 1.59-2.01 with 2 engine threads (a ratio, not a timing); ~1 "
     "when the batch pipeline stops running in parallel. Skipped below the "
     "reference core count"),
    (ONLINE, "shard.fanout_cost_ratio", ("<", 2.0),
     "FleetReader::search scans every shard's segments as one index on "
     "the calling thread (the fused scan): one selector, each probe "
     "expanded once, the monolith's prune decisions, so the numerator is "
     "about the monolith's search plus a plan and a gather. Read "
     "1.05-1.69 in six seed-1 traced --seconds 3 runs of the workload "
     "(1.61, 1.69, 1.05, 1.49, 1.08, 1.23); 1.49-3.26 while each shard "
     "filled its own top-k below the prune gate and re-expanded every "
     "probe (2.7x the monolith's accumulations). The two ranges overlap "
     "on this host's noise, so the bound sits above the fused readings "
     "and below most of the per-shard ones"),
    (ONLINE, "engine.search_us", ("<", 406),
     "read 193.7-202.6 with the front half as one selective-table kernel "
     "pass per probe (2x the worst is 405.2), and 133.2-209.9 in seven "
     "later runs once expand writes each probe's table; 348.3-496.5 in the "
     "same session when the search traced its rays through the ray tables "
     "and decoded the CSR LUT per probe"),
    (ONLINE, "open_lat_p99_ms", ("<", 250),
     "read 1.4-10.4 at 120 req/s; the server's deadline budget (batch "
     "search budget + batcher delay) is 251"),
    (ONLINE, "server.overhead_us", ("<", 700),
     "read 6-95 in six --all --seconds 3 runs (-163 to -24 while the "
     "subtrahend scattered per shard); a lone request held for the "
     "1000 us batch timer reads above it. Server::query runs "
     "search_batch_deadline, whose fused scan runs on a scan worker, and "
     "the subtrahend is FleetReader::search, the same fused scan on the "
     "calling thread: this bounds the batcher's, the worker hand-off's "
     "and the deadline bookkeeping's cost over a direct search"),
    (MIXED, "write_p50_ms", ("<", 1.0),
     "read 0.116-0.130; 2-4 when every write deep-clones all four shards"),
    (MIXED, "wal.append_us / shard.insert_nowal_us", ("<=", 0.1),
     "read 0.010-0.013; an OsBuffered append is an encode, a checksum and "
     "a buffered write, a tenth of a fleet insert at most"),
    (MAPPED, "mapped.copy_restore_ms / mapped.restore_ms", (">=", 10),
     "read 28.9-45.0; a mapped restore validates the container and maps "
     "sections lazily, the copy decodes every cluster up front"),
    (MAPPED, "residency.cold_faults_per_query", ("<=", 8),
     "read 7.14 in all three (deterministic per seed); a query faults at "
     "most its nprobs = 8 lists in"),
]

# Rows that only mean something with at least the reference host's cores.
NEEDS_REFERENCE_CORES = {"engine.batch_speedup"}


def load(path):
    """The full report of every workload in a ledger run, by name."""
    reports = {}
    with open(path) as f:
        for line in f:
            if line.startswith("{"):
                report = json.loads(line)
                if "workload" in report:
                    reports[report["workload"]] = report
    return reports


def quantity(report, name):
    if " / " in name:
        num, den = (quantity(report, part) for part in name.split(" / "))
        return num / den
    metrics = {**report["end_to_end"], **report["per_layer"]}
    if name in metrics:
        return metrics[name]["value"]
    value = report
    for key in name.split("."):
        value = value[key]
    return value


def check(reports):
    """Prints every row's reading; returns the violated rows."""
    violations = []
    for workload, name, (op, bound), why in GATES:
        for w in WORKLOADS if workload == "*" else (workload,):
            row = f"{w}: {name} {op} {bound}"
            report = reports.get(w)
            if report is None:
                violations.append(f"{row} -- workload missing from the run")
                continue
            if name in NEEDS_REFERENCE_CORES and report["provenance"]["host_below_reference"]:
                print(f"skip  {row} (host below the reference core count)")
                continue
            try:
                value = quantity(report, name)
            except (KeyError, ZeroDivisionError) as err:
                violations.append(f"{row} -- not reported ({err!r})")
                continue
            ok = OPS[op](value, bound)
            shown = f"{value:.4g}" if isinstance(value, float) else repr(value)
            print(f"{'ok' if ok else 'FAIL':4}  {row} (read {shown})")
            if not ok:
                violations.append(f"{row} -- read {shown}; {why}")
    return violations


def main(argv):
    if len(argv) != 2:
        print(f"usage: {argv[0]} <ledger output .jsonl>", file=sys.stderr)
        return 2
    violations = check(load(argv[1]))
    for violation in violations:
        print(f"gate violated: {violation}", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

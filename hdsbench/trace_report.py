"""Per-layer analysis of one hds_trace_driver Chrome trace.

hds_trace_driver writes one span per public call, nested under a root span
"cmd.<command>" per hds_tool command; spans that call into the store carry
the deltas of the metrics() registry, every span the /proc/self/io
rchar/wchar deltas. This module turns a trace into the benchmark's
per-layer metrics, a self-time table per layer and the span coverage of
each command's wall time.
"""

import json

MIB = float(1 << 20)

# Per-layer metrics, in BENCHMARK.json order: name -> unit.
LAYER_METRICS = {
    "chunking.tttd_ms": "ms",
    "common.sha1_ms": "ms",
    "chunking.chunk_hash_MBps": "MB/s",
    "chunking.parallel_ms": "ms",
    "core.open_ms": "ms",
    "core.open_read_bytes": "bytes",
    "core.save_ms": "ms",
    "core.save_write_bytes": "bytes",
    "core.save_write_per_stored_byte": "ratio",
    "core.backup_ms": "ms",
    "core.dedup_hit_ratio": "ratio",
    "core.cold_bytes_moved": "bytes",
    "core.containers_merged": "count",
    "core.restore_self_ms": "ms",
    "core.restore_range_ms": "ms",
    "core.expire_ms": "ms",
    "core.containers_erased": "count",
    "core.expire_chunks_scanned": "count",
    "storage.container_writes": "count",
    "storage.bytes_written": "bytes",
    "storage.container_reads": "count",
    "storage.bytes_read_physical": "bytes",
    "storage.partial_reads": "count",
    "storage.block_cache_hit_ratio": "ratio",
    "storage.crc_failures": "count",
    "storage.read_errors": "count",
    "restore.speed_factor": "MB/read",
    "restore.chain_hops": "count",
    "restore.cache_hit_ratio": "ratio",
    "restore.prefetch_wasted_ratio": "ratio",
    "backup.catalog_ms": "ms",
    "harness.source_read_ms": "ms",
    "harness.sink_write_ms": "ms",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

SINK = "harness.sink_write"


def load(path):
    """Returns the trace's spans as dicts: id, parent, name, ms, version,
    rchar, wchar, counters, args."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = []
    for e in events:
        args = e["args"]
        spans.append({
            "id": args["id"],
            "parent": args["parent"],
            "name": e["name"],
            "ms": e["dur"] / 1000.0,
            "version": args["version"],
            "rchar": args["rchar"],
            "wchar": args["wchar"],
            "counters": args.get("counters", {}),
            "args": args,
        })
    return spans


def _child_ms(spans):
    """{span id: summed duration of its direct children}."""
    child_ms = {}
    for s in spans:
        if s["parent"] >= 0:
            child_ms[s["parent"]] = child_ms.get(s["parent"], 0.0) + s["ms"]
    return child_ms


def self_times(spans):
    """Per-layer {name: [calls, total ms, self ms]}; a span's self time is
    its duration minus its direct children's and, for restores, minus the
    sink's time, which is its own row."""
    child_ms = _child_ms(spans)
    table = {}
    for s in spans:
        sink = s["args"].get("sink_ms", 0.0)
        row = table.setdefault(s["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s["ms"]
        row[2] += s["ms"] - child_ms.get(s["id"], 0.0) - sink
        if sink:
            sink_row = table.setdefault(SINK, [0, 0.0, 0.0])
            sink_row[0] += 1
            sink_row[1] += sink
            sink_row[2] += sink
    return table


def coverage(spans):
    """[(command, wall ms, covered share)] for every root span."""
    child_ms = _child_ms(spans)
    return [(s["name"], s["ms"], child_ms.get(s["id"], 0.0) / s["ms"])
            for s in spans if s["parent"] < 0 and s["ms"] > 0]


def command_wall_s(spans):
    """Summed wall time of every command (root span), in seconds."""
    return sum(s["ms"] for s in spans if s["parent"] < 0) / 1000.0


def format_table(table, cover):
    lines = ["%-24s %7s %12s %12s" % ("layer", "calls", "total_ms",
                                       "self_ms")]
    for name in sorted(table, key=lambda n: -table[n][2]):
        calls, total, own = table[name]
        lines.append("%-24s %7d %12.3f %12.3f" % (name, calls, total, own))
    worst = min(cover, key=lambda c: c[2])
    lines.append("span coverage: min %.4f (%s, %.3f ms wall) over %d commands"
                 % (worst[2], worst[0], worst[1], len(cover)))
    return "\n".join(lines)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Returns ({metric: value}, {metric: base}) for one traced cycle;
    every ratio's base names its numerator and denominator.
    trace.overhead needs the untraced wall and is filled in by the caller."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def ms(name):
        return sum(s["ms"] for s in by_name.get(name, []))

    def counter(key, names=None):
        return sum(s["counters"].get(key, 0) for s in spans
                   if names is None or s["name"] in names)

    def arg(name, key):
        return sum(s["args"].get(key, 0.0) for s in by_name.get(name, []))

    chunk_bytes = (arg("chunking.tttd", "bytes")
                   + arg("chunking.parallel", "bytes"))
    chunk_ms = ms("chunking.tttd") + ms("common.sha1") + ms("chunking.parallel")
    save_write = sum(s["wchar"] for s in by_name.get("core.save", []))
    stored = counter("stored_bytes", {"core.backup"})
    chunks = counter("chunks_processed", {"core.backup"})
    hits = sum(counter(k, {"core.backup"})
               for k in ("t0_hits", "t1_hits", "t2_hits"))
    block_hits = counter("io_block_cache_hits")
    block_misses = counter("io_block_cache_misses")
    restored = counter("restored_bytes")
    restore_reads = counter("restore_container_reads")
    cache_hits = counter("restore_cache_hits")
    issued = counter("restore_prefetch_issued")
    wasted = counter("restore_prefetch_wasted")
    sink = arg("core.restore", "sink_ms") + arg("core.restore_range",
                                                "sink_ms")
    cover = coverage(spans)

    values = {
        "chunking.tttd_ms": ms("chunking.tttd"),
        "common.sha1_ms": ms("common.sha1"),
        "chunking.chunk_hash_MBps": _ratio(chunk_bytes / MIB,
                                           chunk_ms / 1000.0),
        "chunking.parallel_ms": ms("chunking.parallel"),
        "core.open_ms": ms("core.open"),
        "core.open_read_bytes": sum(s["rchar"]
                                    for s in by_name.get("core.open", [])),
        "core.save_ms": ms("core.save"),
        "core.save_write_bytes": save_write,
        "core.save_write_per_stored_byte": _ratio(save_write, stored),
        "core.backup_ms": ms("core.backup"),
        "core.dedup_hit_ratio": _ratio(hits, chunks),
        "core.cold_bytes_moved": counter("cold_bytes_moved"),
        "core.containers_merged": counter("containers_merged"),
        "core.restore_self_ms": (ms("core.restore")
                                 - arg("core.restore", "sink_ms")),
        "core.restore_range_ms": ms("core.restore_range"),
        "core.expire_ms": ms("core.expire"),
        "core.containers_erased": counter("containers_erased"),
        "core.expire_chunks_scanned": counter("delete_chunks_scanned"),
        "storage.container_writes": counter("store_container_writes"),
        "storage.bytes_written": counter("store_bytes_written"),
        "storage.container_reads": counter("store_container_reads"),
        "storage.bytes_read_physical": counter("store_bytes_read_physical"),
        "storage.partial_reads": counter("io_partial_reads"),
        "storage.block_cache_hit_ratio": _ratio(block_hits,
                                                block_hits + block_misses),
        "storage.crc_failures": counter("io_crc_failures"),
        "storage.read_errors": counter("io_read_errors"),
        "restore.speed_factor": _ratio(restored / MIB, restore_reads),
        "restore.chain_hops": counter("restore_chain_hops"),
        "restore.cache_hit_ratio": _ratio(cache_hits,
                                          cache_hits + restore_reads),
        "restore.prefetch_wasted_ratio": _ratio(wasted, issued),
        "backup.catalog_ms": ms("backup.catalog"),
        "harness.source_read_ms": ms("harness.source_read"),
        "harness.sink_write_ms": sink,
        "trace.coverage": min(c[2] for c in cover),
        "trace.overhead": 0.0,
    }
    bases = {
        "chunking.chunk_hash_MBps": {"chunked_bytes": chunk_bytes,
                                     "chunk_and_hash_ms": chunk_ms},
        "core.save_write_per_stored_byte": {"save_write_bytes": save_write,
                                            "stored_bytes": stored},
        "core.dedup_hit_ratio": {"t0_t1_t2_hits": hits,
                                 "chunks_processed": chunks},
        "storage.block_cache_hit_ratio": {"hits": block_hits,
                                          "misses": block_misses},
        "restore.speed_factor": {"restored_bytes": restored,
                                 "restore_container_reads": restore_reads},
        "restore.cache_hit_ratio": {"cache_hits": cache_hits,
                                    "container_reads": restore_reads},
        "restore.prefetch_wasted_ratio": {"wasted": wasted,
                                          "issued": issued},
        "trace.coverage": {"commands": len(cover),
                           "worst_command": min(cover,
                                                key=lambda c: c[2])[0]},
    }
    return values, bases

#!/usr/bin/env python3
"""End-to-end hds_tool benchmark with a traced per-layer breakdown.

    python3 hdsbench/run.py --workload serial-nightly --seed 1 \\
        --seconds 45 --trace 0

Run from the repository root. The first run builds hds_tool and
hds_trace_driver in Release from the checkout's sources (into
$CARGO_TARGET_DIR, default .bench_build). Every run then:

1. runs cycles until --seconds have passed; each cycle sets up its own
   inputs, derived from --seed (setup_s is the median set-up time), then
   runs real hds_tool commands, one child process at a time (one client,
   closed loop): init and backups; three times a restore of the newest
   version, restore-file and `restore all`; expire of the oldest half;
   list;
2. checks every cycle, untimed: restores and restore-file outputs are
   byte-compared with the generated inputs and the repository must pass
   `hds_tool fsck`.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
cycles with cycles replayed by hds_trace_driver, which wraps every public
call hds_tool makes in a span, and reports the per-layer metrics; the
self-time table is printed above the result.

The last stdout line is one JSON object {"correct", "attempted",
"failed", "metrics"}. Details (samples, ratio bases, build type, nproc,
input sizes) go to .bench_work/results/.
"""

import argparse
import fcntl
import filecmp
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

import inputs
import trace_report

HERE = os.path.dirname(os.path.abspath(__file__))
MIB = float(1 << 20)
BLOCK_CACHE_BYTES = 32 << 20  # hds_tool's default --block-cache-mb
# Read-only commands are short; repeating them in every cycle steadies
# their medians.
RESTORE_REPEATS = 3
LIST_REPEATS = 3
OPTIMISED_BUILDS = ("Release", "RelWithDebInfo", "MinSizeRel")

# shape: "chain" (one evolving file) or "tree" (hot/cold directory).
WORKLOADS = {
    "serial-nightly": dict(
        shape="chain", size=16 * inputs.MIB, versions=6, fraction=0.03,
        flags=[]),
    "sharded-tree": dict(
        shape="tree", files=128, file_size=128 * inputs.KIB, versions=6,
        hot=0.15, fraction=0.10, flags=["--shards=4", "--threads=4"]),
}

# --tiny: the same workloads on inputs small enough for a test.
TINY = {
    "serial-nightly": dict(size=256 * inputs.KIB, versions=3),
    "sharded-tree": dict(files=16, file_size=16 * inputs.KIB, versions=3),
}

END_TO_END = {
    "setup_s": "s",
    "full_backup_MBps": "MB/s",
    "backup_MBps": "MB/s",
    "restore_latest_MBps": "MB/s",
    "restore_all_MBps": "MB/s",
    "restore_file_ms": "ms",
    "expire_s": "s",
    "list_s": "s",
    "speed_factor_MB_per_read": "MB/read",
    "peak_rss_MB": "MB",
    "list_rss_MB": "MB",
    "repo_bytes_per_logical": "ratio",
}

RESTORED = re.compile(r"restored v(\d+): [\d.]+ \w+, (\d+) container reads")
FAILED_CHUNKS = re.compile(r"(\d+) failed chunks")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                           or ".bench_build")


def cache_build_type(bdir):
    """CMAKE_BUILD_TYPE recorded in bdir's CMakeCache.txt ('' if unset)."""
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return ""


def check_build_type(build_type):
    if build_type not in OPTIMISED_BUILDS:
        raise BenchError("refusing to measure an unoptimised build "
                         "(CMAKE_BUILD_TYPE=%r)" % build_type)


def build(bdir):
    """Configures (once) and builds both programs; returns their paths."""
    os.makedirs(bdir, exist_ok=True)
    logfile = os.path.join(bdir, "hdsbench-build.log")
    with open(os.path.join(bdir, ".hdsbench.lock"), "w") as lock, \
            open(logfile, "a") as out:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "-j", str(os.cpu_count()),
                      "--target", "hds_tool", "hds_trace_driver"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
                raise BenchError("build failed: %s (log: %s)"
                                 % (" ".join(cmd), logfile))
    check_build_type(cache_build_type(bdir))
    return (os.path.join(bdir, "hds", "examples", "hds_tool"),
            os.path.join(bdir, "hds_trace_driver"))


# ---------------------------------------------------------------- inputs

class Inputs:
    """One cycle's generated versions (see inputs.py) under <work>/gen/<v>/.
    Version v is backed up by renaming its directory to <work>/src for the
    duration of the backup, so every version has the same source path."""

    def __init__(self, work, spec, seed):
        self.work = work
        self.spec = spec
        spec_path = os.path.join(work, "spec.json")
        with open(spec_path, "w") as f:
            json.dump(spec, f)
        proc = subprocess.run([sys.executable,
                               os.path.join(HERE, "inputs.py"), work,
                               spec_path, str(seed)])
        if proc.returncode != 0:
            raise BenchError("input generation failed")
        with open(os.path.join(work, "manifest.json")) as f:
            manifest = json.load(f)
        self.versions = {int(v): m for v, m in manifest["versions"].items()}
        self.hot = manifest["hot"]
        self.chain = spec["shape"] == "chain"
        self.source = "src/data.bin" if self.chain else "src"
        self.fingerprints = None  # {version: set of 12-hex prefixes}

    def size(self, v):
        return self.versions[v]["bytes"]

    def expect(self, v):
        return self.versions[v]["expect"]

    def place(self, v):
        os.rename(os.path.join(self.work, "gen", str(v)),
                  os.path.join(self.work, "src"))

    def unplace(self, v):
        os.rename(os.path.join(self.work, "src"),
                  os.path.join(self.work, "gen", str(v)))

    def file_targets(self, v):
        """restore-file targets as (catalog path, expected file): the one
        file, or one hot and one cold file of the tree."""
        if self.chain:
            return [("src/data.bin", self.expect(v))]
        cold = next(n for n in self.versions[v]["files"]
                    if n not in self.hot)
        return [(n, "gen/%d/%s" % (v, n)) for n in (self.hot[0], cold)]

    def resurrected(self, driver, prefix):
        """True when the chunk with this fingerprint prefix leaves the
        inputs at some version and comes back in a later one."""
        if self.fingerprints is None:
            self.fingerprints = chunk_fingerprints(self, driver)
        present = [prefix in self.fingerprints[v]
                   for v in sorted(self.fingerprints)]
        first = present.index(True) if True in present else len(present)
        gone = present.index(False, first) if False in present[first:] \
            else len(present)
        return True in present[gone:]

    def sizes(self):
        total = sum(self.size(v) for v in self.versions)
        newest = self.size(max(self.versions))
        mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        return {
            "version_bytes": newest,
            "all_versions_bytes": total,
            "version_per_block_cache": newest / BLOCK_CACHE_BYTES,
            "all_versions_per_block_cache": total / BLOCK_CACHE_BYTES,
            "all_versions_per_ram": total / mem,
            "ram_bytes": mem,
        }


def chunk_fingerprints(inp, driver):
    """Chunk fingerprint prefixes of every version, cut exactly as a backup
    of <work>/src cuts them (hds_trace_driver's `fingerprints`)."""
    out = {}
    path = os.path.join(inp.work, "fingerprints.trace.json")
    ex = Traced(driver, inp.work, path)
    try:
        for v in sorted(inp.versions):
            inp.place(v)
            try:
                rc, text, _, _ = ex.run(["fingerprints", inp.source])
            finally:
                inp.unplace(v)
            if rc != 0:
                raise BenchError("fingerprints failed: " + text[-300:])
            out[v] = {line[:12] for line in text.split()}
    finally:
        ex.close()
    return out


# ------------------------------------------------------------- executors

class Untraced:
    """Runs each command as an hds_tool child process; wall time and
    ru_maxrss come from wait4."""

    def __init__(self, tool, work):
        self.tool = tool
        self.work = work

    def run(self, args):
        start = time.perf_counter()
        proc = subprocess.Popen([self.tool] + args, cwd=self.work,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT)
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        return proc.returncode, out.decode(errors="replace"), wall, \
            usage.ru_maxrss / 1024.0


class Traced:
    """Feeds each command to one hds_trace_driver process; spans land in
    `trace_path` when it exits."""

    def __init__(self, driver, work, trace_path):
        self.trace_path = trace_path
        self.proc = subprocess.Popen([driver, trace_path], cwd=work,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, args):
        self.proc.stdin.write("\t".join(args) + "\n")
        self.proc.stdin.flush()
        lines = []
        for line in self.proc.stdout:
            if line.startswith("@@done "):
                return int(line.split()[1]), "".join(lines), 0.0, 0.0
            lines.append(line)
        raise BenchError("hds_trace_driver exited mid-command")

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        if self.proc.wait() != 0:
            raise BenchError("hds_trace_driver failed")


# ----------------------------------------------------------------- cycle

class Cycle:
    """One pass over the workload's commands against a fresh repository."""

    def __init__(self, inp, executor, tool, driver, corrupt=False):
        self.inp = inp
        self.spec = inp.spec
        self.ex = executor
        self.tool = tool
        self.driver = driver
        self.corrupt = corrupt
        self.attempted = 0
        self.failures = []
        self.samples = {}   # kind -> [(logical bytes, wall s, rss MB)]
        self.reads = []     # (restored bytes, container reads)
        self.resurrected = 0
        self.repo_ratio = 0.0

    def cmd(self, kind, args, logical=0):
        rc, out, wall, rss = self.ex.run(args + self.spec["flags"])
        self.attempted += 1
        self.samples.setdefault(kind, []).append((logical, wall, rss))
        failed = FAILED_CHUNKS.findall(out)
        if rc != 0 or any(int(n) for n in failed):
            self.fail("%s exited %d: %s" % (" ".join(args), rc,
                                            out.strip()[-300:]))
        return out

    def fail(self, why):
        self.failures.append(why)

    def check(self, path, expected):
        """Byte-compares a restore output with the file it must equal."""
        full = os.path.join(self.inp.work, path)
        if self.corrupt and os.path.getsize(full) > 0:
            self.corrupt = False
            with open(full, "r+b") as f:
                byte = f.read(1)
                f.seek(0)
                f.write(bytes([byte[0] ^ 0xFF]))
        try:
            same = filecmp.cmp(full, os.path.join(self.inp.work, expected),
                               shallow=False)
        except OSError:  # no output: the command already failed
            same = False
        if not same:
            self.fail("%s differs from %s" % (path, expected))

    def backup(self, repo, v, kind):
        self.inp.place(v)
        try:
            self.cmd(kind, ["backup", repo, self.inp.source],
                     self.inp.size(v))
        finally:
            self.inp.unplace(v)

    def restores(self, kind, versions, args):
        text = self.cmd(kind, args, sum(self.inp.size(v) for v in versions))
        for version, reads in RESTORED.findall(text):
            self.reads.append((self.inp.size(int(version)), int(reads)))

    def fsck(self, repo):
        """hds_tool fsck must find the repository clean. The one finding
        accepted is DESIGN.md §8's class_exclusivity caveat: a chunk that
        left the inputs and came back later sits in both classes. Each such
        finding is checked against the inputs' own chunk fingerprints."""
        self.attempted += 1
        rc, out, _, _ = Untraced(self.tool, self.inp.work).run(
            ["fsck", repo, "--json"] + self.spec["flags"])
        try:
            report = json.loads(out)
        except ValueError:
            self.fail("fsck exited %d: %s" % (rc, out.strip()[-300:]))
            return
        for check in report["checks"]:
            if check["passed"]:
                continue
            findings = check["findings"]
            explained = [f for f in findings
                         if check["invariant"] == "class_exclusivity"
                         and self.inp.resurrected(
                             self.driver, f["object"].split()[-1])]
            if len(explained) == len(findings) == check["violations"]:
                self.resurrected += len(explained)
            else:
                self.fail("fsck %s: %s" % (check["invariant"],
                                           json.dumps(findings)[:300]))

    def run(self):
        inp, work = self.inp, self.inp.work
        latest = self.spec["versions"]
        # A second full backup, into a side repository, doubles that
        # metric's samples.
        self.cmd("init", ["init", "full"])
        self.backup("full", 1, "full")
        shutil.rmtree(os.path.join(work, "full"))
        self.cmd("init", ["init", "repo"])
        for v in range(1, latest + 1):
            self.backup("repo", v, "full" if v == 1 else "incr")

        for _ in range(RESTORE_REPEATS):
            os.makedirs(os.path.join(work, "out"))
            self.restores("restore_latest", [latest],
                          ["restore", "repo", str(latest), "out/latest"])
            self.check("out/latest", inp.expect(latest))
            for i, (name, expected) in enumerate(inp.file_targets(latest)):
                out = "out/file%d" % i
                self.cmd("restore_file",
                         ["restore-file", "repo", str(latest), name, out],
                         os.path.getsize(os.path.join(work, expected)))
                self.check(out, expected)
            versions = range(1, latest + 1)
            self.restores("restore_all", versions,
                          ["restore", "repo", "all", "out/v"])
            for v in versions:
                self.check("out/v%d" % v, inp.expect(v))
            shutil.rmtree(os.path.join(work, "out"))

        upto = latest // 2
        self.cmd("expire", ["expire", "repo", str(upto)])
        for _ in range(LIST_REPEATS):
            self.cmd("list", ["list", "repo"])

        # Untimed: the fsck gate and the repository's footprint.
        self.fsck("repo")
        retained = sum(inp.size(v) for v in range(upto + 1, latest + 1))
        self.repo_ratio = tree_bytes(os.path.join(work, "repo")) / retained
        shutil.rmtree(os.path.join(work, "repo"))

    def wall(self):
        return sum(s[1] for kind in self.samples for s in self.samples[kind])


def tree_bytes(root):
    total = 0
    for dirpath, _, names in os.walk(root):
        for name in names:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


# --------------------------------------------------------------- metrics

def median(values):
    return statistics.median(values) if values else 0.0


def mbps(samples):
    return [b / MIB / w for b, w, _ in samples if w > 0]


def end_to_end(cycles, setup_times):
    per_cycle = {
        "full_backup_MBps": [],
        "backup_MBps": [],
        "restore_latest_MBps": [],
        "restore_all_MBps": [],
    }
    for c in cycles:
        s = c.samples
        per_cycle["full_backup_MBps"] += mbps(s["full"])
        incr = s["incr"]
        per_cycle["backup_MBps"].append(
            sum(b for b, _, _ in incr) / MIB / sum(w for _, w, _ in incr))
        per_cycle["restore_latest_MBps"] += mbps(s["restore_latest"])
        per_cycle["restore_all_MBps"] += mbps(s["restore_all"])
    peaks = [max(r for kind in c.samples for _, _, r in c.samples[kind])
             for c in cycles]
    restored = sum(b for c in cycles for b, _ in c.reads)
    reads = sum(r for c in cycles for _, r in c.reads)
    walls = lambda kind: [w for c in cycles for _, w, _ in c.samples[kind]]
    values = {
        "setup_s": median(setup_times),
        "full_backup_MBps": median(per_cycle["full_backup_MBps"]),
        "backup_MBps": median(per_cycle["backup_MBps"]),
        "restore_latest_MBps": median(per_cycle["restore_latest_MBps"]),
        "restore_all_MBps": median(per_cycle["restore_all_MBps"]),
        "restore_file_ms": median(walls("restore_file")) * 1000.0,
        "expire_s": median(walls("expire")),
        "list_s": median(walls("list")),
        "speed_factor_MB_per_read": restored / MIB / reads if reads else 0.0,
        # The mean, not the median: a cycle's peak is bimodal across inputs
        # and a median of a few such samples jumps between the modes.
        "peak_rss_MB": statistics.mean(peaks),
        "list_rss_MB": median([r for c in cycles
                               for _, _, r in c.samples["list"]]),
        "repo_bytes_per_logical": median([c.repo_ratio for c in cycles]),
    }
    samples = {k: len(v) for k, v in per_cycle.items()}
    samples.update({k: len(walls(k)) for k in ("restore_file", "expire",
                                               "list")})
    samples["setup"] = len(setup_times)
    bases = {"speed_factor_MB_per_read": {"restored_bytes": restored,
                                          "container_reads": reads}}
    return values, samples, bases


# ------------------------------------------------------------------ main

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs (the benchmark's own tests)")
    p.add_argument("--corrupt-restore", action="store_true",
                   help="flip a byte of the first restore output before it "
                        "is checked (tests the correctness gate)")
    return p.parse_args(argv)


def measure(args, tool, driver, work, results):
    spec = dict(WORKLOADS[args.workload])
    if args.tiny:
        spec.update(TINY[args.workload])
    untraced, traced, setup_times, sizes = [], [], [], []
    corrupt = args.corrupt_restore
    deadline = time.perf_counter() + args.seconds
    while not untraced or time.perf_counter() < deadline:
        # Set-up: every cycle gets its own inputs, derived from the seed,
        # so a run's medians span several inputs instead of one.
        if os.path.exists(work):
            shutil.rmtree(work)
        os.makedirs(work)
        start = time.perf_counter()
        inp = Inputs(work, spec, args.seed * 1000 + len(untraced))
        setup_times.append(time.perf_counter() - start)
        sizes.append(inp.sizes())

        c = Cycle(inp, Untraced(tool, work), tool, driver, corrupt)
        c.run()
        corrupt = False
        untraced.append(c)
        if args.trace:
            trace_path = os.path.join(results, "%s-s%d.trace.json"
                                      % (args.workload, args.seed))
            ex = Traced(driver, work, trace_path)
            t = Cycle(inp, ex, tool, driver)
            try:
                t.run()
            finally:
                ex.close()
            t.spans = trace_report.load(trace_path)
            traced.append(t)

    cycles = untraced + traced
    attempted = sum(c.attempted for c in cycles)
    failures = [f for c in cycles for f in c.failures]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "spec": spec,
        "inputs": sizes,
        "cycles": {"untraced": len(untraced), "traced": len(traced)},
        "attempted": attempted,
        "failed": len(failures),
        "ops_failed": len(failures) / attempted,
        "failures": failures,
        "fsck_resurrected_chunks": sum(c.resurrected for c in cycles),
        "setup_s_samples": setup_times,
    }
    if not args.trace:
        values, samples, bases = end_to_end(untraced, setup_times)
        units = END_TO_END
        detail["samples"] = samples
        detail["bases"] = bases
    else:
        per = [trace_report.layer_metrics(t.spans) for t in traced]
        for (values, _), t, u in zip(per, traced, untraced):
            values["trace.overhead"] = (
                trace_report.command_wall_s(t.spans) / u.wall())
        values = {k: median([p[0][k] for p in per])
                  for k in trace_report.LAYER_METRICS}
        units = trace_report.LAYER_METRICS
        detail["bases"] = per[-1][1]
        detail["bases"]["trace.overhead"] = {
            "traced_wall_s": trace_report.command_wall_s(traced[-1].spans),
            "untraced_wall_s": untraced[-1].wall()}
        table = trace_report.self_times(traced[-1].spans)
        text = trace_report.format_table(
            table, trace_report.coverage(traced[-1].spans))
        print(text)
        detail["self_times"] = table
    return values, units, attempted, failures, detail


def main(argv):
    args = parse_args(argv)
    root = os.getcwd()
    try:
        tool, driver = build(build_dir())
        work = os.path.join(root, ".bench_work", "%s-%d-%d" % (
            args.workload, args.seed, os.getpid()))
        results = os.path.join(root, ".bench_work", "results")
        os.makedirs(results, exist_ok=True)
        try:
            values, units, attempted, failures, detail = measure(
                args, tool, driver, work, results)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except (BenchError, OSError) as e:
        log("hdsbench: %s" % e)
        return 1

    bdir = build_dir()
    detail["build_type"] = cache_build_type(bdir)
    detail["nproc"] = os.cpu_count()
    # A child's ru_maxrss starts from this process's peak (exec inherits
    # it), so peak_rss_MB and list_rss_MB are only exact above this floor.
    detail["harness_maxrss_MB"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail["metrics"] = values
    with open(os.path.join(results, "%s-s%d-t%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(detail, f, indent=1, sort_keys=True)
    for why in failures:
        log("hdsbench: FAILED %s" % why)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

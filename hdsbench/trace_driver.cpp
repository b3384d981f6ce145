// hds_trace_driver: replays hds_tool commands in one process and records a
// span around every public call the tool makes, so the benchmark can split
// each command's wall time into layers without any tracing inside src/.
//
//   hds_trace_driver <trace.json>
//
// Reads one command per stdin line, tab-separated, in hds_tool's own syntax
// (argv without the program name): init, backup, restore (a version or
// `all`), restore-file, expire and list, with the --shards=N and --threads=N
// flags. Each command makes the same calls in the same order as hds_tool:
// open, the command body, save where hds_tool saves, the profile-history
// append, then close. Its stdout lines are echoed, followed by "@@done <rc>".
// At end of input every span is written as Chrome trace_event JSON
// ({"traceEvents":[...]}, all "ph":"X"); each event's args carry the span
// id, parent id, version, the /proc/self/io rchar/wchar deltas and, for
// spans that call into the store, the deltas of the metrics() registry.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "backup/catalog.h"
#include "chunking/chunk_stream.h"
#include "chunking/parallel_chunk.h"
#include "chunking/tttd.h"
#include "common/parse.h"
#include "core/shard_router.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "storage/durable.h"

namespace fs = std::filesystem;
using namespace hds;

namespace {

using Clock = std::chrono::steady_clock;
using Counters = std::map<std::string, std::uint64_t>;

struct IoSample {
  std::uint64_t rchar = 0;
  std::uint64_t wchar = 0;
};

// /proc/self/io stays open; each sample is one pread from offset 0, which
// regenerates the file, so sampling costs microseconds.
IoSample read_proc_io() {
  static const int fd = ::open("/proc/self/io", O_RDONLY | O_CLOEXEC);
  IoSample s;
  char buf[512];
  const ssize_t n = fd < 0 ? -1 : ::pread(fd, buf, sizeof buf - 1, 0);
  if (n <= 0) return s;
  buf[n] = '\0';
  if (const char* p = std::strstr(buf, "rchar: ")) {
    s.rchar = std::strtoull(p + 7, nullptr, 10);
  }
  if (const char* p = std::strstr(buf, "wchar: ")) {
    s.wchar = std::strtoull(p + 7, nullptr, 10);
  }
  return s;
}

struct SpanRecord {
  std::string name;
  int parent = -1;
  std::uint32_t version = 0;
  double start_us = 0;
  double end_us = 0;
  IoSample io_begin;
  IoSample io_end;
  Counters counters;  // registry deltas (spans that call the store only)
  std::map<std::string, double> args;
};

// In-memory span recorder. Counter and /proc/self/io samples are taken
// outside the clock reads, so a span's duration is the traced call alone.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  int begin(std::string name, std::uint32_t version = 0,
            ShardRouter* sys = nullptr) {
    SpanRecord rec;
    rec.name = std::move(name);
    rec.parent = stack_.empty() ? -1 : stack_.back();
    rec.version = version;
    rec.io_begin = read_proc_io();
    if (sys != nullptr) rec.counters = snapshot(*sys);
    rec.start_us = now_us();
    spans_.push_back(std::move(rec));
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }

  void end(int id, ShardRouter* sys = nullptr) {
    auto& rec = spans_[static_cast<std::size_t>(id)];
    rec.end_us = now_us();
    rec.io_end = read_proc_io();
    if (sys != nullptr) {
      for (const auto& [name, value] : snapshot(*sys)) {
        const auto before = rec.counters[name];
        rec.counters[name] = value >= before ? value - before : 0;
      }
    }
    stack_.pop_back();
  }

  SpanRecord& at(int id) { return spans_[static_cast<std::size_t>(id)]; }

  [[nodiscard]] std::string to_json() const;

 private:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  static Counters snapshot(ShardRouter& sys) {
    sys.refresh_gauges();
    Counters out;
    for (const auto& [name, value] : sys.metrics().counter_snapshot()) {
      out[name] = value;
    }
    return out;
  }

  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string SpanLog::to_json() const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    if (i > 0) out << ",\n";
    out << "{\"name\":\"" << json_escape(s.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_us
        << ",\"dur\":" << (s.end_us - s.start_us) << ",\"args\":{\"id\":" << i
        << ",\"parent\":" << s.parent << ",\"version\":" << s.version
        << ",\"rchar\":" << (s.io_end.rchar - s.io_begin.rchar)
        << ",\"wchar\":" << (s.io_end.wchar - s.io_begin.wchar);
    for (const auto& [key, value] : s.args) {
      out << ",\"" << json_escape(key) << "\":" << value;
    }
    if (!s.counters.empty()) {
      out << ",\"counters\":{";
      bool first = true;
      for (const auto& [key, value] : s.counters) {
        if (value == 0) continue;
        if (!first) out << ',';
        first = false;
        out << '"' << json_escape(key) << "\":" << value;
      }
      out << '}';
    }
    out << "}}";
  }
  out << "]}\n";
  return out.str();
}

// RAII span over the enclosing scope.
class Scoped {
 public:
  Scoped(SpanLog& log, std::string name, std::uint32_t version = 0,
         ShardRouter* sys = nullptr)
      : log_(log), sys_(sys), id_(log.begin(std::move(name), version, sys)) {}
  ~Scoped() { log_.end(id_, sys_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  SpanRecord& record() { return log_.at(id_); }

 private:
  SpanLog& log_;
  ShardRouter* sys_;
  int id_;
};

bool read_file(const fs::path& path, std::vector<std::uint8_t>& bytes) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return false;
  bytes.resize(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(in);
}

// hds_tool's source serialization: a regular file is its bytes; a directory
// is path+size headers followed by file bytes, paths sorted.
bool snapshot_source(const fs::path& source, std::vector<CatalogEntry>& files,
                     std::vector<std::uint8_t>& stream) {
  if (fs::is_regular_file(source)) {
    if (!read_file(source, stream)) return false;
    files.push_back({source.string(), 0, stream.size()});
    return true;
  }
  std::vector<fs::path> paths;
  for (const auto& entry : fs::recursive_directory_iterator(source)) {
    if (entry.is_regular_file()) paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::uint8_t> bytes;
  for (const auto& path : paths) {
    const std::string header =
        path.string() + "\n" + std::to_string(fs::file_size(path)) + "\n";
    stream.insert(stream.end(), header.begin(), header.end());
    if (!read_file(path, bytes)) return false;
    files.push_back({fs::relative(path, source).string(), stream.size(),
                     bytes.size()});
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  return true;
}

FileCatalog load_catalog(const fs::path& repo) {
  std::vector<std::uint8_t> bytes;
  if (!fs::exists(repo / "catalog.hds") ||
      !read_file(repo / "catalog.hds", bytes)) {
    return {};
  }
  auto catalog = FileCatalog::deserialize(bytes);
  return catalog ? std::move(*catalog) : FileCatalog{};
}

void trim_catalog(const fs::path& repo, const ShardRouter& sys) {
  auto catalog = load_catalog(repo);
  bool changed = false;
  for (const VersionId v : catalog.versions()) {
    if (v > sys.latest_version() || v < sys.oldest_version()) {
      changed = catalog.erase_version(v) || changed;
    }
  }
  if (changed) durable::atomic_write_file(repo / "catalog.hds",
                                          catalog.serialize());
}

// hds_tool's bounded <repo>/profiles.jsonl history (newest 64 ops).
void append_profiles(const fs::path& repo, const obs::OpProfiler& profiler) {
  const auto ops = profiler.recent();
  if (ops.empty()) return;
  std::vector<std::string> lines;
  {
    std::ifstream in(repo / "profiles.jsonl");
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) lines.push_back(line);
    }
  }
  for (const auto& op : ops) lines.push_back(op.to_json());
  constexpr std::size_t kProfileHistory = 64;
  if (lines.size() > kProfileHistory) {
    lines.erase(lines.begin(),
                lines.end() - static_cast<std::ptrdiff_t>(kProfileHistory));
  }
  std::string text;
  for (const auto& l : lines) {
    text += l;
    text += '\n';
  }
  durable::atomic_write_file(repo / "profiles.jsonl", text);
}

struct Command {
  std::vector<std::string> args;
  std::size_t shards = 1;
  bool shards_set = false;
  std::size_t threads = 0;
};

bool parse_command(const std::string& line, Command& cmd, std::string& err) {
  std::istringstream in(line);
  std::string field;
  while (std::getline(in, field, '\t')) {
    if (field.rfind("--shards=", 0) == 0) {
      const auto v = parse_uint(std::string_view(field).substr(9), kMaxShards);
      if (!v || *v == 0) {
        err = "bad " + field;
        return false;
      }
      cmd.shards = static_cast<std::size_t>(*v);
      cmd.shards_set = true;
    } else if (field.rfind("--threads=", 0) == 0) {
      const auto v = parse_uint(std::string_view(field).substr(10), 4096);
      if (!v) {
        err = "bad " + field;
        return false;
      }
      cmd.threads = static_cast<std::size_t>(*v);
    } else if (field.rfind("--", 0) == 0) {
      err = "unsupported option " + field;
      return false;
    } else if (!field.empty()) {
      cmd.args.push_back(field);
    }
  }
  if (cmd.args.size() < 2) {
    err = "want <command> <repo> [args]";
    return false;
  }
  return true;
}

std::optional<VersionId> parse_version(const std::string& text) {
  const auto v = parse_uint(text, UINT32_MAX);
  if (!v) return std::nullopt;
  return static_cast<VersionId>(*v);
}

class Driver {
 public:
  explicit Driver(SpanLog& log) : log_(log) {}

  // Runs one command under a root span "cmd.<name>"; returns its exit code.
  int run(const Command& cmd, std::string& out) {
    const std::string& name = cmd.args[0];
    Scoped root(log_, "cmd." + name);
    try {
      return dispatch(cmd, out);
    } catch (const std::exception& e) {
      out += std::string("error: ") + e.what() + "\n";
      return 1;
    }
  }

 private:
  int dispatch(const Command& cmd, std::string& out) {
    const std::string& name = cmd.args[0];
    const fs::path repo = cmd.args[1];
    if (name == "init") return init(cmd, repo, out);
    if (name == "fingerprints") return fingerprints(cmd.args[1], out);

    std::unique_ptr<ShardRouter> sys;
    RecoveryReport recovery;
    {
      Scoped span(log_, "core.open");
      sys = ShardRouter::open(repo, cmd.shards_set ? cmd.shards : 0,
                              &recovery);
    }
    if (!sys) {
      out += "error: not a repository\n";
      return 1;
    }
    if (recovery.performed) {
      Scoped span(log_, "backup.catalog");
      trim_catalog(repo, *sys);
    }
    if (cmd.threads > 1) sys->set_read_ahead(2 * cmd.threads, cmd.threads);

    int rc = 2;
    if (name == "backup") {
      rc = backup(cmd, repo, *sys, out);
    } else if (name == "restore") {
      rc = restore(cmd, *sys, out);
    } else if (name == "restore-file") {
      rc = restore_file(cmd, repo, *sys, out);
    } else if (name == "expire") {
      rc = expire(cmd, repo, *sys, out);
    } else if (name == "list") {
      rc = list(*sys, out);
    } else {
      out += "error: unsupported command " + name + "\n";
    }
    {
      Scoped span(log_, "obs.profiles");
      append_profiles(repo, sys->profiler());
    }
    {
      Scoped span(log_, "core.close");
      sys.reset();
    }
    return rc;
  }

  // Not an hds_tool command: prints the SHA-1 of every chunk hds_tool's
  // backup would cut from `source`, one per line, for the benchmark's
  // fsck cross-check.
  static int fingerprints(const fs::path& source, std::string& out) {
    std::vector<CatalogEntry> files;
    std::vector<std::uint8_t> snapshot;
    if (!snapshot_source(source, files, snapshot)) {
      out += "error: cannot read " + source.string() + "\n";
      return 1;
    }
    TttdChunker chunker;
    for (const auto& rec : chunk_bytes(chunker, snapshot).chunks) {
      out += rec.fp.hex();
      out += '\n';
    }
    return 0;
  }

  int init(const Command& cmd, const fs::path& repo, std::string& out) {
    ShardRouterConfig config;
    config.shards = cmd.shards;
    config.base.storage_dir = repo;
    std::unique_ptr<ShardRouter> sys;
    {
      Scoped span(log_, "core.init");
      sys = std::make_unique<ShardRouter>(config);
    }
    {
      // A new repository's registry is all zeros: no counter deltas.
      Scoped span(log_, "core.save");
      sys->save(repo);
    }
    {
      Scoped span(log_, "core.close");
      sys.reset();
    }
    out += "initialized\n";
    return 0;
  }

  int backup(const Command& cmd, const fs::path& repo, ShardRouter& sys,
             std::string& out) {
    if (cmd.args.size() < 3) return 2;
    const fs::path source = cmd.args[2];
    const VersionId version = sys.latest_version() + 1;
    std::vector<CatalogEntry> files;
    std::vector<std::uint8_t> snapshot;
    {
      Scoped span(log_, "harness.source_read", version);
      if (!snapshot_source(source, files, snapshot)) {
        out += "error: cannot read " + source.string() + "\n";
        return 1;
      }
      span.record().args["bytes"] = static_cast<double>(snapshot.size());
    }
    TttdChunker chunker;
    VersionStream stream;
    if (cmd.threads > 1) {
      Scoped span(log_, "chunking.parallel", version);
      span.record().args["bytes"] = static_cast<double>(snapshot.size());
      ParallelChunkConfig chunk_config;
      chunk_config.threads = cmd.threads;
      chunk_config.metrics = &sys.metrics();
      const ParallelChunkPipeline pipeline(chunker, chunk_config);
      stream = pipeline.run(snapshot);
    } else {
      // chunk_bytes(), split at its two layers: TTTD cut points, then
      // SHA-1 + packing per batch.
      const std::span<const std::uint8_t> data(snapshot);
      std::vector<std::size_t> lengths;
      {
        Scoped span(log_, "chunking.tttd", version);
        span.record().args["bytes"] = static_cast<double>(snapshot.size());
        chunker.chunk(data, lengths);
      }
      Scoped span(log_, "common.sha1", version);
      span.record().args["bytes"] = static_cast<double>(snapshot.size());
      stream.chunks.reserve(lengths.size());
      for (const auto& batch :
           detail::make_batches(lengths, kIngestBatchBytes)) {
        detail::append_stream(
            stream, detail::pack_batch(
                        data.subspan(batch.byte_begin, batch.byte_len),
                        std::span(lengths).subspan(batch.chunk_begin,
                                                   batch.chunk_count)));
      }
    }
    BackupReport report;
    {
      Scoped span(log_, "core.backup", version, &sys);
      report = sys.backup(stream);
      span.record().args["bytes"] = static_cast<double>(report.logical_bytes);
      span.record().args["stored_bytes"] =
          static_cast<double>(report.stored_bytes);
    }
    {
      Scoped span(log_, "backup.catalog", report.version);
      auto catalog = load_catalog(repo);
      catalog.add_version(report.version, std::move(files));
      durable::atomic_write_file(repo / "catalog.hds", catalog.serialize());
    }
    {
      Scoped span(log_, "core.save", report.version, &sys);
      sys.save(repo);
    }
    char line[160];
    std::snprintf(line, sizeof line,
                  "version %u: %llu bytes logical, %llu stored, %llu chunks\n",
                  report.version,
                  static_cast<unsigned long long>(report.logical_bytes),
                  static_cast<unsigned long long>(report.stored_bytes),
                  static_cast<unsigned long long>(report.logical_chunks));
    out += line;
    return 0;
  }

  // Writes one restored byte range to `outfile`; the sink's time is kept
  // apart so the restore's own time is its span minus the sink.
  template <typename Call>
  int restore_to(const std::string& span_name, VersionId version,
                 const std::string& outfile, ShardRouter& sys, Call&& call,
                 std::string& out) {
    std::unique_ptr<std::ofstream> file;
    {
      Scoped span(log_, "harness.sink_open", version);
      file = std::make_unique<std::ofstream>(
          outfile, std::ios::binary | std::ios::trunc);
    }
    if (!*file) {
      out += "error: cannot open " + outfile + "\n";
      return 1;
    }
    double sink_us = 0;
    RestoreReport report;
    {
      Scoped span(log_, span_name, version, &sys);
      report = call([&](const ChunkLoc&, std::span<const std::uint8_t> b) {
        const auto t0 = Clock::now();
        file->write(reinterpret_cast<const char*>(b.data()),
                    static_cast<std::streamsize>(b.size()));
        sink_us += std::chrono::duration<double, std::micro>(Clock::now() -
                                                             t0)
                       .count();
      });
      span.record().args["sink_ms"] = sink_us / 1000.0;
      span.record().args["bytes"] =
          static_cast<double>(report.stats.restored_bytes);
    }
    {
      Scoped span(log_, "harness.sink_flush", version);
      file->flush();
      const bool ok = static_cast<bool>(*file);
      file.reset();
      if (!ok) {
        out += "error: short write to " + outfile + "\n";
        return 1;
      }
    }
    char line[200];
    std::snprintf(line, sizeof line,
                  "restored v%u: %llu bytes, %llu container reads, %llu "
                  "failed chunks\n",
                  version,
                  static_cast<unsigned long long>(report.stats.restored_bytes),
                  static_cast<unsigned long long>(
                      report.stats.container_reads),
                  static_cast<unsigned long long>(
                      report.stats.failed_chunks));
    out += line;
    if (span_name == "core.restore" && report.stats.restored_chunks == 0) {
      return 1;
    }
    return report.stats.failed_chunks == 0 ? 0 : 1;
  }

  int restore(const Command& cmd, ShardRouter& sys, std::string& out) {
    if (cmd.args.size() < 4) return 2;
    const auto restore_one = [&](VersionId v, const std::string& outfile) {
      return restore_to("core.restore", v, outfile, sys,
                        [&](const ChunkSink& sink) {
                          return sys.restore(v, sink);
                        },
                        out);
    };
    if (cmd.args[2] == "all") {
      int worst = 0;
      for (const VersionId v : sys.versions()) {
        worst |= restore_one(v, cmd.args[3] + std::to_string(v));
      }
      return worst;
    }
    const auto version = parse_version(cmd.args[2]);
    if (!version) return 2;
    return restore_one(*version, cmd.args[3]);
  }

  int restore_file(const Command& cmd, const fs::path& repo, ShardRouter& sys,
                   std::string& out) {
    if (cmd.args.size() < 5) return 2;
    const auto version = parse_version(cmd.args[2]);
    if (!version) return 2;
    std::optional<CatalogEntry> entry;
    {
      Scoped span(log_, "backup.catalog", *version);
      entry = load_catalog(repo).find(*version, cmd.args[3]);
    }
    if (!entry) {
      out += "error: " + cmd.args[3] + " not in version\n";
      return 1;
    }
    return restore_to("core.restore_range", *version, cmd.args[4], sys,
                      [&](const ChunkSink& sink) {
                        return sys.restore_range(*version, entry->offset,
                                                 entry->length, sink);
                      },
                      out);
  }

  int expire(const Command& cmd, const fs::path& repo, ShardRouter& sys,
             std::string& out) {
    if (cmd.args.size() < 3) return 2;
    const auto upto = parse_version(cmd.args[2]);
    if (!upto) return 2;
    DeletionReport report;
    {
      Scoped span(log_, "core.expire", *upto, &sys);
      report = sys.delete_versions_up_to(*upto);
    }
    {
      Scoped span(log_, "core.save", *upto, &sys);
      sys.save(repo);
    }
    char line[160];
    std::snprintf(line, sizeof line,
                  "expired %zu versions: %zu containers erased, %llu chunks "
                  "scanned\n",
                  report.versions_deleted, report.containers_erased,
                  static_cast<unsigned long long>(report.chunks_scanned));
    out += line;
    return 0;
  }

  int list(ShardRouter& sys, std::string& out) {
    Scoped span(log_, "core.list");
    char line[160];
    for (const VersionId v : sys.versions()) {
      std::snprintf(line, sizeof line, "%-8u  %llu  %zu\n", v,
                    static_cast<unsigned long long>(
                        sys.version_logical_bytes(v)),
                    sys.version_chunk_count(v));
      out += line;
    }
    std::snprintf(line, sizeof line,
                  "dedup ratio: %.2f%%; archival containers: %zu; active "
                  "containers: %zu\n",
                  sys.dedup_ratio() * 100.0, sys.archival_container_count(),
                  sys.active_container_count());
    out += line;
    return 0;
  }

  SpanLog& log_;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: hds_trace_driver <trace.json>\n");
    return 2;
  }
  SpanLog log(Clock::now());
  Driver driver(log);
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    Command cmd;
    std::string out;
    std::string err;
    int rc = 2;
    if (parse_command(line, cmd, err)) {
      rc = driver.run(cmd, out);
    } else {
      out = "error: " + err + "\n";
    }
    std::cout << out << "@@done " << rc << std::endl;
  }
  try {
    durable::atomic_write_file(argv[1], log.to_json());
  } catch (const durable::WriteError& e) {
    std::fprintf(stderr, "error: cannot write %s: %s\n", argv[1], e.what());
    return 1;
  }
  return 0;
}

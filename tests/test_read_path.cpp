// Tests for the container read path (DESIGN.md §13): every device read is
// one pread_exact loop per coalesced extent. Covers short-read and EINTR
// injection healing inside that loop, CrashInjector-driven device failure
// (nullptr + io_read_errors, then recovery), and per-stream ReadMeter
// accounting when restore streams and prefetch workers read one store
// concurrently. Runs under TSan via the `concurrency` label.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "restore/read_ahead.h"
#include "storage/container_store.h"
#include "storage/durable.h"

#include "util/temp_dir.h"

namespace hds {
namespace {

std::filesystem::path fresh_dir(const char* name) {
  const auto dir = hds::testutil::unique_path(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

Container make_container(std::uint64_t seed, std::size_t chunks = 8) {
  Container c(0, 256 * 1024);
  Xoshiro256ss rng(seed);
  for (std::size_t i = 0; i < chunks; ++i) {
    std::vector<std::uint8_t> data(2048 + rng.next_below(4096));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
    c.add(Fingerprint::from_seed(seed * 100 + i), data);
  }
  return c;
}

class ContainerReadPath : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fresh_dir("hds_read_path");
    FileContainerStore seed(dir_);
    for (std::uint64_t s = 1; s <= 6; ++s) {
      const auto id = seed.write(make_container(s));
      for (std::size_t i = 0; i < 8; ++i) {
        const auto fp = Fingerprint::from_seed(s * 100 + i);
        const auto got = seed.read(id);
        ASSERT_NE(got, nullptr);
        const auto bytes = got->read(fp);
        ASSERT_TRUE(bytes.has_value());
        reference_[id][fp].assign(bytes->begin(), bytes->end());
      }
      ids_.push_back(id);
    }
  }

  // Number of `fps` that `got` holds with exactly the reference bytes.
  std::size_t matching_chunks(ContainerId id, const Container& got,
                              const std::vector<Fingerprint>& fps) {
    std::size_t matches = 0;
    for (const auto& fp : fps) {
      const auto read = got.read(fp);
      const auto& bytes = reference_[id][fp];
      if (read.has_value() && std::equal(bytes.begin(), bytes.end(),
                                         read->begin(), read->end())) {
        ++matches;
      }
    }
    return matches;
  }

  // Every chunk of container `id`, and every second one (a partial read
  // with gaps between its extents).
  std::vector<Fingerprint> all_fps(ContainerId id) {
    std::vector<Fingerprint> fps;
    for (const auto& [fp, bytes] : reference_[id]) fps.push_back(fp);
    return fps;
  }
  std::vector<Fingerprint> every_other_fp(ContainerId id) {
    const auto all = all_fps(id);
    std::vector<Fingerprint> fps;
    for (std::size_t i = 0; i < all.size(); i += 2) fps.push_back(all[i]);
    return fps;
  }

  std::filesystem::path dir_;
  std::vector<ContainerId> ids_;
  std::map<ContainerId, std::map<Fingerprint, std::vector<std::uint8_t>>>
      reference_;
};

// Short reads and EINTRs injected into the pread loop heal transparently:
// full and partial reads return the reference bytes with faults firing.
TEST_F(ContainerReadPath, InjectedShortReadsAndEintrHeal) {
  FileStoreTuning tuning;
  tuning.block_cache_bytes = 0;  // every read reaches the pread loop
  FileContainerStore store(dir_, /*index_existing=*/true, tuning);
  set_read_fault_plan({/*short_read_every_n=*/2, /*eintr_every_n=*/3});
  for (const auto id : ids_) {
    const auto whole = store.read_chunks(id, all_fps(id));
    const auto partial = store.read_chunks(id, every_other_fp(id));
    ASSERT_NE(whole, nullptr);
    ASSERT_NE(partial, nullptr);
    EXPECT_EQ(matching_chunks(id, *whole, all_fps(id)), all_fps(id).size());
    EXPECT_EQ(matching_chunks(id, *partial, every_other_fp(id)),
              every_other_fp(id).size());
  }
  const ReadFaultCounts injected = read_faults_injected();
  set_read_fault_plan({});
  EXPECT_GT(injected.short_reads, 0u);
  EXPECT_GT(injected.eintrs, 0u);
  EXPECT_EQ(store.io_stats().read_errors, 0u);
  EXPECT_GT(store.io_stats().partial_reads, 0u);
}

// A kFail-armed CrashInjector turns the device read into EIO: the read
// returns nullptr and counts one io_read_error, and nothing is cached, so
// the next read after the device recovers returns the right bytes.
TEST_F(ContainerReadPath, CrashInjectorTurnsReadsIntoDeviceErrors) {
  FileContainerStore store(dir_, /*index_existing=*/true);
  const auto id = ids_[0];
  const auto fps = every_other_fp(id);
  durable::CrashInjector::arm(1, durable::FaultMode::kFail);
  const auto failed = store.read_chunks(id, fps);
  durable::CrashInjector::disarm();
  EXPECT_EQ(failed, nullptr);
  EXPECT_EQ(store.io_stats().read_errors, 1u);
  EXPECT_EQ(store.stats().container_reads, 0u);

  const auto healed = store.read_chunks(id, fps);
  ASSERT_NE(healed, nullptr);
  EXPECT_EQ(matching_chunks(id, *healed, fps), fps.size());
  EXPECT_EQ(store.io_stats().read_errors, 1u);
  EXPECT_EQ(store.stats().container_reads, 1u);
}

// Concurrent streams over one store: overlap on the read path comes from
// several readers (restore streams, prefetch workers) issuing preads at
// once, each charging its own ReadMeter.
class AsyncStoreParity : public ContainerReadPath {};

TEST_F(AsyncStoreParity, ReadMeterAttributesCallsToTheCaller) {
  FileContainerStore store(dir_, /*index_existing=*/true);
  ReadMeter a;
  ReadMeter b;
  ASSERT_NE(store.read(ids_[0], &a), nullptr);
  ASSERT_NE(store.read(ids_[1], &b), nullptr);
  ASSERT_NE(store.read(ids_[2], &b), nullptr);
  EXPECT_EQ(a.container_reads.load(), 1u);
  EXPECT_EQ(b.container_reads.load(), 2u);
  EXPECT_GT(a.bytes_read.load(), 0u);
  // Meters partition the store's global accounting exactly.
  EXPECT_EQ(a.container_reads.load() + b.container_reads.load(),
            store.stats().container_reads);
  EXPECT_EQ(a.bytes_read.load() + b.bytes_read.load(),
            store.stats().bytes_read);
}

// Two concurrent restore streams hammer one shared store (the multi-stream
// contract of the read path): byte-identical results and
// exact per-stream accounting, with no cross-pollution between meters.
TEST_F(AsyncStoreParity, ConcurrentStreamsKeepPerStreamAccounting) {
  FileStoreTuning tuning;
  tuning.block_cache_bytes = 0;  // every read hits the device path
  FileContainerStore store(dir_, /*index_existing=*/true, tuning);
  constexpr int kRounds = 8;
  ReadMeter meters[2];
  std::atomic<int> failures{0};
  auto stream = [&](int which, bool reversed) {
    auto order = ids_;
    if (reversed) std::reverse(order.begin(), order.end());
    for (int round = 0; round < kRounds; ++round) {
      for (const auto id : order) {
        const auto got = store.read(id, &meters[which]);
        if (got == nullptr) {
          failures.fetch_add(1);
          continue;
        }
        for (const auto& [fp, bytes] : reference_[id]) {
          const auto read = got->read(fp);
          if (!read.has_value() ||
              !std::equal(bytes.begin(), bytes.end(), read->begin(),
                          read->end())) {
            failures.fetch_add(1);
          }
        }
      }
    }
  };
  std::thread other(stream, 1, true);
  stream(0, false);
  other.join();
  EXPECT_EQ(failures.load(), 0);
  const auto per_stream =
      static_cast<std::uint64_t>(kRounds) * ids_.size();
  EXPECT_EQ(meters[0].container_reads.load(), per_stream);
  EXPECT_EQ(meters[1].container_reads.load(), per_stream);
  EXPECT_EQ(store.stats().container_reads, 2 * per_stream);
  EXPECT_EQ(meters[0].bytes_read.load(), meters[1].bytes_read.load());
}

// Two ReadAheadFetcher streams with overlapping prefetch workers against
// one store: the fetcher pipeline above the read path must stay
// byte-correct and exactly-once under real thread interleavings.
TEST_F(AsyncStoreParity, ConcurrentPrefetchedStreamsStayExactlyOnce) {
  struct StoreFetcher final : ContainerFetcher {
    StoreFetcher(FileContainerStore& s, ReadMeter& m) : store(s), meter(m) {}
    std::shared_ptr<const Container> fetch(const ChunkLoc& loc) override {
      return store.read(loc.cid, &meter);
    }
    FileContainerStore& store;
    ReadMeter& meter;
  };
  FileStoreTuning tuning;
  tuning.block_cache_bytes = 0;
  FileContainerStore store(dir_, /*index_existing=*/true, tuning);
  std::vector<ChunkLoc> locs;
  for (const auto id : ids_) {
    for (std::size_t i = 0; i < 8; ++i) {
      ChunkLoc loc;
      loc.fp = Fingerprint::from_seed(static_cast<std::uint64_t>(id) * 100 +
                                      i);
      loc.cid = id;
      locs.push_back(loc);
    }
  }
  ReadMeter meters[2];
  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> wasted_total{0};
  auto stream = [&](int which) {
    StoreFetcher base(store, meters[which]);
    ReadAheadConfig config;
    config.depth = 4;
    config.in_flight = 3;
    ReadAheadFetcher fetcher(base, locs, config);
    // One fetch per container run, like a policy whose cache holds the
    // current container across its chunks (the stream groups by cid).
    std::shared_ptr<const Container> current;
    ContainerId current_id = 0;
    for (const auto& loc : locs) {
      if (current == nullptr || loc.cid != current_id) {
        current = fetcher.fetch(loc);
        current_id = loc.cid;
      }
      if (current == nullptr || !current->contains(loc.fp)) {
        failures.fetch_add(1);
      }
    }
    fetcher.stop();
    // The satellite accounting contract: this stream's meter charges it for
    // exactly its consumed containers plus its own wasted prefetches (reads
    // the prefetcher issued after the consumer had already passed that
    // point) — subtracting waste recovers the serial run's count, with no
    // cross-pollution from the concurrent stream.
    EXPECT_EQ(fetcher.prefetch_hits() + fetcher.prefetch_misses(),
              ids_.size());
    EXPECT_EQ(meters[which].container_reads.load(),
              ids_.size() + fetcher.wasted_reads());
    wasted_total.fetch_add(fetcher.wasted_reads());
  };
  std::thread other(stream, 1);
  stream(0);
  other.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(store.stats().container_reads,
            2 * ids_.size() + wasted_total.load());
  EXPECT_EQ(meters[0].container_reads.load() +
                meters[1].container_reads.load(),
            store.stats().container_reads);
}

}  // namespace
}  // namespace hds

#include <gtest/gtest.h>

#include "common/units.h"
#include "cost/cost_model.h"
#include "storage/cache_server.h"
#include "storage/chunking.h"
#include "storage/device.h"
#include "storage/dram_cache.h"
#include "storage/file_system.h"

namespace byom::storage {
namespace {

using common::kGiB;
using common::kMiB;

// ---------------------------------------------------------------- device

TEST(Device, HddSlowerThanSsdForRandomIo) {
  Device hdd(DeviceKind::kHdd), ssd(DeviceKind::kSsd);
  const double ops = 10000.0, bytes = 100.0 * kMiB;
  EXPECT_GT(hdd.service_seconds(ops, bytes, 1.0),
            ssd.service_seconds(ops, bytes, 1.0));
}

TEST(Device, ParallelismDividesServiceTime) {
  Device hdd(DeviceKind::kHdd);
  const double t1 = hdd.service_seconds(1000, kGiB, 1.0);
  const double t10 = hdd.service_seconds(1000, kGiB, 10.0);
  EXPECT_NEAR(t1 / t10, 10.0, 1e-9);
}

TEST(Device, TracksTraffic) {
  Device d(DeviceKind::kSsd);
  d.record_write(10, 1000);
  d.record_read(5, 500);
  EXPECT_DOUBLE_EQ(d.total_written_bytes(), 1000.0);
  EXPECT_DOUBLE_EQ(d.total_read_bytes(), 500.0);
  EXPECT_DOUBLE_EQ(d.total_ops(), 15.0);
}

TEST(Device, WearoutOnlyForSsd) {
  Device hdd(DeviceKind::kHdd), ssd(DeviceKind::kSsd);
  hdd.record_write(1, 1e12);
  ssd.record_write(1, 1e12);
  EXPECT_DOUBLE_EQ(hdd.wearout_fraction(), 0.0);
  EXPECT_GT(ssd.wearout_fraction(), 0.0);
  EXPECT_LT(ssd.wearout_fraction(), 1.0);
}

// --------------------------------------------------------------- DRAM cache

TEST(DramCache, MissThenHit) {
  DramCache cache(kGiB);
  EXPECT_FALSE(cache.access(1, kMiB));
  EXPECT_TRUE(cache.access(1, kMiB));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.5);
}

TEST(DramCache, EvictsLruUnderPressure) {
  DramCache cache(3 * kMiB);
  cache.access(1, kMiB);
  cache.access(2, kMiB);
  cache.access(3, kMiB);
  cache.access(1, kMiB);  // touch 1 -> LRU order is 2, 3, 1
  cache.access(4, kMiB);  // evicts 2
  EXPECT_TRUE(cache.access(1, kMiB));
  EXPECT_FALSE(cache.access(2, kMiB));
}

TEST(DramCache, NeverCachesOversizedFiles) {
  DramCache cache(kMiB);
  EXPECT_FALSE(cache.access(1, 10 * kMiB));
  EXPECT_FALSE(cache.access(1, 10 * kMiB));  // still a miss
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(DramCache, EraseReleasesSpace) {
  DramCache cache(kGiB);
  cache.access(1, kMiB);
  EXPECT_EQ(cache.used_bytes(), kMiB);
  cache.erase(1);
  EXPECT_EQ(cache.used_bytes(), 0u);
  EXPECT_EQ(cache.num_entries(), 0u);
}

TEST(DramCache, InstallUpdatesSize) {
  DramCache cache(kGiB);
  cache.install(1, kMiB);
  cache.install(1, 2 * kMiB);
  EXPECT_EQ(cache.used_bytes(), 2 * kMiB);
  EXPECT_EQ(cache.num_entries(), 1u);
}

TEST(DramCache, UsedNeverExceedsCapacity) {
  DramCache cache(5 * kMiB);
  for (std::uint64_t f = 0; f < 100; ++f) {
    cache.access(f, kMiB + f * 1000);
    EXPECT_LE(cache.used_bytes(), 5 * kMiB);
  }
}

// ----------------------------------------------------------------- chunker

TEST(WriteChunker, GroupsSmallWrites) {
  WriteChunker chunker;  // 1 MiB chunks
  std::uint64_t emitted = 0;
  for (int i = 0; i < 256; ++i) emitted += chunker.write(4 * 1024);  // 1 MiB total
  EXPECT_EQ(emitted, 1u);
  EXPECT_EQ(chunker.chunks_emitted(), 1u);
}

TEST(WriteChunker, LargeWriteEmitsMultiple) {
  WriteChunker chunker;
  EXPECT_EQ(chunker.write(5 * kMiB + 10), 5u);
  EXPECT_EQ(chunker.bytes_buffered(), 10u);
}

TEST(WriteChunker, FlushEmitsPartial) {
  WriteChunker chunker;
  chunker.write(100);
  EXPECT_EQ(chunker.flush(), 1u);
  EXPECT_EQ(chunker.flush(), 0u);
  EXPECT_EQ(chunker.bytes_buffered(), 0u);
}

TEST(WriteChunker, RejectsZeroChunk) {
  EXPECT_THROW(WriteChunker(0), std::invalid_argument);
}

// -------------------------------------------------------------- filesystem

TEST(FileSystem, CreateWriteReadDelete) {
  FileSystem fs;
  fs.create(1, DeviceKind::kSsd, 0.0);
  EXPECT_TRUE(fs.exists(1));
  fs.write(1, kMiB, 16);
  EXPECT_EQ(fs.stat(1).bytes, kMiB);
  EXPECT_EQ(fs.bytes_on(DeviceKind::kSsd), kMiB);
  fs.remove(1);
  EXPECT_FALSE(fs.exists(1));
  EXPECT_EQ(fs.bytes_on(DeviceKind::kSsd), 0u);
}

TEST(FileSystem, DuplicateCreateThrows) {
  FileSystem fs;
  fs.create(1, DeviceKind::kHdd, 0.0);
  EXPECT_THROW(fs.create(1, DeviceKind::kHdd, 1.0), std::invalid_argument);
}

TEST(FileSystem, MissingFileThrows) {
  FileSystem fs;
  EXPECT_THROW(fs.stat(42), std::out_of_range);
  EXPECT_THROW(fs.write(42, 100, 1), std::out_of_range);
  EXPECT_THROW(fs.read(42, 100, 1), std::out_of_range);
}

TEST(FileSystem, CachedReadCostsNoDeviceTime) {
  FileSystem fs(kGiB);
  fs.create(1, DeviceKind::kHdd, 0.0);
  fs.write(1, kMiB, 1);  // installs in cache
  const double t = fs.read(1, kMiB, 16);
  EXPECT_DOUBLE_EQ(t, 0.0);
  EXPECT_DOUBLE_EQ(fs.device(DeviceKind::kHdd).total_read_bytes(), 0.0);
}

TEST(FileSystem, UncachedReadHitsDevice) {
  FileSystem fs(/*dram_cache_bytes=*/0);
  fs.create(1, DeviceKind::kHdd, 0.0);
  fs.write(1, kMiB, 1);
  const double t = fs.read(1, kMiB, 16);
  EXPECT_GT(t, 0.0);
  EXPECT_GT(fs.device(DeviceKind::kHdd).total_read_bytes(), 0.0);
}

TEST(FileSystem, WritesAreChunkedTo1MiB) {
  FileSystem fs(/*dram_cache_bytes=*/0);
  fs.create(1, DeviceKind::kHdd, 0.0);
  fs.write(1, 10 * kMiB, /*ops=*/10000);  // many small app writes
  // Device sees 10 chunked ops, not 10000.
  EXPECT_DOUBLE_EQ(fs.device(DeviceKind::kHdd).total_ops(), 10.0);
}

// ------------------------------------------------------------ cache server

trace::Job server_job(double arrival, double lifetime, std::uint64_t bytes,
                      bool dense, std::uint64_t id) {
  trace::Job j;
  j.job_id = id;
  j.job_key = "proto/step";
  j.arrival_time = arrival;
  j.lifetime = lifetime;
  j.peak_bytes = bytes;
  j.resources.bucket_sizing_num_workers = 8;
  j.io.bytes_written = bytes;
  j.io.bytes_read = dense ? 3 * bytes : bytes / 10;
  j.io.avg_read_block = dense ? 8.0 * 1024.0 : 1024.0 * 1024.0;
  j.compute_costs(cost::CostModel{});
  return j;
}

// The server books placements the event engine made; these feed it the
// outcomes the engine would record (sim_test covers admission, spill and
// capacity release).

TEST(CacheServer, PlacesAndAccounts) {
  CacheServer server;
  const auto placed = server.record(server_job(0, 600, kGiB, true, 1),
                                    policy::Device::kSsd, 1.0, 1.0);
  EXPECT_EQ(placed.device, policy::Device::kSsd);
  EXPECT_DOUBLE_EQ(placed.spill_fraction, 0.0);
  EXPECT_LT(placed.tco, placed.tco_hdd);  // dense job saves on SSD
  EXPECT_EQ(server.placements().size(), 1u);
}

TEST(CacheServer, PartialGrantPricesTheGrantedShare) {
  // A quarter of the job fits, for half its lifetime: the spill is the
  // rest, the price is the engine's mixed cost, and a mostly-spilled file
  // lives on HDD.
  CacheServer server;
  const auto job = server_job(0, 600, kGiB, true, 1);
  const auto placed = server.record(job, policy::Device::kSsd, 0.25, 0.5);
  const cost::CostModel model;
  EXPECT_DOUBLE_EQ(placed.spill_fraction, 0.75);
  EXPECT_EQ(placed.tco, model.cost_mixed(job.cost_inputs(), 0.25, 0.5));
  EXPECT_EQ(placed.tcio_seconds,
            model.tcio_seconds_mixed(job.cost_inputs(), 0.25, 0.5));
  EXPECT_DOUBLE_EQ(
      server.file_system().device(DeviceKind::kSsd).total_written_bytes(),
      0.0);
  EXPECT_GT(
      server.file_system().device(DeviceKind::kHdd).total_written_bytes(),
      0.0);
}

TEST(CacheServer, RuntimeNeverRegresses) {
  // SSD placement must not make any job slower than its HDD baseline
  // (paper Appendix C.1.2: "no workload shows any regressions").
  CacheServer server;
  for (int i = 0; i < 20; ++i) {
    const auto placed =
        server.record(server_job(i * 50.0, 600, kGiB, i % 2 == 0, 100 + i),
                      policy::Device::kSsd, 1.0, 1.0);
    EXPECT_LE(placed.runtime_seconds,
              placed.runtime_hdd_seconds * (1.0 + 1e-9));
  }
}

TEST(CacheServer, DenseJobsGainMoreRuntime) {
  CacheServer server;
  const auto dense = server.record(server_job(0, 600, kGiB, true, 1),
                                   policy::Device::kSsd, 1.0, 1.0);
  const auto cold = server.record(server_job(1000, 600, kGiB, false, 2),
                                  policy::Device::kSsd, 1.0, 1.0);
  const double dense_gain =
      1.0 - dense.runtime_seconds / dense.runtime_hdd_seconds;
  const double cold_gain =
      1.0 - cold.runtime_seconds / cold.runtime_hdd_seconds;
  EXPECT_GT(dense_gain, cold_gain);
}

TEST(CacheServer, SavingsAggregationFiltersWorkloadKind) {
  CacheServer server;
  auto fw = server_job(0, 600, kGiB, true, 1);
  fw.framework_workload = true;
  auto nfw = server_job(50, 600, kGiB, true, 2);
  nfw.framework_workload = false;
  server.record(fw, policy::Device::kSsd, 1.0, 1.0);
  server.record(nfw, policy::Device::kSsd, 1.0, 1.0);
  EXPECT_GT(server.tco_savings_pct(true, true), 0.0);
  EXPECT_GT(server.tco_savings_pct(true, false), 0.0);
  EXPECT_GT(server.tcio_savings_pct(false, false), 0.0);
}

TEST(CacheServer, HddDecisionCostsBaseline) {
  CacheServer server;
  const auto placed = server.record(server_job(0, 600, kGiB, true, 1),
                                    policy::Device::kHdd, 0.0, 1.0);
  EXPECT_EQ(placed.device, policy::Device::kHdd);
  EXPECT_DOUBLE_EQ(placed.spill_fraction, 0.0);
  EXPECT_DOUBLE_EQ(placed.tco, placed.tco_hdd);
  EXPECT_DOUBLE_EQ(placed.runtime_seconds, placed.runtime_hdd_seconds);
  EXPECT_DOUBLE_EQ(server.tco_savings_pct(false, false), 0.0);
}

}  // namespace
}  // namespace byom::storage

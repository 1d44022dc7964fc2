// Tests of the content-addressed launch cache (DESIGN.md §11): hit/replay
// correctness against recomputation at every interpreter worker count,
// key-collision safety on input bytes, exact pre-image validation (a
// chosen input that collides a 64-bit hash chain, flipped read-set bytes,
// export/import of pre-images), deterministic insertion-order
// eviction, fault-plan / atomics bypass, verify mode, relocated hits at a
// common line-multiple pointer shift, the capture fast path, out-of-bounds
// errors, the scenario + sweep integration (cached fleets byte-identical
// to uncached), and a pinned digest of what evaluate_functional's per-chunk
// observers record for every kernel bench/interp_throughput runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <utility>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario.hpp"
#include "gpu/device.hpp"
#include "gpu/launch_cache.hpp"
#include "gpu/offline.hpp"
#include "interp/interpreter.hpp"
#include "ir/builder.hpp"
#include "ir/translation.hpp"
#include "mem/allocator.hpp"
#include "mem/capture.hpp"
#include "run/sweep.hpp"
#include "run/thread_pool.hpp"
#include "sim/event_queue.hpp"
#include "snapshot/serial.hpp"
#include "util/rng.hpp"
#include "workloads/suite.hpp"

namespace sigvp {
namespace {

constexpr std::uint64_t kMemBytes = 8ull * 1024 * 1024;

/// One launch-shaped workload instance: kernel, dims, args, and a fresh
/// memory builder whose input bytes depend on `seed` (same seed -> same
/// bytes, different seed -> different bytes at the same addresses).
struct LaunchFixture {
  const workloads::Workload* w = nullptr;
  std::uint64_t n = 0;
  LaunchDims dims;
  KernelArgs args;
  std::vector<std::uint64_t> addrs;
  std::vector<workloads::BufferSpec> bufs;

  /// `n_` = 0 uses the workload's test size.
  LaunchFixture(const std::vector<workloads::Workload>& suite, const char* app,
                std::uint64_t n_ = 0) {
    w = &workloads::find(suite, app);
    n = n_ != 0 ? n_ : w->test_n;
    bufs = w->buffers(n);
    FreeListAllocator alloc(4096, kMemBytes - 4096);
    for (const auto& b : bufs) addrs.push_back(*alloc.allocate(b.bytes));
    dims = w->dims(n);
    args = w->args(addrs, n);
  }

  AddressSpace make_memory(std::uint32_t seed) const {
    AddressSpace mem(kMemBytes, "m");
    for (std::size_t i = 0; i < bufs.size(); ++i) {
      if (!bufs[i].is_input) continue;
      std::uint32_t x = seed * 2654435761u + 1u;
      for (std::uint64_t off = 0; off + 4 <= bufs[i].bytes; off += 4) {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        mem.write<float>(addrs[i] + off, 0.25f + static_cast<float>(x % 997) / 997.0f);
      }
    }
    return mem;
  }
};

/// `fx` with buffer i moved by shifts[i] bytes and its arguments rebuilt at
/// the new addresses: a VP whose allocator placed the same buffers elsewhere.
LaunchFixture moved(const LaunchFixture& fx, const std::vector<std::int64_t>& shifts) {
  LaunchFixture out = fx;
  for (std::size_t i = 0; i < out.addrs.size(); ++i) {
    out.addrs[i] += static_cast<std::uint64_t>(shifts[i]);
  }
  out.args = out.w->args(out.addrs, out.n);
  return out;
}

LaunchFixture moved(const LaunchFixture& fx, std::int64_t shift) {
  return moved(fx, std::vector<std::int64_t>(fx.addrs.size(), shift));
}

std::vector<std::uint8_t> all_bytes(const AddressSpace& mem) {
  std::vector<std::uint8_t> out(mem.size());
  mem.copy_out(out.data(), 0, out.size());
  return out;
}

void expect_profiles_bit_identical(const DynamicProfile& a, const DynamicProfile& b) {
  EXPECT_EQ(a.block_visits, b.block_visits);
  EXPECT_EQ(a.instr_counts, b.instr_counts);
  EXPECT_EQ(a.global_load_bytes, b.global_load_bytes);
  EXPECT_EQ(a.global_store_bytes, b.global_store_bytes);
  EXPECT_EQ(a.barriers_waited, b.barriers_waited);
  EXPECT_EQ(a.sfu_instrs, b.sfu_instrs);
  EXPECT_EQ(a.sqrt_instrs, b.sqrt_instrs);
}

void expect_stats_bit_identical(const KernelExecStats& a, const KernelExecStats& b) {
  EXPECT_EQ(a.sigma, b.sigma);
  EXPECT_EQ(a.num_blocks, b.num_blocks);
  EXPECT_EQ(a.serial_blocks, b.serial_blocks);
  EXPECT_EQ(a.issue_cycles, b.issue_cycles);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.duration_us, b.duration_us);
  EXPECT_EQ(a.dynamic_energy_j, b.dynamic_energy_j);
  EXPECT_EQ(a.cache.accesses, b.cache.accesses);
  EXPECT_EQ(a.cache.hits, b.cache.hits);
  EXPECT_EQ(a.cache.misses, b.cache.misses);
}

class LaunchCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LaunchCache& c = LaunchCache::instance();
    c.clear();
    c.set_enabled(true);
    c.set_verify(false);
    c.set_capacity(1024, 512ull << 20);
  }
  void TearDown() override { SetUp(); }

  LaunchCache& cache() { return LaunchCache::instance(); }
};

TEST_F(LaunchCacheTest, HitReplaysByteIdenticalToRecomputationAtEveryWorkerCount) {
  const auto suite = workloads::make_suite();
  const GpuArch arch = make_quadro4000();
  const LaunchFixture fx(suite, "vectorAdd");

  // Fill once (miss), then compare every later hit against an independent
  // recomputation at each interpreter worker count: the replayed memory
  // must be byte-exact and the profile bit-identical regardless of how the
  // reference was parallelized.
  AddressSpace fill_mem = fx.make_memory(1);
  const LaunchCacheStats s0 = cache().stats();
  const LaunchEvaluation filled =
      cache().evaluate(arch, fx.w->kernel, fx.dims, fx.args, fill_mem);
  EXPECT_EQ(cache().stats().misses, s0.misses + 1);
  const std::vector<std::uint8_t> fill_bytes = all_bytes(fill_mem);

  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));

    AddressSpace ref_mem = fx.make_memory(1);
    Interpreter::Options opt;
    opt.workers = workers;
    const DynamicProfile ref_profile =
        Interpreter().run(fx.w->kernel, fx.dims, fx.args, ref_mem, opt);

    AddressSpace hit_mem = fx.make_memory(1);
    const LaunchCacheStats before = cache().stats();
    const LaunchEvaluation hit =
        cache().evaluate(arch, fx.w->kernel, fx.dims, fx.args, hit_mem);
    EXPECT_EQ(cache().stats().hits, before.hits + 1);
    EXPECT_EQ(cache().stats().misses, before.misses);

    EXPECT_EQ(all_bytes(hit_mem), all_bytes(ref_mem));
    EXPECT_EQ(all_bytes(hit_mem), fill_bytes);
    expect_profiles_bit_identical(hit.profile, ref_profile);
    expect_profiles_bit_identical(hit.profile, filled.profile);
    expect_stats_bit_identical(hit.stats, filled.stats);
  }
  EXPECT_GT(cache().stats().bytes_replayed, 0u);
}

TEST_F(LaunchCacheTest, SameKeyDifferentInputBytesIsAMissAndBothEntriesCoexist) {
  const auto suite = workloads::make_suite();
  const GpuArch arch = make_quadro4000();
  const LaunchFixture fx(suite, "vectorAdd");

  // Same kernel fingerprint, same dims, same argument values — only the
  // bytes behind the input pointers differ. A colliding hit would replay
  // seed-1 outputs into the seed-2 run.
  AddressSpace m1 = fx.make_memory(1);
  AddressSpace m2 = fx.make_memory(2);
  const LaunchCacheStats s0 = cache().stats();
  cache().evaluate(arch, fx.w->kernel, fx.dims, fx.args, m1);
  const LaunchEvaluation e2 = cache().evaluate(arch, fx.w->kernel, fx.dims, fx.args, m2);
  EXPECT_EQ(cache().stats().misses, s0.misses + 2);
  EXPECT_EQ(cache().stats().hits, s0.hits);

  // The seed-2 result must equal an uncached evaluation on seed-2 inputs.
  AddressSpace ref = fx.make_memory(2);
  const LaunchEvaluation ref_eval =
      evaluate_functional(arch, fx.w->kernel, fx.dims, fx.args, ref);
  EXPECT_EQ(all_bytes(m2), all_bytes(ref));
  expect_profiles_bit_identical(e2.profile, ref_eval.profile);
  expect_stats_bit_identical(e2.stats, ref_eval.stats);

  // Both inputs are now resident in one bucket: each replays as a hit.
  AddressSpace h1 = fx.make_memory(1);
  AddressSpace h2 = fx.make_memory(2);
  cache().evaluate(arch, fx.w->kernel, fx.dims, fx.args, h1);
  cache().evaluate(arch, fx.w->kernel, fx.dims, fx.args, h2);
  EXPECT_EQ(cache().stats().hits, s0.hits + 2);
  EXPECT_EQ(all_bytes(h1), all_bytes(m1));
  EXPECT_EQ(all_bytes(h2), all_bytes(m2));
}

// --- exact pre-image validation -------------------------------------------------

/// The merged read set of one launch on a copy of `mem`, as the fill path
/// captures it.
std::vector<MemChunk> read_set(const GpuArch& arch, const LaunchFixture& fx, AddressSpace mem) {
  std::vector<ChunkCapture> capture;
  evaluate_functional(arch, fx.w->kernel, fx.dims, fx.args, mem, &capture);
  IntervalSet merged;
  for (const ChunkCapture& c : capture) {
    for (const auto& [start, end] : c.reads.raw()) merged.add(start, end - start, nullptr);
  }
  return merged.ranges();
}

std::vector<std::uint8_t> bytes_at(const AddressSpace& mem, std::uint64_t addr, std::uint64_t n) {
  std::vector<std::uint8_t> out(n);
  mem.copy_out(out.data(), addr, n);
  return out;
}

/// Evaluates `mem` through the cache and requires a miss whose memory,
/// stats and profile equal evaluate_functional on a copy of the same input.
void expect_miss_equal_to_recomputation(LaunchCache& cache, const GpuArch& arch,
                                        const LaunchFixture& fx, AddressSpace& mem) {
  AddressSpace ref_mem = mem;
  const LaunchCacheStats before = cache.stats();
  const LaunchEvaluation got = cache.evaluate(arch, fx.w->kernel, fx.dims, fx.args, mem);
  EXPECT_EQ(cache.stats().misses, before.misses + 1);
  EXPECT_EQ(cache.stats().hits, before.hits);
  const LaunchEvaluation ref = evaluate_functional(arch, fx.w->kernel, fx.dims, fx.args, ref_mem);
  EXPECT_TRUE(all_bytes(mem) == all_bytes(ref_mem));
  expect_profiles_bit_identical(got.profile, ref.profile);
  expect_stats_bit_identical(got.stats, ref.stats);
}

/// One step of the chain mem_hash_bytes folds each 8-byte word into.
std::uint64_t chain_step(std::uint64_t h, std::uint64_t w) {
  return std::rotl(h ^ (w * 0xFF51AFD7ED558CCDull), 29) * 0xC4CEB9FE1A85EC53ull;
}

/// The inverse of an odd number mod 2^64 by Newton's iteration: x = a is
/// right in the low 3 bits, and each step doubles the right low bits.
std::uint64_t inverse_odd(std::uint64_t a) {
  std::uint64_t x = a;
  for (int i = 0; i < 5; ++i) x *= 2 - a * x;
  return x;
}

TEST_F(LaunchCacheTest, ChosenInputThatCollidesTheOldInputHashIsAMiss) {
  // A 64-bit hash chain over the read set used to decide hits: per range,
  // h = step(seed, range address), then h = step(h, word) for each 8-byte
  // word, with step(h, w) = rotl(h ^ w·C1, 29)·C2 invertible in w. Changing
  // word 0 of the first read range and solving word 1 so the state after
  // it is unchanged gives a different input with the same chain, which was
  // replayed as a hit of the original launch's outputs.
  const auto suite = workloads::make_suite();
  const GpuArch arch = make_quadro4000();
  const LaunchFixture fx(suite, "vectorAdd");
  AddressSpace original = fx.make_memory(1);
  const MemChunk first = read_set(arch, fx, original).front();
  ASSERT_GE(first.size, 16u);

  const std::uint64_t h0 = chain_step(kMemHashSeed, first.addr);
  const std::uint64_t w0 = original.read<std::uint64_t>(first.addr);
  const std::uint64_t w1 = original.read<std::uint64_t>(first.addr + 8);
  const std::uint64_t target = chain_step(chain_step(h0, w0), w1);
  const std::uint64_t forged_w0 = w0 + 1;
  const std::uint64_t h1 = chain_step(h0, forged_w0);
  const std::uint64_t forged_w1 =
      (std::rotr(target * inverse_odd(0xC4CEB9FE1A85EC53ull), 29) ^ h1) *
      inverse_odd(0xFF51AFD7ED558CCDull);
  ASSERT_EQ(chain_step(h1, forged_w1), target);

  AddressSpace forged = fx.make_memory(1);
  forged.write<std::uint64_t>(first.addr, forged_w0);
  forged.write<std::uint64_t>(first.addr + 8, forged_w1);
  // The two read sets differ in bytes but not in that chain.
  const std::vector<std::uint8_t> a = bytes_at(original, first.addr, first.size);
  const std::vector<std::uint8_t> b = bytes_at(forged, first.addr, first.size);
  ASSERT_NE(a, b);
  ASSERT_EQ(mem_hash_bytes(a.data(), a.size(), h0), mem_hash_bytes(b.data(), b.size(), h0));

  cache().evaluate(arch, fx.w->kernel, fx.dims, fx.args, original);
  expect_miss_equal_to_recomputation(cache(), arch, fx, forged);
}

TEST_F(LaunchCacheTest, AnyFlippedReadByteMissesAndTheUnchangedInputStillHits) {
  // Seeded differential over vectorAdd at a size whose read set spans
  // several 64 KiB pages and ends in a partial pre-image block. Input A
  // holds data; input B is either all zero on pages nothing ever marked
  // (null blocks, validated by page flags) or holds data too. One flipped
  // byte anywhere in the read set, at the fill-time placement or at a
  // relocated VP + δ, must miss and equal recomputation; the unchanged
  // input must hit, also after zeros are written over B's unmarked pages.
  const auto suite = workloads::make_suite();
  const GpuArch arch = make_quadro4000();
  const LaunchFixture base(suite, "vectorAdd", 40000);
  constexpr std::int64_t kDelta = 1 << 20;
  const LaunchFixture relocated = moved(base, kDelta);
  Rng rng(26);
  std::uint32_t flips = 0;
  for (const bool b_written : {false, true}) {
    SCOPED_TRACE(b_written ? "B written" : "B zero");
    cache().clear();
    const auto make = [&](const LaunchFixture& f) {
      AddressSpace mem(kMemBytes, "m");
      for (std::size_t i = 0; i < (b_written ? 2u : 1u); ++i) {
        for (std::uint64_t off = 0; off + 4 <= f.bufs[i].bytes; off += 4) {
          mem.write<float>(f.addrs[i] + off, 0.5f + static_cast<float>((off + 40 * i) % 97));
        }
      }
      return mem;
    };
    AddressSpace fill = make(base);
    const std::vector<MemChunk> ranges = read_set(arch, base, fill);
    std::uint64_t total = 0;
    for (const MemChunk& r : ranges) total += r.size;
    ASSERT_NE(total % LaunchCache::kBlockBytes, 0u) << "the last block must be partial";
    expect_miss_equal_to_recomputation(cache(), arch, base, fill);

    // Read-set offsets to flip: each range's first and last byte, the
    // partial last block, B's middle (an unmarked page when B is zero), and
    // seeded random ones.
    std::vector<std::uint64_t> addrs;
    for (const MemChunk& r : ranges) {
      addrs.push_back(r.addr);
      addrs.push_back(r.end() - 1);
    }
    addrs.push_back(ranges.back().end() - (total % LaunchCache::kBlockBytes) / 2);
    addrs.push_back(base.addrs[1] + base.bufs[1].bytes / 2);
    if (!b_written) {
      ASSERT_FALSE(make(base).page_marked(addrs.back() / AddressSpace::kPageBytes));
    }
    for (int i = 0; i < 8; ++i) {
      std::uint64_t off = rng.next_below(total);
      for (const MemChunk& r : ranges) {
        if (off < r.size) {
          addrs.push_back(r.addr + off);
          break;
        }
        off -= r.size;
      }
    }

    for (const LaunchFixture* f : {&base, &relocated}) {
      const std::uint64_t shift = f->addrs[0] - base.addrs[0];
      SCOPED_TRACE("shift=" + std::to_string(shift));
      for (const std::uint64_t addr : addrs) {
        SCOPED_TRACE("flipped byte at " + std::to_string(addr + shift));
        AddressSpace mem = make(*f);
        // A distinct xor per flip, so no flipped input equals an earlier one.
        const auto mask = static_cast<std::uint8_t>(1 + flips++ % 255);
        mem.write<std::uint8_t>(addr + shift, mem.read<std::uint8_t>(addr + shift) ^ mask);
        expect_miss_equal_to_recomputation(cache(), arch, *f, mem);
      }
      AddressSpace same = make(*f);
      if (!b_written) {
        for (std::uint64_t off = 0; off < f->bufs[1].bytes; off += 4096) {
          same.write<std::uint32_t>(f->addrs[1] + off, 0);
        }
      }
      const LaunchCacheStats before = cache().stats();
      cache().evaluate(arch, f->w->kernel, f->dims, f->args, same);
      EXPECT_EQ(cache().stats().hits, before.hits + 1);
      EXPECT_EQ(cache().stats().misses, before.misses);
      EXPECT_EQ(bytes_at(same, f->addrs[2], f->bufs[2].bytes),
                bytes_at(fill, base.addrs[2], base.bufs[2].bytes));
    }
  }
}

TEST_F(LaunchCacheTest, ExportImportCarriesPreImagesThatStillDecideHits) {
  // Eight entries whose inputs differ in one byte each, plus one all-zero
  // input. The export writes each distinct pre-image block once; a fresh
  // cache importing it holds the same entries (re-export is byte-identical),
  // hits each of their launches — also relocated — and misses a changed one.
  const auto suite = workloads::make_suite();
  const GpuArch arch = make_quadro4000();
  const LaunchFixture fx(suite, "vectorAdd", 40000);
  std::vector<AddressSpace> inputs;
  for (int k = 0; k < 8; ++k) {
    inputs.push_back(fx.make_memory(3));
    inputs.back().write<std::uint8_t>(fx.addrs[0] + 977 * k, 0xEE);
  }
  inputs.emplace_back(kMemBytes, "zeros");
  std::vector<std::vector<std::uint8_t>> outputs;
  for (const AddressSpace& in : inputs) {
    AddressSpace mem = in;
    cache().evaluate(arch, fx.w->kernel, fx.dims, fx.args, mem);
    outputs.push_back(all_bytes(mem));
  }
  ASSERT_EQ(cache().stats().entries, inputs.size());

  snapshot::Writer w1;
  cache().export_state(w1);
  const std::vector<std::uint8_t> blob = w1.buffer();
  // Write sets are stored per entry; pre-image blocks once. A dense copy
  // per entry would add one pre-image per entry instead of about one.
  const std::uint64_t pre_image_bytes = 2 * fx.bufs[0].bytes;
  const std::uint64_t write_bytes = fx.bufs[2].bytes;
  EXPECT_LT(blob.size(), inputs.size() * write_bytes + 2 * pre_image_bytes);

  const std::unique_ptr<LaunchCache> imported = LaunchCache::create_shard();
  snapshot::Reader r(blob);
  imported->import_state(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(imported->stats().entries, cache().stats().entries);
  EXPECT_EQ(imported->stats().bytes, cache().stats().bytes);
  snapshot::Writer w2;
  imported->export_state(w2);
  EXPECT_EQ(w2.buffer(), blob);

  const LaunchFixture far = moved(fx, 3 << 20);
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    SCOPED_TRACE("input " + std::to_string(k));
    AddressSpace mem = inputs[k];
    const LaunchCacheStats before = imported->stats();
    imported->evaluate(arch, fx.w->kernel, fx.dims, fx.args, mem);
    EXPECT_EQ(imported->stats().hits, before.hits + 1);
    EXPECT_TRUE(all_bytes(mem) == outputs[k]);

    // The same input at buffers 3 MiB higher hits the same entry.
    AddressSpace high(kMemBytes, "high");
    for (std::size_t i = 0; i < 2; ++i) {
      const std::vector<std::uint8_t> in = bytes_at(inputs[k], fx.addrs[i], fx.bufs[i].bytes);
      high.copy_in(far.addrs[i], in.data(), in.size());
    }
    imported->evaluate(arch, far.w->kernel, far.dims, far.args, high);
    EXPECT_EQ(imported->stats().hits, before.hits + 2);
    EXPECT_EQ(bytes_at(high, far.addrs[2], write_bytes), bytes_at(mem, fx.addrs[2], write_bytes));
  }
  AddressSpace changed = inputs[0];
  changed.write<std::uint8_t>(fx.addrs[1] + 5, 0x11);
  expect_miss_equal_to_recomputation(*imported, arch, fx, changed);
}

TEST_F(LaunchCacheTest, EvictionIsDeterministicInsertionOrder) {
  const auto suite = workloads::make_suite();
  const GpuArch arch = make_quadro4000();
  const LaunchFixture fx(suite, "vectorAdd");

  auto probe = [&](std::uint32_t seed) -> bool {
    AddressSpace m = fx.make_memory(seed);
    const LaunchCacheStats before = cache().stats();
    cache().evaluate(arch, fx.w->kernel, fx.dims, fx.args, m);
    return cache().stats().hits == before.hits + 1;
  };

  // Two identical rounds must produce identical hit/miss/eviction outcomes:
  // eviction follows insertion order alone, never hashing or wall clock.
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    cache().clear();
    cache().set_capacity(4, 512ull << 20);
    // The evictions counter is cumulative (clear() drops entries, not
    // history), so assert per-round deltas.
    const std::uint64_t ev0 = cache().stats().evictions;

    // Fill seeds 1..6 through a 4-entry cache: inserting 5 evicts 1,
    // inserting 6 evicts 2 — residency is {3, 4, 5, 6}.
    for (std::uint32_t seed = 1; seed <= 6; ++seed) {
      AddressSpace m = fx.make_memory(seed);
      cache().evaluate(arch, fx.w->kernel, fx.dims, fx.args, m);
    }
    EXPECT_EQ(cache().stats().entries, 4u);
    EXPECT_EQ(cache().stats().evictions, ev0 + 2);

    // Probe youngest-first so hits don't perturb residency (hits never
    // reorder or refill anything).
    EXPECT_TRUE(probe(6));
    EXPECT_TRUE(probe(5));
    EXPECT_TRUE(probe(4));
    EXPECT_TRUE(probe(3));
    EXPECT_EQ(cache().stats().evictions, ev0 + 2);

    // Seed 2 was evicted: the probe misses, re-fills, and the re-fill
    // evicts seed 3 — the oldest *insertion*, even though seed 3 was hit
    // (accessed) a moment ago. FIFO by insertion, not LRU by access.
    EXPECT_FALSE(probe(2));
    EXPECT_EQ(cache().stats().evictions, ev0 + 3);
    EXPECT_FALSE(probe(3));
    EXPECT_EQ(cache().stats().evictions, ev0 + 4);
    EXPECT_EQ(cache().stats().entries, 4u);
  }
}

/// Every buffer's bytes plus a digest of the whole space: what a launch's
/// outcome in memory is compared by.
std::vector<std::uint8_t> buffer_bytes(const LaunchFixture& fx, const AddressSpace& mem) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i < fx.bufs.size(); ++i) {
    const std::size_t at = out.size();
    out.resize(at + fx.bufs[i].bytes);
    mem.copy_out(out.data() + at, fx.addrs[i], fx.bufs[i].bytes);
  }
  const std::uint64_t digest = mem.content_digest(kMemHashSeed);
  const auto* d = reinterpret_cast<const std::uint8_t*>(&digest);
  out.insert(out.end(), d, d + sizeof(digest));
  return out;
}

TEST(LaunchCacheConcurrency, ThreadsSharingOneCacheGetRecomputedOutcomes) {
  // Six threads evaluate three kernels × three input variants on one
  // private cache that holds four entries, so fills evict while other
  // threads look up. Every outcome must equal plain evaluate_functional,
  // every lookup is a hit or a miss, and residency never passes the cap.
  const auto suite = workloads::make_suite();
  const GpuArch arch = make_quadro4000();
  const std::vector<LaunchFixture> fixtures = {LaunchFixture(suite, "vectorAdd"),
                                               LaunchFixture(suite, "matrixMul"),
                                               LaunchFixture(suite, "convolutionSeparable")};
  constexpr std::uint32_t kSeeds = 3;
  constexpr std::uint64_t kCapacity = 4;
  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kLookupsPerThread = 18;

  struct Expected {
    std::vector<std::uint8_t> memory;
    LaunchEvaluation eval;
  };
  std::vector<Expected> expected;  // index: fixture * kSeeds + seed
  for (const LaunchFixture& fx : fixtures) {
    for (std::uint32_t seed = 0; seed < kSeeds; ++seed) {
      AddressSpace mem = fx.make_memory(seed + 1);
      LaunchEvaluation eval = evaluate_functional(arch, fx.w->kernel, fx.dims, fx.args, mem);
      expected.push_back({buffer_bytes(fx, mem), std::move(eval)});
    }
  }

  const std::unique_ptr<LaunchCache> cache = LaunchCache::create_shard();
  cache->set_enabled(true);
  cache->set_verify(false);
  cache->set_capacity(kCapacity, 512ull << 20);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kLookupsPerThread; ++i) {
        const std::size_t k = (t * 5 + i) % expected.size();
        const LaunchFixture& fx = fixtures[k / kSeeds];
        AddressSpace mem = fx.make_memory(static_cast<std::uint32_t>(k % kSeeds) + 1);
        const LaunchEvaluation got = cache->evaluate(arch, fx.w->kernel, fx.dims, fx.args, mem);
        EXPECT_NE(got.cache, LaunchCacheOutcome::kBypass);
        EXPECT_TRUE(buffer_bytes(fx, mem) == expected[k].memory) << fx.w->app << " #" << k;
        EXPECT_TRUE(got.stats == expected[k].eval.stats) << fx.w->app << " #" << k;
        EXPECT_TRUE(got.profile == expected[k].eval.profile) << fx.w->app << " #" << k;
        EXPECT_LE(cache->stats().entries, kCapacity);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const LaunchCacheStats s = cache->stats();
  EXPECT_EQ(s.hits + s.misses, kThreads * kLookupsPerThread);
  EXPECT_EQ(s.bypasses, 0u);
  EXPECT_LE(s.entries, kCapacity);
  EXPECT_GT(s.evictions, 0u);
  EXPECT_GT(s.hits, 0u);
}

TEST_F(LaunchCacheTest, ExplicitFaultBypassNeverFillsOrHits) {
  const auto suite = workloads::make_suite();
  const GpuArch arch = make_quadro4000();
  const LaunchFixture fx(suite, "vectorAdd");

  AddressSpace m1 = fx.make_memory(1);
  const LaunchCacheStats s0 = cache().stats();
  cache().evaluate(arch, fx.w->kernel, fx.dims, fx.args, m1, LaunchCache::Bypass::kFault);
  EXPECT_EQ(cache().stats().bypasses, s0.bypasses + 1);
  EXPECT_EQ(cache().stats().misses, s0.misses);
  EXPECT_EQ(cache().stats().entries, 0u);

  // Nothing was filled: an identical cacheable launch is a miss.
  AddressSpace m2 = fx.make_memory(1);
  cache().evaluate(arch, fx.w->kernel, fx.dims, fx.args, m2);
  EXPECT_EQ(cache().stats().misses, s0.misses + 1);
  EXPECT_EQ(all_bytes(m1), all_bytes(m2));
}

TEST_F(LaunchCacheTest, DeviceWithActiveFaultPlanBypassesTheCache) {
  const auto suite = workloads::make_suite();
  const LaunchFixture fx(suite, "vectorAdd");

  FaultConfig fcfg;
  fcfg.drop_rate = 1.0;  // any nonzero rate arms the plan; drops affect IPC only
  FaultPlan plan(fcfg);
  FaultStats fstats;
  ASSERT_TRUE(plan.enabled());

  EventQueue queue;
  GpuDevice dev(queue, make_quadro4000(), kMemBytes, "gpu");
  dev.set_fault(&plan, &fstats);
  const AddressSpace src = fx.make_memory(1);
  for (std::size_t i = 0; i < fx.bufs.size(); ++i) {
    if (!fx.bufs[i].is_input) continue;
    std::vector<std::uint8_t> bytes(fx.bufs[i].bytes);
    src.copy_out(bytes.data(), fx.addrs[i], bytes.size());
    dev.memory().copy_in(fx.addrs[i], bytes.data(), bytes.size());
  }

  LaunchRequest req;
  req.kernel = &fx.w->kernel;
  req.dims = fx.dims;
  req.args = fx.args;
  req.mode = ExecMode::kFunctional;
  const LaunchCacheStats s0 = cache().stats();
  dev.launch(0, req);
  EXPECT_EQ(cache().stats().bypasses, s0.bypasses + 1);
  EXPECT_EQ(cache().stats().hits, s0.hits);
  EXPECT_EQ(cache().stats().misses, s0.misses);
  EXPECT_EQ(cache().stats().entries, 0u);
}

TEST_F(LaunchCacheTest, GlobalAtomicsKernelsAreBypassed) {
  const auto suite = workloads::make_suite();
  const GpuArch arch = make_quadro4000();
  const LaunchFixture fx(suite, "histogram");
  ASSERT_TRUE(Interpreter::uses_global_atomics(fx.w->kernel));

  AddressSpace m1 = fx.make_memory(1);
  AddressSpace m2 = fx.make_memory(1);
  const LaunchCacheStats s0 = cache().stats();
  cache().evaluate(arch, fx.w->kernel, fx.dims, fx.args, m1);
  cache().evaluate(arch, fx.w->kernel, fx.dims, fx.args, m2);
  EXPECT_EQ(cache().stats().bypasses, s0.bypasses + 2);
  EXPECT_EQ(cache().stats().hits, s0.hits);
  EXPECT_EQ(cache().stats().entries, 0u);
  EXPECT_EQ(all_bytes(m1), all_bytes(m2));
}

TEST_F(LaunchCacheTest, VerifyModeRecomputesOnHitsAndAgrees) {
  const auto suite = workloads::make_suite();
  const GpuArch arch = make_quadro4000();
  const LaunchFixture fx(suite, "matrixMul");
  cache().set_verify(true);

  AddressSpace fill = fx.make_memory(1);
  cache().evaluate(arch, fx.w->kernel, fx.dims, fx.args, fill);
  const LaunchCacheStats before = cache().stats();
  AddressSpace m = fx.make_memory(1);
  // A verify-mode hit re-executes against a copy of `m` and throws on any
  // stats/profile/write-set divergence; agreeing silently IS the assertion.
  EXPECT_NO_THROW(cache().evaluate(arch, fx.w->kernel, fx.dims, fx.args, m));
  EXPECT_EQ(cache().stats().hits, before.hits + 1);
  EXPECT_EQ(all_bytes(m), all_bytes(fill));
}

TEST_F(LaunchCacheTest, DisabledCacheTouchesNoCounters) {
  const auto suite = workloads::make_suite();
  const GpuArch arch = make_quadro4000();
  const LaunchFixture fx(suite, "vectorAdd");
  cache().set_enabled(false);

  AddressSpace m1 = fx.make_memory(1);
  AddressSpace m2 = fx.make_memory(1);
  const LaunchCacheStats s0 = cache().stats();
  cache().evaluate(arch, fx.w->kernel, fx.dims, fx.args, m1);
  cache().evaluate(arch, fx.w->kernel, fx.dims, fx.args, m2);
  const LaunchCacheStats s1 = cache().stats();
  EXPECT_EQ(s1.hits, s0.hits);
  EXPECT_EQ(s1.misses, s0.misses);
  EXPECT_EQ(s1.bypasses, s0.bypasses);
  EXPECT_EQ(s1.entries, 0u);
  EXPECT_EQ(all_bytes(m1), all_bytes(m2));
}

TEST_F(LaunchCacheTest, ScalarJitterPartitionsTheCacheByArgBytes) {
  // The almost-identical regime, cache-side: per-VP scalar jitter changes the
  // raw f32 argument bits, so jittered requests are distinct cache lines even
  // though the kernel fingerprint, dims, and input bytes are identical —
  // while a repeated jitter seed replays as a hit.
  const auto suite = workloads::make_app_suite();
  const workloads::Workload& cam = workloads::find(suite, "camPipeline");
  const workloads::PipelineStage& st = cam.stages.front();  // cam.gain
  const GpuArch arch = make_quadro4000();
  const std::uint64_t n = cam.test_n;

  std::vector<std::uint64_t> addrs;
  FreeListAllocator alloc(4096, kMemBytes - 4096);
  for (const auto& b : cam.buffers(n)) addrs.push_back(*alloc.allocate(b.bytes));
  auto make_memory = [&] {
    AddressSpace mem(kMemBytes, "m");
    for (std::uint64_t i = 0; i < n; ++i) {
      mem.write<float>(addrs[0] + 4 * i, static_cast<float>((i * 7 + 3) % 251));
    }
    return mem;
  };
  auto evaluate = [&](std::uint64_t jitter) {
    AddressSpace mem = make_memory();
    cache().evaluate(arch, st.kernel, st.dims(n), st.args(addrs, n, jitter), mem);
  };

  const LaunchCacheStats s0 = cache().stats();
  evaluate(0);     // canonical scalars: fill
  evaluate(0);     // repeat: hit
  evaluate(1001);  // jittered gain: new arg bytes, miss
  evaluate(1002);  // different VP's jitter: miss again
  evaluate(1001);  // same VP repeats its request: hit
  EXPECT_EQ(cache().stats().misses, s0.misses + 3);
  EXPECT_EQ(cache().stats().hits, s0.hits + 2);
  EXPECT_EQ(cache().stats().entries, 3u);

  // Structural addressing: a separately-built kernel image with the same
  // fingerprint hits the entries this suite's image filled.
  const auto rebuilt = workloads::make_app_suite();
  const workloads::PipelineStage& st2 =
      workloads::find(rebuilt, "camPipeline").stages.front();
  ASSERT_NE(&st2.kernel, &st.kernel);
  AddressSpace mem = make_memory();
  const LaunchCacheStats before = cache().stats();
  cache().evaluate(arch, st2.kernel, st2.dims(n), st2.args(addrs, n, 1002), mem);
  EXPECT_EQ(cache().stats().hits, before.hits + 1);
  EXPECT_EQ(cache().stats().misses, before.misses);
}

// --- relocation ----------------------------------------------------------------

TEST_F(LaunchCacheTest, RelocatedHitsEqualRecomputationAtRandomLineMultipleShifts) {
  // Seeded differential: fill once at the fixture's addresses, then move
  // every buffer by one random multiple of the L2 line. Each move must hit
  // and equal a fresh evaluation at the moved addresses in memory, stats
  // (L2 hits/misses included) and profile.
  const auto suite = workloads::make_suite();
  const GpuArch arch = make_quadro4000();
  const auto line = static_cast<std::int64_t>(arch.l2.line_bytes);
  Rng rng(2024);
  for (const char* app : {"vectorAdd", "BlackScholes", "matrixMul", "SobelFilter",
                          "convolutionSeparable", "dct8x8", "nbody", "reduction",
                          "recursiveGaussian"}) {
    SCOPED_TRACE(app);
    const LaunchFixture fx(suite, app);
    ASSERT_NE(prove_translation_invariant(fx.w->kernel).mask, 0u);
    std::uint64_t lo = kMemBytes, hi = 0;
    for (std::size_t i = 0; i < fx.addrs.size(); ++i) {
      lo = std::min(lo, fx.addrs[i]);
      hi = std::max(hi, fx.addrs[i] + fx.bufs[i].bytes);
    }
    const std::int64_t min_lines = -static_cast<std::int64_t>(lo) / line;
    const std::int64_t max_lines = static_cast<std::int64_t>(kMemBytes - hi) / line;

    AddressSpace fill_mem = fx.make_memory(1);
    cache().evaluate(arch, fx.w->kernel, fx.dims, fx.args, fill_mem);
    for (int round = 0; round < 4; ++round) {
      std::int64_t lines = 0;
      while (lines == 0) {
        lines = min_lines + static_cast<std::int64_t>(
                                rng.next_below(static_cast<std::uint64_t>(max_lines - min_lines + 1)));
      }
      SCOPED_TRACE("shift " + std::to_string(lines * line));
      const LaunchFixture at = moved(fx, lines * line);
      AddressSpace hit_mem = at.make_memory(1);
      cache().set_verify(round == 3);  // verify mode recomputes at the moved ranges
      const LaunchCacheStats before = cache().stats();
      const LaunchEvaluation hit =
          cache().evaluate(arch, at.w->kernel, at.dims, at.args, hit_mem);
      EXPECT_EQ(cache().stats().hits, before.hits + 1);
      EXPECT_EQ(cache().stats().misses, before.misses);

      AddressSpace ref_mem = at.make_memory(1);
      const LaunchEvaluation ref = evaluate_functional(arch, at.w->kernel, at.dims, at.args, ref_mem);
      EXPECT_EQ(all_bytes(hit_mem), all_bytes(ref_mem));
      expect_stats_bit_identical(hit.stats, ref.stats);
      expect_profiles_bit_identical(hit.profile, ref.profile);
    }
  }
}

TEST_F(LaunchCacheTest, ShiftsThatBreakRelocationMissAndStillEqualRecomputation) {
  const auto suite = workloads::make_suite();
  const GpuArch arch = make_quadro4000();
  const auto line = static_cast<std::int64_t>(arch.l2.line_bytes);
  const LaunchFixture fx(suite, "vectorAdd");  // (a, b, c: pointers; n)
  AddressSpace fill_mem = fx.make_memory(1);
  cache().evaluate(arch, fx.w->kernel, fx.dims, fx.args, fill_mem);

  auto expect_miss = [&](const LaunchFixture& at) {
    AddressSpace mem = at.make_memory(1);
    const LaunchCacheStats before = cache().stats();
    const LaunchEvaluation got = cache().evaluate(arch, at.w->kernel, at.dims, at.args, mem);
    EXPECT_EQ(cache().stats().misses, before.misses + 1);
    EXPECT_EQ(cache().stats().hits, before.hits);
    AddressSpace ref_mem = at.make_memory(1);
    const LaunchEvaluation ref = evaluate_functional(arch, at.w->kernel, at.dims, at.args, ref_mem);
    EXPECT_EQ(all_bytes(mem), all_bytes(ref_mem));
    expect_stats_bit_identical(got.stats, ref.stats);
  };
  {
    SCOPED_TRACE("non-uniform shift");
    expect_miss(moved(fx, {64 * line, 64 * line, 65 * line}));
  }
  {
    SCOPED_TRACE("shift that is not a line multiple");
    expect_miss(moved(fx, line / 2));
  }
  {
    SCOPED_TRACE("changed scalar");
    LaunchFixture at = moved(fx, 8 * line);
    at.args.values.back() -= 1;  // n
    expect_miss(at);
  }
}

TEST_F(LaunchCacheTest, RefusedKernelKeysOnPointerBitsAndNeverRelocates) {
  // out[i] = in[i] + (in < threshold): the kernel reads its input pointer as
  // a number, so moving the buffers across the threshold changes the output
  // and a relocated hit would replay wrong bytes.
  KernelBuilder b("pointer_compare", 4);
  const auto pin = b.reg(), pout = b.reg(), thr = b.reg(), n = b.reg();
  const auto tid = b.reg(), cta = b.reg(), ntid = b.reg(), gid = b.reg(), cond = b.reg();
  const auto two = b.reg(), off = b.reg(), ain = b.reg(), aout = b.reg();
  const auto x = b.reg(), lt = b.reg(), f = b.reg(), y = b.reg();
  b.block("entry");
  b.ld_param(pin, 0);
  b.ld_param(pout, 1);
  b.ld_param(thr, 2);
  b.ld_param(n, 3);
  b.special(tid, SpecialReg::kTidX);
  b.special(cta, SpecialReg::kCtaidX);
  b.special(ntid, SpecialReg::kNtidX);
  b.mul_i(gid, cta, ntid);
  b.add_i(gid, gid, tid);
  b.set_lt_i(cond, gid, n);
  b.bra_z(cond, "exit");
  b.block("body");
  b.mov_imm_i(two, 2);
  b.shl_b(off, gid, two);
  b.add_i(ain, pin, off);
  b.add_i(aout, pout, off);
  b.ld_global_f32(x, ain);
  b.set_lt_i(lt, pin, thr);
  b.cvt_i_to_f32(f, lt);
  b.add_f32(y, x, f);
  b.st_global_f32(y, aout);
  b.ret();
  b.block("exit");
  b.ret();
  const KernelIR ir = b.build();
  ASSERT_FALSE(prove_translation_invariant(ir).proved());

  const GpuArch arch = make_quadro4000();
  constexpr std::uint64_t kN = 256, kThreshold = 1 << 20;
  auto launch = [&](std::uint64_t base) {
    AddressSpace mem(kMemBytes, "m");
    for (std::uint64_t i = 0; i < kN; ++i) mem.write<float>(base + 4 * i, 0.5f * i);
    KernelArgs args;
    args.push_ptr(base);
    args.push_ptr(base + 4 * kN);
    args.push_i64(kThreshold);
    args.push_i64(kN);
    const LaunchCacheStats before = cache().stats();
    cache().evaluate(arch, ir, LaunchDims{kN / 64, 1, 64, 1}, args, mem);
    const bool hit = cache().stats().hits == before.hits + 1;
    std::vector<float> out(kN);
    for (std::uint64_t i = 0; i < kN; ++i) out[i] = mem.read<float>(base + 4 * (kN + i));
    return std::make_pair(hit, out);
  };
  const auto below = launch(kThreshold - 64 * 1024);
  EXPECT_FALSE(below.first);
  EXPECT_TRUE(launch(kThreshold - 64 * 1024).first);  // same pointers: today's key hits
  const auto above = launch(kThreshold + 64 * 1024);  // a 64 KiB common shift
  EXPECT_FALSE(above.first);
  EXPECT_EQ(below.second[3], 2.5f);
  EXPECT_EQ(above.second[3], 1.5f);
}

// --- capture fast path -------------------------------------------------------

TEST(IntervalSet, MatchesAByteCoverageOracleAndReportsEachNewByteOnce) {
  // Streams that revisit, append to, prepend to, straddle and bridge
  // intervals, more of them than the MRU holds. The set must equal the
  // covered bytes, coalesced, and the gaps must be exactly the bytes each
  // add newly covered (the undo log relies on first-write-wins).
  constexpr std::uint64_t kSpan = 4096;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    IntervalSet set;
    std::vector<bool> covered(kSpan, false);
    std::vector<std::uint64_t> cursor(6);
    for (std::uint64_t& c : cursor) c = rng.next_below(kSpan - 64);
    for (int i = 0; i < 3000; ++i) {
      const std::size_t s = rng.next_below(cursor.size());
      const std::uint64_t size = 1 + rng.next_below(16);
      const double pick = rng.next_double();
      std::uint64_t addr;
      if (pick < 0.5) {
        addr = cursor[s];  // append to stream s
      } else if (pick < 0.7) {
        addr = cursor[s] >= size ? cursor[s] - size : 0;  // revisit / straddle
      } else {
        addr = rng.next_below(kSpan - 32);  // anywhere
      }
      addr = std::min(addr, kSpan - size);
      cursor[s] = std::min(addr + size, kSpan - 32);

      std::vector<MemChunk> gaps;
      set.add(addr, size, &gaps);
      std::vector<bool> fresh(kSpan, false);
      for (std::uint64_t a = addr; a < addr + size; ++a) fresh[a] = !covered[a];
      for (const MemChunk& g : gaps) {
        for (std::uint64_t a = g.addr; a < g.end(); ++a) {
          ASSERT_TRUE(fresh[a]) << "byte " << a << " reported twice or never new, add " << i;
          fresh[a] = false;
          covered[a] = true;
        }
      }
      for (std::uint64_t a = addr; a < addr + size; ++a) {
        ASSERT_FALSE(fresh[a]) << "new byte " << a << " not reported, add " << i;
      }
    }
    std::vector<MemChunk> expected;
    for (std::uint64_t a = 0; a < kSpan; ++a) {
      if (!covered[a]) continue;
      if (!expected.empty() && expected.back().end() == a) {
        ++expected.back().size;
      } else {
        expected.push_back({a, 1});
      }
    }
    EXPECT_EQ(set.ranges(), expected);
  }
}

/// A builder kernel plus the memory it starts from, for fill-then-hit checks.
struct CaptureCase {
  KernelIR ir;
  LaunchDims dims;
  KernelArgs args;
  std::function<void(AddressSpace&)> init;
  std::uint64_t read_byte = 0;  // a byte the launch reads before writing it
};

constexpr std::uint64_t kCaseBytes = 1ull << 20;
constexpr std::uint32_t kCaseBlocks = 8;
constexpr std::uint32_t kCaseThreads = 32;
constexpr std::uint64_t kCaseGids = kCaseBlocks * kCaseThreads;

LaunchDims case_dims() {
  LaunchDims dims;
  dims.grid_x = kCaseBlocks;
  dims.block_x = kCaseThreads;
  return dims;
}

/// Emits `gid * scale` into a fresh register.
KernelBuilder::Reg gid_times(KernelBuilder& b, std::int64_t scale) {
  const auto tid = b.reg(), cta = b.reg(), ntid = b.reg(), k = b.reg(), out = b.reg();
  b.special(tid, SpecialReg::kTidX);
  b.special(cta, SpecialReg::kCtaidX);
  b.special(ntid, SpecialReg::kNtidX);
  b.mul_i(out, cta, ntid);
  b.add_i(out, out, tid);
  b.mov_imm_i(k, scale);
  b.mul_i(out, out, k);
  return out;
}

/// Fills [addr, addr + bytes) with a nonzero word pattern.
void fill_pattern(AddressSpace& mem, std::uint64_t addr, std::uint64_t bytes, std::uint32_t salt) {
  for (std::uint64_t off = 0; off + 4 <= bytes; off += 4) {
    mem.write<std::uint32_t>(addr + off, static_cast<std::uint32_t>(off * 2654435761u) ^ salt);
  }
}

void expect_fill_then_hit_matches_recomputation(LaunchCache& cache, const CaptureCase& c) {
  const GpuArch arch = make_quadro4000();
  const auto fresh = [&] {
    AddressSpace mem(kCaseBytes, "m");
    c.init(mem);
    return mem;
  };
  cache.set_verify(true);

  AddressSpace fill_mem = fresh();
  const LaunchCacheStats s0 = cache.stats();
  const LaunchEvaluation fill = cache.evaluate(arch, c.ir, c.dims, c.args, fill_mem);
  EXPECT_EQ(cache.stats().misses, s0.misses + 1);

  // Verify mode re-executes the hit against a copy of its memory and throws
  // on any divergence in stats, profile or write-set bytes.
  AddressSpace hit_mem = fresh();
  LaunchEvaluation hit;
  EXPECT_NO_THROW(hit = cache.evaluate(arch, c.ir, c.dims, c.args, hit_mem));
  EXPECT_EQ(cache.stats().hits, s0.hits + 1);

  AddressSpace ref_mem = fresh();
  const LaunchEvaluation ref = evaluate_functional(arch, c.ir, c.dims, c.args, ref_mem);
  EXPECT_EQ(all_bytes(fill_mem), all_bytes(ref_mem));
  EXPECT_EQ(all_bytes(hit_mem), all_bytes(ref_mem));
  expect_profiles_bit_identical(fill.profile, ref.profile);
  expect_profiles_bit_identical(hit.profile, ref.profile);
  expect_stats_bit_identical(fill.stats, ref.stats);
  expect_stats_bit_identical(hit.stats, ref.stats);

  // A changed byte in the read-set is a different input: a miss, not a hit.
  AddressSpace changed = fresh();
  changed.write<std::uint8_t>(c.read_byte, changed.read<std::uint8_t>(c.read_byte) ^ 0x5A);
  const LaunchCacheStats s1 = cache.stats();
  cache.evaluate(arch, c.ir, c.dims, c.args, changed);
  EXPECT_EQ(cache.stats().misses, s1.misses + 1);
  EXPECT_EQ(cache.stats().hits, s1.hits);
}

TEST_F(LaunchCacheTest, CaptureOfMoreInterleavedStreamsThanTheMruHolds) {
  // Each thread reads one word from each of 8 separate rows, then writes
  // one word to each of 8 separate rows: every access moves to another
  // stream, so the capture's MRU keeps losing the stream it needs next.
  constexpr std::int64_t kStreams = 8;
  constexpr std::int64_t kRowBytes = 4096;  // rows never touch
  constexpr std::uint64_t kIn = 0x10000;
  constexpr std::uint64_t kOut = 0x40000;
  KernelBuilder b("streams", 2);
  const auto pin = b.reg(), pout = b.reg(), acc = b.reg(), v = b.reg();
  b.block("entry");
  const auto off = gid_times(b, 4);
  b.ld_param(pin, 0);
  b.ld_param(pout, 1);
  b.add_i(pin, pin, off);
  b.add_i(pout, pout, off);
  b.mov_imm_f32(acc, 0.5f);
  for (std::int64_t k = 0; k < kStreams; ++k) {
    b.ld_global_f32(v, pin, k * kRowBytes);
    b.add_f32(acc, acc, v);
  }
  for (std::int64_t k = 0; k < kStreams; ++k) {
    b.mul_f32(v, acc, acc);
    b.st_global_f32(v, pout, k * kRowBytes);
    b.add_f32(acc, acc, v);
  }
  b.ret();

  CaptureCase c{b.build(), case_dims(), {}, nullptr, kIn + 5 * kRowBytes + 4 * 77 + 1};
  c.args.push_ptr(kIn);
  c.args.push_ptr(kOut);
  c.init = [](AddressSpace& mem) {
    for (std::int64_t k = 0; k < kStreams; ++k) {
      for (std::uint64_t g = 0; g < kCaseGids; ++g) {
        mem.write<float>(kIn + k * kRowBytes + 4 * g, 0.125f * static_cast<float>((g + k) % 17));
      }
    }
  };
  expect_fill_then_hit_matches_recomputation(cache(), c);
}

TEST_F(LaunchCacheTest, CaptureOfAdjacentButSeparateWrites) {
  // Each thread writes two adjacent words with two stores, and one word of
  // a second region in descending address order, so each store there ends
  // where the previous one began.
  constexpr std::uint64_t kIn = 0x10000;
  constexpr std::uint64_t kOut = 0x20000;
  constexpr std::uint64_t kDesc = 0x30000;
  KernelBuilder b("adjacent", 3);
  const auto pin = b.reg(), pout = b.reg(), pdesc = b.reg(), x = b.reg(), y = b.reg();
  const auto last = b.reg(), rev = b.reg(), four = b.reg();
  b.block("entry");
  const auto off4 = gid_times(b, 4);
  const auto off8 = gid_times(b, 8);
  const auto gid = gid_times(b, 1);
  b.ld_param(pin, 0);
  b.ld_param(pout, 1);
  b.ld_param(pdesc, 2);
  b.add_i(pin, pin, off4);
  b.add_i(pout, pout, off8);
  b.ld_global_i32(x, pin);
  b.add_i(y, x, x);
  b.st_global_i32(x, pout);
  b.st_global_i32(y, pout, 4);
  b.mov_imm_i(last, static_cast<std::int64_t>(kCaseGids - 1));
  b.sub_i(rev, last, gid);
  b.mov_imm_i(four, 4);
  b.mul_i(rev, rev, four);
  b.add_i(pdesc, pdesc, rev);
  b.st_global_i32(y, pdesc);
  b.ret();

  CaptureCase c{b.build(), case_dims(), {}, nullptr, kIn + 4 * 200 + 2};
  c.args.push_ptr(kIn);
  c.args.push_ptr(kOut);
  c.args.push_ptr(kDesc);
  c.init = [](AddressSpace& mem) {
    fill_pattern(mem, kIn, 4 * kCaseGids, 0x1234);
    fill_pattern(mem, kOut, 8 * kCaseGids, 0x77);  // pre-store bytes are not zero
    fill_pattern(mem, kDesc, 4 * kCaseGids, 0x99);
  };
  expect_fill_then_hit_matches_recomputation(cache(), c);
}

TEST_F(LaunchCacheTest, CaptureOfInPlaceReadModifyWrite) {
  // buf[gid] = buf[gid] * 2 + 1, then the updated word is read back and
  // copied out: the read-set's pre-launch bytes come from the undo log.
  constexpr std::uint64_t kBuf = 0x10000;
  constexpr std::uint64_t kCopy = 0x20000;
  KernelBuilder b("rmw", 2);
  const auto pbuf = b.reg(), pcopy = b.reg(), v = b.reg(), two = b.reg(), one = b.reg();
  b.block("entry");
  const auto off = gid_times(b, 4);
  b.ld_param(pbuf, 0);
  b.ld_param(pcopy, 1);
  b.add_i(pbuf, pbuf, off);
  b.add_i(pcopy, pcopy, off);
  b.mov_imm_f32(two, 2.0f);
  b.mov_imm_f32(one, 1.0f);
  b.ld_global_f32(v, pbuf);
  b.fma_f32(v, v, two, one);
  b.st_global_f32(v, pbuf);
  b.ld_global_f32(v, pbuf);
  b.st_global_f32(v, pcopy);
  b.ret();

  CaptureCase c{b.build(), case_dims(), {}, nullptr, kBuf + 4 * 131 + 3};
  c.args.push_ptr(kBuf);
  c.args.push_ptr(kCopy);
  c.init = [](AddressSpace& mem) {
    for (std::uint64_t g = 0; g < kCaseGids; ++g) {
      mem.write<float>(kBuf + 4 * g, 0.25f * static_cast<float>(g % 29));
    }
  };
  expect_fill_then_hit_matches_recomputation(cache(), c);
}

TEST_F(LaunchCacheTest, CaptureOfStoresThatRewriteWrittenBytes) {
  // Per thread, a 16-byte slot: an i64 store, a full rewrite, a store that
  // straddles the written bytes and new ones, a store inside written bytes,
  // then a read-back of the slot's first word (read after write).
  constexpr std::uint64_t kIn = 0x10000;
  constexpr std::uint64_t kSlots = 0x20000;
  constexpr std::uint64_t kCopy = 0x30000;
  KernelBuilder b("rewrite", 3);
  const auto pin = b.reg(), pslot = b.reg(), pcopy = b.reg(), x = b.reg(), y = b.reg();
  const auto one = b.reg();
  b.block("entry");
  const auto off8 = gid_times(b, 8);
  const auto off16 = gid_times(b, 16);
  b.ld_param(pin, 0);
  b.ld_param(pslot, 1);
  b.ld_param(pcopy, 2);
  b.add_i(pin, pin, off8);
  b.add_i(pslot, pslot, off16);
  b.add_i(pcopy, pcopy, off8);
  b.mov_imm_i(one, 1);
  b.ld_global_i64(x, pin);
  b.ld_global_i64(y, pslot);  // pre-launch slot bytes are part of the input
  b.add_i(x, x, y);
  b.st_global_i64(x, pslot);
  b.add_i(x, x, one);
  b.st_global_i64(x, pslot);
  b.add_i(x, x, one);
  b.st_global_i64(x, pslot, 4);
  b.st_global_i32(one, pslot, 2);
  b.ld_global_i64(y, pslot);
  b.st_global_i64(y, pcopy);
  b.ret();

  CaptureCase c{b.build(), case_dims(), {}, nullptr, kSlots + 16 * 90 + 5};
  c.args.push_ptr(kIn);
  c.args.push_ptr(kSlots);
  c.args.push_ptr(kCopy);
  c.init = [](AddressSpace& mem) {
    fill_pattern(mem, kIn, 8 * kCaseGids, 0xABCD);
    fill_pattern(mem, kSlots, 16 * kCaseGids, 0x5150);
  };
  expect_fill_then_hit_matches_recomputation(cache(), c);
}

TEST_F(LaunchCacheTest, OutOfBoundsGuestAccessThrowsTheAddressSpaceMessageOnEveryPath) {
  // One thread loads (or stores) a word that runs past the end of memory.
  // The plain, observed, cache-fill and reference paths all report the
  // bounds error of AddressSpace itself, unchanged.
  constexpr std::uint64_t kBytes = 4096;
  constexpr std::uint64_t kAddr = kBytes - 2;
  const GpuArch arch = make_quadro4000();
  for (const bool store : {false, true}) {
    SCOPED_TRACE(store ? "store" : "load");
    KernelBuilder b(store ? "oob_store" : "oob_load", 1);
    const auto p = b.reg(), v = b.reg();
    b.block("entry");
    b.ld_param(p, 0);
    if (store) {
      b.mov_imm_f32(v, 1.0f);
      b.st_global_f32(v, p);
    } else {
      b.ld_global_f32(v, p);
    }
    b.ret();
    const KernelIR ir = b.build();
    LaunchDims dims;
    KernelArgs args;
    args.push_ptr(kAddr);

    std::string expected;
    try {
      AddressSpace mem(kBytes, "m");
      mem.read<float>(kAddr);
    } catch (const ContractError& e) {
      expected = e.what();
    }
    ASSERT_NE(expected.find("m: access [4094, 4098) out of bounds"), std::string::npos);

    const auto message_of = [&](const std::function<void(AddressSpace&)>& run) {
      AddressSpace mem(kBytes, "m");
      try {
        run(mem);
      } catch (const ContractError& e) {
        return std::string(e.what());
      }
      return std::string("no error");
    };
    const auto engine = [&](AddressSpace& m) { Interpreter().run(ir, dims, args, m); };
    const auto reference = [&](AddressSpace& m) { Interpreter::run_reference(ir, dims, args, m); };
    const auto observed = [&](AddressSpace& m) { evaluate_functional(arch, ir, dims, args, m); };
    const auto cached = [&](AddressSpace& m) { cache().evaluate(arch, ir, dims, args, m); };
    EXPECT_EQ(message_of(engine), expected);
    EXPECT_EQ(message_of(reference), expected);
    EXPECT_EQ(message_of(observed), expected);
    const LaunchCacheStats s0 = cache().stats();
    EXPECT_EQ(message_of(cached), expected);
    EXPECT_EQ(cache().stats().misses, s0.misses + 1);
    EXPECT_EQ(cache().stats().entries, 0u);
  }
}

// --- scenario + sweep integration -------------------------------------------

workloads::AppTraits fleet_traits(const workloads::Workload& w) {
  workloads::AppTraits t = w.traits;
  t.iterations = 3;
  t.launches_per_iter = 1;
  t.iter_h2d_bytes = 0;
  t.iter_d2h_bytes = 0;
  return t;
}

run::SweepJob fleet_job(const workloads::Workload& w, std::size_t vps) {
  run::SweepJob job;
  job.name = w.app;
  job.group = w.app;
  job.config.backend = Backend::kSigmaVp;
  job.config.mode = ExecMode::kFunctional;
  job.config.functional_io = true;
  const workloads::AppTraits t = fleet_traits(w);
  const AppInstance app{.workload = &w, .n = w.test_n, .traits = t};
  for (std::size_t i = 0; i < vps; ++i) job.apps.push_back(app);
  return job;
}

TEST_F(LaunchCacheTest, CachedFleetScenarioIsByteIdenticalToUncachedAcrossSweepWorkers) {
  const auto suite = workloads::make_suite();
  std::vector<run::SweepJob> jobs;
  jobs.push_back(fleet_job(workloads::find(suite, "vectorAdd"), 4));
  jobs.push_back(fleet_job(workloads::find(suite, "BlackScholes"), 4));

  cache().set_enabled(false);
  const run::SweepResult uncached = run::SweepRunner(2).run(jobs);
  EXPECT_EQ(uncached.cache.hits, 0u);

  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("sweep workers=" + std::to_string(workers));
    cache().clear();
    cache().set_enabled(true);
    const run::SweepResult cached = run::SweepRunner(workers).run(jobs);
    EXPECT_GT(cached.cache.hits, 0u);
    ASSERT_EQ(cached.jobs.size(), uncached.jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      EXPECT_EQ(cached.jobs[j].result.makespan_us, uncached.jobs[j].result.makespan_us);
      EXPECT_EQ(cached.jobs[j].result.app_outputs, uncached.jobs[j].result.app_outputs);
    }
  }
}

// --- pinned observer digest ---------------------------------------------------

/// FNV-1a over 64-bit words.
struct Fold {
  std::uint64_t h = 0xCBF29CE484222325ull;
  void add(std::uint64_t v) { h = (h ^ v) * 0x100000001B3ull; }
  void add(const std::vector<MemChunk>& ranges) {
    add(ranges.size());
    for (const MemChunk& r : ranges) {
      add(r.addr);
      add(r.size);
    }
  }
};

/// One kernel launch as bench/interp_throughput runs it: a suite workload,
/// or one stage of an app pipeline on its owner's buffers, at the bench's
/// default size and memory layout.
struct BenchLaunch {
  std::string name;  // "app/kernel"
  const KernelIR* kernel = nullptr;
  LaunchDims dims;
  KernelArgs args;
  std::shared_ptr<const AddressSpace> input;
};

std::vector<BenchLaunch> bench_launches(const std::vector<workloads::Workload>& suite,
                                        const std::vector<workloads::Workload>& apps) {
  const auto make_input = [](const workloads::Workload& w, std::uint64_t n,
                             std::vector<std::uint64_t>& addrs) {
    auto mem = std::make_shared<AddressSpace>(256ull << 20, "bench");
    FreeListAllocator alloc(4096, mem->size() - 4096);
    const auto specs = w.buffers(n);
    std::vector<std::vector<std::uint8_t>> host(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      addrs.push_back(*alloc.allocate(specs[i].bytes));
      host[i].assign(specs[i].bytes, 0);
      if (w.fill_inputs || !specs[i].is_input) continue;
      for (std::uint64_t off = 0; off + 4 <= specs[i].bytes; off += 4) {
        const float v = 0.5f;
        std::memcpy(host[i].data() + off, &v, 4);
      }
    }
    if (w.fill_inputs) w.fill_inputs(n, host);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].is_input) mem->copy_in(addrs[i], host[i].data(), host[i].size());
    }
    return mem;
  };
  const auto size_of = [](const workloads::Workload& w) {
    return w.estimate_n != 0 ? w.estimate_n : w.test_n;
  };
  std::vector<BenchLaunch> out;
  for (const auto& w : suite) {
    const std::uint64_t n = size_of(w);
    std::vector<std::uint64_t> addrs;
    auto input = make_input(w, n, addrs);
    out.push_back({w.app + "/" + w.kernel.name, &w.kernel, w.dims(n), w.args(addrs, n), input});
  }
  for (const auto& w : apps) {
    const std::uint64_t n = size_of(w);
    std::vector<std::uint64_t> addrs;
    auto input = make_input(w, n, addrs);
    for (const auto& stage : w.stages) {
      out.push_back({w.app + "/" + stage.kernel.name, &stage.kernel, stage.dims(n),
                     stage.args(addrs, n, /*jitter=*/0), input});
    }
  }
  return out;
}

/// Everything the per-chunk observers decide in one evaluate_functional
/// call, folded: the L2 stats, the profile, the final memory and, with
/// capture, each chunk's read and write ranges and its undo log.
std::uint64_t observer_digest(const BenchLaunch& l, bool with_capture) {
  AddressSpace mem = *l.input;
  std::vector<ChunkCapture> capture;
  const LaunchEvaluation e = evaluate_functional(make_tegrak1(), *l.kernel, l.dims, l.args, mem,
                                                 with_capture ? &capture : nullptr);
  Fold f;
  f.add(e.stats.cache.accesses);
  f.add(e.stats.cache.hits);
  f.add(e.stats.cache.misses);
  const DynamicProfile& p = e.profile;
  for (const std::uint64_t v : p.block_visits) f.add(v);
  for (const std::uint64_t v : p.instr_counts.counts) f.add(v);
  f.add(p.global_load_bytes);
  f.add(p.global_store_bytes);
  f.add(p.barriers_waited);
  f.add(p.sfu_instrs);
  f.add(p.sqrt_instrs);
  f.add(mem.content_digest(kMemHashSeed));
  f.add(capture.size());
  for (const ChunkCapture& c : capture) {
    f.add(c.reads.ranges());
    f.add(c.writes.ranges());
    f.add(c.undo_ranges);
    for (const std::uint8_t b : c.undo_bytes) f.add(b);
  }
  return f.h;
}

/// Pinned digests: a change to the engine's access path, the L2 model or
/// the capture that moves any simulated byte, count or range fails here.
const std::map<std::string, std::uint64_t>& pinned_observer_digests() {
  static const std::map<std::string, std::uint64_t> pinned = {
      {"simpleGL/simpleGL", 0x42655e47f9d0d2feull},
      {"Mandelbrot/Mandelbrot", 0xc7ffd776b5fcd2d4ull},
      {"bicubicTexture/bicubicTexture", 0x9124f85483d494d2ull},
      {"recursiveGaussian/recursiveGaussian", 0x0f40d46196f1bd4bull},
      {"MonteCarlo/MonteCarlo", 0xc3b59e6ffb775db0ull},
      {"segmentationTreeThrust/segScanStep", 0x5ef6838d4cbbbac2ull},
      {"marchingCubes/marchingCubes", 0x57ba5ad296bb6589ull},
      {"VolumeFiltering/VolumeFiltering", 0x86a70f09721751d8ull},
      {"SobelFilter/SobelFilter", 0xa1052ca0c7f34ceaull},
      {"nbody/nbody", 0x9ae141b1ebe2c93full},
      {"smokeParticles/smokeParticles", 0x87829e7f8981eb84ull},
      {"mergeSort/mergeSortStep", 0x6db7f47e409e5c44ull},
      {"stereoDisparity/stereoDisparity", 0xd88d65397f74c5c5ull},
      {"convolutionSeparable/convolutionSeparable", 0x01e6c714593e640full},
      {"dct8x8/dct8x8", 0x3e81267f5e039189ull},
      {"BlackScholes/BlackScholes", 0x1c7fbdddc16aa17aull},
      {"matrixMul/matrixMul", 0x1136a965abc78475ull},
      {"vectorAdd/vectorAdd", 0x1e7d84406506a350ull},
      {"reduction/reduction", 0x6102d6d594bf5c9aull},
      {"histogram/histogram", 0x1e1886320c7f2786ull},
      {"graphAnalytics/bfsStep", 0xc0f7ba5cc9986165ull},
      {"graphAnalytics/prContrib", 0x9199a13520d8ba1cull},
      {"graphAnalytics/prGather", 0xe064acdcf1f0e63full},
      {"mlInference/mlpMatmul", 0xa7fdcfd5f0500c96ull},
      {"mlInference/mlpBias", 0xc2683d2ec18b9556ull},
      {"mlInference/softmax32", 0x15b5ee66f4fb2de4ull},
      {"camPipeline/camGain", 0x1a2ff25590466d80ull},
      {"camPipeline/camBlur3", 0x7b4be0663aa385d0ull},
      {"camPipeline/camQuant", 0x6767ccbeeb770d34ull},
  };
  return pinned;
}

TEST(ObserverDigest, EveryBenchKernelMatchesItsPinnedDigestAtAnyWorkerCount) {
  const auto suite = workloads::make_suite();
  const auto apps = workloads::make_app_suite();
  const auto launches = bench_launches(suite, apps);
  ASSERT_EQ(launches.size(), pinned_observer_digests().size());
  std::string table;
  for (const BenchLaunch& l : launches) {
    SCOPED_TRACE(l.name);
    std::uint64_t digest = 0;
    for (const bool with_capture : {false, true}) {
      // Inside a pool worker the engine runs serially (workers 1); on the
      // test thread it uses the host's workers.
      std::uint64_t serial = 0;
      run::ThreadPool pool(1);
      pool.submit([&] { serial = observer_digest(l, with_capture); });
      pool.wait_idle();
      EXPECT_EQ(observer_digest(l, with_capture), serial) << "capture " << with_capture;
      digest = digest * 0x100000001B3ull ^ serial;
    }
    char line[128];
    std::snprintf(line, sizeof line, "      {\"%s\", 0x%016llxull},\n", l.name.c_str(),
                  static_cast<unsigned long long>(digest));
    table += line;
    const auto it = pinned_observer_digests().find(l.name);
    EXPECT_TRUE(it != pinned_observer_digests().end() && it->second == digest);
  }
  if (::testing::Test::HasFailure()) std::cout << "computed digests:\n" << table;
}

}  // namespace
}  // namespace sigvp

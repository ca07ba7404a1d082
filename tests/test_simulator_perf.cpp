// Pins for the simulator's own hot path (docs/SIMULATOR.md): the recycled
// recording storage of arena.h round-trips correctly, and the SoA/arena
// engine reproduces — bit for bit — the metrics the pre-refactor AoS engine
// produced on skewed and uniform graphs. The pinned numbers below were
// captured from the per-lane std::vector<Op> engine immediately before the
// SoA rewrite; equality here is the refactor's cycle-neutrality proof at
// test granularity (the checked-in BENCH_/PROF_ baselines pin it at suite
// granularity).
//
// The EngineDeterminism case also runs under the `nestpar_faults` ctest
// entry (its name matches the *Determinism* filter), which reruns it with an
// ambient NESTPAR_FAULTS config — recycled scratch must stay
// engine-deterministic when launches fail and templates degrade.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "src/apps/bfs.h"
#include "src/apps/sssp.h"
#include "src/graph/generators.h"
#include "src/nested/templates.h"
#include "src/simt/arena.h"
#include "src/simt/device.h"

namespace {

namespace simt = nestpar::simt;
namespace apps = nestpar::apps;
namespace graph = nestpar::graph;
namespace nested = nestpar::nested;

using nested::LoopTemplate;

// ---------------------------------------------------------------------------
// Arena: reuse/reset round-trip.

TEST(SimulatorPerfArena, AllocZeroesAndAligns) {
  simt::Arena arena;
  auto* p = static_cast<char*>(arena.alloc(1000, 8));
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % simt::kModelAlignment, 0u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(p[i], 0) << i;
}

TEST(SimulatorPerfArena, ResetReusesAndRezeroes) {
  simt::Arena arena;
  auto* a = static_cast<char*>(arena.alloc(4096, 128));
  std::memset(a, 0xAB, 4096);
  arena.reset();
  // Same storage comes back (no heap growth across steady-state reuse) and
  // it is zeroed again: blocks must never observe a previous block's shared
  // memory image.
  auto* b = static_cast<char*>(arena.alloc(4096, 128));
  EXPECT_EQ(a, b);
  for (int i = 0; i < 4096; ++i) ASSERT_EQ(b[i], 0) << i;
}

TEST(SimulatorPerfArena, DistinctLiveAllocationsDontOverlap) {
  simt::Arena arena;
  auto* a = static_cast<char*>(arena.alloc(256, 128));
  auto* b = static_cast<char*>(arena.alloc(256, 128));
  ASSERT_NE(a, b);
  EXPECT_GE(b, a + 256);
  std::memset(a, 1, 256);
  std::memset(b, 2, 256);
  EXPECT_EQ(a[255], 1);
  EXPECT_EQ(b[0], 2);
}

TEST(SimulatorPerfArena, OversizedRequestGetsOwnChunkAndSurvivesReset) {
  simt::Arena arena;
  // Larger than the 96KB minimum chunk: forces a dedicated chunk.
  constexpr std::size_t kBig = 256 * 1024;
  auto* big = static_cast<char*>(arena.alloc(kBig, 128));
  ASSERT_NE(big, nullptr);
  big[0] = 1;
  big[kBig - 1] = 1;
  arena.reset();
  auto* again = static_cast<char*>(arena.alloc(kBig, 128));
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again[kBig - 1], 0);
}

// ---------------------------------------------------------------------------
// FlatHist: the atomic-hotspot histogram.

TEST(SimulatorPerfFlatHist, CountsAndMax) {
  simt::FlatHist h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.max_count(), 0u);
  for (int i = 0; i < 100; ++i) h.bump(7);
  for (int i = 0; i < 40; ++i) h.bump(1000 + i);  // force growth
  h.add(9, 41);
  EXPECT_EQ(h.max_count(), 100u);
  std::uint64_t total = 0;
  std::uint64_t keys = 0;
  h.for_each([&](std::uint64_t, std::uint64_t c) {
    total += c;
    ++keys;
  });
  EXPECT_EQ(total, 100u + 40u + 41u);
  EXPECT_EQ(keys, 42u);
}

TEST(SimulatorPerfFlatHist, ClearRetainsNothing) {
  simt::FlatHist h;
  h.bump(3);
  h.bump(0);  // the reserved sentinel key still counts
  EXPECT_EQ(h.max_count(), 1u);
  h.clear();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.max_count(), 0u);
  h.bump(5);
  EXPECT_EQ(h.max_count(), 1u);
}

TEST(SimulatorPerfFlatHist, RunningMaxAcrossGrowthAddAndKeyZero) {
  simt::FlatHist h;
  // Key 0 (the sentinel) takes part in the running max like any other key.
  h.add(0, 5);
  EXPECT_EQ(h.max_count(), 5u);
  for (std::uint64_t k = 1; k <= 500; ++k) h.bump(k);  // several regrowths
  EXPECT_GT(h.capacity(), 512u);
  EXPECT_EQ(h.max_count(), 5u);
  h.add(250, 9);  // a key inserted before the growth, found after it
  EXPECT_EQ(h.max_count(), 10u);
  h.add(0, 6);
  EXPECT_EQ(h.max_count(), 11u);
  h.add(600, 12);  // a new key arriving with a count above the max
  EXPECT_EQ(h.max_count(), 12u);
  h.clear();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.max_count(), 0u);
  h.add(0, 2);
  EXPECT_EQ(h.max_count(), 2u);
}

TEST(SimulatorPerfFlatHist, ForEachAfterGrowthVisitsEachKeyOnce) {
  simt::FlatHist h;
  constexpr std::uint64_t kKeys = 1000;
  for (std::uint64_t k = 1; k <= kKeys; ++k) h.add(k * 977, k);
  std::vector<std::uint64_t> seen;
  h.for_each([&](std::uint64_t key, std::uint64_t count) {
    EXPECT_EQ(key % 977, 0u);
    EXPECT_EQ(count, key / 977);
    seen.push_back(key);
  });
  ASSERT_EQ(seen.size(), kKeys);
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
  EXPECT_EQ(h.max_count(), kKeys);
}

TEST(SimulatorPerfFlatHist, ClearAfterGrowthLeavesNoStaleKey) {
  simt::FlatHist h;
  for (std::uint64_t k = 1; k <= 300; ++k) h.add(k, 7);
  const std::uint64_t cap = h.capacity();
  h.clear();
  EXPECT_EQ(h.capacity(), cap);  // storage is kept for reuse
  EXPECT_TRUE(h.empty());
  std::uint64_t visits = 0;
  h.for_each([&](std::uint64_t, std::uint64_t) { ++visits; });
  EXPECT_EQ(visits, 0u);
  // Re-adding old keys starts them from zero, not from their stale counts,
  // and a probe chain through cleared slots finds no phantom entry.
  for (std::uint64_t k = 1; k <= 300; ++k) h.bump(k);
  EXPECT_EQ(h.max_count(), 1u);
  h.for_each([&](std::uint64_t, std::uint64_t c) {
    EXPECT_EQ(c, 1u);
    ++visits;
  });
  EXPECT_EQ(visits, 300u);
}

// ---------------------------------------------------------------------------
// WarpTrace: SoA columns + lane offsets survive growth.

TEST(SimulatorPerfWarpTrace, LaneOffsetsAndColumnsSurviveGrowth) {
  simt::WarpTrace t;
  t.begin_warp();
  constexpr int kLanes = 32;
  constexpr int kOpsPerLane = 100;  // 3200 ops > the 1024 initial capacity
  for (int l = 0; l < kLanes; ++l) {
    t.begin_lane();
    for (int i = 0; i < kOpsPerLane; ++i) {
      t.push(simt::OpKind::kGlobalLoad, 1, 4,
             static_cast<std::uint64_t>(l * 1000 + i));
    }
  }
  ASSERT_EQ(t.lanes(), kLanes);
  for (int l = 0; l < kLanes; ++l) {
    ASSERT_EQ(t.lane_end(l) - t.lane_begin(l),
              static_cast<std::uint32_t>(kOpsPerLane));
    const std::uint32_t b = t.lane_begin(l);
    for (int i = 0; i < kOpsPerLane; ++i) {
      ASSERT_EQ(t.kinds()[b + i],
                static_cast<std::uint8_t>(simt::OpKind::kGlobalLoad));
      ASSERT_EQ(t.addrs()[b + i], static_cast<std::uint64_t>(l * 1000 + i));
      ASSERT_EQ(t.counts()[b + i], 1u);
      ASSERT_EQ(t.bytes()[b + i], 4u);
    }
  }
  // begin_warp drops contents but keeps recording working.
  t.begin_warp();
  EXPECT_EQ(t.lanes(), 0);
  t.begin_lane();
  t.push(simt::OpKind::kCompute, 2, 0, 0);
  EXPECT_EQ(t.lane_end(0) - t.lane_begin(0), 1u);
}

// ---------------------------------------------------------------------------
// SoA vs pre-refactor equivalence pins.
//
// Captured from the AoS engine (per-lane std::vector<Op>, std::unordered_map
// atomic histogram, per-op heap records) at the commit before the SoA/arena
// rewrite, on the exact generator calls below. Every field — including the
// float-accumulation-order-sensitive doubles — must match bit for bit.

struct Pin {
  const char* dataset;
  LoopTemplate tmpl;
  int iters;
  double total_cycles;
  std::uint64_t warp_steps, active_lane_ops;
  std::uint64_t gld_req, gld_xfer, gst_req, gst_xfer;
  std::uint64_t atomic_ops, shared_ops, compute_ops;
  std::uint64_t host_launches, device_launches, blocks, warps;
  double resident_warp_cycles, sm_active_cycles;
};

constexpr Pin kPins[] = {
    {"skew", LoopTemplate::kBaseline, 14, 1872881, 561708, 1453377, 3040952,
     67436928, 169031, 1709568, 291763, 0, 291763, 28, 0, 588, 3528,
     138082026, 15651002},
    {"uni", LoopTemplate::kBaseline, 18, 795110, 110833, 1317988, 2820940,
     48785280, 155201, 750208, 248336, 0, 248336, 36, 0, 756, 4536, 83282868,
     8888040},
    {"skew", LoopTemplate::kDbufShared, 14, 1053553, 224633, 3209893, 7296632,
     31315584, 169031, 1532672, 291763, 447076, 291763, 28, 0, 588, 3528,
     83131260, 9207173},
    {"uni", LoopTemplate::kDbufShared, 18, 810470, 115369, 1463140, 2820940,
     48785280, 155201, 750208, 248336, 145152, 248336, 36, 0, 756, 4536,
     85460148, 9112680},
    {"skew", LoopTemplate::kDparOpt, 14, 563257, 177069, 2013099, 5332472,
     23672704, 182671, 1927808, 291763, 12229, 291763, 28, 188, 2293, 6938,
     72732546, 17320717},
    {"uni", LoopTemplate::kDparOpt, 18, 796678, 111211, 1318366, 2820940,
     48785280, 155201, 750208, 248336, 378, 248336, 36, 0, 756, 4536,
     83505132, 8910972},
    {"skew", LoopTemplate::kConsBlock, 14, 746716.39999999979, 235984,
     3629316, 16522845, 31577088, 197815, 2170112, 291763, 5409, 291763, 28,
     157, 3815, 9982, 86513556.255555525, 14976055.983333331},
    {"uni", LoopTemplate::kConsBlock, 18, 796678, 111211, 1318366, 2820940,
     48785280, 155201, 750208, 248336, 378, 248336, 36, 0, 756, 4536,
     83505132, 8910972},
};

class SimulatorPerfPins : public ::testing::TestWithParam<Pin> {};

TEST_P(SimulatorPerfPins, MatchesPreRefactorEngineExactly) {
  const Pin& pin = GetParam();
  const graph::Csr g =
      std::string(pin.dataset) == "skew"
          ? graph::generate_power_law(4000, 1, 512, 16.0, 42, true)
          : graph::generate_regular(4000, 16, 42, true);

  simt::Device dev;
  // The ambient-fault rerun (`nestpar_faults`) must not perturb these exact
  // pins: pin a clean fault config for this test regardless of environment.
  dev.set_fault_config({});
  simt::Session session = dev.session();
  const auto res = apps::run_sssp(dev, g, 0, pin.tmpl);
  const simt::RunReport r = session.report();
  const simt::Metrics& m = r.aggregate;

  EXPECT_EQ(res.iterations, pin.iters);
  EXPECT_EQ(r.total_cycles, pin.total_cycles);  // bit-exact double
  EXPECT_EQ(m.warp_steps, pin.warp_steps);
  EXPECT_EQ(m.active_lane_ops, pin.active_lane_ops);
  EXPECT_EQ(m.gld_requested_bytes, pin.gld_req);
  EXPECT_EQ(m.gld_transferred_bytes, pin.gld_xfer);
  EXPECT_EQ(m.gst_requested_bytes, pin.gst_req);
  EXPECT_EQ(m.gst_transferred_bytes, pin.gst_xfer);
  EXPECT_EQ(m.atomic_ops, pin.atomic_ops);
  EXPECT_EQ(m.shared_ops, pin.shared_ops);
  EXPECT_EQ(m.compute_ops, pin.compute_ops);
  EXPECT_EQ(m.host_launches, pin.host_launches);
  EXPECT_EQ(m.device_launches, pin.device_launches);
  EXPECT_EQ(m.blocks, pin.blocks);
  EXPECT_EQ(m.warps, pin.warps);
  EXPECT_EQ(m.resident_warp_cycles, pin.resident_warp_cycles);
  EXPECT_EQ(m.sm_active_cycles, pin.sm_active_cycles);
}

INSTANTIATE_TEST_SUITE_P(
    SkewAndUniform, SimulatorPerfPins, ::testing::ValuesIn(kPins),
    [](const ::testing::TestParamInfo<Pin>& info) {
      std::string n = std::string(info.param.dataset) + "_" +
                      std::string(nested::name(info.param.tmpl));
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

// ---------------------------------------------------------------------------
// Engine determinism on the self-benchmark workloads. Runs clean here and
// again under ambient NESTPAR_FAULTS via the `nestpar_faults` ctest entry
// (filter *Determinism*): recycled BlockScratch pools are per-thread, so the
// parallel engine exercises genuinely different reuse sequences than the
// serial one — reports must not notice, faults or not.

TEST(SimulatorPerfEngineDeterminism, SerialAndParallelAgreeOnScratchReuse) {
  const graph::Csr g = graph::generate_power_law(4000, 1, 512, 16.0, 42, true);
  for (LoopTemplate tmpl :
       {LoopTemplate::kDbufShared, LoopTemplate::kConsBlock}) {
    simt::RunReport reports[2];
    const simt::ExecPolicy policies[2] = {
        simt::ExecPolicy::serial(),
        simt::ExecPolicy{simt::ExecMode::kParallel, 4}};
    for (int i = 0; i < 2; ++i) {
      simt::Device dev;
      simt::Session session = dev.session(policies[i]);
      apps::run_sssp(dev, g, 0, tmpl);
      reports[i] = session.report();
    }
    EXPECT_EQ(reports[0].total_cycles, reports[1].total_cycles);
    EXPECT_EQ(reports[0].aggregate.warp_steps,
              reports[1].aggregate.warp_steps);
    EXPECT_EQ(reports[0].aggregate.gld_transferred_bytes,
              reports[1].aggregate.gld_transferred_bytes);
    EXPECT_EQ(reports[0].aggregate.atomic_ops,
              reports[1].aggregate.atomic_ops);
    EXPECT_EQ(reports[0].aggregate.device_launches,
              reports[1].aggregate.device_launches);
    EXPECT_EQ(reports[0].aggregate.resident_warp_cycles,
              reports[1].aggregate.resident_warp_cycles);
    EXPECT_EQ(reports[0].robustness.refused_total(),
              reports[1].robustness.refused_total());
    EXPECT_EQ(reports[0].robustness.degraded,
              reports[1].robustness.degraded);
  }
}

// ---------------------------------------------------------------------------
// Complexity guard on the recorder's merge path. Launch storms (one grid per
// irregular item) append tens of thousands of nodes to the launch graph; the
// node vector must grow geometrically, so the nodes its reallocations move
// stay within a constant per recorded node at every size. An exact-size
// reserve per merge moves the whole graph on every grid that launches
// children, and the ratio then grows with the graph. A deterministic work
// count, not a clock: it reads the same on any host.

struct StormCase {
  const char* name;
  std::function<void(simt::Device&, const graph::Csr&, std::uint32_t)> run;
};

double relocated_per_node(const StormCase& c, std::uint32_t nodes) {
  const graph::Csr g = graph::generate_uniform_random(nodes, 0, 32, 7, true);
  simt::Device dev;
  dev.set_fault_config({});
  std::uint32_t src = 0;
  while (g.degree(src) == 0) ++src;
  simt::Session session = dev.session();
  c.run(dev, g, src);
  const std::size_t recorded = session.graph().nodes.size();
  EXPECT_GT(recorded, nodes / 2) << c.name << ": not a launch storm";
  return static_cast<double>(dev.recorder().relocated_nodes()) /
         static_cast<double>(recorded);
}

TEST(SimulatorPerfComplexity, LaunchGraphGrowthIsLinearInGrids) {
  const StormCase cases[] = {
      {"rec-naive BFS",
       [](simt::Device& dev, const graph::Csr& g, std::uint32_t src) {
         apps::bfs_recursive_gpu(dev, g, src,
                                 nestpar::rec::RecTemplate::kRecNaive);
       }},
      {"dpar-naive SSSP",
       [](simt::Device& dev, const graph::Csr& g, std::uint32_t src) {
         nested::LoopParams p;
         p.lb_threshold = 16;
         apps::run_sssp(dev, g, src, LoopTemplate::kDparNaive, p);
       }},
  };
  constexpr std::uint32_t kN = 500;
  for (const StormCase& c : cases) {
    for (std::uint32_t nodes : {kN, 4 * kN}) {
      EXPECT_LE(relocated_per_node(c, nodes), 2.0)
          << c.name << " on " << nodes << " nodes";
    }
  }
}

// A Device reused across sessions keeps the launch graph's capacity, so a
// session recording no more grids than an earlier one moves no node at all.
TEST(SimulatorPerfComplexity, SecondSessionReusesLaunchGraphCapacity) {
  const graph::Csr g = graph::generate_uniform_random(500, 0, 32, 7, true);
  std::uint32_t src = 0;
  while (g.degree(src) == 0) ++src;
  nested::LoopParams p;
  p.lb_threshold = 16;
  simt::Device dev;
  dev.set_fault_config({});
  std::size_t recorded[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    simt::Session session = dev.session();
    apps::run_sssp(dev, g, src, LoopTemplate::kDparNaive, p);
    recorded[run] = session.graph().nodes.size();
    if (run == 0) {
      EXPECT_GT(dev.recorder().relocated_nodes(), 0u);
    } else {
      EXPECT_EQ(dev.recorder().relocated_nodes(), 0u);
    }
  }
  EXPECT_GT(recorded[0], 250u) << "not a launch storm";
  EXPECT_EQ(recorded[0], recorded[1]);
}

}  // namespace

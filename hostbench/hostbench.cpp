// hostbench: host-cost benchmark of the nestpar simulator and serving layer.
//
// Runs one workload for a fixed number of seconds and prints one JSON object
// with the raw measurements: set-up samples, the wall time and modeled
// statistics of every unit of work, and (traced runs) the spans recorded
// around each call into a layer's public functions. run.py turns this into
// the benchmark's metrics and checks the modeled statistics against the
// pins; README.md explains the workloads and the layer map.
//
//   hostbench --workload NAME --seed N --seconds S --trace 0|1
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/bfs.h"
#include "src/apps/pagerank.h"
#include "src/apps/spmv.h"
#include "src/apps/sssp.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/rec/tree_traversal.h"
#include "src/serve/pool.h"
#include "src/serve/server.h"
#include "src/serve/shard.h"
#include "src/simt/critpath.h"
#include "src/simt/device.h"
#include "src/simt/fault.h"
#include "src/simt/profiler.h"
#include "src/simt/scheduler.h"

#ifndef HOSTBENCH_BUILD_TYPE
#define HOSTBENCH_BUILD_TYPE "unknown"
#endif
#ifndef HOSTBENCH_COMPILER
#define HOSTBENCH_COMPILER "unknown"
#endif

using namespace nestpar;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

// Peak resident set of this process image (VmHWM). Not ru_maxrss, which
// also carries the peak of the parent that spawned it through vfork.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

// Host speed, timed next to every unit. The host's speed moves between
// runs by more than the benchmark's bounds, for whole runs at a time
// (README.md, "Noise"); run.py divides unit times by this kernel's times
// from the same run. The kernel is a dependent pointer chase over a 512 KiB
// ring, which stays in the 2 MiB per-core L2; it tracked the units as well
// as any kernel tried. It uses no nestpar code, so a change to the program
// cannot move it.
class HostSpeed {
 public:
  HostSpeed() : next_(kRing) {
    // Sattolo's shuffle: one cycle through every slot.
    std::iota(next_.begin(), next_.end(), 0u);
    std::mt19937_64 rng(7);
    for (std::uint32_t i = kRing - 1; i > 0; --i) {
      std::swap(next_[i], next_[rng() % i]);
    }
  }

  /// Seconds for kSteps steps, after one untimed pass brings the ring back
  /// into the cache.
  double time() {
    std::uint32_t c = walk(kRing);
    const double t0 = now_s();
    c = walk(kSteps, c);
    const double t = now_s() - t0;
    sink_ = c;
    return t;
  }

 private:
  static constexpr std::uint32_t kRing = 1u << 17;
  static constexpr int kSteps = 3'000'000;

  std::uint32_t walk(int steps, std::uint32_t c = 0) const {
    for (int i = 0; i < steps; ++i) c = next_[c];
    return c;
  }

  std::vector<std::uint32_t> next_;
  volatile std::uint32_t sink_ = 0;
};

// ---------------------------------------------------------------------------
// Spans. Kept in memory and written out at the end. `parent` is the logical
// parent: replays of a layer (scheduler on a copied graph, shard attempts
// re-run outside the server) name the call they stand for as parent, so a
// span's self time is its duration minus its children's durations.

struct Span {
  std::string name;
  int unit = -1;  ///< Set-up repetition k is unit -1 - k.
  double begin = 0.0;
  double end = 0.0;
  int parent = -1;
  long faults = 0;  ///< Minor page faults taken inside the span.
};

class Tracer {
 public:
  bool on = false;
  int unit = -1;
  /// Work counts of the current unit, recorded at the same boundaries.
  std::map<std::string, double> counters;

  void count(const std::string& name, double v) {
    if (on) counters[name] += v;
  }

  int open(const char* name, int parent = -1) {
    if (!on) return -1;
    spans_.push_back(Span{name, unit, now_s(), 0.0, parent, minor_faults()});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = now_s();
    s.faults = minor_faults() - s.faults;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

class Scope {
 public:
  Scope(Tracer& t, const char* name, int parent = -1)
      : t_(t), id_(t.open(name, parent)) {}
  ~Scope() { t_.close(id_); }
  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

// ---------------------------------------------------------------------------
// Units of work. Each returns the modeled statistics to compare against the
// pins and across repetitions, plus whether the functional results matched
// the serial references.

using Model = std::map<std::string, double>;

struct UnitResult {
  int attempted = 0;  ///< Sessions, or requests on serve-mix.
  int failed = 0;
  Model model;
};

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  return simt::fault_mix(seed * 0x9e3779b97f4a7c15ull + salt);
}

// The seed relabels a graph of fixed structure: node ids are permuted and
// each node's neighbor list follows its node. The degree sequence, and so
// the amount of work and the graph's allocation sizes, is the same for every
// seed; memory layout, warp composition and traversal order are not.
graph::Csr relabel(const graph::Csr& g, std::uint64_t seed) {
  const std::uint32_t n = g.num_nodes();
  std::vector<std::uint32_t> perm(n);  // Old id -> new id.
  std::iota(perm.begin(), perm.end(), 0u);
  std::mt19937_64 rng(seed);
  std::shuffle(perm.begin(), perm.end(), rng);
  std::vector<std::uint32_t> old_of(n);
  for (std::uint32_t v = 0; v < n; ++v) old_of[perm[v]] = v;

  graph::Csr out;
  out.row_offsets.assign(n + 1, 0);
  for (std::uint32_t v = 0; v < n; ++v) {
    out.row_offsets[v + 1] = out.row_offsets[v] + g.degree(old_of[v]);
  }
  out.col_indices.resize(g.num_edges());
  if (!g.weights.empty()) out.weights.resize(g.num_edges());
  for (std::uint32_t v = 0; v < n; ++v) {
    const std::uint32_t from = g.row_offsets[old_of[v]];
    for (std::uint32_t k = 0; k < g.degree(old_of[v]); ++k) {
      out.col_indices[out.row_offsets[v] + k] = perm[g.col_indices[from + k]];
      if (!g.weights.empty()) {
        out.weights[out.row_offsets[v] + k] = g.weights[from + k];
      }
    }
  }
  return out;
}

// One recording session through a public app entry point, with the report's
// layers replayed on a copy of the launch graph when tracing.
simt::RunReport traced_session(simt::Device& dev, Tracer& tr,
                               const std::function<void()>& app) {
  simt::Session s = dev.session();
  {
    Scope rec(tr, "recorder");
    app();
  }
  simt::RunReport rep;
  int report = -1;
  {
    Scope sp(tr, "device.report");
    rep = s.report();
    report = sp.id();
  }
  if (tr.on) {
    simt::LaunchGraph copy = s.graph();
    simt::ScheduleResult sched;
    {
      Scope sp(tr, "scheduler", report);
      sched = simt::schedule(dev.spec(), copy);
    }
    {
      Scope sp(tr, "critpath", report);
      (void)simt::analyze_critical_path(copy, sched);
    }
    {
      Scope sp(tr, "attribution", report);
      (void)simt::attribute_cycles(copy, sched);
    }
    tr.count("recorder.grids", static_cast<double>(rep.grids));
    tr.count("recorder.device_grids", static_cast<double>(rep.device_grids));
    tr.count("recorder.warp_steps",
             static_cast<double>(rep.aggregate.warp_steps));
    tr.count("critpath.segments",
             static_cast<double>(rep.critical_path.chain.size()));
  }
  return rep;
}

void add_report(Model& m, const std::string& prefix,
                const simt::RunReport& r) {
  m[prefix + ".cycles"] = r.total_cycles;
  m[prefix + ".grids"] = static_cast<double>(r.grids);
  m[prefix + ".device_grids"] = static_cast<double>(r.device_grids);
  m[prefix + ".warp_steps"] = static_cast<double>(r.aggregate.warp_steps);
  m[prefix + ".critpath_segments"] =
      static_cast<double>(r.critical_path.chain.size());
}

template <typename T>
bool close_to(const std::vector<T>& got, const std::vector<T>& want,
              double tol) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double a = static_cast<double>(got[i]);
    const double b = static_cast<double>(want[i]);
    if (std::isinf(a) || std::isinf(b)) {
      if (a != b) return false;
      continue;
    }
    if (std::abs(a - b) > tol * std::max({1.0, std::abs(a), std::abs(b)})) {
      return false;
    }
  }
  return true;
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build inputs and references (timed as set-up; may be called repeatedly,
  /// each call replaces the previous inputs).
  virtual void setup(Tracer& tr) = 0;
  /// Layer-replay preparation for traced runs (untimed).
  virtual void prepare_trace() {}
  virtual UnitResult unit(Tracer& tr) = 0;
  virtual std::map<std::string, double> counts() const = 0;
};

// launch-storm: rec-naive recursive BFS and dpar-naive SSSP, one device grid
// per unit of irregular work, over several graphs: the number of grids a
// recursive BFS launches varies by about 15 % from graph to graph, and the
// sum over kGraphs sessions varies much less.
class LaunchStorm : public Workload {
 public:
  LaunchStorm(std::uint64_t seed, const simt::ExecPolicy& policy)
      : seed_(seed), dev_(simt::DeviceSpec::k20(), 24, policy) {
    dev_.set_fault_config(simt::FaultConfig{});
  }

  void setup(Tracer& tr) override {
    inputs_.clear();
    for (int i = 0; i < kGraphs; ++i) {
      Input in;
      {
        Scope sp(tr, "graph");
        in.g = relabel(graph::generate_uniform_random(kNodes, 0, 32,
                                                      1000 + i, true),
                       mix_seed(seed_, i));
      }
      Scope sp(tr, "reference");
      while (in.src + 1 < in.g.num_nodes() && in.g.degree(in.src) == 0) {
        ++in.src;
      }
      in.bfs = apps::bfs_serial_iterative(in.g, in.src);
      in.sssp = apps::sssp_serial(in.g, in.src);
      inputs_.push_back(std::move(in));
    }
  }

  UnitResult unit(Tracer& tr) override {
    UnitResult u;
    nested::LoopParams p;
    p.lb_threshold = kLbThreshold;
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      const Input& in = inputs_[i];
      const std::string tag = std::to_string(i);
      std::vector<std::uint32_t> levels;
      const simt::RunReport bfs = traced_session(dev_, tr, [&] {
        levels = apps::bfs_recursive_gpu(dev_, in.g, in.src,
                                         rec::RecTemplate::kRecNaive);
      });
      if (levels != in.bfs) ++u.failed;
      add_report(u.model, "bfs" + tag, bfs);

      std::vector<float> dist;
      const simt::RunReport sssp = traced_session(dev_, tr, [&] {
        dist = apps::run_sssp(dev_, in.g, in.src,
                              nested::LoopTemplate::kDparNaive, p)
                   .dist;
      });
      if (!close_to(dist, in.sssp, 1e-5)) ++u.failed;
      add_report(u.model, "sssp" + tag, sssp);
      u.attempted += 2;
    }
    return u;
  }

  std::map<std::string, double> counts() const override {
    double edges = 0.0;
    for (const Input& in : inputs_) {
      edges += static_cast<double>(in.g.num_edges());
    }
    return {{"graph.edges", edges}};
  }

 private:
  static constexpr int kGraphs = 12;
  static constexpr std::uint32_t kNodes = 1000;
  static constexpr int kLbThreshold = 16;
  struct Input {
    graph::Csr g;
    std::uint32_t src = 0;
    std::vector<std::uint32_t> bfs;
    std::vector<float> sssp;
  };
  std::uint64_t seed_;
  simt::Device dev_;
  std::vector<Input> inputs_;
};

// combine-parallel: pull PageRank on a citeseer-like graph through the
// thread-mapped baseline and dbuf-shared on the parallel engine; few grids,
// all combine work. Traced runs also run it on the serial engine.
class Combine : public Workload {
 public:
  Combine(std::uint64_t seed, const simt::ExecPolicy& policy)
      : seed_(seed), dev_(simt::DeviceSpec::k20(), 24, policy) {
    dev_.set_fault_config(simt::FaultConfig{});
    opt_.iterations = kIterations;
  }

  void setup(Tracer& tr) override {
    g_.reset();
    {
      Scope sp(tr, "graph");
      g_.emplace(relabel(graph::generate_citeseer_like(kScale, 2015),
                         mix_seed(seed_, 2)));
    }
    Scope sp(tr, "reference");
    ref_ = apps::pagerank_serial(*g_, opt_);
  }

  UnitResult unit(Tracer& tr) override {
    UnitResult u;
    for (const nested::LoopTemplate t :
         {nested::LoopTemplate::kBaseline, nested::LoopTemplate::kDbufShared}) {
      ++u.attempted;
      std::vector<double> rank;
      const simt::RunReport rep = traced_session(dev_, tr, [&] {
        rank = apps::run_pagerank(dev_, *g_, t, {}, opt_);
      });
      if (!close_to(rank, ref_, 1e-9)) ++u.failed;
      add_report(u.model, std::string(nested::name(t)), rep);
    }
    return u;
  }

  std::map<std::string, double> counts() const override {
    return {{"graph.edges", static_cast<double>(g_->num_edges())}};
  }

 private:
  static constexpr double kScale = 0.04;
  static constexpr int kIterations = 4;
  std::uint64_t seed_;
  simt::Device dev_;
  apps::PageRankOptions opt_;
  std::optional<graph::Csr> g_;
  std::vector<double> ref_;
};

// serve-mix: the serving layer on a virtual-time open loop, on the serial
// engine; a steady leg that batches and an overload leg with launch faults
// that sheds and retries.
class ServeMix : public Workload {
 public:
  ServeMix(std::uint64_t seed, const simt::ExecPolicy& policy)
      : seed_(seed), policy_(policy) {
    legs_[0].name = "steady";
    legs_[0].steady = true;
    legs_[0].qps = kSteadyQps;
    legs_[1].name = "overload";
    legs_[1].qps = kOverloadQps;
    for (Leg& leg : legs_) {
      leg.cfg.queue_capacity = 24;
      leg.cfg.seed = mix_seed(seed_, 3);
      leg.cfg.faults = simt::FaultConfig{};
    }
    // Overload sheds from short queues; host-launch faults cost retries and
    // trip breakers. A short cooldown and a low trip threshold make trips
    // frequent and brief, so the leg's attempt count varies little with the
    // seed (a 20 ms quarantine of one shard sheds a seed-dependent burst).
    serve::ServeConfig& over = legs_[1].cfg;
    over.queue_capacity = 8;
    over.faults.host_launch_rate = kFaultRate;
    over.faults.seed = mix_seed(seed_, 4);
    over.breaker.trip_threshold = 0.3;
    over.breaker.cooldown_us = 2000.0;
  }

  void setup(Tracer& tr) override {
    pool_.reset();
    {
      Scope sp(tr, "pool.build");
      pool_.emplace(serve::PoolSpec{});
    }
    {
      Scope sp(tr, "workload");
      for (Leg& leg : legs_) leg.requests = make_requests(leg);
    }
    Scope sp(tr, "pool.ref");
    for (const Leg& leg : legs_) {
      apps::PageRankOptions opt;
      opt.iterations = leg.cfg.pagerank_iterations;
      for (const serve::Request& r : leg.requests) {
        switch (r.kind) {
          case serve::QueryKind::kSssp:
            (void)pool_->sssp_ref(r.graph_id, r.source);
            break;
          case serve::QueryKind::kPageRank:
            (void)pool_->pagerank_ref(r.graph_id, opt);
            break;
          case serve::QueryKind::kSpmv:
            (void)pool_->spmv_ref(r.graph_id);
            break;
        }
      }
    }
  }

  // The attempts each leg makes, in attempt order, read from a traced
  // server run: the replays below re-run exactly these.
  void prepare_trace() override {
    for (Leg& leg : legs_) {
      serve::ServeConfig cfg = leg.cfg;
      cfg.trace = true;
      serve::Server server(cfg, *pool_, policy_);
      (void)server.run(leg.requests);
      std::map<std::uint64_t, std::size_t> index;
      for (std::size_t i = 0; i < leg.requests.size(); ++i) {
        index[leg.requests[i].id] = i;
      }
      leg.attempts.clear();
      for (const serve::ServeSpan& s : server.tracer().spans()) {
        if (s.kind != serve::SpanKind::kExec) continue;
        leg.attempts.push_back(Attempt{index.at(s.request), s.shard, s.batch,
                                       s.flag});
      }
    }
  }

  UnitResult unit(Tracer& tr) override {
    UnitResult u;
    for (const Leg& leg : legs_) {
      serve::Server server(leg.cfg, *pool_, policy_);
      serve::ServeStats st;
      int server_span = -1;
      {
        Scope sp(tr, "server");
        st = server.run(leg.requests);
        server_span = sp.id();
      }
      const std::vector<serve::Completion>& done = server.completions();
      u.attempted += static_cast<int>(leg.requests.size());
      // Exact request accounting: one terminal record per request, every Ok
      // result verified against the pool's serial reference.
      int bad = static_cast<int>(st.wrong);
      for (const serve::Completion& c : done) {
        if (c.status == serve::RequestStatus::kOk && !c.correct) ++bad;
      }
      if (done.size() != leg.requests.size() ||
          st.submitted != leg.requests.size() ||
          st.ok + st.expired + st.shed != st.submitted) {
        bad = static_cast<int>(leg.requests.size());
      }
      const std::string p = leg.name;
      u.model[p + ".ok"] = static_cast<double>(st.ok);
      u.model[p + ".shed"] = static_cast<double>(st.shed);
      u.model[p + ".expired"] = static_cast<double>(st.expired);
      u.model[p + ".attempts"] = static_cast<double>(st.attempts);
      u.model[p + ".retries"] = static_cast<double>(st.retries);
      u.model[p + ".batches"] = static_cast<double>(st.batches);
      u.model[p + ".breaker_trips"] = static_cast<double>(st.breaker_trips);
      u.model[p + ".p99_us"] = st.p99_us;
      u.model[p + ".makespan_us"] = st.makespan_us;
      u.model[p + ".device_cycles_total"] = st.device_cycles_total;
      tr.count("server.batches", static_cast<double>(st.batches));
      tr.count("server.attempts", static_cast<double>(st.attempts));
      tr.count("server.retries", static_cast<double>(st.retries));
      tr.count("server.shed", static_cast<double>(st.shed));
      tr.count("server.expired", static_cast<double>(st.expired));
      // The steady leg exists to batch without shedding; a leg that stops
      // doing so no longer measures what it is for.
      if (leg.steady && (st.batches >= st.attempts || st.shed != 0)) {
        bad = static_cast<int>(leg.requests.size());
      }
      if (tr.on) {
        bad = std::min(bad + replay(tr, leg, st, server_span),
                       static_cast<int>(leg.requests.size()));
      }
      u.failed += bad;
    }
    return u;
  }

  std::map<std::string, double> counts() const override {
    double edges = 0.0;
    for (int i = 0; i < pool_->size(); ++i) {
      edges += static_cast<double>(
          pool_->graph(static_cast<std::uint32_t>(i)).num_edges());
    }
    return {{"graph.edges", edges}};
  }

 private:
  static constexpr int kRequests = 600;
  static constexpr double kSteadyQps = 20000.0;
  static constexpr double kOverloadQps = 36000.0;
  static constexpr double kFaultRate = 0.01;

  struct Attempt {
    std::size_t request = 0;
    int shard = 0;
    std::uint64_t batch = 0;
    bool ok = false;
  };
  struct Leg {
    std::string name;
    bool steady = false;
    double qps = 0.0;
    serve::ServeConfig cfg;
    std::vector<serve::Request> requests;
    std::vector<Attempt> attempts;
  };

  // One leg's traffic. Arrival times come from make_open_loop_workload on
  // the seed; the queries, (kind, graph, source), are a fixed multiset in
  // make_open_loop_workload's 50/30/20 kind mix, spread evenly over the
  // pool's graphs (which do not depend on the seed), and dealt to the
  // arrivals in a seed-shuffled order. Drawing the queries from the seed
  // instead made the work of a unit vary by about 10 % from seed to seed,
  // more than the host-cost changes the benchmark should resolve.
  std::vector<serve::Request> make_requests(const Leg& leg) const {
    std::vector<serve::Request> out =
        serve::make_open_loop_workload(*pool_, leg.cfg, kRequests, leg.qps);
    std::vector<std::size_t> order(out.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::mt19937_64 rng(mix_seed(leg.cfg.seed, 6));
    std::shuffle(order.begin(), order.end(), rng);
    for (std::size_t j = 0; j < out.size(); ++j) {
      const std::size_t i = order[j];
      const std::size_t kind = i % 10;
      serve::Request& q = out[j];
      q.kind = kind < 5   ? serve::QueryKind::kSssp
               : kind < 8 ? serve::QueryKind::kSpmv
                          : serve::QueryKind::kPageRank;
      q.graph_id = static_cast<std::uint32_t>(
          (i / 10) % static_cast<std::size_t>(pool_->size()));
      q.source = pool_->pick_source(q.graph_id, i);
    }
    return out;
  }

  // Shard and layer replays of one leg's attempts (traced runs only).
  // Returns the attempts whose replayed outcome disagreed with the server's:
  // each shard replay must end as the server's attempt did, and each layer
  // replay must end the same way and model the same time, launches and
  // attributed device cycles as the shard replay of that attempt.
  int replay(Tracer& tr, const Leg& leg, const serve::ServeStats& st,
             int server_span) {
    int bad = leg.attempts.size() == st.attempts ? 0 : 1;
    std::vector<serve::Shard> shards;
    for (int i = 0; i < leg.cfg.num_shards; ++i) {
      shards.emplace_back(i, leg.cfg, *pool_, policy_);
    }
    std::vector<serve::AttemptResult> results(leg.attempts.size());
    for (std::size_t k = 0; k < leg.attempts.size(); ++k) {
      const Attempt& a = leg.attempts[k];
      {
        Scope sp(tr, "shard", server_span);
        results[k] = shards[static_cast<std::size_t>(a.shard)].run_query(
            leg.requests[a.request], k, a.batch);
      }
      if (results[k].ok != a.ok || (a.ok && !results[k].correct)) ++bad;
    }
    // The layers under run_query, entered through the same app calls on a
    // device of the same configuration, with the per-attempt fault seed
    // derived as Shard::run_query derives it.
    simt::Device dev(simt::DeviceSpec::k20(), 24, policy_);
    for (std::size_t k = 0; k < leg.attempts.size(); ++k) {
      const Attempt& a = leg.attempts[k];
      const serve::Request& q = leg.requests[a.request];
      simt::FaultConfig fc = leg.cfg.faults;
      fc.seed = simt::fault_mix(
          leg.cfg.faults.seed ^
          (0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(a.shard) + 1)) ^
          k);
      dev.set_fault_config(fc);
      simt::TraceContext ctx;
      ctx.batch_id = a.batch;
      ctx.members.push_back(simt::TraceMember{q.id, q.tenant, 1.0});
      bool ok = true;
      const simt::RunReport rep = traced_session(dev, tr, [&] {
        dev.set_trace_context(ctx);
        try {
          run_app(dev, leg.cfg, q);
        } catch (const simt::SimtException&) {
          ok = false;  // A refused launch ends the attempt, as in run_query.
        }
      });
      double cycles = 0.0;
      for (const simt::RequestCycles& rc : rep.attribution.per_request) {
        cycles += rc.cycles;
      }
      const serve::AttemptResult& r = results[k];
      if (ok != a.ok || rep.total_us != r.exec_us ||
          rep.aggregate.total_launches() != r.launches ||
          cycles != r.device_cycles) {
        ++bad;
      }
    }
    return bad;
  }

  void run_app(simt::Device& dev, const serve::ServeConfig& cfg,
               const serve::Request& q) const {
    switch (q.kind) {
      case serve::QueryKind::kSssp:
        (void)apps::run_sssp(dev, pool_->graph(q.graph_id), q.source, cfg.tmpl,
                             cfg.loop_params);
        break;
      case serve::QueryKind::kPageRank: {
        apps::PageRankOptions opt;
        opt.iterations = cfg.pagerank_iterations;
        (void)apps::run_pagerank(dev, pool_->graph(q.graph_id), cfg.tmpl,
                                 cfg.loop_params, opt);
        break;
      }
      case serve::QueryKind::kSpmv:
        (void)apps::run_spmv(dev, pool_->matrix(q.graph_id),
                             pool_->dense_x(q.graph_id), cfg.tmpl,
                             cfg.loop_params);
        break;
    }
  }

  std::uint64_t seed_;
  simt::ExecPolicy policy_;
  std::optional<serve::SubgraphPool> pool_;
  Leg legs_[2];
};

// ---------------------------------------------------------------------------
// Output.

void print_map(const std::map<std::string, double>& m) {
  std::printf("{");
  bool first = true;
  for (const auto& [k, v] : m) {
    std::printf("%s\"%s\":%.17g", first ? "" : ",", k.c_str(), v);
    first = false;
  }
  std::printf("}");
}

struct UnitRecord {
  double seconds = 0.0;
  double host_speed_s = 0.0;  ///< HostSpeed::time() right after the unit.
  bool traced = false;
  bool warmup = false;
  std::string engine;
  UnitResult result;
  std::map<std::string, double> counters;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::stoull(v);
    } else if (a == "--seconds") {
      o.seconds = std::stod(v);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload required");
  return o;
}

int hardware_threads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

int run(const Options& o) {
  // The measured program never reads its configuration from the caller's
  // environment: engine and faults are set per workload below.
  for (const char* var : {"NESTPAR_THREADS", "NESTPAR_EXEC", "NESTPAR_FAULTS",
                          "NESTPAR_PROFILE"}) {
    unsetenv(var);
  }
  simt::Profiler::set_enabled(false);
  // Allocated before the workload's memory, outside the heap it grows: made
  // after set-up, the ring raised combine-parallel's peak RSS by 7.6 MB.
  HostSpeed speed;

  const int nproc = hardware_threads();
  const bool parallel = o.workload == "combine-parallel";
  const simt::ExecPolicy policy = parallel
                                      ? simt::ExecPolicy::parallel(nproc)
                                      : simt::ExecPolicy::serial();
  std::unique_ptr<Workload> w;
  std::unique_ptr<Workload> serial_twin;  // Speedup reference, traced only.
  if (o.workload == "launch-storm") {
    w = std::make_unique<LaunchStorm>(o.seed, policy);
  } else if (o.workload == "combine-parallel") {
    w = std::make_unique<Combine>(o.seed, policy);
    if (o.trace) {
      serial_twin =
          std::make_unique<Combine>(o.seed, simt::ExecPolicy::serial());
    }
  } else if (o.workload == "serve-mix") {
    w = std::make_unique<ServeMix>(o.seed, policy);
  } else {
    throw std::invalid_argument("unknown workload " + o.workload);
  }

  Tracer tr;
  // Set-up runs once before the units and is repeated after them: at least
  // kMinSetups times in all, and until kSetupBudgetS seconds of set-up were
  // measured; the median is reported. Repeating it after the units keeps
  // the heap it fragments out of the peak memory of the run. The host speed
  // is timed after each set-up too: the repetitions take a second or less,
  // so they see one host phase, and the units' kernel times do not describe
  // it.
  constexpr int kMinSetups = 5;
  constexpr int kMaxSetups = 25;
  constexpr double kSetupBudgetS = 1.0;
  std::vector<double> setup_s;
  std::vector<double> setup_speed_s;
  double setup_total = 0.0;
  const auto timed_setup = [&] {
    tr.on = o.trace;
    tr.unit = -1 - static_cast<int>(setup_s.size());
    const double t0 = now_s();
    w->setup(tr);
    setup_s.push_back(now_s() - t0);
    setup_speed_s.push_back(speed.time());
    setup_total += setup_s.back();
  };
  timed_setup();
  if (serial_twin) {
    tr.on = false;  // Only the measured workload's set-up is traced.
    serial_twin->setup(tr);
  }
  if (o.trace) w->prepare_trace();

  // Unit 0 is the discarded warm-up. Traced runs alternate untraced and
  // traced units (and, on combine-parallel, serial-engine traced units) so
  // every kind sees the same machine phases.
  std::vector<UnitRecord> units;
  const double deadline = now_s() + o.seconds;
  constexpr int kMinUnits = 4;
  for (int i = 0;; ++i) {
    const int timed = static_cast<int>(units.size()) - 1;
    if (i > 0 && now_s() >= deadline && timed >= kMinUnits) break;
    UnitRecord rec;
    rec.warmup = i == 0;
    rec.traced = o.trace && (rec.warmup || i % 2 == 0);
    Workload* target = w.get();
    rec.engine = parallel ? "parallel" : "serial";
    if (serial_twin && !rec.warmup && i % 4 == 0) {
      target = serial_twin.get();
      rec.engine = "serial";
    }
    tr.on = rec.traced;
    tr.unit = static_cast<int>(units.size());
    tr.counters.clear();
    const double t0 = now_s();
    rec.result = target->unit(tr);
    rec.seconds = now_s() - t0;
    rec.host_speed_s = speed.time();
    rec.counters = tr.counters;
    units.push_back(std::move(rec));
  }

  const double peak_mb = peak_rss_mb();
  while (static_cast<int>(setup_s.size()) < kMinSetups ||
         (setup_total < kSetupBudgetS &&
          static_cast<int>(setup_s.size()) < kMaxSetups)) {
    timed_setup();
  }

  std::map<std::string, double> counts = w->counts();
  counts["thread_pool.threads"] = policy.resolve_threads();
  std::printf("{\"build\":{\"type\":\"%s\",\"compiler\":\"%s\",\"nproc\":%d},",
              HOSTBENCH_BUILD_TYPE, HOSTBENCH_COMPILER, nproc);
  std::printf("\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.trace ? 1 : 0);
  const auto print_list = [](const std::vector<double>& v) {
    std::printf("[");
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::printf("%s%.17g", i ? "," : "", v[i]);
    }
    std::printf("]");
  };
  std::printf("\"peak_rss_mb\":%.17g,\"setup_s\":", peak_mb);
  print_list(setup_s);
  std::printf(",\"setup_host_speed_s\":");
  print_list(setup_speed_s);
  std::printf(",\"counts\":");
  print_map(counts);
  std::printf(",\"units\":[");
  for (std::size_t i = 0; i < units.size(); ++i) {
    const UnitRecord& u = units[i];
    std::printf(
        "%s{\"s\":%.17g,\"host_speed_s\":%.17g,\"warmup\":%s,\"traced\":%s,"
        "\"engine\":\"%s\",\"attempted\":%d,\"failed\":%d,"
        "\"model\":",
        i ? "," : "", u.seconds, u.host_speed_s, u.warmup ? "true" : "false",
        u.traced ? "true" : "false", u.engine.c_str(), u.result.attempted,
        u.result.failed);
    print_map(u.result.model);
    std::printf(",\"counters\":");
    print_map(u.counters);
    std::printf("}");
  }
  std::printf("],\"spans\":[");
  const std::vector<Span>& spans = tr.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::printf("%s{\"n\":\"%s\",\"u\":%d,\"b\":%.9f,\"e\":%.9f,\"p\":%d,"
                "\"f\":%ld}",
                i ? "," : "", s.name.c_str(), s.unit, s.begin, s.end, s.parent,
                s.faults);
  }
  std::printf("]}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hostbench: %s\n", e.what());
    return 2;
  }
}

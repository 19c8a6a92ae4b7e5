// One instance of one repository-benchmark workload (perfbench/run.py drives
// it; perfbench/README.md documents the workloads and metrics).
//
//   mdr_perfbench --workload NAME --seed N [--smoke] [--shards S] [--prof]
//   mdr_perfbench --workload NAME --seed N [--smoke] --replay
//
// Simulation mode builds the workload's inputs with the public builders
// (topo::make_*, topo::*_flows), constructs sim::NetworkSim several times
// (set-up time is the median), runs NetworkSim::run once and prints
// one JSON line: host times, peak RSS, the simulated outputs, a digest of the
// outputs that must repeat exactly for a seed, and with --prof the
// profiler's per-section totals.
//
// Replay mode drives proto::RouterTables::apply_lsu and mtu() directly for a
// sample of routers of the workload's topology, timing every call: first
// every neighbor's full shortest-path tree (the cold-start regime), then a
// stream of single-link-cost diffs (the steady regime). The final distances
// must equal graph::dijkstra's on the true graph.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/dijkstra.h"
#include "proto/pda.h"
#include "sim/network_sim.h"
#include "topo/builders.h"
#include "topo/flows.h"
#include "util/rng.h"

namespace mdr::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  bool smoke = false;
  int shards = 0;  ///< 0: the workload's own shard count
  bool prof = false;
  bool replay = false;
};

struct Workload {
  graph::Topology topo;
  std::vector<topo::FlowSpec> flows;
  sim::SimConfig config;
  sim::EngineSpec engine;
};

// The generator and parameters of examples/scenarios/waxman_scale.scn. The
// network (topology and flow set) is that scenario's instance, generator
// seed 11, for every run; `seed` drives the run's own randomness (traffic
// arrivals and protocol timers). Across generator seeds the average delay of
// a 120-router instance moves by a third of its median, far more than any
// regression bound, while across traffic seeds it moves by under 1%.
constexpr std::uint64_t kWaxmanNetworkSeed = 11;

Workload waxman(std::size_t nodes, std::size_t flows, double duration,
                std::uint64_t seed) {
  Workload w;
  Rng rng(kWaxmanNetworkSeed);
  w.topo = topo::make_waxman(nodes, /*a=*/0.06, /*b=*/0.06, rng,
                             /*capacity_bps=*/10e6,
                             /*max_prop_delay_s=*/5e-3,
                             /*min_prop_delay_s=*/1e-3);
  w.flows = topo::random_flows(w.topo, flows, /*mean_rate_bps=*/1e6, rng);
  w.config.tl = 4.0;
  w.config.ts = 2.0;
  w.config.traffic_start = 0.5;
  w.config.warmup = 0.5;
  w.config.duration = duration;
  w.config.seed = seed;
  w.engine.shards = 4;
  return w;
}

Workload make_workload(const Options& o) {
  if (o.workload == "cairn_fig") {
    // The paper's experiment (examples/scenarios/cairn_mp.scn) over a long
    // measured window, with sparse LFI sweeps as the loop-freedom check.
    Workload w;
    w.topo = topo::make_cairn();
    w.flows = topo::cairn_flows(1.15);
    w.config.tl = 10.0;
    w.config.ts = 2.0;
    w.config.warmup = 10.0;
    w.config.duration = o.smoke ? 30.0 : 600.0;
    w.config.lfi_check_interval = 1.0;
    w.config.seed = o.seed;
    w.engine.shards = 1;
    return w;
  }
  if (o.workload == "waxman1000_cold") {
    return o.smoke ? waxman(200, 20, 1.0, o.seed)
                   : waxman(1000, 100, 1.0, o.seed);
  }
  if (o.workload == "waxman120_steady") {
    return waxman(120, 60, o.smoke ? 10.0 : 150.0, o.seed);
  }
  throw std::invalid_argument("unknown workload: " + o.workload);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// FNV-1a over the outputs that must repeat exactly for a seed, at any
// shard count.
std::string digest(const sim::SimResult& r) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &r.avg_delay_s, sizeof bits);
  const std::uint64_t words[] = {r.events_processed, r.delivered,
                                 r.control_messages, bits};
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint64_t w : words) {
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

// Minimal JSON object writer: doubles keep all their digits.
class Json {
 public:
  Json& num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  Json& u64(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& str(const char* key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  Json& raw(const char* key, const std::string& v) {
    out_ += out_.empty() ? "{" : ", ";
    out_ += "\"" + std::string(key) + "\": " + v;
    return *this;
  }
  std::string done() const { return out_ + "}"; }

 private:
  std::string out_;
};

std::string prof_json(const obs::ProfReport& p) {
  Json sections;
  for (std::size_t i = 0; i < obs::kNumProfSections; ++i) {
    const auto s = static_cast<obs::ProfSection>(i);
    const obs::ProfStats st = p.total(s);
    sections.raw(obs::prof_section_name(s),
                 Json()
                     .u64("count", st.count)
                     .u64("total_ns", st.total_ns)
                     .u64("self_ns", st.self_ns)
                     .done());
  }
  return Json()
      .raw("sections", sections.done())
      .u64("windows", p.windows)
      .num("imbalance", p.imbalance())
      .u64("wall_ns", p.wall_ns)
      .num("overhead_est_ns", p.overhead_est_ns())
      .done();
}

int run_sim(const Options& o) {
  std::vector<double> build_s, construct_s, setup_s;
  std::unique_ptr<Workload> w;
  std::unique_ptr<sim::NetworkSim> sim;
  // At least 3 set-ups and 0.1 s of them, so the median of a cheap set-up
  // is not one cold sample.
  double setup_total = 0;
  for (int i = 0; i < 3 || (setup_total < 0.1 && i < 1000); ++i) {
    sim.reset();
    w.reset();
    const auto t0 = Clock::now();
    w = std::make_unique<Workload>(make_workload(o));
    if (o.shards > 0) w->engine.shards = o.shards;
    w->config.prof = o.prof;
    const double built = seconds_since(t0);
    const auto t1 = Clock::now();
    sim = std::make_unique<sim::NetworkSim>(w->topo, w->flows, w->config,
                                            w->engine);
    const double constructed = seconds_since(t1);
    build_s.push_back(built);
    construct_s.push_back(constructed);
    setup_s.push_back(built + constructed);
    setup_total += built + constructed;
  }
  const auto t0 = Clock::now();
  const sim::SimResult r = sim->run();
  const double run_s = seconds_since(t0);

  const std::uint64_t dropped =
      r.dropped_no_route + r.dropped_ttl + r.dropped_dead + r.dropped_queue;
  std::string shard_events = "[";
  for (std::size_t i = 0; i < r.shard_events.size(); ++i) {
    shard_events += (i ? ", " : "") + std::to_string(r.shard_events[i]);
  }
  shard_events += "]";
  Json j;
  j.str("workload", o.workload)
      .u64("seed", o.seed)
      .u64("shards", static_cast<std::uint64_t>(w->engine.shards))
      .num("topo_build_s", median(build_s))
      .num("construct_s", median(construct_s))
      .num("setup_s", median(setup_s))
      .num("run_s", run_s)
      .num("peak_rss_mb", peak_rss_mb())
      .str("digest", digest(r))
      .u64("events", r.events_processed)
      .u64("delivered", r.delivered)
      .u64("dropped", dropped)
      .num("avg_delay_s", r.avg_delay_s)
      .u64("control_messages", r.control_messages)
      .num("control_bits", r.control_bits)
      .u64("lsus_originated", r.lsus_originated)
      .u64("acks", r.acks_sent)
      .u64("lfi_checks", r.lfi_checks)
      .u64("lfi_violations", r.lfi_violations)
      .raw("shard_events", shard_events);
  if (r.prof) j.raw("prof", prof_json(*r.prof));
  std::printf("%s\n", j.done().c_str());
  return 0;
}

// ------------------------------------------------------------ replay

struct Regime {
  std::uint64_t lsu_calls = 0;
  std::uint64_t entries = 0;
  std::uint64_t lsu_ns = 0;
  std::uint64_t mtu_calls = 0;
  std::uint64_t mtu_ns = 0;

  std::string json() const {
    return Json()
        .u64("lsu_calls", lsu_calls)
        .u64("entries", entries)
        .u64("lsu_ns", lsu_ns)
        .u64("mtu_calls", mtu_calls)
        .u64("mtu_ns", mtu_ns)
        .done();
  }
};

std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

// One LSU from neighbor k folded into the tables, then the MTU the protocol
// runs after every NTU, each call timed on its own.
void feed(proto::RouterTables& t, graph::NodeId k,
          const std::vector<proto::LsuEntry>& entries, Regime& reg) {
  auto t0 = Clock::now();
  t.apply_lsu(k, entries);
  reg.lsu_ns += ns_since(t0);
  ++reg.lsu_calls;
  reg.entries += entries.size();
  t0 = Clock::now();
  t.mtu();
  reg.mtu_ns += ns_since(t0);
  ++reg.mtu_calls;
}

proto::LinkStateTable tree_of(std::size_t n,
                              const std::vector<graph::CostedEdge>& edges,
                              graph::NodeId k) {
  proto::LinkStateTable t;
  for (const auto& e :
       graph::tree_edges(graph::dijkstra(n, edges, k), edges)) {
    t.set(e.from, e.to, e.cost);
  }
  return t;
}

int run_replay(const Options& o) {
  const Workload w = make_workload(o);
  const std::size_t n = w.topo.num_nodes();
  Rng rng(o.seed ^ 0x5eed5eed5eed5eedull);
  std::vector<graph::CostedEdge> edges;
  const auto links = static_cast<graph::LinkId>(w.topo.num_links());
  for (graph::LinkId id = 0; id < links; ++id) {
    edges.push_back(graph::CostedEdge{w.topo.link(id).from,
                                      w.topo.link(id).to,
                                      rng.uniform(0.5, 3.0)});
  }
  // A sample of distinct routers, each replaying its own diff stream.
  std::vector<graph::NodeId> sample(n);
  for (std::size_t v = 0; v < n; ++v) {
    sample[v] = static_cast<graph::NodeId>(v);
  }
  for (std::size_t v = n - 1; v > 0; --v) {
    std::swap(sample[v], sample[static_cast<std::size_t>(
                             rng.uniform_int(0, static_cast<int>(v)))]);
  }
  sample.resize(std::min<std::size_t>(n, o.smoke ? 3 : 12));
  const int diffs = o.smoke ? 30 : 100;
  Regime bulk, steady;
  for (const graph::NodeId r : sample) {
    proto::RouterTables t(r, n);
    std::vector<graph::NodeId> nbrs;
    for (const auto& e : edges) {
      if (e.from == r) {
        t.link_up(e.to, e.cost);
        nbrs.push_back(e.to);
      }
    }
    // Cold start: every neighbor reports its whole tree.
    std::map<graph::NodeId, proto::LinkStateTable> last;
    for (const graph::NodeId k : nbrs) {
      last[k] = tree_of(n, edges, k);
      feed(t, k, last[k].as_entries(), bulk);
    }
    // Steady state: one remote link changes cost, the next neighbor reports
    // its tree diff. Links out of r keep their cost (l_k stays fixed).
    for (int i = 0; i < diffs; ++i) {
      auto& e = edges[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(edges.size()) - 1))];
      if (e.from != r) e.cost = rng.uniform(0.5, 3.0);
      const graph::NodeId k = nbrs[static_cast<std::size_t>(i) % nbrs.size()];
      proto::LinkStateTable next = tree_of(n, edges, k);
      const auto diff = proto::LinkStateTable::diff(last[k], next);
      last[k] = std::move(next);
      if (!diff.empty()) feed(t, k, diff, steady);
    }
    // Every neighbor catches up, so the tables describe the final graph.
    for (const graph::NodeId k : nbrs) {
      proto::LinkStateTable next = tree_of(n, edges, k);
      const auto diff = proto::LinkStateTable::diff(last[k], next);
      if (!diff.empty()) feed(t, k, diff, steady);
    }
    const auto truth = graph::dijkstra(n, edges, r);
    for (graph::NodeId j = 0; j < static_cast<graph::NodeId>(n); ++j) {
      if (t.distance(j) != truth.dist[j]) {
        std::fprintf(stderr,
                     "replay: router %d disagrees with dijkstra on D(%d): "
                     "%.17g vs %.17g\n",
                     r, j, t.distance(j), truth.dist[j]);
        return 1;
      }
    }
  }
  std::printf("%s\n", Json()
                          .str("workload", o.workload)
                          .u64("seed", o.seed)
                          .u64("routers", sample.size())
                          .raw("bulk", bulk.json())
                          .raw("steady", steady.json())
                          .done()
                          .c_str());
  return 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N [--smoke] [--shards S] "
               "[--prof] [--replay]\n",
               argv0);
  return 2;
}

int main_impl(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--shards" && has_value) {
      o.shards = std::atoi(argv[++i]);
      if (o.shards < 1) return usage(argv[0]);  // only the sharded engine
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--prof") {
      o.prof = true;
    } else if (a == "--replay") {
      o.replay = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (o.workload.empty() || !have_seed) {
    return usage(argv[0]);
  }
  try {
    return o.replay ? run_replay(o) : run_sim(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mdr_perfbench: %s\n", e.what());
    return 1;
  }
}

}  // namespace
}  // namespace mdr::perfbench

int main(int argc, char** argv) {
  return mdr::perfbench::main_impl(argc, argv);
}

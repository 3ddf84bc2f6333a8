#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <random>
#include <set>
#include <thread>

#include "commands.hpp"
#include "dyn/delta.hpp"
#include "dyn/overlay.hpp"
#include "net/client.hpp"
#include "snapshot/snapshot.hpp"

namespace pb {

snapshot::Snapshot open_or_die(const std::string& path) {
  auto s = snapshot::open(path);
  if (!s.ok()) {
    die("open " + path + ": " + s.status().to_string());
  }
  return s.take();
}

Embedding embed(snapshot::Snapshot snap, std::size_t engine_threads) {
  Embedding e;
  e.registry = std::make_unique<snapshot::Registry>();
  e.registry->publish(std::move(snap));
  e.engine = std::make_unique<serve::QueryEngine>(engine_threads);
  e.frontend = std::make_unique<serve::Frontend>(*e.registry, *e.engine);
  return e;
}

Embedding embed_dyn(snapshot::Snapshot snap) {
  Embedding e = embed(std::move(snap), kInprocEngineThreads);
  auto cat = dyn::DynamicCatalog::attach(*e.registry);
  if (!cat.ok()) {
    die("dyn attach: " + cat.status().to_string());
  }
  e.catalog = cat.take();
  return e;
}

LoopStats run_threads(
    std::size_t threads, double seconds,
    const std::function<void(std::size_t, LoopStats&, std::int64_t)>& body,
    double& elapsed_s) {
  struct alignas(64) Padded {  // no false sharing between callers
    LoopStats s;
  };
  std::vector<Padded> st(threads);
  std::vector<std::thread> ts;
  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] { body(t, st[t].s, deadline); });
  }
  for (auto& t : ts) {
    t.join();
  }
  elapsed_s = static_cast<double>(now_ns() - start) / 1e9;
  LoopStats all;
  for (const auto& p : st) {
    all.merge(p.s);
  }
  return all;
}

LoopStats frontend_loop(serve::Frontend& fe, const Pool& pool,
                        std::size_t threads, double seconds, Tracer* tr,
                        double& elapsed_s) {
  const std::uint16_t n_batch = tr ? tr->intern("bench.batch") : 0;
  const std::uint16_t n_call = tr ? tr->intern("frontend.serve_paths") : 0;
  const std::uint16_t n_check = tr ? tr->intern("bench.check") : 0;
  return run_threads(
      threads, seconds,
      [&](std::size_t t, LoopStats& s, std::int64_t deadline) {
        std::vector<serve::PathAnswer> out;
        s.lat_ns.reserve(1 << 20);
        s.lat_end_ns.reserve(1 << 20);
        for (std::size_t b = t; now_ns() < deadline; b += threads) {
          Scope batch(tr, t, n_batch, 0, b);
          ++s.attempted;
          const std::int64_t t0 = now_ns();
          coop::Status st;
          {
            Scope call(tr, t, n_call, batch.handle(), b);
            st = fe.serve_paths(pool.batch(b), out);
          }
          const std::int64_t t1 = now_ns();
          Scope check(tr, t, n_check, batch.handle(), b);
          if (!st.ok()) {
            s.count(classify(st), &st);
          } else if (!pool.check_indices(b, out)) {
            s.count(Outcome::kWrong);
          } else {
            ++s.ok_batches;
            s.queries += pool.batch_size;
            s.lat_ns.push_back(static_cast<std::uint32_t>(t1 - t0));
            s.lat_end_ns.push_back(t1);
          }
        }
      },
      elapsed_s);
}

namespace {

coop::Status connect_to(std::uint16_t port, net::Client& c) {
  net::ClientOptions o;
  o.connect_timeout = std::chrono::seconds(2);
  o.io_timeout = std::chrono::seconds(5);
  auto r = net::Client::connect("127.0.0.1", port, o);
  if (!r.ok()) {
    return r.status();
  }
  c = r.take();
  return coop::OkStatus();
}

/// Record a failed attempt and get a fresh connection for the next one
/// (a failed round trip may leave the stream mid-frame).
void on_failure(const coop::Status& st, std::uint16_t port, net::Client& c,
                LoopStats& s) {
  s.count(classify(st), &st);
  c.close();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  (void)connect_to(port, c);
}

}  // namespace

LoopStats wire_loop(std::uint16_t port, const Pool& pool, std::size_t conns,
                    double seconds, Tracer* tr, const std::string& span,
                    double& elapsed_s) {
  const std::uint16_t n_batch = tr ? tr->intern("bench.batch") : 0;
  const std::uint16_t n_call = tr ? tr->intern(span) : 0;
  const std::uint16_t n_check = tr ? tr->intern("bench.check") : 0;
  return run_threads(
      conns, seconds,
      [&](std::size_t t, LoopStats& s, std::int64_t deadline) {
        net::Client c;
        s.lat_ns.reserve(1 << 20);
        s.lat_end_ns.reserve(1 << 20);
        if (auto st = connect_to(port, c); !st.ok()) {
          ++s.attempted;
          s.count(Outcome::kError, &st);
        }
        for (std::size_t b = t; now_ns() < deadline; b += conns) {
          Scope batch(tr, t, n_batch, 0, b);
          ++s.attempted;
          if (!c.connected()) {
            on_failure(coop::Status::unavailable("not connected"), port, c, s);
            continue;
          }
          const std::int64_t t0 = now_ns();
          coop::Expected<net::PathBatchResponse> r =
              coop::Status::internal("unset");
          {
            Scope call(tr, t, n_call, batch.handle(), b);
            r = c.path_batch(kCollection, pool.batch(b));
          }
          const std::int64_t t1 = now_ns();
          Scope check(tr, t, n_check, batch.handle(), b);
          if (!r.ok()) {
            on_failure(r.status(), port, c, s);
          } else if (!pool.check_indices(b, r->answers)) {
            s.count(Outcome::kWrong);
          } else {
            ++s.ok_batches;
            s.queries += pool.batch_size;
            s.lat_ns.push_back(static_cast<std::uint32_t>(t1 - t0));
            s.lat_end_ns.push_back(t1);
          }
        }
      },
      elapsed_s);
}

namespace {

constexpr Key kSliceBase = 1'000'000'000;  // above every base key
constexpr Key kSliceWidth = 1'000'000;
constexpr Key kSliceKeys = 16;              // distinct keys per node
constexpr Key kSliceStep = 1000;
constexpr std::size_t kMutsPerWrite = 6;
constexpr std::size_t kReadsPerWrite = 4;

/// Root-to-leaf path through `v` (first child below it), and v's depth.
std::vector<cat::NodeId> path_through(const serve::FlatCascade& f,
                                      std::uint32_t v, std::size_t& depth) {
  std::vector<cat::NodeId> up;
  for (std::int32_t u = static_cast<std::int32_t>(v); u >= 0;
       u = f.node(static_cast<std::uint32_t>(u)).parent) {
    up.push_back(u);
  }
  std::vector<cat::NodeId> path(up.rbegin(), up.rend());
  depth = path.size() - 1;
  for (std::uint32_t w = v; !f.is_leaf(w);) {
    w = f.child(w, 0);
    path.push_back(static_cast<cat::NodeId>(w));
  }
  return path;
}

/// A DynCaller over one net::Client connection.
class WireCaller : public DynCaller {
 public:
  WireCaller(std::uint16_t port, LoopStats& s) : port_(port) {
    if (auto st = connect_to(port_, c_); !st.ok()) {
      ++s.attempted;
      s.count(Outcome::kError, &st);
    }
  }
  [[nodiscard]] bool ready() const override { return c_.connected(); }
  coop::Status mutate(const std::vector<dyn::Mutation>& muts) override {
    std::vector<std::vector<std::uint8_t>> enc;
    for (const auto& r : dyn::runs_from_mutations(muts)) {
      enc.push_back(dyn::encode_run(r));
    }
    auto r = c_.mutate(kCollection, std::move(enc));
    return r.ok() ? coop::OkStatus() : r.status();
  }
  coop::Status read(std::span<const serve::PathQuery> queries,
                    std::vector<dyn::PathKeys>& out) override {
    auto r = c_.dyn_path_batch(kCollection, queries);
    if (!r.ok()) {
      return r.status();
    }
    out = std::move(r->answers);
    return coop::OkStatus();
  }
  void failed(const coop::Status& st, LoopStats& s) override {
    on_failure(st, port_, c_, s);
  }

 private:
  std::uint16_t port_;
  net::Client c_;
};

/// A DynCaller calling a serve::Frontend in this process.
class FrontendCaller : public DynCaller {
 public:
  FrontendCaller(serve::Frontend& fe, dyn::DynamicCatalog& cat)
      : fe_(fe), cat_(cat) {}
  coop::Status mutate(const std::vector<dyn::Mutation>& muts) override {
    return fe_.apply_mutations(cat_, muts);
  }
  coop::Status read(std::span<const serve::PathQuery> queries,
                    std::vector<dyn::PathKeys>& out) override {
    return fe_.serve_dyn_paths(cat_, queries, out);
  }

 private:
  serve::Frontend& fe_;
  dyn::DynamicCatalog& cat_;
};

}  // namespace

DynCallers wire_callers(std::uint16_t port) {
  return {"net.client", [port](LoopStats& s) -> std::unique_ptr<DynCaller> {
            return std::make_unique<WireCaller>(port, s);
          }};
}

DynCallers frontend_callers(serve::Frontend& fe, dyn::DynamicCatalog& cat) {
  return {"frontend", [&fe, &cat](LoopStats&) -> std::unique_ptr<DynCaller> {
            return std::make_unique<FrontendCaller>(fe, cat);
          }};
}

LoopStats rw_loop(const DynCallers& callers, const Pool& pool,
                  const serve::FlatCascade& topo, std::size_t conns,
                  double seconds, Tracer* tr, std::uint32_t generation,
                  double& elapsed_s) {
  const std::string& layer = callers.layer;
  const std::uint16_t n_cycle = tr ? tr->intern("bench.cycle") : 0;
  const std::uint16_t n_batch = tr ? tr->intern("bench.batch") : 0;
  const std::uint16_t n_mut = tr ? tr->intern(layer + ".mutate") : 0;
  const std::uint16_t n_probe = tr ? tr->intern(layer + ".probe") : 0;
  const std::uint16_t n_read = tr ? tr->intern(layer + ".dyn_read") : 0;
  const std::uint16_t n_check = tr ? tr->intern("bench.check") : 0;
  const auto nodes = static_cast<std::uint32_t>(topo.num_nodes());
  return run_threads(
      conns, seconds,
      [&](std::size_t t, LoopStats& s, std::int64_t deadline) {
        const Key lo = kSliceBase + static_cast<Key>(generation * conns + t) *
                                        kSliceWidth;
        const Key hi = lo + kSliceKeys * kSliceStep;
        std::mt19937_64 rng(generation * 1000003ull + t);
        std::map<std::uint32_t, std::set<Key>> live;  // own slice only
        bool model_valid = true;
        s.lat_ns.reserve(1 << 20);
        s.lat_end_ns.reserve(1 << 20);
        s.write_lat_ns.reserve(1 << 18);
        s.write_end_ns.reserve(1 << 18);
        const std::unique_ptr<DynCaller> c = callers.open(s);
        std::vector<dyn::PathKeys> got;
        std::size_t b = t;
        for (std::uint64_t cycle = 0; now_ns() < deadline; ++cycle) {
          Scope root(tr, t, n_cycle, 0, cycle);
          if (!c->ready()) {
            ++s.attempted;
            c->failed(coop::Status::unavailable("not connected"), s);
            continue;
          }
          // One MUTATE of six mutations in this writer's own slice.
          std::vector<dyn::Mutation> muts(kMutsPerWrite);
          for (auto& m : muts) {
            m.node = static_cast<std::uint32_t>(rng() % nodes);
            m.key = lo + static_cast<Key>(rng() % kSliceKeys) * kSliceStep;
            m.op = (rng() & 1) != 0 ? dyn::Op::kInsert : dyn::Op::kDelete;
          }
          ++s.attempted;
          const std::int64_t w0 = now_ns();
          coop::Status mr;
          {
            Scope call(tr, t, n_mut, root.handle(), cycle);
            mr = c->mutate(muts);
          }
          const std::int64_t w1 = now_ns();
          if (!mr.ok()) {
            // Whether the batch landed is unknown, so this writer's model
            // of its slice is void: the run has failed already, and later
            // probes are not checked (they would count as wrong answers).
            c->failed(mr, s);
            model_valid = false;
            continue;
          }
          ++s.write_batches;
          s.mutations += muts.size();
          s.write_lat_ns.push_back(static_cast<std::uint32_t>(w1 - w0));
          s.write_end_ns.push_back(w1);
          std::map<std::pair<std::uint32_t, Key>, bool> last;  // last op wins
          for (const auto& m : muts) {
            last[{m.node, m.key}] = m.op == dyn::Op::kInsert;
            if (m.op == dyn::Op::kInsert) {
              live[m.node].insert(m.key);
            } else {
              live[m.node].erase(m.key);
            }
          }
          // Read-your-writes probe: one query per written key.
          std::vector<serve::PathQuery> probe;
          std::vector<std::size_t> depth;
          for (const auto& [nk, ins] : last) {
            std::size_t d = 0;
            probe.push_back({path_through(topo, nk.first, d), nk.second});
            depth.push_back(d);
          }
          ++s.attempted;
          coop::Status pr;
          {
            Scope call(tr, t, n_probe, root.handle(), cycle);
            pr = c->read(probe, got);
          }
          if (!pr.ok()) {
            c->failed(pr, s);
            continue;
          }
          bool good = got.size() == probe.size();
          std::size_t i = 0;
          for (const auto& [nk, ins] : last) {
            if (!good) {
              break;
            }
            const auto& keys = got[i].keys;
            good = keys.size() == probe[i].path.size();
            if (good) {
              const Key got = keys[depth[i]];
              const auto& set = live[nk.first];
              const auto next = set.upper_bound(nk.second);
              good = ins ? got == nk.second
                         : (next != set.end() ? got == *next : got >= hi);
            }
            ++i;
          }
          if (!good && model_valid) {
            s.count(Outcome::kWrong);
          }
          // Reads over the base key range: determinate answers.
          for (std::size_t r = 0; r < kReadsPerWrite && now_ns() < deadline;
               ++r, b += conns) {
            Scope batch(tr, t, n_batch, root.handle(), b);
            ++s.attempted;
            const std::int64_t t0 = now_ns();
            coop::Status rr;
            {
              Scope call(tr, t, n_read, batch.handle(), b);
              rr = c->read(pool.batch(b), got);
            }
            const std::int64_t t1 = now_ns();
            Scope check(tr, t, n_check, batch.handle(), b);
            if (!rr.ok()) {
              c->failed(rr, s);
              break;
            }
            if (!pool.check_keys(b, got)) {
              s.count(Outcome::kWrong);
            } else {
              ++s.ok_batches;
              s.queries += pool.batch_size;
              s.lat_ns.push_back(static_cast<std::uint32_t>(t1 - t0));
              s.lat_end_ns.push_back(t1);
            }
          }
        }
      },
      elapsed_s);
}

Pool load_pool(const std::string& path, bool corrupt) {
  auto p = Pool::load(path);
  if (!p.ok()) {
    die(p.status().to_string());
  }
  Pool pool = p.take();
  if (corrupt) {
    pool.exp_aug[0] ^= 1;
    pool.exp_key[0] ^= 1;
  }
  return pool;
}

std::uint16_t wait_port(const std::string& port_file, double timeout_s) {
  const std::int64_t give_up =
      now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  while (now_ns() < give_up) {
    std::ifstream in(port_file);
    long port = 0;
    if (in >> port && port > 0 && port < 65536) {
      return static_cast<std::uint16_t>(port);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  die("no port in " + port_file);
}

namespace {

/// End-to-end figures of one timed window.
struct Window {
  double qps = 0;
  double p50_us = 0;
  double p99_us = 0;
  double write_ops_s = 0;
  double write_p50_us = 0;
  double write_p99_us = 0;
  double steal = 0;  ///< share of the machine's CPU time stolen meanwhile
  double n_reads = 0;
  std::vector<std::uint32_t> reads;  ///< read batch latencies (ns)
};

/// Cut a loop's samples into consecutive windows of `window_s` from
/// `begin` by when each batch ended; `marks` holds the CPU counters at
/// every window boundary (one more than the windows).
std::vector<Window> split_windows(const LoopStats& s, std::int64_t begin,
                                  double window_s, std::size_t batch_size,
                                  const std::vector<CpuTimes>& marks) {
  const auto span_ns = static_cast<std::int64_t>(window_s * 1e9);
  const double muts_per_write =
      s.write_batches == 0 ? 0
                           : static_cast<double>(s.mutations) /
                                 static_cast<double>(s.write_batches);
  std::vector<Window> ws(marks.size() - 1);
  for (std::size_t i = 0; i < ws.size(); ++i) {
    const std::int64_t lo = begin + static_cast<std::int64_t>(i) * span_ns;
    const std::int64_t hi = lo + span_ns;
    const auto in = [&](const std::vector<std::uint32_t>& lat,
                        const std::vector<std::int64_t>& end) {
      std::vector<std::uint32_t> out;
      for (std::size_t k = 0; k < lat.size(); ++k) {
        if (end[k] >= lo && end[k] < hi) {
          out.push_back(lat[k]);
        }
      }
      return out;
    };
    std::vector<std::uint32_t> writes = in(s.write_lat_ns, s.write_end_ns);
    Window& w = ws[i];
    w.reads = in(s.lat_ns, s.lat_end_ns);
    w.n_reads = static_cast<double>(w.reads.size());
    w.qps = w.n_reads * batch_size / window_s;
    w.p50_us = percentile_ns(w.reads, 0.50) / 1e3;
    w.p99_us = percentile_ns(w.reads, 0.99) / 1e3;
    w.write_ops_s = static_cast<double>(writes.size()) * muts_per_write /
                    window_s;
    w.write_p50_us = percentile_ns(writes, 0.50) / 1e3;
    w.write_p99_us = percentile_ns(writes, 0.99) / 1e3;
    w.steal = steal_share(marks[i], marks[i + 1]);
  }
  return ws;
}

/// Per-window figures, the timed read latencies' sample count and deepest
/// percentile, and the counts of `s`, as JSON fields.
void summarize(const LoopStats& s, const std::vector<Window>& ws, Json& j) {
  std::vector<std::uint32_t> timed;
  for (const auto& w : ws) {
    timed.insert(timed.end(), w.reads.begin(), w.reads.end());
  }
  const auto list = [&](double Window::*f) {
    std::string out = "[";
    for (const auto& w : ws) {
      char b[32];
      std::snprintf(b, sizeof(b), "%s%.9g", out.size() > 1 ? "," : "", w.*f);
      out += b;
    }
    return out + "]";
  };
  const double n = static_cast<double>(timed.size());
  // Deepest percentile with at least ten samples beyond it.
  const double deep = n >= 20 ? 1.0 - 10.0 / n : 0.5;
  j.raw("window_qps", list(&Window::qps))
      .raw("window_p50_us", list(&Window::p50_us))
      .raw("window_p99_us", list(&Window::p99_us))
      .raw("window_steal", list(&Window::steal))
      .raw("window_reads", list(&Window::n_reads))
      .num("samples", n)
      .num("deep_pct", deep * 100)
      .num("deep_us", percentile_ns(timed, deep) / 1e3)
      .num("batches", static_cast<double>(s.ok_batches))
      .num("attempted", static_cast<double>(s.attempted))
      .num("failed", static_cast<double>(s.failed()))
      .num("wrong", static_cast<double>(s.wrong))
      .num("shed", static_cast<double>(s.shed))
      .num("timeouts", static_cast<double>(s.timeouts))
      .num("errors", static_cast<double>(s.errors))
      .str("first_error", s.first_error);
  if (s.write_batches > 0) {
    j.raw("window_write_ops_s", list(&Window::write_ops_s))
        .raw("window_write_p50_us", list(&Window::write_p50_us))
        .raw("window_write_p99_us", list(&Window::write_p99_us))
        .num("write_samples", static_cast<double>(s.write_lat_ns.size()));
  }
}

/// Load the pool of a wire workload, then tell run.py on stdout that
/// the load generator is ready and read from stdin the steady-clock time
/// (ns) at which it then spawned the server, so set-up time counts the
/// server's start and not this process's.
Pool ready_for_server(const Args& a, const std::string& pool_name,
                      std::int64_t& t0) {
  Pool pool = load_pool(a.str("inputs") + "/" + pool_name,
                        a.num("corrupt", 0) != 0);
  std::printf("ready\n");
  std::fflush(stdout);
  if (!(std::cin >> t0)) {
    die("no spawn time on stdin");
  }
  return pool;
}

/// Connect to a freshly spawned server and get one checked batch
/// answered; returns seconds since `t0` (the spawn) and counts the batch
/// against the run.
double first_batch(std::int64_t t0, std::uint16_t port, const Pool& pool,
                   bool dynamic, LoopStats& s) {
  const std::int64_t give_up = now_ns() + 60'000'000'000;
  coop::Status last = coop::Status::unavailable("no attempt");
  while (now_ns() < give_up) {
    net::Client c;
    if (last = connect_to(port, c); last.ok()) {
      bool good = false;
      if (dynamic) {
        auto r = c.dyn_path_batch(kCollection, pool.batch(0));
        last = r.ok() ? coop::OkStatus() : r.status();
        good = r.ok() && pool.check_keys(0, r->answers);
      } else {
        auto r = c.path_batch(kCollection, pool.batch(0));
        last = r.ok() ? coop::OkStatus() : r.status();
        good = r.ok() && pool.check_indices(0, r->answers);
      }
      if (last.ok()) {
        ++s.attempted;
        if (!good) {
          s.count(Outcome::kWrong);
        }
        return static_cast<double>(now_ns() - t0) / 1e9;
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  die("first batch never answered: " + last.to_string());
}

/// One closed loop of --warmup + --seconds; the timed part is cut into
/// --windows consecutive windows by when each batch ended, and a sampler
/// thread reads the machine's CPU counters at every window boundary.
/// Prints the per-window figures as JSON.
void measure(const Args& a, double setup_s, LoopStats& setup,
             std::size_t batch_size,
             const std::function<LoopStats(double, double&)>& loop,
             Json& j) {
  const double warmup = a.num("warmup");
  const double seconds = a.num("seconds");
  const auto windows = static_cast<std::size_t>(a.num("windows"));
  if (seconds <= 0 || windows == 0) {
    die("--seconds and --windows must be positive");
  }
  const double window_s = seconds / static_cast<double>(windows);
  const std::int64_t begin =
      now_ns() + static_cast<std::int64_t>(warmup * 1e9);
  std::vector<CpuTimes> marks(windows + 1);
  std::thread sampler([&] {
    for (std::size_t i = 0; i <= windows; ++i) {
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(std::chrono::nanoseconds(
              begin + static_cast<std::int64_t>(
                          static_cast<double>(i) * window_s * 1e9))));
      marks[i] = cpu_times();
    }
  });
  double elapsed = 0;
  const double cpu0 = self_cpu_s();
  LoopStats s = loop(warmup + seconds, elapsed);
  const double cpu = self_cpu_s() - cpu0;
  sampler.join();
  const std::vector<Window> ws =
      split_windows(s, begin, window_s, batch_size, marks);
  s.absorb_failures(setup);
  j.num("setup_s", setup_s);
  summarize(s, ws, j);
  j.num("client_cpu_us_per_batch",
        s.attempted == 0 ? 0 : cpu * 1e6 / static_cast<double>(s.attempted))
      .num("hwm_mb", proc_sample(static_cast<int>(getpid())).hwm_mb)
      .str("simd", serve::simd::dispatch_name());
  std::printf("%s\n", j.done().c_str());
}

}  // namespace

int cmd_inproc(const Args& a) {
  Pool pool = load_pool(a.str("inputs") + "/static.pool",
                        a.num("corrupt", 0) != 0);
  std::vector<Key>().swap(pool.exp_key);  // dynamic reads only
  // The load generator's own memory, so peak_rss_mb can leave it out.
  const double base_mb = proc_sample(static_cast<int>(getpid())).rss_mb;
  // Set-up: snapshot::open -> Registry -> engine -> Frontend -> first
  // checked batch.
  LoopStats setup;
  const std::int64_t t0 = now_ns();
  Embedding e = embed(open_or_die(a.str("inputs") + "/main.snap"),
                      kInprocEngineThreads);
  std::vector<serve::PathAnswer> out;
  ++setup.attempted;
  const coop::Status st = e.frontend->serve_paths(pool.batch(0), out);
  if (!st.ok()) {
    setup.count(classify(st), &st);
  } else if (!pool.check_indices(0, out)) {
    setup.count(Outcome::kWrong);
  }
  const double setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  Json j;
  j.num("base_mb", base_mb);
  measure(a, setup_s, setup, pool.batch_size,
          [&](double secs, double& el) {
            return frontend_loop(*e.frontend, pool, 4, secs, nullptr, el);
          },
          j);
  return 0;
}

int cmd_wire(const Args& a) {
  std::int64_t t0 = 0;
  const Pool pool = ready_for_server(a, "static.pool", t0);
  const std::uint16_t port = wait_port(a.str("port-file"), 60);
  LoopStats setup;
  const double setup_s = first_batch(t0, port, pool, false, setup);
  Json j;
  measure(a, setup_s, setup, pool.batch_size,
          [&](double secs, double& el) {
            return wire_loop(port, pool, 4, secs, nullptr,
                             "net.client.path_batch", el);
          },
          j);
  return 0;
}

int cmd_rw(const Args& a) {
  const snapshot::Snapshot topo = open_or_die(a.str("inputs") + "/main.snap");
  std::int64_t t0 = 0;
  const Pool pool = ready_for_server(a, "rw.pool", t0);
  const std::uint16_t port = wait_port(a.str("port-file"), 60);
  LoopStats setup;
  const double setup_s = first_batch(t0, port, pool, true, setup);
  Json j;
  j.str("fsync", "every-ack");
  measure(a, setup_s, setup, pool.batch_size,
          [&](double secs, double& el) {
            return rw_loop(wire_callers(port), pool, topo.cascade, 4, secs,
                           nullptr, 0, el);
          },
          j);
  return 0;
}

int cmd_inproc_rw(const Args& a) {
  const snapshot::Snapshot topo = open_or_die(a.str("inputs") + "/main.snap");
  const Pool pool = load_pool(a.str("inputs") + "/rw.pool",
                              a.num("corrupt", 0) != 0);
  // The load generator's own memory, so peak_rss_mb can leave it out.
  const double base_mb = proc_sample(static_cast<int>(getpid())).rss_mb;
  // Set-up: snapshot::open -> Registry -> DynamicCatalog::attach ->
  // engine -> Frontend -> first checked dynamic batch.
  LoopStats setup;
  const std::int64_t t0 = now_ns();
  Embedding e = embed_dyn(open_or_die(a.str("inputs") + "/main.snap"));
  std::vector<dyn::PathKeys> out;
  ++setup.attempted;
  const coop::Status st =
      e.frontend->serve_dyn_paths(*e.catalog, pool.batch(0), out);
  if (!st.ok()) {
    setup.count(classify(st), &st);
  } else if (!pool.check_keys(0, out)) {
    setup.count(Outcome::kWrong);
  }
  const double setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  Json j;
  j.num("base_mb", base_mb);
  measure(a, setup_s, setup, pool.batch_size,
          [&](double secs, double& el) {
            return rw_loop(frontend_callers(*e.frontend, *e.catalog), pool,
                           topo.cascade, kInprocRwCallers, secs, nullptr, 0,
                           el);
          },
          j);
  return 0;
}

}  // namespace pb

// The traced run: the workload's own pre-generated batches go through the
// layer ladder kernel -> search_path -> engine -> Frontend -> wire ->
// router, plus the dyn overlay and WAL, each timed from outside around
// the benchmark's own calls.  Server-side figures are deltas of the
// METRICS verb and /proc/<pid> across each timed window.  Every answer is
// checked.  Prints the per-layer metrics as the last stdout line, the
// span self-time table on stderr, and writes the spans to --spans-out.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <random>
#include <set>
#include <thread>

#include "commands.hpp"
#include "dyn/overlay.hpp"
#include "net/client.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

constexpr Key kDynKey = 2'000'000'000;  // in-process overlay keys

double mean_us(const std::vector<std::uint32_t>& v) {
  double sum = 0;
  for (const auto x : v) {
    sum += x;
  }
  return v.empty() ? 0 : sum / static_cast<double>(v.size()) / 1e3;
}

PromText server_metrics(std::uint16_t port) {
  auto c = net::Client::connect("127.0.0.1", port);
  if (!c.ok()) {
    die("metrics connect: " + c.status().to_string());
  }
  auto m = c->metrics();
  if (!m.ok()) {
    die("metrics: " + m.status().to_string());
  }
  return PromText::parse(*m);
}

double ratio(double a, double b) { return b == 0 ? 0 : a / b; }

/// Times `call(thread, batch)` — one kernel-level call per batch that
/// returns whether its answers matched — on `threads` threads over
/// disjoint batches.  Returns summed call time.
struct KernelRun {
  LoopStats stats;
  double call_ns = 0;
  double elapsed = 0;
};
KernelRun kernel_run(std::size_t threads, double seconds, const Pool& pool,
                     Tracer* tr, const std::string& span,
                     const std::function<bool(std::size_t, std::size_t)>& call) {
  KernelRun k;
  const std::uint16_t n = tr->intern(span);
  std::vector<double> ns(threads, 0);
  k.stats = run_threads(
      threads, seconds,
      [&](std::size_t t, LoopStats& s, std::int64_t deadline) {
        double mine = 0;
        for (std::size_t b = t; now_ns() < deadline; b += threads) {
          ++s.attempted;
          const std::int64_t t0 = now_ns();
          bool good = false;
          {
            Scope sc(tr, t, n, 0, b);
            good = call(t, b);
          }
          mine += static_cast<double>(now_ns() - t0);
          if (!good) {
            s.count(Outcome::kWrong);
          } else {
            ++s.ok_batches;
            s.queries += pool.batch_size;
          }
        }
        ns[t] = mine;
      },
      k.elapsed);
  for (const double x : ns) {
    k.call_ns += x;
  }
  return k;
}

}  // namespace

int cmd_ladder(const Args& a) {
  const std::string workload = a.str("workload");
  const double seconds = a.num("seconds");
  const double phase = std::max(0.3, seconds / 10);
  const std::string own_dir = a.str("own");
  const std::string hot_dir = a.str("hot");
  const Pool own = load_pool(own_dir + "/static.pool");
  const Pool hot = load_pool(hot_dir + "/static.pool");
  const Pool rwp = load_pool(hot_dir + "/rw.pool");
  const auto hot_port = static_cast<std::uint16_t>(a.num("hot-port"));
  const auto router_port = static_cast<std::uint16_t>(a.num("router-port"));
  const auto rw_port = static_cast<std::uint16_t>(a.num("rw-port"));
  const int hot_pid = static_cast<int>(a.num("hot-pid"));
  const int router_pid = static_cast<int>(a.num("router-pid"));
  const CpuTimes cpu_start = cpu_times();
  Tracer tr(4);
  Json m;
  LoopStats all;  // every check of the traced run
  const std::size_t q = own.batch_size;

  // ---- snapshot ----------------------------------------------------------
  std::vector<double> open_ms;
  snapshot::Snapshot snap;
  const std::uint16_t n_open = tr.intern("snapshot.open");
  for (int r = 0; r < 3; ++r) {
    const std::int64_t t0 = now_ns();
    {
      Scope sc(&tr, 0, n_open, 0, static_cast<std::uint64_t>(r));
      snap = open_or_die(own_dir + "/main.snap");
    }
    open_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  const serve::FlatCascade& f = snap.cascade;
  m.num("snapshot.open_ms", median(open_ms))
      .num("snapshot.arena_mb",
           static_cast<double>(f.arena_bytes()) / (1 << 20));

  // ---- serve kernel ------------------------------------------------------
  std::vector<std::vector<serve::PathAnswer>> outs(
      4, std::vector<serve::PathAnswer>(q));
  const auto grouped = [&](std::size_t t, std::size_t b) {
    serve::search_paths_grouped(f, own.batch(b).data(), q, outs[t].data());
    return own.check_indices(b, outs[t]);
  };
  // One untimed pass over the pool first: the fresh mapping's page faults
  // belong to set-up, not to the kernel.
  for (std::size_t b = 0; b < own.num_batches; ++b) {
    ++all.attempted;
    all.count(grouped(0, b) ? Outcome::kOk : Outcome::kWrong);
  }
  KernelRun k1 = kernel_run(1, phase, own, &tr,
                            "kernel.search_paths_grouped", grouped);
  KernelRun k4 = kernel_run(4, phase, own, &tr,
                            "kernel.search_paths_grouped", grouped);
  all.merge(k1.stats);
  all.merge(k4.stats);
  const double kernel_ns = ratio(k1.call_ns, k1.stats.queries);
  m.num("serve.kernel.ns_per_query", kernel_ns)
      .num("serve.kernel.qps_4t_over_1t",
           ratio(k4.stats.queries / k4.elapsed, k1.stats.queries / k1.elapsed));

  std::vector<std::uint32_t> aug(own.path_len), proper(own.path_len);
  KernelRun kp = kernel_run(1, phase, own, &tr, "flat.search_path",
                            [&](std::size_t, std::size_t b) {
    bool good = true;
    const std::size_t q0 = own.first_query(b);
    for (std::size_t i = 0; i < q; ++i) {
      const auto& query = own.queries[q0 + i];
      f.search_path(query.path, query.y, aug.data(), proper.data());
      const std::size_t off = (q0 + i) * own.path_len;
      good = good &&
             std::equal(aug.begin(), aug.end(), own.exp_aug.begin() + off) &&
             std::equal(proper.begin(), proper.end(),
                        own.exp_proper.begin() + off);
    }
    return good;
  });
  all.merge(kp.stats);
  m.num("serve.path.ns_per_query", ratio(kp.call_ns, kp.stats.queries));

  // ---- serve engine / frontend -------------------------------------------
  {
    serve::QueryEngine engine(0);
    serve::PathAnswerSet set;
    const PromText before = scrape_self();
    KernelRun ke = kernel_run(1, phase, own, &tr,
                              "engine.serve_path_queries_flat",
                              [&](std::size_t, std::size_t b) {
      const auto rep = serve::serve_path_queries_flat(f, engine, own.batch(b),
                                                      set);
      return !rep.degraded && own.check_set(b, set);
    });
    const PromText after = scrape_self();
    all.merge(ke.stats);
    const double engine_us = ratio(ke.call_ns, ke.stats.attempted) / 1e3;
    m.num("serve.engine.us_per_batch", engine_us)
        .num("serve.engine.over_kernel",
             ratio(engine_us, kernel_ns * static_cast<double>(q) / 1e3))
        .num("serve.engine.shard_claims_per_batch",
             ratio(after.get("serve_engine_shard_claims_total") -
                       before.get("serve_engine_shard_claims_total"),
                   after.get("serve_engine_batches_total") -
                       before.get("serve_engine_batches_total")));

    Embedding e4 = embed(open_or_die(own_dir + "/main.snap"), 0);
    double el = 0;
    LoopStats f1 = frontend_loop(*e4.frontend, own, 1, phase, &tr, el);
    const double fe_us = mean_us(f1.lat_ns);
    m.num("serve.frontend.us_per_batch", fe_us)
        .num("serve.frontend.over_engine", ratio(fe_us, engine_us));
    const PromText fb = scrape_self();
    LoopStats f4 = frontend_loop(*e4.frontend, own, 4, phase, &tr, el);
    const double qps_e4 = f4.queries / el;
    const PromText fa = scrape_self();
    Embedding e1 = embed(open_or_die(own_dir + "/main.snap"), 1);
    LoopStats f41 = frontend_loop(*e1.frontend, own, 4, phase, &tr, el);
    const double qps_e1 = f41.queries / el;
    const auto s4 = e4.frontend->stats();
    const auto s1 = e1.frontend->stats();
    m.num("serve.engine.qps_4t_over_1t", ratio(qps_e4, qps_e1))
        .num("serve.frontend.server_p50_us",
             hist_quantile(fb, fa, "serve_frontend_batch_latency_ns", 0.5) /
                 1e3)
        .num("serve.frontend.server_p99_us",
             hist_quantile(fb, fa, "serve_frontend_batch_latency_ns", 0.99) /
                 1e3)
        .num("serve.frontend.degraded",
             static_cast<double>(s4.degraded_batches + s1.degraded_batches))
        .num("serve.frontend.shed",
             static_cast<double>(s4.shed + s4.shed_breaker + s1.shed +
                                 s1.shed_breaker));
    all.merge(f1);
    all.merge(f4);
    all.merge(f41);
  }

  // ---- dyn (in-process, no WAL) -------------------------------------------
  {
    snapshot::Registry reg;
    reg.publish(open_or_die(own_dir + "/main.snap"));
    dyn::DynamicCatalog::Options o;
    o.merge_threshold = 64;  // keep 16 runs per node unmerged
    auto cat = dyn::DynamicCatalog::attach(reg, o);
    if (!cat.ok()) {
      die("dyn attach: " + cat.status().to_string());
    }
    constexpr std::size_t kBatches = 16;
    std::set<std::uint32_t> touched;
    for (std::size_t b = 0; b < kBatches; ++b) {
      for (const auto& query : own.batch(b)) {
        touched.insert(query.path.begin(), query.path.end());
      }
    }
    std::vector<dyn::PathKeys> out(q);
    const std::uint16_t n_dyn = tr.intern("dyn.search_paths_dyn");
    const auto measure = [&](bool with_runs) {
      double ns = 0, queries = 0;
      const std::int64_t end = now_ns() + static_cast<std::int64_t>(phase / 3 * 1e9);
      for (std::size_t b = 0; now_ns() < end; ++b) {
        const std::size_t bb = b % kBatches;
        const auto state = (*cat)->state();
        const std::int64_t t0 = now_ns();
        {
          Scope sc(&tr, 0, n_dyn, 0, b);
          dyn::search_paths_dyn(*state, own.batch(bb), out.data());
        }
        ns += static_cast<double>(now_ns() - t0);
        queries += static_cast<double>(q);
        ++all.attempted;
        const std::size_t q0 = own.first_query(bb);
        bool good = true;
        for (std::size_t i = 0; i < q && good; ++i) {
          for (std::size_t d = 0; d < own.path_len && good; ++d) {
            Key want = own.exp_key[(q0 + i) * own.path_len + d];
            if (with_runs && want == cat::kInfinity) {
              want = kDynKey;  // the smallest overlay key at every node
            }
            good = out[i].keys.size() == own.path_len &&
                   out[i].keys[d] == want;
          }
        }
        if (!good) {
          all.count(Outcome::kWrong);
        }
      }
      return ns / queries;
    };
    const auto apply_round = [&](Key key) {
      std::vector<dyn::Mutation> muts;
      for (const auto v : touched) {
        muts.push_back({v, key, dyn::Op::kInsert});
      }
      auto r = (*cat)->apply(muts);
      if (!r.ok()) {
        die("dyn apply: " + r.status().to_string());
      }
    };
    const double d0 = measure(false);
    apply_round(kDynKey);
    const double d1 = measure(true);
    for (Key r = 1; r < 16; ++r) {
      apply_round(kDynKey + r);
    }
    const double d16 = measure(true);
    m.num("dyn.read.ns_per_query.d0", d0)
        .num("dyn.read.ns_per_query.d1", d1)
        .num("dyn.read.ns_per_query.d16", d16)
        .num("dyn.read.d0_over_flat", ratio(d0, kernel_ns));
  }
  {
    snapshot::Registry reg;
    reg.publish(open_or_die(own_dir + "/main.snap"));
    auto cat = dyn::DynamicCatalog::attach(reg);
    if (!cat.ok()) {
      die("dyn attach: " + cat.status().to_string());
    }
    std::mt19937_64 rng(7);
    const std::uint16_t n_apply = tr.intern("dyn.apply");
    double ns = 0, n = 0;
    const std::int64_t end = now_ns() + static_cast<std::int64_t>(phase * 1e9 / 2);
    while (now_ns() < end) {
      std::vector<dyn::Mutation> muts(6);
      for (auto& mu : muts) {
        mu.node = static_cast<std::uint32_t>(rng() % f.num_nodes());
        mu.key = kDynKey + static_cast<Key>(rng() % 4096);
        mu.op = (rng() & 1) != 0 ? dyn::Op::kInsert : dyn::Op::kDelete;
      }
      const std::int64_t t0 = now_ns();
      {
        Scope sc(&tr, 0, n_apply, 0, static_cast<std::uint64_t>(n));
        auto r = (*cat)->apply(muts);
        ++all.attempted;
        if (!r.ok()) {
          all.count(classify(r.status()), &r.status());
        }
      }
      ns += static_cast<double>(now_ns() - t0);
      ++n;
    }
    m.num("dyn.apply.us_per_batch", ns / n / 1e3);
  }

  // ---- net: the hot server ------------------------------------------------
  double wire_qps = 0, wire_rtt_p50 = 0;
  {
    const PromText before = server_metrics(hot_port);
    const ProcSample p0 = proc_sample(hot_pid);
    double el = 0;
    LoopStats w = wire_loop(hot_port, hot, 4, phase * 2, &tr,
                            "net.client.path_batch", el);
    const ProcSample p1 = proc_sample(hot_pid);
    const PromText after = server_metrics(hot_port);
    wire_qps = w.queries / el;
    const double batches = static_cast<double>(std::max<std::uint64_t>(1, w.attempted));
    const double req_p50 =
        hist_quantile(before, after, "net_server_request_ns", 0.5) / 1e3;
    wire_rtt_p50 = percentile_ns(w.lat_ns, 0.5) / 1e3;
    m.num("net.server.request_p50_us", req_p50)
        .num("net.server.request_p99_us",
             hist_quantile(before, after, "net_server_request_ns", 0.99) / 1e3)
        .num("net.client_gap_p50_us", wire_rtt_p50 - req_p50)
        .num("net.server.cpu_us_per_batch", (p1.cpu_s - p0.cpu_s) * 1e6 / batches)
        .num("net.server.ctxsw_per_batch", (p1.ctxsw - p0.ctxsw) / batches)
        .num("net.server.threads", p1.threads)
        .num("net.errors_sent", after.get("net_server_errors_sent_total") -
                                    before.get("net_server_errors_sent_total"))
        .num("net.quota_shed", after.get("net_server_quota_shed_total") -
                                   before.get("net_server_quota_shed_total"));
    all.merge(w);
    Embedding eh = embed(open_or_die(hot_dir + "/main.snap"), 0);
    LoopStats in = frontend_loop(*eh.frontend, hot, 4, phase, nullptr, el);
    all.merge(in);
    m.num("net.wire_over_inproc", ratio(wire_qps, in.queries / el));
  }

  // ---- cluster: the router -------------------------------------------------
  {
    const PromText before = server_metrics(router_port);
    const ProcSample p0 = proc_sample(router_pid);
    double el = 0;
    LoopStats w = wire_loop(router_port, hot, 4, phase * 2, &tr,
                            "router.path_batch", el);
    const ProcSample p1 = proc_sample(router_pid);
    const PromText after = server_metrics(router_port);
    const auto d = [&](const char* name) {
      return after.get(name) - before.get(name);
    };
    m.num("cluster.sub_batches_per_batch",
          ratio(d("cluster_router_sub_batches_total"),
                d("cluster_router_batches_total")))
        .num("cluster.router_gap_p50_us",
             percentile_ns(w.lat_ns, 0.5) / 1e3 - wire_rtt_p50)
        .num("cluster.router.cpu_us_per_batch",
             (p1.cpu_s - p0.cpu_s) * 1e6 /
                 static_cast<double>(std::max<std::uint64_t>(1, w.attempted)))
        .num("cluster.hedged_retries", d("cluster_router_hedged_retries_total"))
        .num("cluster.sheds", d("cluster_router_sheds_total"))
        .num("cluster.breaker_trips", d("cluster_router_breaker_trips_total"));
    all.merge(w);
  }

  // ---- dyn + WAL over the wire ----------------------------------------------
  const snapshot::Snapshot hot_snap = open_or_die(hot_dir + "/main.snap");
  {
    const PromText before = server_metrics(rw_port);
    std::atomic<bool> stop{false};
    std::vector<double> depth;
    std::thread sampler([&] {
      while (!stop.load()) {
        depth.push_back(server_metrics(rw_port).get("dyn_overlay_depth"));
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
    double el = 0;
    LoopStats w = rw_loop(wire_callers(rw_port), rwp, hot_snap.cascade, 4,
                          phase * 3, &tr, 1, el);
    stop = true;
    sampler.join();
    const PromText after = server_metrics(rw_port);
    const auto d = [&](const char* name) {
      return after.get(name) - before.get(name);
    };
    double dsum = 0, dmax = 0;
    for (const double x : depth) {
      dsum += x;
      dmax = std::max(dmax, x);
    }
    const double muts = d("dyn_mutations_applied_total");
    const double records = d("wal_records_appended_total");
    m.num("dyn.overlay.depth_max", dmax)
        .num("dyn.overlay.depth_mean",
             depth.empty() ? 0 : dsum / static_cast<double>(depth.size()))
        .num("dyn.merges_per_write", ratio(d("dyn_run_merges_total"), muts))
        .num("dyn.compactions_per_s", d("dyn_compactions_installed_total") / el)
        .num("snapshot.publishes", d("snapshot_publishes_total"))
        .num("wal.fsyncs_per_record", ratio(d("wal_fsyncs_total"), records))
        .num("wal.records_per_group",
             ratio(records, d("wal_group_commits_total")))
        .num("wal.bytes_per_mutation",
             ratio(d("wal_bytes_appended_total"), muts));
    all.merge(w);
  }

  // ---- load generator and tracing overhead -----------------------------------
  {
    Embedding e;
    if (workload == "inproc_big") {
      e = embed(open_or_die(own_dir + "/main.snap"), kInprocEngineThreads);
    } else if (workload == "inproc_rw") {
      e = embed_dyn(open_or_die(hot_dir + "/main.snap"));
    }
    std::uint32_t gen = 2;
    const double window = phase * 0.75;
    const auto main_loop = [&](Tracer* t, double& el) {
      if (workload == "inproc_big") {
        return frontend_loop(*e.frontend, own, 4, window, t, el);
      }
      if (workload == "wire_rw") {
        return rw_loop(wire_callers(rw_port), rwp, hot_snap.cascade, 4,
                       window, t, gen++, el);
      }
      if (workload == "inproc_rw") {
        return rw_loop(frontend_callers(*e.frontend, *e.catalog), rwp,
                       hot_snap.cascade, kInprocRwCallers, window, t, gen++,
                       el);
      }
      const bool router = workload == "router_fanout";
      return wire_loop(router ? router_port : hot_port, hot, 4, window, t,
                       router ? "router.path_batch" : "net.client.path_batch",
                       el);
    };
    // Alternate untraced and traced windows; compare their medians.
    std::vector<double> off, on;
    double cpu = 0, batches = 0;
    for (int r = 0; r < 6; ++r) {
      double el = 0;
      const double c0 = self_cpu_s();
      LoopStats u = main_loop(nullptr, el);
      cpu += self_cpu_s() - c0;
      batches += static_cast<double>(u.attempted);
      off.push_back(u.queries / el);
      all.merge(u);
      LoopStats t = main_loop(&tr, el);
      on.push_back(t.queries / el);
      all.merge(t);
    }
    m.num("bench.client.cpu_us_per_batch", ratio(cpu * 1e6, batches))
        .num("trace.overhead", ratio(median(on), median(off)));
  }

  // ---- spans ----------------------------------------------------------------
  if (a.has("spans-out")) {
    if (auto st = tr.write_jsonl(a.str("spans-out"), 200000); !st.ok()) {
      die(st.to_string());
    }
  }
  std::fprintf(stderr, "%-34s %10s %14s %14s\n", "span (layer call)", "calls",
               "self ms", "self us/call");
  for (const auto& [name, st] : tr.self_times()) {
    std::fprintf(stderr, "%-34s %10llu %14.1f %14.2f\n", name.c_str(),
                 static_cast<unsigned long long>(st.calls), st.self_ns / 1e6,
                 st.self_ns / 1e3 / static_cast<double>(std::max<std::uint64_t>(1, st.calls)));
  }
  m.num("spans_recorded", static_cast<double>(tr.recorded()))
      .num("spans_dropped", static_cast<double>(tr.dropped()));

  Json out;
  out.num("attempted", static_cast<double>(all.attempted))
      .num("failed", static_cast<double>(all.failed()))
      .num("wrong", static_cast<double>(all.wrong))
      .str("first_error", all.first_error)
      .str("simd", serve::simd::dispatch_name())
      .num("steal", steal_share(cpu_start, cpu_times()))
      .raw("metrics", m.done());
  std::printf("%s\n", out.done().c_str());
  return 0;
}

}  // namespace pb

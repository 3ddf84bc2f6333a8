#pragma once
// Closed-loop load loops shared by the end-to-end workloads and the traced
// ladder.  Each caller thread sends its next batch only after the last
// one returned, takes batches t, t+n, t+2n, ... of the pool, and checks
// every answer against the pool's expected answers.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common.hpp"
#include "dyn/overlay.hpp"
#include "serve/frontend.hpp"
#include "snapshot/registry.hpp"

namespace pb {

/// The library embedding of the in-process workloads: an opened snapshot
/// published into a Registry behind one serve::Frontend, and for
/// inproc_rw a dynamic catalog over it.  Members are destroyed in reverse
/// order, so users go before what they use.
struct Embedding {
  std::unique_ptr<snapshot::Registry> registry;
  std::unique_ptr<dyn::DynamicCatalog> catalog;
  std::unique_ptr<serve::QueryEngine> engine;
  std::unique_ptr<serve::Frontend> frontend;
};
/// Engine threads of the in-process embeddings.  With one, the engine runs
/// each batch inline on its caller, so the 4 callers search in parallel;
/// the default pool (one thread per core) hands every batch to workers and
/// back, and on a 4-vCPU guest its figures follow the hypervisor's vCPU
/// wake-up delays (100-400K q/s, p99 8-60 ms run to run) more than the
/// program.  The traced ladder still measures the default engine.
inline constexpr std::size_t kInprocEngineThreads = 1;
/// `engine_threads` 0 is the engine's default (one per core).
[[nodiscard]] Embedding embed(snapshot::Snapshot snap,
                              std::size_t engine_threads);
/// Callers of inproc_rw.  DynamicCatalog takes one mutex for every
/// state() capture and holds it while apply() copies the State, so a
/// second caller already halves throughput and lifts p99 from ~0.2 ms to
/// 3-5 ms, and the figures then follow the hypervisor's vCPU wake-ups.
inline constexpr std::size_t kInprocRwCallers = 1;
/// embed() with kInprocEngineThreads and a DynamicCatalog attached.
[[nodiscard]] Embedding embed_dyn(snapshot::Snapshot snap);
[[nodiscard]] snapshot::Snapshot open_or_die(const std::string& path);

/// Run `body(thread, stats, deadline_ns)` on `threads` threads started
/// together; returns merged stats and the wall time in `elapsed_s`.
LoopStats run_threads(
    std::size_t threads, double seconds,
    const std::function<void(std::size_t, LoopStats&, std::int64_t)>& body,
    double& elapsed_s);

LoopStats frontend_loop(serve::Frontend& fe, const Pool& pool,
                        std::size_t threads, double seconds, Tracer* tr,
                        double& elapsed_s);
/// `span` names the client call in traces ("net.client.path_batch" or
/// "router.path_batch").
LoopStats wire_loop(std::uint16_t port, const Pool& pool, std::size_t conns,
                    double seconds, Tracer* tr, const std::string& span,
                    double& elapsed_s);
/// One caller's handle on a dynamic collection, over the wire or in
/// process: the writes and merge-on-read reads of rw_loop.
class DynCaller {
 public:
  virtual ~DynCaller() = default;
  /// False while a wire caller has no connection.
  [[nodiscard]] virtual bool ready() const { return true; }
  virtual coop::Status mutate(const std::vector<dyn::Mutation>& muts) = 0;
  virtual coop::Status read(std::span<const serve::PathQuery> queries,
                            std::vector<dyn::PathKeys>& out) = 0;
  /// Count a failed call (a wire caller also reconnects).
  virtual void failed(const coop::Status& st, LoopStats& s) {
    s.count(classify(st), &st);
  }
};
/// Opens one DynCaller per caller thread; `layer` prefixes the span names.
struct DynCallers {
  std::string layer;
  std::function<std::unique_ptr<DynCaller>(LoopStats&)> open;
};
/// MUTATE and DYN_PATH_BATCH to the coopserve on `port`.
[[nodiscard]] DynCallers wire_callers(std::uint16_t port);
/// Frontend::apply_mutations and Frontend::serve_dyn_paths in process.
[[nodiscard]] DynCallers frontend_callers(serve::Frontend& fe,
                                          dyn::DynamicCatalog& cat);

/// Each caller repeats one write of 6 mutations in its own key slice, a
/// read-your-writes probe, and 4 reads over the base key range.  Slices
/// lie above every base key; `generation` separates the slices of
/// successive loops against one collection, so each loop's model of its
/// own slice starts empty.
LoopStats rw_loop(const DynCallers& callers, const Pool& pool,
                  const serve::FlatCascade& topo, std::size_t conns,
                  double seconds, Tracer* tr, std::uint32_t generation,
                  double& elapsed_s);

/// Load a query pool or exit; `corrupt` flips one expected answer
/// (harness self-test: the run must then fail).
[[nodiscard]] Pool load_pool(const std::string& path, bool corrupt = false);

/// Poll a server's --port-file until it names a port.
[[nodiscard]] std::uint16_t wait_port(const std::string& port_file,
                                      double timeout_s);

inline constexpr const char* kCollection = "main";

}  // namespace pb

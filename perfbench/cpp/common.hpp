#pragma once
// Shared pieces of the serving benchmark's load generator: the pre-
// generated query pools with their expected answers, per-batch outcome
// accounting, the in-memory span recorder, Prometheus-text and /proc
// scrapes, and a tiny JSON writer.  Everything here is the benchmark's
// own code; the program under test is reached only through its public
// headers and the coopserve daemon.

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "dyn/overlay.hpp"
#include "robust/status.hpp"
#include "serve/query_engine.hpp"

namespace pb {

using Key = cat::Key;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A pool of pre-generated batches of root-to-leaf path queries plus the
/// sequential reference's answers, computed at input preparation so the
/// check inside a timed loop is a compare, not a search.
struct Pool {
  std::uint32_t path_len = 0;
  std::uint32_t batch_size = 0;
  std::uint32_t num_batches = 0;
  std::vector<serve::PathQuery> queries;  ///< num_batches * batch_size
  std::vector<std::uint32_t> exp_aug;     ///< path_len per query
  std::vector<std::uint32_t> exp_proper;  ///< path_len per query
  std::vector<Key> exp_key;               ///< live successor key per node

  [[nodiscard]] std::span<const serve::PathQuery> batch(std::size_t b) const {
    return {queries.data() + (b % num_batches) * batch_size, batch_size};
  }
  [[nodiscard]] std::size_t first_query(std::size_t b) const {
    return (b % num_batches) * batch_size;
  }
  /// Compare a whole batch of index answers; true when every one matches.
  [[nodiscard]] bool check_indices(std::size_t b,
                                   std::span<const serve::PathAnswer> got) const;
  /// Same for the flat answer set of serve_path_queries_flat.
  [[nodiscard]] bool check_set(std::size_t b,
                               const serve::PathAnswerSet& got) const;
  /// Compare live successor keys (dynamic reads).
  [[nodiscard]] bool check_keys(std::size_t b,
                                std::span<const dyn::PathKeys> got) const;

  [[nodiscard]] coop::Status save(const std::string& path) const;
  [[nodiscard]] static coop::Expected<Pool> load(const std::string& path);
  /// FNV-1a over every query and expected answer.
  [[nodiscard]] std::uint64_t digest() const;
};

/// How one attempted batch ended.
enum class Outcome { kOk, kWrong, kShed, kTimeout, kError };
[[nodiscard]] Outcome classify(const coop::Status& s);

/// Outcome counters and latency samples of one closed-loop run.
struct LoopStats {
  std::uint64_t attempted = 0;   ///< batches attempted (reads and writes)
  std::uint64_t ok_batches = 0;  ///< read batches answered and checked
  std::uint64_t queries = 0;     ///< checked read queries
  std::uint64_t wrong = 0;
  std::uint64_t shed = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t errors = 0;
  std::uint64_t write_batches = 0;   ///< acknowledged MUTATE batches
  std::uint64_t mutations = 0;       ///< acknowledged mutations
  std::vector<std::uint32_t> lat_ns;        ///< per read batch
  std::vector<std::int64_t> lat_end_ns;     ///< when each read batch ended
  std::vector<std::uint32_t> write_lat_ns;  ///< MUTATE-to-ack
  std::vector<std::int64_t> write_end_ns;   ///< when each ack arrived
  std::string first_error;

  void count(Outcome o, const coop::Status* s = nullptr);
  void merge(const LoopStats& o);
  /// Add o's attempts and failures but not its answers (warm-up loops:
  /// checked and counted against the run, not timed).
  void absorb_failures(const LoopStats& o);
  [[nodiscard]] std::uint64_t failed() const {
    return wrong + shed + timeouts + errors;
  }
};

/// Percentile of latency samples (ns), by nearest rank.
[[nodiscard]] double percentile_ns(std::vector<std::uint32_t>& v, double q);
[[nodiscard]] double median(std::vector<double> v);

// ---- spans -------------------------------------------------------------

/// One span: a timed call the benchmark made into a layer.  `parent` is
/// the index+1 of the enclosing span in the same thread's buffer (0 for a
/// root); spans of one request share `req`.
struct Span {
  std::uint16_t name = 0;
  std::uint16_t thread = 0;
  std::uint32_t parent = 0;
  std::uint64_t req = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// In-memory span recorder: one buffer per thread, written out when the
/// run ends.  Null Tracer pointers mean tracing is off.
class Tracer {
 public:
  explicit Tracer(std::size_t threads, std::size_t cap_per_thread = 1 << 19);
  [[nodiscard]] std::uint16_t intern(const std::string& name);
  /// Open a span; returns its handle (index+1) for close/parent use.
  std::uint32_t open(std::size_t thread, std::uint16_t name,
                     std::uint32_t parent, std::uint64_t req);
  void close(std::size_t thread, std::uint32_t handle);
  /// Per-name call count, total and self time (duration minus the part
  /// covered by child spans), over every span opened, kept or not.
  struct SelfTime {
    std::uint64_t calls = 0;
    double total_ns = 0;
    double self_ns = 0;
  };
  [[nodiscard]] std::map<std::string, SelfTime> self_times() const;
  [[nodiscard]] coop::Status write_jsonl(const std::string& path,
                                         std::size_t max_spans) const;
  [[nodiscard]] std::uint64_t recorded() const;
  [[nodiscard]] std::uint64_t dropped() const;

 private:
  /// A span not yet closed, and the time its children have taken.
  struct Open {
    std::uint16_t name = 0;
    std::int64_t start = 0;
    double child_ns = 0;
    std::uint32_t handle = 0;
  };
  /// One cache line apart, so threads recording spans never share one.
  /// Self time is summed as spans close, so it covers the spans that no
  /// longer fit in `spans` (kept for the span file) too.
  struct alignas(64) Buffer {
    std::vector<Span> spans;
    std::uint64_t dropped = 0;
    std::vector<Open> open;
    std::vector<SelfTime> self;  ///< by name
  };
  std::vector<std::string> names_;
  std::vector<Buffer> buf_;
  std::size_t cap_;
};

/// RAII span; a no-op when the tracer is null.
class Scope {
 public:
  Scope(Tracer* t, std::size_t thread, std::uint16_t name,
        std::uint32_t parent, std::uint64_t req)
      : t_(t), thread_(thread) {
    if (t_ != nullptr) {
      h_ = t_->open(thread, name, parent, req);
    }
  }
  ~Scope() {
    if (t_ != nullptr) {
      t_->close(thread_, h_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::uint32_t handle() const { return h_; }

 private:
  Tracer* t_;
  std::size_t thread_;
  std::uint32_t h_ = 0;
};

// ---- scrapes -----------------------------------------------------------

/// Parsed Prometheus text: counters/gauges by name, histograms as
/// (upper bound, cumulative count) lists.
struct PromText {
  std::map<std::string, double> value;
  std::map<std::string, std::vector<std::pair<double, double>>> hist;

  [[nodiscard]] static PromText parse(const std::string& text);
  [[nodiscard]] double get(const std::string& name) const;
};
/// Quantile of the histogram delta `after - before`, interpolated
/// linearly inside the bucket; 0 when the delta holds no samples.
[[nodiscard]] double hist_quantile(const PromText& before,
                                   const PromText& after,
                                   const std::string& name, double q);
/// The in-process obs registry as Prometheus text.
[[nodiscard]] PromText scrape_self();

/// CPU time, context switches, threads and peak RSS of a process, summed
/// over its threads where /proc splits them.
struct ProcSample {
  double cpu_s = 0;
  double ctxsw = 0;
  double threads = 0;
  double hwm_mb = 0;  ///< VmHWM, peak resident
  double rss_mb = 0;  ///< VmRSS, resident now
  bool ok = false;
};
[[nodiscard]] ProcSample proc_sample(int pid);
/// CPU time (user + system) this process has used, in seconds.
[[nodiscard]] double self_cpu_s();

/// Machine-wide CPU time counters from /proc/stat (jiffies): all, and
/// stolen by the hypervisor for other guests.
struct CpuTimes {
  double total = 0;
  double steal = 0;
};
[[nodiscard]] CpuTimes cpu_times();
/// Share of CPU time stolen between two samples.
[[nodiscard]] double steal_share(const CpuTimes& a, const CpuTimes& b);

// ---- output ------------------------------------------------------------

/// Flat JSON object writer (numbers and strings only).
class Json {
 public:
  Json& num(const std::string& k, double v);
  Json& str(const std::string& k, const std::string& v);
  Json& raw(const std::string& k, const std::string& v);
  [[nodiscard]] std::string done() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

[[noreturn]] void die(const std::string& msg);

}  // namespace pb

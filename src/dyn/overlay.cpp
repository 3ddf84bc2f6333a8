#include "dyn/overlay.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <utility>

#include "dyn/wal.hpp"
#include "obs/metrics.hpp"
#include "serve/query_engine.hpp"

namespace dyn {

using coop::Status;

namespace {

/// Dynamic-catalog metrics (DESIGN.md §13).  Writers touch counters per
/// *batch*, not per mutation; gauges snapshot the post-swap state.
struct DynMetrics {
  obs::Counter mutations;
  obs::Counter runs;
  obs::Counter merges;
  obs::Counter compactions;
  obs::Counter truncated;
  obs::Gauge depth;
  obs::Gauge pending;
  obs::Gauge touched_nodes;
};

DynMetrics& dyn_metrics() {
  auto& r = obs::Registry::global();
  static DynMetrics m{
      r.counter("dyn_mutations_applied_total", "Mutations acknowledged"),
      r.counter("dyn_runs_appended_total", "Delta runs appended"),
      r.counter("dyn_run_merges_total",
                "In-memory newest-wins merges of a node's run list"),
      r.counter("dyn_compactions_installed_total",
                "Compacted generations installed as the new base"),
      r.counter("dyn_runs_truncated_total",
                "Runs dropped at the compaction watermark"),
      r.gauge("dyn_overlay_depth", "Max runs layered on any node"),
      r.gauge("dyn_pending_mutations",
              "Mutations above the compaction watermark"),
      r.gauge("dyn_touched_nodes", "Nodes with at least one run"),
  };
  return m;
}

void set_state_gauges(const State& s) {
  DynMetrics& m = dyn_metrics();
  m.depth.set(static_cast<std::int64_t>(s.max_depth));
  m.pending.set(static_cast<std::int64_t>(s.pending));
  m.touched_nodes.set(static_cast<std::int64_t>(s.runs.size()));
}

/// Newest-wins merge of one node's whole run list into a single run.
/// Tombstones are preserved — they may still shadow base keys — which is
/// exactly what keeps watermark truncation sound: entries at or below
/// the watermark that survive in a merged run re-assert values already
/// baked into the base (set semantics make the replay idempotent).
Run merge_runs(const std::vector<RunPtr>& list) {
  Run out;
  out.node = list.front()->node;
  out.min_seq = list.front()->min_seq;
  out.max_seq = list.front()->max_seq;
  std::vector<std::size_t> cur(list.size(), 0);
  std::size_t total = 0;
  for (const RunPtr& r : list) {
    out.min_seq = std::min(out.min_seq, r->min_seq);
    out.max_seq = std::max(out.max_seq, r->max_seq);
    total += r->entries.size();
  }
  out.entries.reserve(total);
  for (;;) {
    Key cand = cat::kInfinity;
    for (std::size_t k = 0; k < list.size(); ++k) {
      if (cur[k] < list[k]->entries.size()) {
        cand = std::min(cand, list[k]->entries[cur[k]].key);
      }
    }
    if (cand == cat::kInfinity) {
      break;
    }
    // Newest run holding `cand` decides (the list is oldest-first, so
    // the first match scanning from the back wins); every holder
    // advances its cursor past `cand`.
    RunEntry winner{cand, 0};
    bool decided = false;
    for (std::size_t k = list.size(); k-- > 0;) {
      if (cur[k] < list[k]->entries.size() &&
          list[k]->entries[cur[k]].key == cand) {
        if (!decided) {
          winner = list[k]->entries[cur[k]];
          decided = true;
        }
        ++cur[k];
      }
    }
    out.entries.push_back(winner);
  }
  return out;
}

}  // namespace

ProperIndex ProperIndex::build(const serve::FlatCascade& flat) {
  ProperIndex idx;
  const serve::FlatCascade::KernelView kv = flat.kernel_view();
  const std::size_t n = flat.num_nodes();
  idx.offsets_.assign(n + 1, 0);
  for (std::uint32_t v = 0; v < n; ++v) {
    const serve::FlatNode& nd = kv.nodes[v];
    // Proper size = proper index of the +inf terminal + 1 (the terminal
    // is itself a proper entry, so this covers the whole catalog).
    idx.offsets_[v + 1] =
        idx.offsets_[v] + kv.to_proper(nd, nd.key_count - 1) + 1;
  }
  // The keys pool is node-major, so the own keys in pool order are every
  // node's proper keys in node order: one pass over the set bits.
  idx.keys_.resize(idx.offsets_.back());
  Key* out = idx.keys_.data();
  const std::size_t words = (flat.total_entries() + 63) / 64;
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t m = kv.own_bits[w]; m != 0; m &= m - 1) {
      *out++ = kv.keys[w * 64 + static_cast<std::size_t>(std::countr_zero(m))];
    }
  }
  return idx;
}

Key State::live_successor(std::uint32_t node, Key y,
                          std::uint32_t base_hint) const {
  const std::span<const Key> bk = base->proper.node_keys(node);
  std::size_t bi =
      base_hint != ~0u
          ? base_hint
          : static_cast<std::size_t>(
                std::lower_bound(bk.begin(), bk.end(), y) - bk.begin());
  const std::vector<RunPtr>* rl = node_runs(node);
  if (rl == nullptr) {
    return bk[bi];
  }
  // One cursor per run, positioned at its first entry >= y.
  std::vector<std::pair<const Run*, std::size_t>> cur;
  cur.reserve(rl->size());
  for (const RunPtr& r : *rl) {
    const auto& es = r->entries;
    const std::size_t i = static_cast<std::size_t>(
        std::lower_bound(es.begin(), es.end(), y,
                         [](const RunEntry& e, Key k) { return e.key < k; }) -
        es.begin());
    if (i < es.size()) {
      cur.emplace_back(r.get(), i);
    }
  }
  for (;;) {
    Key cand = bi < bk.size() ? bk[bi] : cat::kInfinity;
    for (const auto& [r, i] : cur) {
      if (i < r->entries.size()) {
        cand = std::min(cand, r->entries[i].key);
      }
    }
    // Newest run holding `cand` decides liveness; base only decides when
    // no run mentions it.  Every cursor sitting on `cand` advances.
    bool decided = false;
    bool live = false;
    for (std::size_t k = cur.size(); k-- > 0;) {
      auto& [r, i] = cur[k];
      if (i < r->entries.size() && r->entries[i].key == cand) {
        if (!decided) {
          decided = true;
          live = r->entries[i].tombstone == 0;
        }
        ++i;
      }
    }
    if (bi < bk.size() && bk[bi] == cand) {
      if (!decided) {
        decided = true;
        live = true;
      }
      ++bi;
    }
    if (live) {
      return cand;
    }
    // `cand` was tombstoned (or an already-shadowed duplicate): every
    // cursor moved past it, so the loop strictly progresses toward the
    // +inf sentinel, which is always live in the base.
  }
}

std::vector<Key> State::live_keys(std::uint32_t node) const {
  const std::span<const Key> bk = base->proper.node_keys(node);
  std::vector<Key> out;
  const std::vector<RunPtr>* rl = node_runs(node);
  if (rl == nullptr) {
    out.assign(bk.begin(), bk.end() - 1);  // strip the +inf sentinel
    return out;
  }
  std::size_t bi = 0;
  std::vector<std::pair<const Run*, std::size_t>> cur;
  cur.reserve(rl->size());
  for (const RunPtr& r : *rl) {
    if (!r->entries.empty()) {
      cur.emplace_back(r.get(), 0);
    }
  }
  for (;;) {
    Key cand = bk[bi];
    for (const auto& [r, i] : cur) {
      if (i < r->entries.size()) {
        cand = std::min(cand, r->entries[i].key);
      }
    }
    if (cand == cat::kInfinity) {
      break;
    }
    bool decided = false;
    bool live = false;
    for (std::size_t k = cur.size(); k-- > 0;) {
      auto& [r, i] = cur[k];
      if (i < r->entries.size() && r->entries[i].key == cand) {
        if (!decided) {
          decided = true;
          live = r->entries[i].tombstone == 0;
        }
        ++i;
      }
    }
    if (bk[bi] == cand) {
      if (!decided) {
        live = true;
      }
      ++bi;
    }
    if (live) {
      out.push_back(cand);
    }
  }
  return out;
}

void search_paths_dyn(const State& state,
                      std::span<const serve::PathQuery> queries,
                      PathKeys* out) {
  if (queries.empty()) {
    return;
  }
  // Phase 1: the untouched grouped base kernel answers every (query,
  // node) with a base proper index — on the no-delta path this is the
  // whole cost apart from one ProperIndex load per hop.
  std::vector<serve::PathAnswer> base_answers(queries.size());
  serve::search_paths_grouped(state.base->flat(), queries.data(),
                              queries.size(), base_answers.data());
  serve::count_grouped_batch(queries.size());
  const bool no_runs = state.runs.empty();
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const serve::PathQuery& q = queries[qi];
    out[qi].keys.resize(q.path.size());
    for (std::size_t step = 0; step < q.path.size(); ++step) {
      const auto node = static_cast<std::uint32_t>(q.path[step]);
      const std::uint32_t hint = base_answers[qi].proper_index[step];
      if (no_runs) {
        out[qi].keys[step] = state.base->proper.node_keys(node)[hint];
      } else {
        out[qi].keys[step] = state.live_successor(node, q.y, hint);
      }
    }
  }
}

coop::Expected<std::unique_ptr<DynamicCatalog>> DynamicCatalog::attach(
    snapshot::Registry& registry, Options opts) {
  snapshot::Registry::Pin pin = registry.pin();
  if (!pin.has_snapshot()) {
    return Status::failed_precondition(
        "dynamic catalog needs a published generation to attach to");
  }
  if (pin.snapshot().kind != snapshot::SnapshotKind::kCascade) {
    return Status::failed_precondition(
        "dynamic catalog attaches to a cascade snapshot (got a different "
        "kind)");
  }
  auto base = std::make_shared<State::Base>();
  base->proper = ProperIndex::build(pin.snapshot().cascade);
  base->version = pin.version();
  base->pin = std::move(pin);
  auto st = std::make_shared<State>();
  st->base = std::move(base);
  std::unique_ptr<DynamicCatalog> cat(new DynamicCatalog(registry, opts));
  cat->state_ = std::move(st);
  return cat;
}

DynamicCatalog::DynamicCatalog(snapshot::Registry& registry, Options opts)
    : registry_(&registry), opts_(opts) {}

DynamicCatalog::~DynamicCatalog() = default;

StatePtr DynamicCatalog::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

void DynamicCatalog::attach_wal(std::unique_ptr<Wal> wal) {
  std::lock_guard<std::mutex> lock(mu_);
  wal_ = std::move(wal);
}

coop::Status DynamicCatalog::restore_durable(std::uint64_t watermark) {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_->write_seq != 0 || state_->watermark != 0 ||
      !state_->runs.empty()) {
    return Status::failed_precondition(
        "restore_durable needs a virgin catalog (write_seq " +
        std::to_string(state_->write_seq) + ", watermark " +
        std::to_string(state_->watermark) + ", " +
        std::to_string(state_->runs.size()) + " touched nodes)");
  }
  auto next = std::make_shared<State>(*state_);
  next->write_seq = watermark;
  next->watermark = watermark;
  state_ = std::move(next);
  return coop::OkStatus();
}

coop::Expected<std::uint64_t> DynamicCatalog::apply(
    std::span<const Mutation> muts) {
  if (muts.size() > opts_.max_batch) {
    return Status::invalid_argument(
        "mutation batch of " + std::to_string(muts.size()) +
        " exceeds max_batch " + std::to_string(opts_.max_batch));
  }
  for (const Mutation& m : muts) {
    if (m.key == cat::kInfinity) {
      return Status::invalid_argument(
          "mutation targets the +inf sentinel, which is structural and "
          "immutable");
    }
    if (m.op != Op::kInsert && m.op != Op::kDelete) {
      return Status::invalid_argument("mutation op byte " +
                                      std::to_string(std::uint8_t(m.op)) +
                                      " is neither insert nor delete");
    }
  }
  return apply_runs(runs_from_mutations(muts));
}

std::uint64_t DynamicCatalog::commit_runs_locked(std::vector<Run>&& runs) {
  auto next = std::make_shared<State>(*state_);
  std::uint64_t seq = next->write_seq;
  std::size_t added = 0;
  std::size_t appended = 0;
  std::size_t merged = 0;
  for (Run& r : runs) {
    if (r.entries.empty()) {
      continue;
    }
    seq = r.max_seq;  // stamps are contiguous; callers validated them
    added += r.entries.size();
    ++appended;
    std::vector<RunPtr>& list = next->runs[r.node];
    list.push_back(std::make_shared<const Run>(std::move(r)));
    if (list.size() > opts_.merge_threshold) {
      Run m = merge_runs(list);
      list.clear();
      list.push_back(std::make_shared<const Run>(std::move(m)));
      ++merged;
    }
  }
  next->write_seq = seq;
  next->pending += added;
  std::size_t depth = 0;
  for (const auto& [node, list] : next->runs) {
    depth = std::max(depth, list.size());
  }
  next->max_depth = depth;
  applied_total_ += added;
  merges_total_ += merged;
  DynMetrics& m = dyn_metrics();
  m.mutations.add(static_cast<std::int64_t>(added));
  m.runs.add(static_cast<std::int64_t>(appended));
  m.merges.add(static_cast<std::int64_t>(merged));
  set_state_gauges(*next);
  state_ = std::move(next);
  return seq;
}

coop::Expected<std::uint64_t> DynamicCatalog::apply_runs(
    std::vector<Run> runs) {
  for (const Run& r : runs) {
    if (Status st = validate_run(r); !st.ok()) {
      return st;
    }
  }
  std::uint64_t ack = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::size_t num_nodes = state_->base->proper.num_nodes();
    for (const Run& r : runs) {
      if (r.node >= num_nodes) {
        return Status::invalid_argument(
            "mutation targets node " + std::to_string(r.node) +
            " of a tree with " + std::to_string(num_nodes) + " nodes");
      }
    }
    std::uint64_t seq = state_->write_seq;
    for (Run& r : runs) {
      if (r.entries.empty()) {
        continue;
      }
      r.min_seq = seq + 1;
      seq += r.entries.size();
      r.max_seq = seq;
    }
    if (wal_ != nullptr) {
      // Log before the State swap: a rejected append leaves the overlay
      // untouched, so the write fails cleanly instead of existing in
      // memory but not in the log.
      if (Status st = wal_->append(runs); !st.ok()) {
        return st;
      }
    }
    ack = commit_runs_locked(std::move(runs));
  }
  if (wal_ != nullptr) {
    // Outside mu_: the fsync (or the wait for a leader's fsync) must not
    // stall other writers' State swaps — that is the whole point of
    // group commit.  On error the batch is visible to readers but its
    // durability is indeterminate; the caller must not ack it.
    if (Status st = wal_->wait_durable(ack); !st.ok()) {
      return st;
    }
  }
  return ack;
}

coop::Expected<std::uint64_t> DynamicCatalog::apply_recovered(
    std::vector<Run> runs) {
  for (const Run& r : runs) {
    if (Status st = validate_run(r); !st.ok()) {
      return st;
    }
    if (r.entries.empty()) {
      return Status::corrupted(
          "recovered run for node " + std::to_string(r.node) +
          " has no entries (the log never records empty runs)");
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t num_nodes = state_->base->proper.num_nodes();
  std::uint64_t expect = state_->write_seq;
  for (const Run& r : runs) {
    if (r.node >= num_nodes) {
      return Status::corrupted(
          "recovered run targets node " + std::to_string(r.node) +
          " of a tree with " + std::to_string(num_nodes) + " nodes");
    }
    if (r.min_seq != expect + 1) {
      return Status::corrupted(
          "recovered run seq range [" + std::to_string(r.min_seq) + ", " +
          std::to_string(r.max_seq) + "] does not continue from seq " +
          std::to_string(expect) +
          " (duplicate, regressed, or gapped write-ahead log)");
    }
    if (r.max_seq - r.min_seq + 1 != r.entries.size()) {
      return Status::corrupted(
          "recovered run seq range [" + std::to_string(r.min_seq) + ", " +
          std::to_string(r.max_seq) + "] disagrees with its " +
          std::to_string(r.entries.size()) + " entries");
    }
    expect = r.max_seq;
  }
  return commit_runs_locked(std::move(runs));
}

coop::Expected<std::uint64_t> DynamicCatalog::install_compacted(
    snapshot::Snapshot snap, std::uint64_t watermark,
    const std::string& base_file) {
  Wal* wal = nullptr;  // set once at startup, stable after attach_wal
  std::uint64_t version = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    wal = wal_.get();
    if (wal != nullptr && base_file.empty()) {
      return Status::failed_precondition(
          "a durable catalog only installs spooled compactions: pass the "
          "base filename from Wal::base_path_for");
    }
    if (watermark > state_->write_seq) {
      return Status::invalid_argument(
          "compaction watermark " + std::to_string(watermark) +
          " is ahead of write_seq " + std::to_string(state_->write_seq));
    }
    if (watermark <= state_->watermark && state_->watermark != 0) {
      // A concurrent compaction already baked a generation at (or past)
      // this watermark and truncated the overlay accordingly.  Installing
      // this older rebuild would publish a base that predates runs the
      // winner already dropped — acknowledged writes would vanish.  Refuse
      // and keep serving; nothing is lost, the stale rebuild is discarded.
      return Status::failed_precondition(
          "compaction watermark " + std::to_string(watermark) +
          " is not ahead of the already-baked watermark " +
          std::to_string(state_->watermark) +
          " (a concurrent compaction won); stale rebuild discarded");
    }
    version = registry_->publish(std::move(snap));
    registry_->mark_good(version);
    snapshot::Registry::Pin pin = registry_->pin();
    if (!pin.has_snapshot() || pin.version() != version) {
      // A foreign publish/rollback on the shared registry displaced our
      // generation before we could pin it.  Keep serving the old state:
      // nothing acknowledged is lost, the overlay just stays untruncated.
      return Status::unavailable(
          "compacted generation " + std::to_string(version) +
          " was displaced before it could be pinned; overlay unchanged");
    }
    auto base = std::make_shared<State::Base>();
    base->proper = ProperIndex::build(pin.snapshot().cascade);
    base->version = version;
    base->pin = std::move(pin);
    auto next = std::make_shared<State>();
    next->base = std::move(base);
    next->write_seq = state_->write_seq;
    next->watermark = watermark;
    std::size_t pending = 0;
    std::size_t depth = 0;
    std::size_t dropped = 0;
    for (const auto& [node, list] : state_->runs) {
      std::vector<RunPtr> keep;
      for (const RunPtr& r : list) {
        if (r->max_seq > watermark) {
          keep.push_back(r);
          // Entries carry contiguous seqs, so the count above the
          // watermark is a range difference (stale entries below it are
          // harmless shadows — see merge_runs).
          pending += static_cast<std::size_t>(
              r->max_seq - std::max(watermark, r->min_seq - 1));
        } else {
          ++dropped;
        }
      }
      if (!keep.empty()) {
        depth = std::max(depth, keep.size());
        next->runs.emplace(node, std::move(keep));
      }
    }
    next->pending = pending;
    next->max_depth = depth;
    ++compactions_total_;
    DynMetrics& m = dyn_metrics();
    m.compactions.inc();
    m.truncated.add(static_cast<std::int64_t>(dropped));
    set_state_gauges(*next);
    state_ = std::move(next);
  }
  if (wal != nullptr) {
    // Outside mu_: commit_watermark pays several fsyncs (manifest tmp +
    // rename + dir, then the segment sweep); holding the catalog lock
    // across them would stall every state() reader and writer for the
    // whole device round-trip.  The Wal has its own mutex, and a racing
    // commit is ordered by its watermark-regression check.
    if (Status st = wal->commit_watermark(watermark, base_file); !st.ok()) {
      // Serving already switched to the new base; the old manifest stays
      // authoritative, so recovery would replay the full overlay over
      // the old base — idempotent and lossless, just more work.  Report
      // the failure so the compactor retries the commit next cycle.
      return Status::unavailable(
          "compacted generation " + std::to_string(version) +
          " installed but manifest commit failed: " + st.message());
    }
  }
  return version;
}

DynamicCatalog::Stats DynamicCatalog::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.write_seq = state_->write_seq;
  s.watermark = state_->watermark;
  s.base_version = state_->base->version;
  s.pending = state_->pending;
  s.max_depth = state_->max_depth;
  s.nodes_with_runs = state_->runs.size();
  s.applied_total = applied_total_;
  s.merges_total = merges_total_;
  s.compactions_total = compactions_total_;
  return s;
}

}  // namespace dyn

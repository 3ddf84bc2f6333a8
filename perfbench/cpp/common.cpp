#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <sys/resource.h>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace pb {

namespace {

constexpr std::uint32_t kPoolMagic = 0x31424250;  // "PBB1"

template <typename T>
void put(std::FILE* f, const std::vector<T>& v) {
  if (!v.empty()) {
    std::fwrite(v.data(), sizeof(T), v.size(), f);
  }
}

template <typename T>
bool get(std::FILE* f, std::vector<T>& v, std::size_t n) {
  v.resize(n);
  return n == 0 || std::fread(v.data(), sizeof(T), n, f) == n;
}

std::uint64_t fnv(std::uint64_t h, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ b[i]) * 1099511628211ull;
  }
  return h;
}

}  // namespace

bool Pool::check_indices(std::size_t b,
                         std::span<const serve::PathAnswer> got) const {
  if (got.size() != batch_size) {
    return false;
  }
  const std::size_t q0 = first_query(b);
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::size_t off = (q0 + i) * path_len;
    if (got[i].aug_index.size() != path_len ||
        got[i].proper_index.size() != path_len ||
        std::memcmp(got[i].aug_index.data(), &exp_aug[off],
                    path_len * sizeof(std::uint32_t)) != 0 ||
        std::memcmp(got[i].proper_index.data(), &exp_proper[off],
                    path_len * sizeof(std::uint32_t)) != 0) {
      return false;
    }
  }
  return true;
}

bool Pool::check_set(std::size_t b, const serve::PathAnswerSet& got) const {
  if (got.size() != batch_size) {
    return false;
  }
  const std::size_t q0 = first_query(b);
  for (std::size_t i = 0; i < batch_size; ++i) {
    const std::size_t off = (q0 + i) * path_len;
    const auto a = got.aug(i);
    const auto p = got.proper(i);
    if (a.size() != path_len || p.size() != path_len ||
        std::memcmp(a.data(), &exp_aug[off], path_len * 4) != 0 ||
        std::memcmp(p.data(), &exp_proper[off], path_len * 4) != 0) {
      return false;
    }
  }
  return true;
}

bool Pool::check_keys(std::size_t b,
                      std::span<const dyn::PathKeys> got) const {
  if (got.size() != batch_size) {
    return false;
  }
  const std::size_t q0 = first_query(b);
  for (std::size_t i = 0; i < batch_size; ++i) {
    if (got[i].keys.size() != path_len ||
        std::memcmp(got[i].keys.data(), &exp_key[(q0 + i) * path_len],
                    path_len * sizeof(Key)) != 0) {
      return false;
    }
  }
  return true;
}

coop::Status Pool::save(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return coop::Status::invalid_argument("cannot write " + path);
  }
  const std::uint32_t hdr[4] = {kPoolMagic, path_len, batch_size, num_batches};
  std::fwrite(hdr, sizeof(hdr), 1, f);
  std::vector<std::uint32_t> paths;
  std::vector<Key> ys;
  paths.reserve(queries.size() * path_len);
  for (const auto& q : queries) {
    for (const auto v : q.path) {
      paths.push_back(static_cast<std::uint32_t>(v));
    }
    ys.push_back(q.y);
  }
  put(f, paths);
  put(f, ys);
  put(f, exp_aug);
  put(f, exp_proper);
  put(f, exp_key);
  const bool ok = std::fflush(f) == 0 && std::ferror(f) == 0;
  std::fclose(f);
  return ok ? coop::OkStatus()
            : coop::Status::internal("short write to " + path);
}

coop::Expected<Pool> Pool::load(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return coop::Status::invalid_argument("cannot read " + path);
  }
  Pool p;
  std::uint32_t hdr[4] = {};
  bool ok = std::fread(hdr, sizeof(hdr), 1, f) == 1 && hdr[0] == kPoolMagic;
  std::vector<std::uint32_t> paths;
  std::vector<Key> ys;
  if (ok) {
    p.path_len = hdr[1];
    p.batch_size = hdr[2];
    p.num_batches = hdr[3];
    const std::size_t nq = std::size_t{p.batch_size} * p.num_batches;
    const std::size_t nv = nq * p.path_len;
    ok = get(f, paths, nv) && get(f, ys, nq) && get(f, p.exp_aug, nv) &&
         get(f, p.exp_proper, nv) && get(f, p.exp_key, nv);
    if (ok) {
      p.queries.resize(nq);
      for (std::size_t q = 0; q < nq; ++q) {
        p.queries[q].path.assign(paths.begin() + q * p.path_len,
                                 paths.begin() + (q + 1) * p.path_len);
        p.queries[q].y = ys[q];
      }
    }
  }
  std::fclose(f);
  if (!ok) {
    return coop::Status::corrupted("bad pool file " + path);
  }
  return p;
}

std::uint64_t Pool::digest() const {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& q : queries) {
    for (const auto v : q.path) {
      const auto u = static_cast<std::uint32_t>(v);
      h = fnv(h, &u, sizeof(u));
    }
    h = fnv(h, &q.y, sizeof(q.y));
  }
  h = fnv(h, exp_aug.data(), exp_aug.size() * 4);
  h = fnv(h, exp_proper.data(), exp_proper.size() * 4);
  return fnv(h, exp_key.data(), exp_key.size() * sizeof(Key));
}

Outcome classify(const coop::Status& s) {
  switch (s.code()) {
    case coop::StatusCode::kOk:
      return Outcome::kOk;
    case coop::StatusCode::kResourceExhausted:
      return Outcome::kShed;
    case coop::StatusCode::kDeadlineExceeded:
      return Outcome::kTimeout;
    default:
      return Outcome::kError;
  }
}

void LoopStats::count(Outcome o, const coop::Status* s) {
  switch (o) {
    case Outcome::kOk:
      return;
    case Outcome::kWrong:
      ++wrong;
      break;
    case Outcome::kShed:
      ++shed;
      break;
    case Outcome::kTimeout:
      ++timeouts;
      break;
    case Outcome::kError:
      ++errors;
      break;
  }
  if (first_error.empty()) {
    first_error = s != nullptr ? s->to_string() : "wrong answer";
  }
}

void LoopStats::merge(const LoopStats& o) {
  attempted += o.attempted;
  ok_batches += o.ok_batches;
  queries += o.queries;
  wrong += o.wrong;
  shed += o.shed;
  timeouts += o.timeouts;
  errors += o.errors;
  write_batches += o.write_batches;
  mutations += o.mutations;
  lat_ns.insert(lat_ns.end(), o.lat_ns.begin(), o.lat_ns.end());
  lat_end_ns.insert(lat_end_ns.end(), o.lat_end_ns.begin(),
                    o.lat_end_ns.end());
  write_lat_ns.insert(write_lat_ns.end(), o.write_lat_ns.begin(),
                      o.write_lat_ns.end());
  write_end_ns.insert(write_end_ns.end(), o.write_end_ns.begin(),
                      o.write_end_ns.end());
  if (first_error.empty()) {
    first_error = o.first_error;
  }
}

void LoopStats::absorb_failures(const LoopStats& o) {
  attempted += o.attempted;
  wrong += o.wrong;
  shed += o.shed;
  timeouts += o.timeouts;
  errors += o.errors;
  if (first_error.empty()) {
    first_error = o.first_error;
  }
}

double percentile_ns(std::vector<std::uint32_t>& v, double q) {
  if (v.empty()) {
    return 0;
  }
  const std::size_t k = std::min(
      v.size() - 1, static_cast<std::size_t>(std::ceil(q * v.size())) - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- Tracer --------------------------------------------------------------

Tracer::Tracer(std::size_t threads, std::size_t cap_per_thread)
    : buf_(threads), cap_(cap_per_thread) {
  for (auto& b : buf_) {
    b.spans.reserve(cap_);
  }
}

std::uint16_t Tracer::intern(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return static_cast<std::uint16_t>(i);
    }
  }
  names_.push_back(name);
  return static_cast<std::uint16_t>(names_.size() - 1);
}

std::uint32_t Tracer::open(std::size_t thread, std::uint16_t name,
                           std::uint32_t parent, std::uint64_t req) {
  auto& b = buf_[thread];
  const std::int64_t now = now_ns();
  std::uint32_t handle = 0;
  if (b.spans.size() < cap_) {
    b.spans.push_back(Span{name, static_cast<std::uint16_t>(thread), parent,
                           req, now, 0});
    handle = static_cast<std::uint32_t>(b.spans.size());
  } else {
    ++b.dropped;
  }
  b.open.push_back({name, now, 0.0, handle});
  return handle;
}

void Tracer::close(std::size_t thread, std::uint32_t handle) {
  auto& b = buf_[thread];
  const std::int64_t now = now_ns();
  // Spans of one thread nest (each is a blocking call), so the one
  // closing is the innermost open one.
  const Open o = b.open.back();
  b.open.pop_back();
  const double d = static_cast<double>(now - o.start);
  if (b.self.size() <= o.name) {
    b.self.resize(o.name + 1u);
  }
  SelfTime& st = b.self[o.name];
  ++st.calls;
  st.total_ns += d;
  st.self_ns += d - o.child_ns;
  if (!b.open.empty()) {
    b.open.back().child_ns += d;
  }
  if (handle != 0) {
    b.spans[handle - 1].end = now;
  }
}

std::map<std::string, Tracer::SelfTime> Tracer::self_times() const {
  std::map<std::string, SelfTime> out;
  for (const auto& b : buf_) {
    for (std::size_t n = 0; n < b.self.size(); ++n) {
      if (b.self[n].calls != 0) {
        auto& st = out[names_[n]];
        st.calls += b.self[n].calls;
        st.total_ns += b.self[n].total_ns;
        st.self_ns += b.self[n].self_ns;
      }
    }
  }
  return out;
}

coop::Status Tracer::write_jsonl(const std::string& path,
                                 std::size_t max_spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return coop::Status::invalid_argument("cannot write " + path);
  }
  // An even share per thread, so every thread's spans appear.
  const std::size_t per_thread = max_spans / std::max<std::size_t>(1, buf_.size());
  for (std::size_t t = 0; t < buf_.size(); ++t) {
    const auto& b = buf_[t].spans;
    for (std::size_t i = 0; i < b.size() && i < per_thread; ++i) {
      const Span& s = b[i];
      const std::string parent =
          s.parent == 0 ? "" : std::to_string(t) + "." + std::to_string(s.parent);
      std::fprintf(f,
                   "{\"id\":\"%zu.%zu\",\"name\":\"%s\",\"parent\":\"%s\","
                   "\"req\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   t, i + 1, names_[s.name].c_str(), parent.c_str(),
                   static_cast<unsigned long long>(s.req),
                   static_cast<long long>(s.start),
                   static_cast<long long>(s.end));
    }
  }
  const bool ok = std::fflush(f) == 0 && std::ferror(f) == 0;
  std::fclose(f);
  return ok ? coop::OkStatus() : coop::Status::internal("short write to " + path);
}

std::uint64_t Tracer::recorded() const {
  std::uint64_t n = 0;
  for (const auto& b : buf_) {
    n += b.spans.size();
  }
  return n;
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t n = 0;
  for (const auto& b : buf_) {
    n += b.dropped;
  }
  return n;
}

// ---- scrapes -------------------------------------------------------------

PromText PromText::parse(const std::string& text) {
  PromText p;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) {
      continue;
    }
    const std::string name = line.substr(0, sp);
    const double v = std::strtod(line.c_str() + sp + 1, nullptr);
    const std::size_t le = name.find("_bucket{le=\"");
    if (le != std::string::npos) {
      const std::string bound = name.substr(le + 12, name.size() - le - 14);
      const double ub = bound == "+Inf" ? INFINITY : std::strtod(bound.c_str(),
                                                                 nullptr);
      p.hist[name.substr(0, le)].emplace_back(ub, v);
    } else {
      p.value[name] = v;
    }
  }
  return p;
}

double PromText::get(const std::string& name) const {
  const auto it = value.find(name);
  return it == value.end() ? 0.0 : it->second;
}

double hist_quantile(const PromText& before, const PromText& after,
                     const std::string& name, double q) {
  const auto a = after.hist.find(name);
  if (a == after.hist.end()) {
    return 0;
  }
  const auto b = before.hist.find(name);
  std::vector<std::pair<double, double>> d = a->second;
  if (b != before.hist.end() && b->second.size() == d.size()) {
    for (std::size_t i = 0; i < d.size(); ++i) {
      d[i].second -= b->second[i].second;
    }
  }
  const double total = d.empty() ? 0 : d.back().second;
  if (total <= 0) {
    return 0;
  }
  const double target = q * total;
  double lo = 0, prev = 0;
  for (const auto& [ub, cum] : d) {
    if (cum >= target) {
      if (std::isinf(ub)) {
        return lo;
      }
      const double in = cum - prev;
      const double frac = in > 0 ? (target - prev) / in : 1.0;
      return lo + frac * (ub - lo);
    }
    lo = ub;
    prev = cum;
  }
  return lo;
}

PromText scrape_self() {
  return PromText::parse(obs::to_prometheus(obs::Registry::global().scrape()));
}

namespace {

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

double status_field(const std::string& status, const char* field) {
  const std::size_t at = status.find(field);
  if (at == std::string::npos) {
    return 0;
  }
  return std::strtod(status.c_str() + at + std::strlen(field), nullptr);
}

}  // namespace

ProcSample proc_sample(int pid) {
  ProcSample s;
  const std::string base = "/proc/" + std::to_string(pid);
  std::string stat, status;
  if (!read_file(base + "/stat", stat) || !read_file(base + "/status", status)) {
    return s;
  }
  // utime and stime are fields 14 and 15; field 2 (comm) may hold
  // spaces, so count from the closing parenthesis.
  const std::size_t rp = stat.rfind(')');
  std::istringstream in(stat.substr(rp + 2));
  std::string tok;
  double ut = 0, st = 0;
  for (int field = 3; in >> tok; ++field) {
    if (field == 14) {
      ut = std::strtod(tok.c_str(), nullptr);
    } else if (field == 15) {
      st = std::strtod(tok.c_str(), nullptr);
      break;
    }
  }
  s.cpu_s = (ut + st) / static_cast<double>(sysconf(_SC_CLK_TCK));
  s.threads = status_field(status, "Threads:");
  s.hwm_mb = status_field(status, "VmHWM:") / 1024.0;
  s.rss_mb = status_field(status, "VmRSS:") / 1024.0;
  if (DIR* d = opendir((base + "/task").c_str())) {
    while (dirent* e = readdir(d)) {
      if (e->d_name[0] == '.') {
        continue;
      }
      std::string ts;
      if (read_file(base + "/task/" + e->d_name + "/status", ts)) {
        s.ctxsw += status_field(ts, "voluntary_ctxt_switches:") +
                   status_field(ts, "nonvoluntary_ctxt_switches:");
      }
    }
    closedir(d);
  }
  s.ok = true;
  return s;
}

double self_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

CpuTimes cpu_times() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double v = 0;
  for (int field = 1; field <= 10 && in >> v; ++field) {
    t.total += v;
    if (field == 8) {
      t.steal = v;
    }
  }
  return t;
}

double steal_share(const CpuTimes& a, const CpuTimes& b) {
  const double total = b.total - a.total;
  return total > 0 ? (b.steal - a.steal) / total : 0;
}

// ---- Json ----------------------------------------------------------------

void Json::key(const std::string& k) {
  if (!body_.empty()) {
    body_ += ",";
  }
  body_ += "\"" + k + "\":";
}

Json& Json::num(const std::string& k, double v) {
  key(k);
  if (!std::isfinite(v)) {
    body_ += "null";
    return *this;
  }
  char b[64];
  std::snprintf(b, sizeof(b), "%.9g", v);
  body_ += b;
  return *this;
}

Json& Json::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += "\"";
  for (const char c : v) {
    if (c == '"' || c == '\\') {
      body_ += '\\';
      body_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      body_ += ' ';
    } else {
      body_ += c;
    }
  }
  body_ += "\"";
  return *this;
}

Json& Json::raw(const std::string& k, const std::string& v) {
  key(k);
  body_ += v;
  return *this;
}

void die(const std::string& msg) {
  std::fprintf(stderr, "perfbench_pb: %s\n", msg.c_str());
  std::exit(1);
}

}  // namespace pb

// magicbench: one magicdb workload per process, measured end to end and,
// with --trace 1, layer by layer.
//
//   magicbench --workload wire_hot|eval_large|write_mix --seed N
//              --seconds S --trace 0|1 [--trace-out FILE]
//
// A run makes its inputs from --seed, performs the workload's set-up several
// times, drives a closed-loop operation stream for --seconds against the last
// of them, and then sets up a few more times; each set-up is timed and setup_s
// is their median. Every answer is checked against an oracle. The run prints
// one JSON line with everything it measured; perfbench/run.py turns it into
// the result line.
//
// Every end-to-end timing is an exact percentile of the run's own
// per-request samples. The registry's histograms (buckets up to 25% wide)
// are read only for per-layer numbers.
//
// With --trace 1 the benchmark records a span around each call it makes into
// the program (name, start, end, parent, request id), keeps them in memory,
// writes them to --trace-out when the run ends, and derives per-span self
// time. No span is recorded inside the program itself.

#include <malloc.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/query_engine.h"
#include "engine/query_service.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/trace.h"
#include "storage/write_batch.h"
#include "workload/generators.h"

namespace {

using namespace magic;

uint64_t NowNs() { return obs::Trace::NowNs(); }
double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Exact sample quantile (linear interpolation between order statistics).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double h = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(h);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + (h - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

/// Per-request latencies in small, bounded memory. Samples are counted in
/// buckets of 1 ns below 2 us and 1/1024 of an octave above, and each bucket
/// also sums its samples; an order statistic is the mean of the samples in its
/// bucket, so a percentile is within 0.1% of the exact sample percentile and
/// still carries the samples' own digits. Buckets are allocated one octave
/// (16 KiB) at a time, only for octaves a sample falls in, so the recorder
/// holds a few tens of KiB whatever the throughput and adds next to nothing
/// to peak_rss_mb.
class LatencyHistogram {
 public:
  void Record(uint64_t ns) {
    Bucket& b = Chunk(Index(ns) >> kSubBits)[Index(ns) & kChunkMask];
    ++b.count;
    b.sum_ns += ns;
    ++count_;
  }
  void Merge(const LatencyHistogram& other) {
    for (size_t c = 0; c < kChunks; ++c) {
      if (!other.chunks_[c]) continue;
      Octave& mine = Chunk(c);
      for (size_t i = 0; i < mine.size(); ++i) {
        mine[i].count += (*other.chunks_[c])[i].count;
        mine[i].sum_ns += (*other.chunks_[c])[i].sum_ns;
      }
    }
    count_ += other.count_;
  }
  uint64_t count() const { return count_; }
  /// The q-quantile in ms, interpolated between order statistics like
  /// Quantile().
  double QuantileMs(double q) const {
    if (count_ == 0) return 0.0;
    const double h = q * static_cast<double>(count_ - 1);
    const uint64_t lo = static_cast<uint64_t>(h);
    const double a = OrderStatistic(lo);
    const double b = lo + 1 < count_ ? OrderStatistic(lo + 1) : a;
    return (a + (h - static_cast<double>(lo)) * (b - a)) / 1e6;
  }

 private:
  static constexpr int kSubBits = 10;
  static constexpr size_t kChunkMask = (size_t{1} << kSubBits) - 1;
  static constexpr size_t kChunks = 64 - kSubBits + 2;
  struct Bucket {
    uint64_t count = 0;
    uint64_t sum_ns = 0;
  };
  using Octave = std::array<Bucket, size_t{1} << kSubBits>;

  static size_t Index(uint64_t v) {
    const int msb = static_cast<int>(std::bit_width(v)) - 1;
    const int shift = std::max(0, msb - kSubBits);
    return (static_cast<size_t>(shift) << kSubBits) + (v >> shift);
  }
  Octave& Chunk(size_t c) {
    if (!chunks_[c]) chunks_[c] = std::make_unique<Octave>();
    return *chunks_[c];
  }
  double OrderStatistic(uint64_t rank) const {
    uint64_t seen = 0;
    for (const auto& chunk : chunks_) {
      if (!chunk) continue;
      for (const Bucket& b : *chunk) {
        seen += b.count;
        if (seen > rank) {
          return static_cast<double>(b.sum_ns) / static_cast<double>(b.count);
        }
      }
    }
    return 0.0;
  }

  std::array<std::unique_ptr<Octave>, kChunks> chunks_;
  uint64_t count_ = 0;
};

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// The benchmark's own generator: one stream per purpose, all derived from
/// the workload seed, so the same seed gives the same inputs.
class Rng {
 public:
  Rng(uint64_t seed, uint64_t stream)
      : gen_(seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL +
             1) {}
  size_t Below(size_t n) { return static_cast<size_t>(gen_() % n); }
  double Uniform() { return static_cast<double>(gen_() >> 11) * 0x1.0p-53; }
  template <class T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Below(i)]);
    }
  }

 private:
  std::mt19937_64 gen_;
};

/// Zipf(s) over ranks 0..n-1, sampled by inverting the CDF.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Sample(Rng& rng) const {
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.Uniform());
    return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// A seeded zipf request sequence over `n` items. Rank r is item
/// (r * stride) mod n for a fixed stride coprime to n, so the hot items are
/// spread evenly over the items and are the same for every seed: items differ
/// in cost (answer size, closure depth), and a seed that happened to make a
/// cheap item hot would change the workload rather than sample it.
std::vector<uint32_t> ZipfSequence(size_t n, size_t length, Rng& rng) {
  size_t stride = n * 3 / 8 + 1;
  while (std::gcd(stride, n) != 1) ++stride;
  Zipf zipf(n, 0.99);
  std::vector<uint32_t> seq(length);
  for (uint32_t& item : seq) {
    item = static_cast<uint32_t>(zipf.Sample(rng) * stride % n);
  }
  return seq;
}

// --- spans -------------------------------------------------------------------

struct SpanRec {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  int64_t parent;  // index into the same log, -1 for a root
  uint64_t request;
};

/// In-memory span log of one thread. Records nothing when tracing is off, so
/// untraced runs pay one branch per call.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  int64_t Add(const char* name, uint64_t start, uint64_t end, int64_t parent,
              uint64_t request) {
    if (!enabled_) return -1;
    spans_.push_back(SpanRec{name, start, end, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  /// Opens a span whose end is set by Close (for spans with children).
  int64_t Open(const char* name, int64_t parent, uint64_t request) {
    return Add(name, NowNs(), 0, parent, request);
  }
  void Close(int64_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
  }
  void Reserve(size_t n) {
    if (enabled_) spans_.reserve(n);
  }
  /// Moves `other`'s spans to the end of this log, keeping parent links.
  void Absorb(SpanLog&& other) {
    const int64_t offset = static_cast<int64_t>(spans_.size());
    for (SpanRec s : other.spans_) {
      if (s.parent >= 0) s.parent += offset;
      spans_.push_back(s);
    }
    other.spans_.clear();
  }
  const std::vector<SpanRec>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<SpanRec> spans_;
};

// --- report ------------------------------------------------------------------

struct Metric {
  double value;
  std::string unit;
};

/// Everything a run measured, in insertion order.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    auto it = index_.find(name);
    if (it == index_.end()) {
      index_[name] = items_.size();
      items_.push_back({name, Metric{value, unit}});
    } else {
      items_[it->second].second = Metric{value, unit};
    }
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < items_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\":{\"value\":%.9g,\"unit\":\"%s\"}",
                    i == 0 ? "" : ",", items_[i].first.c_str(),
                    std::isfinite(items_[i].second.value)
                        ? items_[i].second.value
                        : 0.0,
                    items_[i].second.unit.c_str());
      out += buf;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, Metric>> items_;
  std::unordered_map<std::string, size_t> index_;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// --- the run's shared state --------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

struct Run {
  explicit Run(Args a) : args(std::move(a)), spans(args.trace) {}

  Args args;
  SpanLog spans;
  Report report;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> errors;

  /// Records a failed check. Only the first few messages are kept.
  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
  uint64_t Deadline() const {
    return NowNs() + static_cast<uint64_t>(args.seconds * 1e9);
  }
};

/// Every workload sets up kSetupsBefore times before the timed phase, keeping
/// the last set-up for it, and kSetupsAfter times after it. setup_s and the
/// set-up layer numbers are the medians over all of them, so they sample the
/// host over the same window as the timed phase. The same set-up work can
/// take tens of percent longer from one second to the next on a shared host,
/// and set-ups timed back to back sample only a few of those seconds.
constexpr int kSetupsBefore = 6;
constexpr int kSetupsAfter = 6;

/// Per-setup timings.
struct SetupTimes {
  std::vector<double> total_s, load_s, prepare_ms, index_build_s,
      session_open_ms;
  void Report(Report* r) const {
    r->Set("setup_s", Quantile(total_s, 0.5), "s");
    r->Set("storage.load_s", Quantile(load_s, 0.5), "s");
    r->Set("storage.index_build_s", Quantile(index_build_s, 0.5), "s");
    r->Set("engine.prepare_ms", Quantile(prepare_ms, 0.5), "ms");
    if (!session_open_ms.empty()) {
      r->Set("net.session_open_ms", Quantile(session_open_ms, 0.5), "ms");
    }
  }
};

/// A generated EDB as flat rows, loaded into a fresh Database by each set-up
/// through the storage API, so set-up times the load and not the generator.
struct EdbImage {
  struct Rel {
    PredId pred;
    uint32_t arity;
    std::vector<TermId> flat;
  };
  std::vector<Rel> rels;

  /// Copies `db`'s facts out and empties `db`.
  static EdbImage Take(Database* db) {
    EdbImage image;
    std::vector<PredId> preds;
    for (const auto& [pred, rel] : db->relations()) preds.push_back(pred);
    std::sort(preds.begin(), preds.end());
    for (PredId pred : preds) {
      const Relation& rel = *db->Find(pred);
      Rel out{pred, rel.arity(), {}};
      out.flat.reserve(rel.size() * rel.arity());
      for (size_t row = 0; row < rel.size(); ++row) {
        std::span<const TermId> r = rel.Row(row);
        out.flat.insert(out.flat.end(), r.begin(), r.end());
      }
      image.rels.push_back(std::move(out));
    }
    for (PredId pred : preds) db->Clear(pred);
    return image;
  }

  std::unique_ptr<Database> Load(std::shared_ptr<Universe> universe) const {
    auto db = std::make_unique<Database>(std::move(universe));
    for (const Rel& rel : rels) {
      Relation& target = db->GetOrCreate(rel.pred);
      for (size_t i = 0; i < rel.flat.size(); i += rel.arity) {
        target.Insert(std::span<const TermId>(rel.flat.data() + i, rel.arity));
      }
    }
    return db;
  }
};

/// Difference of two cumulative histogram snapshots: the requests recorded
/// between them.
obs::HistogramSnapshot Delta(const obs::HistogramSnapshot& after,
                             const obs::HistogramSnapshot& before) {
  obs::HistogramSnapshot d;
  d.count = after.count - before.count;
  d.sum = after.sum - before.sum;
  for (size_t i = 0; i < d.buckets.size(); ++i) {
    d.buckets[i] = after.buckets[i] - before.buckets[i];
  }
  return d;
}

const QueryService::Stats::FormStats* FormOf(const QueryService::Stats& s,
                                             const std::string& pred) {
  for (const auto& f : s.forms) {
    if (f.pred == pred) return &f;
  }
  return nullptr;
}

/// In-process reads that ran the fixpoint. Feeds the engine.* and eval.*
/// layer numbers on every workload.
struct EvalTally {
  std::vector<double> eval_ms;
  std::vector<double> gap_ms;  // call latency minus evaluation time
  uint64_t new_facts = 0, duplicate_facts = 0, join_probes = 0;
  double eval_s = 0.0;

  void Add(const QueryAnswer& a, uint64_t call_ns) {
    if (a.from_cache) return;
    const double e = a.eval_stats.seconds * 1e3;
    eval_ms.push_back(e);
    gap_ms.push_back(Ms(call_ns) - e);
    new_facts += a.eval_stats.new_facts;
    duplicate_facts += a.eval_stats.duplicate_facts;
    join_probes += a.eval_stats.join_probes;
    eval_s += a.eval_stats.seconds;
  }
  void Report(Report* r) const {
    const double n = static_cast<double>(eval_ms.size());
    r->Set("engine.eval_p50_ms", Quantile(eval_ms, 0.5), "ms");
    r->Set("engine.dispatch_gap_p50_ms", Quantile(gap_ms, 0.5), "ms");
    r->Set("eval.facts_per_read", Ratio(static_cast<double>(new_facts), n),
           "count");
    r->Set("eval.new_fact_ratio",
           Ratio(static_cast<double>(new_facts),
                 static_cast<double>(new_facts + duplicate_facts)),
           "1");
    r->Set("eval.probes_per_fact",
           Ratio(static_cast<double>(join_probes),
                 static_cast<double>(new_facts)),
           "1");
    r->Set("eval.facts_per_s", Ratio(static_cast<double>(new_facts), eval_s),
           "1/s");
  }
};

/// Layer numbers read from the service's counters over the timed phase.
void ReportServiceDelta(const QueryService::Stats& before,
                        const QueryService::Stats& after,
                        const std::string& pred, Report* r) {
  const auto& cb = before.answer_cache;
  const auto& ca = after.answer_cache;
  const double hits = static_cast<double>(ca.hits - cb.hits);
  const double lookups = hits + static_cast<double>(ca.misses - cb.misses);
  r->Set("engine.request_p50_ms",
         Delta(after.request_latency, before.request_latency).Quantile(0.5) /
             1e6,
         "ms");
  r->Set("cache.hit_ratio", Ratio(hits, lookups), "1");
  r->Set("cache.inserts", static_cast<double>(ca.inserts - cb.inserts),
         "count");
  r->Set("cache.evictions", static_cast<double>(ca.evictions - cb.evictions),
         "count");
  r->Set("cache.bytes", static_cast<double>(ca.bytes), "B");
  r->Set("storage.versions_published",
         static_cast<double>(after.versions_published), "count");
  r->Set("storage.versions_retired",
         static_cast<double>(after.versions_retired), "count");
  const auto* fb = FormOf(before, pred);
  const auto* fa = FormOf(after, pred);
  if (fb != nullptr && fa != nullptr) {
    const obs::HistogramSnapshot inline_hits =
        Delta(fa->inline_latency, fb->inline_latency);
    if (inline_hits.count > 0) {
      r->Set("engine.inline_hit_p50_us", inline_hits.Quantile(0.5) / 1e3,
             "us");
    }
  }
}

void ReportReads(const LatencyHistogram& reads, size_t ops, double seconds,
                 Report* r) {
  r->Set("throughput_qps", static_cast<double>(ops) / seconds, "1/s");
  r->Set("read_p50_ms", reads.QuantileMs(0.50), "ms");
  r->Set("read_p99_ms", reads.QuantileMs(0.99), "ms");
  r->Set("reads", static_cast<double>(reads.count()), "count");
}

/// VmHWM: the peak resident set of this process image. (getrusage's
/// ru_maxrss is not used: it keeps the launching process's peak across exec.)
double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

QueryService::FormHandle MustPrepare(QueryService* service,
                                     const Query& query) {
  QueryRequest request;
  request.query = query;
  Result<QueryService::FormHandle> handle = service->Prepare(request);
  if (!handle.ok()) {
    std::fprintf(stderr, "magicbench: prepare failed: %s\n",
                 handle.status().ToString().c_str());
    std::exit(1);
  }
  return *handle;
}

// --- wire_hot ----------------------------------------------------------------
//
// The running example (nonlinear same-generation) served over the wire. Set-up
// fills the AnswerCache with every node's answer in process, which is also
// the oracle for the replies; the timed phase is 2 closed-loop MagicClient
// connections sending QUERY for a seeded zipf sequence of nodes.

constexpr int kGridDepth = 24;
constexpr int kGridWidth = 24;
constexpr size_t kWireClients = 2;
constexpr size_t kWireSequence = size_t{1} << 18;

struct WireEnv {
  std::unique_ptr<Database> db;
  std::unique_ptr<QueryService> service;
  QueryService::FormHandle handle;
  std::unique_ptr<net::MagicServer> server;
  std::vector<net::MagicClient> clients;

  WireEnv() = default;
  WireEnv(const WireEnv&) = delete;
  WireEnv& operator=(const WireEnv&) = delete;
  ~WireEnv() {
    for (net::MagicClient& c : clients) c.Close();
    if (server) server->Stop();
    server.reset();
    service.reset();
    db.reset();
  }
};

void RunWireHot(Run& run) {
  Workload w = MakeSameGenNonlinear(kGridDepth, kGridWidth);
  Universe& u = *w.universe;
  const EdbImage image = EdbImage::Take(&w.db);
  std::vector<TermId> nodes;
  for (int l = 0; l < kGridDepth; ++l) {
    for (int c = 0; c < kGridWidth; ++c) {
      nodes.push_back(u.Constant("n" + std::to_string(l) + "_" +
                                 std::to_string(c)));
    }
  }
  std::vector<std::string> requests;
  for (TermId node : nodes) {
    requests.push_back("QUERY q " + u.TermToString(node));
  }
  std::vector<std::vector<uint32_t>> sequences;
  for (size_t k = 0; k < kWireClients; ++k) {
    Rng rng(run.args.seed, 100 + k);
    sequences.push_back(ZipfSequence(nodes.size(), kWireSequence, rng));
  }
  const std::string prepare =
      "PREPARE q sg(" + u.TermToString(nodes[0]) + ", Y)";

  SetupTimes times;
  std::vector<size_t> oracle(nodes.size(), 0);
  EvalTally tally;
  // The set-up used for the timed phase also feeds the engine/eval tally.
  auto setup = [&](int rep) {
    const bool used = rep + 1 == kSetupsBefore;
    const int64_t root = run.spans.Open("setup", -1, rep);
    const uint64_t t0 = NowNs();
    auto e = std::make_unique<WireEnv>();
    e->db = image.Load(w.universe);
    const uint64_t t_load = NowNs();
    run.spans.Add("storage.load", t0, t_load, root, rep);
    QueryServiceOptions options;
    options.num_threads = 2;
    e->service = std::make_unique<QueryService>(w.program, *e->db, options);
    const uint64_t t_construct = NowNs();
    run.spans.Add("engine.construct", t_load, t_construct, root, rep);
    e->handle = MustPrepare(e->service.get(), w.query);
    const uint64_t t_prepare = NowNs();
    run.spans.Add("engine.prepare", t_construct, t_prepare, root, rep);
    const int64_t fill = run.spans.Open("cache.fill", root, rep);
    uint64_t first_read_ns = 0;
    for (size_t i = 0; i < nodes.size(); ++i) {
      const uint64_t r0 = NowNs();
      QueryAnswer a = e->service->Submit(e->handle, {nodes[i]}).get();
      const uint64_t r1 = NowNs();
      run.spans.Add(i == 0 ? "storage.first_read" : "engine.read", r0, r1,
                    fill, i);
      if (i == 0) {
        first_read_ns = r1 - r0;
      } else if (used) {
        tally.Add(a, r1 - r0);
      }
      if (!a.status.ok()) {
        std::fprintf(stderr, "magicbench: warm-up read failed: %s\n",
                     a.status.ToString().c_str());
        std::exit(1);
      }
      if (rep == 0) {
        oracle[i] = a.tuples.size();
      } else if (oracle[i] != a.tuples.size()) {
        run.Fail("set-up answers differ between set-ups for " +
                 u.TermToString(nodes[i]));
      }
    }
    run.spans.Close(fill);
    const uint64_t t_fill = NowNs();
    e->server = std::make_unique<net::MagicServer>(w.universe, w.program,
                                                   e->service.get());
    if (Status st = e->server->Start(); !st.ok()) {
      std::fprintf(stderr, "magicbench: server: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    const uint64_t t_server = NowNs();
    run.spans.Add("net.server_start", t_fill, t_server, root, rep);
    for (size_t k = 0; k < kWireClients; ++k) {
      const uint64_t s0 = NowNs();
      auto conn = net::MagicClient::Connect(e->server->host(),
                                            e->server->port());
      if (!conn.ok()) {
        std::fprintf(stderr, "magicbench: connect: %s\n",
                     conn.status().ToString().c_str());
        std::exit(1);
      }
      auto reply = conn->Call(prepare);
      if (!reply.ok() || !reply->ok()) {
        std::fprintf(stderr, "magicbench: PREPARE failed\n");
        std::exit(1);
      }
      e->clients.push_back(std::move(*conn));
      const uint64_t s1 = NowNs();
      run.spans.Add("net.session_open", s0, s1, root, k);
      times.session_open_ms.push_back(Ms(s1 - s0));
    }
    const uint64_t t_end = NowNs();
    run.spans.Close(root);
    times.total_s.push_back(static_cast<double>(t_end - t0) / 1e9);
    times.load_s.push_back(static_cast<double>(t_load - t0) / 1e9);
    times.prepare_ms.push_back(Ms(t_prepare - t_construct));
    times.index_build_s.push_back(static_cast<double>(first_read_ns) / 1e9);
    return e;
  };
  std::unique_ptr<WireEnv> env;
  for (int rep = 0; rep < kSetupsBefore; ++rep) {
    env.reset();
    env = setup(rep);
  }

  // Timed phase: each client thread owns its connection, its sequence, its
  // samples and its span log; nothing is shared until the threads join.
  struct ClientResult {
    LatencyHistogram latency;
    size_t failed = 0;
    uint64_t reply_bytes = 0;
    std::string error;
    SpanLog spans{false};
  };
  std::vector<ClientResult> results(kWireClients);
  const QueryService::Stats before = env->service->stats();
  const uint64_t start = NowNs();
  const uint64_t deadline = run.Deadline();
  std::vector<std::thread> threads;
  for (size_t k = 0; k < kWireClients; ++k) {
    threads.emplace_back([&, k] {
      ClientResult& out = results[k];
      out.spans = SpanLog(run.args.trace);
      out.spans.Reserve(1 << 20);
      net::MagicClient& client = env->clients[k];
      const std::vector<uint32_t>& seq = sequences[k];
      for (size_t i = 0;; ++i) {
        const uint32_t node = seq[i % seq.size()];
        const uint64_t t0 = NowNs();
        auto reply = client.Call(requests[node]);
        const uint64_t t1 = NowNs();
        out.spans.Add("net.call", t0, t1, -1, (i << 1) | k);
        out.latency.Record(t1 - t0);
        if (!reply.ok()) {
          ++out.failed;
          out.error = "transport: " + reply.status().ToString();
          break;
        }
        for (const std::string& line : reply->lines) {
          out.reply_bytes += line.size() + 1;
        }
        out.reply_bytes += reply->head.size();
        if (!reply->ok() || reply->lines.size() != oracle[node]) {
          ++out.failed;
          if (out.error.empty()) {
            out.error = "wrong reply for " + requests[node] + ": " +
                        std::to_string(reply->lines.size()) + " rows, want " +
                        std::to_string(oracle[node]);
          }
        }
        if (t1 >= deadline) break;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds = static_cast<double>(NowNs() - start) / 1e9;
  const QueryService::Stats after = env->service->stats();
  const double rss = PeakRssMb();

  LatencyHistogram reads;
  uint64_t reply_bytes = 0;
  for (ClientResult& r : results) {
    reads.Merge(r.latency);
    run.attempted += r.latency.count();
    for (size_t i = 0; i < r.failed; ++i) run.Fail(r.error);
    reply_bytes += r.reply_bytes;
    run.spans.Absorb(std::move(r.spans));
  }

  // Oracle: the served answers came from the magic-rewritten program; the
  // original program, evaluated semi-naively over the same database with
  // both arguments free, must give every node the same number of answers.
  {
    const int64_t span = run.spans.Open("oracle", -1, 0);
    EngineOptions original;
    original.strategy = Strategy::kSemiNaiveBottomUp;
    QueryEngine engine(original);
    Query all = w.query;
    all.goal.args[0] = u.FreshVariable("X");
    all.goal.args[1] = u.FreshVariable("Y");
    QueryAnswer full = engine.Run(w.program, all, *env->db);
    std::unordered_map<TermId, size_t> count;
    for (const auto& tuple : full.tuples) ++count[tuple[0]];
    for (size_t i = 0; i < nodes.size(); ++i) {
      ++run.attempted;
      if (!full.status.ok() || count[nodes[i]] != oracle[i]) {
        run.Fail("served answer count for " + u.TermToString(nodes[i]) +
                 " differs from the original program's");
      }
    }
    run.spans.Close(span);
  }
  env.reset();
  for (int rep = kSetupsBefore; rep < kSetupsBefore + kSetupsAfter; ++rep) {
    setup(rep);
  }

  Report& r = run.report;
  times.Report(&r);
  ReportReads(reads, reads.count(), seconds, &r);
  r.Set("peak_rss_mb", rss, "MB");
  tally.Report(&r);
  ReportServiceDelta(before, after, "sg", &r);
  const double call_p50 = reads.QuantileMs(0.5);
  const double server_p50 = Delta(after.request_latency, before.request_latency)
                                .Quantile(0.5) / 1e6;
  r.Set("net.call_p50_ms", call_p50, "ms");
  r.Set("net.server_p50_ms", server_p50, "ms");
  r.Set("net.gap_p50_ms", call_p50 - server_p50, "ms");
  r.Set("net.reply_bytes_mean",
        Ratio(static_cast<double>(reply_bytes),
              static_cast<double>(reads.count())),
        "B");
  r.Set("grid_nodes", static_cast<double>(nodes.size()), "count");
}

// --- the ancestor workloads --------------------------------------------------

struct AncestorData {
  Workload w;
  EdbImage image;
  int nodes = 0;
  std::vector<TermId> node_ids;
  PredId par = 0;
};

AncestorData MakeAncestorData(int nodes, int edges, int span, uint64_t seed) {
  AncestorData d{MakeAncestorLargeDag(nodes, edges, span,
                                      static_cast<uint32_t>(seed)),
                 {}, nodes, {}, 0};
  Universe& u = *d.w.universe;
  if (d.w.db.relations().size() != 1) {
    std::fprintf(stderr, "magicbench: expected one EDB relation (par)\n");
    std::exit(1);
  }
  d.par = d.w.db.relations().begin()->first;
  d.node_ids.reserve(static_cast<size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    d.node_ids.push_back(u.Constant("c" + std::to_string(i)));
  }
  return d;
}

/// anc(c_k, Y) holds for exactly the nodes after k: the backbone chain makes
/// reachability exact.
bool AncestorAnswerOk(const AncestorData& d, int k, const QueryAnswer& a) {
  return a.status.ok() && a.outcome == AnswerStatus::kOk &&
         a.tuples.size() == static_cast<size_t>(d.nodes - 1 - k);
}

struct LocalEnv {
  std::unique_ptr<Database> db;
  std::unique_ptr<QueryService> service;
  QueryService::FormHandle handle;

  LocalEnv() = default;
  LocalEnv(const LocalEnv&) = delete;
  LocalEnv& operator=(const LocalEnv&) = delete;
  ~LocalEnv() {
    service.reset();
    db.reset();
  }
};

/// One in-process set-up: load, construct, prepare, the first read (which
/// builds the probe indices over the loaded EDB), then one warm-up read of
/// each of `warm_seeds`.
std::unique_ptr<LocalEnv> SetupLocal(Run& run, const AncestorData& d,
                                     const QueryServiceOptions& options,
                                     const std::vector<int>& warm_seeds,
                                     int rep, SetupTimes* times) {
  const int64_t root = run.spans.Open("setup", -1, rep);
  const uint64_t t0 = NowNs();
  auto e = std::make_unique<LocalEnv>();
  e->db = d.image.Load(d.w.universe);
  const uint64_t t_load = NowNs();
  run.spans.Add("storage.load", t0, t_load, root, rep);
  e->service = std::make_unique<QueryService>(d.w.program, *e->db, options);
  const uint64_t t_construct = NowNs();
  run.spans.Add("engine.construct", t_load, t_construct, root, rep);
  e->handle = MustPrepare(e->service.get(), d.w.query);
  const uint64_t t_prepare = NowNs();
  run.spans.Add("engine.prepare", t_construct, t_prepare, root, rep);
  const int k = d.nodes - 2;
  QueryAnswer a = e->service->Submit(e->handle, {d.node_ids[k]}).get();
  const uint64_t t_first = NowNs();
  run.spans.Add("storage.first_read", t_prepare, t_first, root, rep);
  if (!AncestorAnswerOk(d, k, a)) {
    std::fprintf(stderr, "magicbench: first read failed\n");
    std::exit(1);
  }
  const int64_t warm = run.spans.Open("cache.fill", root, rep);
  for (int seed : warm_seeds) {
    const uint64_t r0 = NowNs();
    QueryAnswer w = e->service->Submit(e->handle, {d.node_ids[seed]}).get();
    run.spans.Add("engine.read", r0, NowNs(), warm, seed);
    if (!AncestorAnswerOk(d, seed, w)) {
      std::fprintf(stderr, "magicbench: warm-up read failed\n");
      std::exit(1);
    }
  }
  run.spans.Close(warm);
  const uint64_t t_end = NowNs();
  run.spans.Close(root);
  times->total_s.push_back(static_cast<double>(t_end - t0) / 1e9);
  times->load_s.push_back(static_cast<double>(t_load - t0) / 1e9);
  times->prepare_ms.push_back(Ms(t_prepare - t_construct));
  times->index_build_s.push_back(static_cast<double>(t_first - t_prepare) /
                                 1e9);
  return e;
}

// --- eval_large --------------------------------------------------------------
//
// A 10^6-fact ancestor DAG; one in-process caller on the handle tier, one
// pool thread, the AnswerCache off: every read runs the compiled fixpoint.

constexpr int kLargeFacts = 1'000'000;
constexpr int kLargeNodes = kLargeFacts / 8;
constexpr int kSpan = 16;
constexpr int kLargeTail = 256;

void RunEvalLarge(Run& run) {
  AncestorData d =
      MakeAncestorData(kLargeNodes, kLargeFacts, kSpan, run.args.seed);
  d.image = EdbImage::Take(&d.w.db);
  std::vector<int> cycle;
  for (int k = d.nodes - 1 - kLargeTail; k < d.nodes - 1; ++k) {
    cycle.push_back(k);
  }
  Rng rng(run.args.seed, 200);
  rng.Shuffle(&cycle);

  QueryServiceOptions options;
  options.num_threads = 1;
  options.cache_bytes = 0;
  SetupTimes times;
  std::unique_ptr<LocalEnv> env;
  for (int rep = 0; rep < kSetupsBefore; ++rep) {
    env.reset();
    env = SetupLocal(run, d, options, {}, rep, &times);
  }

  LatencyHistogram reads;
  EvalTally tally;
  run.spans.Reserve(1 << 17);
  const QueryService::Stats before = env->service->stats();
  const uint64_t start = NowNs();
  const uint64_t deadline = run.Deadline();
  for (size_t i = 0;; ++i) {
    const int k = cycle[i % cycle.size()];
    const uint64_t t0 = NowNs();
    QueryAnswer a = env->service->Submit(env->handle, {d.node_ids[k]}).get();
    const uint64_t t1 = NowNs();
    const int64_t id = run.spans.Add("engine.read", t0, t1, -1, i);
    run.spans.Add("eval.fixpoint",
                  t1 - static_cast<uint64_t>(a.eval_stats.seconds * 1e9), t1,
                  id, i);
    reads.Record(t1 - t0);
    tally.Add(a, t1 - t0);
    ++run.attempted;
    if (!AncestorAnswerOk(d, k, a)) {
      run.Fail("anc(c" + std::to_string(k) + ", Y): " +
               std::to_string(a.tuples.size()) + " rows, status " +
               a.status.ToString());
    }
    if (t1 >= deadline) break;
  }
  const double seconds = static_cast<double>(NowNs() - start) / 1e9;
  const QueryService::Stats after = env->service->stats();
  const double rss = PeakRssMb();
  const size_t edb_facts = env->db->TotalFacts();
  env.reset();
  for (int rep = kSetupsBefore; rep < kSetupsBefore + kSetupsAfter; ++rep) {
    SetupLocal(run, d, options, {}, rep, &times);
  }

  Report& r = run.report;
  times.Report(&r);
  ReportReads(reads, reads.count(), seconds, &r);
  r.Set("peak_rss_mb", rss, "MB");
  tally.Report(&r);
  ReportServiceDelta(before, after, "anc", &r);
  r.Set("edb_facts", static_cast<double>(edb_facts), "count");
}

// --- write_mix ---------------------------------------------------------------
//
// A 10^5-fact ancestor DAG; one in-process caller runs a fixed interleave —
// every kWriteEvery-th operation is a single-tuple ApplyWrites, the rest are
// zipf reads over the tail seeds — with the AnswerCache at its default size.
// The writes toggle forward non-backbone edges inside the tail that the
// generated EDB lacks, so every write publishes a version and no answer
// changes.

constexpr int kMixFacts = 100'000;
constexpr int kMixNodes = kMixFacts / 8;
constexpr int kMixTail = 256;
constexpr size_t kWriteEvery = 8;
constexpr size_t kMixSequence = size_t{1} << 16;
constexpr size_t kToggleEdges = 64;

void RunWriteMix(Run& run) {
  AncestorData d = MakeAncestorData(kMixNodes, kMixFacts, kSpan, run.args.seed);
  const int first_tail = d.nodes - 1 - kMixTail;

  // Toggle edges: forward, not on the backbone, inside the tail, and absent
  // from the generated EDB.
  std::vector<std::pair<int, int>> toggles;
  {
    const Relation& par = *d.w.db.Find(d.par);
    Rng rng(run.args.seed, 300);
    std::set<std::pair<int, int>> chosen;
    while (toggles.size() < kToggleEdges) {
      const int a = first_tail + static_cast<int>(rng.Below(kMixTail - kSpan));
      const int b = a + 2 + static_cast<int>(rng.Below(kSpan - 1));
      const TermId edge[2] = {d.node_ids[a], d.node_ids[b]};
      if (b >= d.nodes || par.FindRow(edge).has_value() ||
          !chosen.insert({a, b}).second) {
        continue;
      }
      toggles.push_back({a, b});
    }
  }
  d.image = EdbImage::Take(&d.w.db);

  // The operation stream: op i is a write iff i % kWriteEvery ==
  // kWriteEvery - 1; reads take the next zipf seed, writes the next toggle.
  Rng read_rng(run.args.seed, 301);
  const std::vector<uint32_t> read_seq =
      ZipfSequence(kMixTail, kMixSequence, read_rng);
  Rng write_rng(run.args.seed, 302);
  std::vector<uint32_t> write_seq(kMixSequence / kWriteEvery);
  for (uint32_t& t : write_seq) {
    t = static_cast<uint32_t>(write_rng.Below(kToggleEdges));
  }

  // Set-up warms every 8th tail seed, so that it does real evaluation work
  // and not only a 10^5-fact load.
  std::vector<int> warm_seeds;
  for (int k = first_tail; k < d.nodes - 1; k += 8) warm_seeds.push_back(k);
  QueryServiceOptions options;
  options.num_threads = 1;
  SetupTimes times;
  std::unique_ptr<LocalEnv> env;
  for (int rep = 0; rep < kSetupsBefore; ++rep) {
    env.reset();
    env = SetupLocal(run, d, options, warm_seeds, rep, &times);
  }

  std::vector<bool> present(kToggleEdges, false);
  LatencyHistogram read_lat, write_lat, after_write_lat, steady_lat;
  std::vector<std::vector<std::vector<TermId>>> served(kMixTail);
  EvalTally tally;
  size_t publishing_writes = 0;
  bool just_wrote = false;
  run.spans.Reserve(1 << 17);
  const QueryService::Stats before = env->service->stats();
  const uint64_t start = NowNs();
  const uint64_t deadline = run.Deadline();
  size_t reads = 0, writes = 0;
  for (size_t i = 0;; ++i) {
    uint64_t t1 = 0;
    if (i % kWriteEvery == kWriteEvery - 1) {
      const uint32_t t = write_seq[writes % write_seq.size()];
      ++writes;
      WriteBatch batch;
      std::vector<TermId> edge = {d.node_ids[toggles[t].first],
                                  d.node_ids[toggles[t].second]};
      if (present[t]) {
        batch.Retract(d.par, std::move(edge));
      } else {
        batch.Insert(d.par, std::move(edge));
      }
      const uint64_t t0 = NowNs();
      Result<WriteResult> result = env->service->ApplyWrites(batch);
      t1 = NowNs();
      run.spans.Add("storage.apply", t0, t1, -1, i);
      write_lat.Record(t1 - t0);
      ++run.attempted;
      const size_t changed =
          result.ok() ? result->inserted + result->retracted : 0;
      if (changed != 1) {
        run.Fail("write " + std::to_string(writes) + " changed " +
                 std::to_string(changed) + " tuples, want 1");
      } else {
        ++publishing_writes;
        present[t] = !present[t];
      }
      just_wrote = true;
    } else {
      const int k =
          first_tail + static_cast<int>(read_seq[reads % read_seq.size()]);
      ++reads;
      const uint64_t t0 = NowNs();
      QueryAnswer a = env->service->Submit(env->handle, {d.node_ids[k]}).get();
      t1 = NowNs();
      const int64_t id =
          run.spans.Add(just_wrote ? "storage.read_after_write" : "engine.read",
                        t0, t1, -1, i);
      if (!a.from_cache) {
        run.spans.Add("eval.fixpoint",
                      t1 - static_cast<uint64_t>(a.eval_stats.seconds * 1e9),
                      t1, id, i);
      }
      read_lat.Record(t1 - t0);
      (just_wrote ? after_write_lat : steady_lat).Record(t1 - t0);
      just_wrote = false;
      tally.Add(a, t1 - t0);
      ++run.attempted;
      if (!AncestorAnswerOk(d, k, a)) {
        run.Fail("anc(c" + std::to_string(k) + ", Y): " +
                 std::to_string(a.tuples.size()) + " rows, status " +
                 a.status.ToString());
      } else {
        served[static_cast<size_t>(k - first_tail)] = std::move(a.tuples);
      }
    }
    if (t1 >= deadline) break;
  }
  const double seconds = static_cast<double>(NowNs() - start) / 1e9;
  const QueryService::Stats after = env->service->stats();
  const double rss = PeakRssMb();

  // Oracle: versions_published counts the initial snapshot plus one per
  // publishing write, and a fresh service over the final EDB answers every
  // tail seed exactly as the served answers did.
  const int64_t oracle_span = run.spans.Open("oracle", -1, 0);
  ++run.attempted;
  if (after.versions_published != publishing_writes + 1) {
    run.Fail("versions_published " + std::to_string(after.versions_published) +
             ", want " + std::to_string(publishing_writes + 1));
  }
  env->service.reset();
  {
    QueryServiceOptions fresh_options;
    fresh_options.num_threads = 1;
    fresh_options.cache_bytes = 0;
    QueryService fresh(d.w.program, static_cast<const Database&>(*env->db),
                       fresh_options);
    QueryService::FormHandle handle = MustPrepare(&fresh, d.w.query);
    for (int k = first_tail; k < d.nodes - 1; ++k) {
      const auto& want = served[static_cast<size_t>(k - first_tail)];
      if (want.empty()) continue;  // never read in the timed phase
      ++run.attempted;
      QueryAnswer a = fresh.Submit(handle, {d.node_ids[k]}).get();
      if (!a.status.ok() || a.tuples != want) {
        run.Fail("fresh service disagrees with the served answer for c" +
                 std::to_string(k));
      }
    }
  }
  run.spans.Close(oracle_span);
  const size_t edb_facts = env->db->TotalFacts();
  env.reset();
  for (int rep = kSetupsBefore; rep < kSetupsBefore + kSetupsAfter; ++rep) {
    SetupLocal(run, d, options, warm_seeds, rep, &times);
  }

  Report& r = run.report;
  times.Report(&r);
  ReportReads(read_lat, reads + writes, seconds, &r);
  r.Set("peak_rss_mb", rss, "MB");
  r.Set("write_p50_ms", write_lat.QuantileMs(0.50), "ms");
  r.Set("write_p95_ms", write_lat.QuantileMs(0.95), "ms");
  r.Set("writes", static_cast<double>(writes), "count");
  tally.Report(&r);
  ReportServiceDelta(before, after, "anc", &r);
  r.Set("storage.apply_p50_ms", write_lat.QuantileMs(0.50), "ms");
  r.Set("storage.apply_p95_ms", write_lat.QuantileMs(0.95), "ms");
  r.Set("storage.publish_p95_ms",
        Delta(after.write_publish, before.write_publish).Quantile(0.95) / 1e6,
        "ms");
  r.Set("storage.read_after_write_p50_ms", after_write_lat.QuantileMs(0.5),
        "ms");
  r.Set("storage.read_steady_p50_ms", steady_lat.QuantileMs(0.5), "ms");
  r.Set("edb_facts", static_cast<double>(edb_facts), "count");
}

// --- span summary ------------------------------------------------------------

/// Per span name: count, total and self time (duration minus the part its
/// children cover), and the median duration. Per layer (the name's prefix
/// before the first '.'): total self time.
std::string SpanSummary(const std::vector<SpanRec>& spans) {
  std::vector<uint64_t> child_ns(spans.size(), 0);
  for (const SpanRec& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  struct Agg {
    size_t count = 0;
    double total_ms = 0, self_ms = 0;
    std::vector<double> dur_ms;
  };
  std::map<std::string, Agg> by_name;
  std::map<std::string, double> layer_self;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    const uint64_t dur = s.end_ns - s.start_ns;
    const uint64_t self = dur > child_ns[i] ? dur - child_ns[i] : 0;
    Agg& a = by_name[s.name];
    ++a.count;
    a.total_ms += Ms(dur);
    a.self_ms += Ms(self);
    a.dur_ms.push_back(Ms(dur));
    std::string name = s.name;
    layer_self[name.substr(0, name.find('.'))] += Ms(self);
  }
  std::string out = "{\"spans\":{";
  bool first = true;
  for (const auto& [name, a] : by_name) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"count\":%zu,\"total_ms\":%.6g,\"self_ms\":%.6g,"
                  "\"p50_ms\":%.6g}",
                  first ? "" : ",", name.c_str(), a.count, a.total_ms,
                  a.self_ms, Quantile(a.dur_ms, 0.5));
    out += buf;
    first = false;
  }
  out += "},\"layer_self_ms\":{";
  first = true;
  for (const auto& [layer, ms] : layer_self) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.6g", first ? "" : ",",
                  layer.c_str(), ms);
    out += buf;
    first = false;
  }
  return out + "}}";
}

bool WriteSpans(const std::string& path, const std::vector<SpanRec>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const uint64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%lld,\"request\":%llu}\n",
                 i, s.name,
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: magicbench --workload wire_hot|eval_large|write_mix "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || !(args.seconds > 0.0)) return Usage();

  // glibc raises its mmap threshold each time a large block is freed; after
  // that, write_mix's freed version snapshots partly stay in the heap and its
  // peak RSS varies between runs of the same work (59-107 MB on a 4-vCPU
  // Xeon VM). Holding the threshold at glibc's initial 128 KiB returns large
  // blocks to the system when they are freed, so peak_rss_mb follows the
  // memory the program holds (51-52 MB). The setting also changes the
  // program's speed; perfbench/README.md gives its measured effect.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  Run run(args);
  if (args.workload == "wire_hot") {
    RunWireHot(run);
  } else if (args.workload == "eval_large") {
    RunEvalLarge(run);
  } else if (args.workload == "write_mix") {
    RunWriteMix(run);
  } else {
    return Usage();
  }
  run.report.Set("failed_frac",
                 Ratio(static_cast<double>(run.failed),
                       static_cast<double>(run.attempted)),
                 "1");

  std::string spans_json = "null";
  if (args.trace) {
    spans_json = SpanSummary(run.spans.spans());
    if (!args.trace_out.empty() &&
        !WriteSpans(args.trace_out, run.spans.spans())) {
      std::fprintf(stderr, "magicbench: cannot write %s\n",
                   args.trace_out.c_str());
      return 1;
    }
  }
  std::string errors = "[";
  for (size_t i = 0; i < run.errors.size(); ++i) {
    errors += (i == 0 ? "\"" : ",\"") + JsonEscape(run.errors[i]) + "\"";
  }
  errors += "]";
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
      "\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"errors\":%s,"
      "\"metrics\":%s,\"trace_summary\":%s}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, run.failed == 0 ? "true" : "false",
      run.attempted, run.failed, errors.c_str(), run.report.Json().c_str(),
      spans_json.c_str());
  return 0;
}

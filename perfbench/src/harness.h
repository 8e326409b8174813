// Shared plumbing of the perfbench workloads: run options, the span
// tracer, sample statistics, the metric report, document set-up and
// the failure path with its one-line repro.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include <sys/types.h>

#include "sp2b/gen/query_shapes.h"
#include "sp2b/sparql/engine.h"
#include "sp2b/store/dictionary.h"
#include "sp2b/store/stats.h"
#include "sp2b/store/store.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0);
double SecondsSince(Clock::time_point t0);

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_dir;             // span files
  Clock::time_point process_start;  // first statement of main()
};

// --------------------------------------------------------------------
// Tracing: one span per layer call, recorded from the benchmark's side
// of the library's public functions. Spans live in memory and are
// written out once, after the measurement. A disabled tracer records
// nothing and reads no clock.
// --------------------------------------------------------------------

struct Span {
  std::string name;
  double start_ms = 0;  // since the tracer's epoch
  double end_ms = -1;
  int64_t parent = -1;  // index of the enclosing span on the same thread
  uint64_t request = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  /// Recording can be paused (the traced run alternates traced and
  /// untraced rounds to measure the tracing overhead).
  void set_recording(bool on) { recording_ = enabled_ && on; }
  bool recording() const { return recording_; }

  /// Returns the span's index, or -1 when not recording. The parent
  /// is the innermost open span of the calling thread.
  int64_t Begin(std::string_view name, uint64_t request);
  void End(int64_t id);

  /// Sum of span durations per name, and of self time (duration minus
  /// the time covered by direct children), in ms.
  std::map<std::string, double> TotalMs() const;
  std::map<std::string, double> SelfMs() const;
  /// Every recorded duration of spans named `name`, in ms, grouped by
  /// request id.
  std::map<uint64_t, std::vector<double>> Durations(
      std::string_view name) const;

  /// One JSON object per line: name, start_ms, end_ms, parent, request.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  bool recording_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name, uint64_t request = 0)
      : tracer_(tracer), id_(tracer.Begin(name, request)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int64_t id_;
};

// --------------------------------------------------------------------
// Statistics
// --------------------------------------------------------------------

double Median(std::vector<double> values);
/// Nearest-rank percentile (sp2b::Percentile), q in (0, 1].
double PercentileOf(std::vector<double> values, double q);
double GeoMean(const std::vector<double>& values);
double Sum(const std::vector<double>& values);

/// Per-operation samples keyed by operation id, in first-seen order.
class Samples {
 public:
  void Add(const std::string& id, double ms);
  /// The median of each id, in first-seen order.
  std::vector<double> Medians() const;
  bool empty() const { return order_.empty(); }

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::vector<double>> by_id_;
};

/// Peak resident set size of this process so far (VmHWM), in MB.
double PeakRssMb();

uint64_t Fnv1a(std::string_view bytes);

// --------------------------------------------------------------------
// Result
// --------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
};

/// A progress line on stderr, stamped with seconds since process start.
void Progress(const Options& opts, const std::string& what);

/// Prints the repro line and exits non-zero. Never returns.
[[noreturn]] void Fail(const Options& opts, const std::string& query_id,
                       const std::string& what);

// --------------------------------------------------------------------
// Documents
// --------------------------------------------------------------------

/// The benchmark document is the paper's deterministic one: the
/// generator always runs with seed 4711, and --seed drives only the
/// query-side draws (shape corpus, request lists, batch order), so
/// every workload measures the same data on every seed.
inline constexpr uint64_t kDocumentSeed = 4711;

struct Document {
  std::string text;  // the generated N-Triples document
  uint64_t triples = 0;
  std::unique_ptr<sp2b::rdf::Dictionary> dict;
  std::unique_ptr<sp2b::rdf::Store> store;
  std::unique_ptr<sp2b::rdf::Stats> stats;
};

/// Generates `triples` into memory (span gen.generate; no file, so no
/// disk I/O enters set-up), then loads them into a hexastore:
/// ParseNTriples (store.parse), Finalize (store.finalize) and
/// Stats::Build (store.stats).
Document GenerateAndLoad(uint64_t triples, Tracer& tracer);

/// Loads an N-Triples text into a fresh finalized store of `kind`
/// with statistics; no spans.
Document LoadText(const std::string& ntriples, sp2b::StoreKind kind);

/// The bulk-load rate of catalog and endpoint: kBulkLoads loads of the
/// document into a fresh hexastore (parse + Finalize + Stats::Build),
/// spread evenly over the measurement between rounds, reported as the
/// median rate. Loads taken back to back in one ~2 s window fell into
/// whatever slow or fast phase the shared host was in.
///
/// The loads run in a helper process, forked once before the
/// measurement, which this one waits for at each load. A load holds a
/// second copy of the store, which in this process would set the peak
/// RSS; and it starts from the heap set-up left (loads after the
/// rounds, over the heap they leave behind, swung by 50% from seed to
/// seed). One fork, made before the timed rounds, keeps the page
/// faults a fork causes in the parent out of them.
class BulkLoadSampler {
 public:
  static constexpr size_t kBulkLoads = 9;

  /// Forks the helper process.
  BulkLoadSampler(const std::string& ntriples, double seconds);
  /// Ends the helper process and waits for it.
  ~BulkLoadSampler();
  BulkLoadSampler(const BulkLoadSampler&) = delete;
  BulkLoadSampler& operator=(const BulkLoadSampler&) = delete;

  /// Makes the next load if it is due `elapsed_s` into the measurement.
  void Poll(double elapsed_s);
  /// Makes the loads not yet made; the median rate, in triples/s.
  double Rate();

 private:
  double Load();  // one load in the helper; its triples per second

  double seconds_;
  pid_t pid_ = -1;
  int to_helper_ = -1;
  int from_helper_ = -1;
  std::vector<double> rates_;
};

// --------------------------------------------------------------------
// Workload inputs
// --------------------------------------------------------------------

/// Seed of the generated shape corpora. It is fixed, like the
/// document: a corpus drawn afresh per --seed swings the shape
/// geometric mean by tens of percent between seeds (one constant can
/// turn a 0-row chain into a 300k-row one), which would drown any
/// change worth measuring.
inline constexpr uint64_t kShapeCorpusSeed = 20260809;

/// Star, chain, snowflake and path queries from one QueryShapeGenerator
/// over `store`: per_selectivity[s] queries of each shape at
/// selectivity s (no unconstrained snowflakes, see harness.cc).
std::vector<sp2b::gen::ShapeQuery> ShapeCorpus(
    const sp2b::rdf::Store& store, const sp2b::rdf::Dictionary& dict,
    const int (&per_selectivity)[3]);

/// The first `count` queries of ShapeCorpus(per_selectivity) whose
/// result on `store` (planned engine) has at most `max_rows` rows.
std::vector<sp2b::gen::ShapeQuery> SelectiveShapes(
    const sp2b::rdf::Store& store, const sp2b::rdf::Dictionary& dict,
    const sp2b::rdf::Stats* stats, const int (&per_selectivity)[3],
    size_t count, size_t max_rows);

/// The first number after "key": in a /stats JSON body (0 if absent).
double StatsNumber(const std::string& json, const std::string& key);

/// Projected rows rendered like net::SortedWireGrid (QueryResult::
/// RowToString, sorted; ASK as {"yes"} / {"no"}).
std::vector<std::string> SortedGrid(const sp2b::sparql::QueryResult& result,
                                    const sp2b::rdf::Dictionary& dict);

/// Deterministic Fisher-Yates shuffle driven by `seed` (explicit
/// modulo reduction, so the order is the same on every platform).
template <typename T>
void SeededShuffle(std::vector<T>* items, uint64_t seed) {
  std::mt19937_64 rng(seed);
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng() % i]);
  }
}

/// Every layer's memory and set-up metrics shared by all workloads:
/// gen.generate_s, store.parse_s, store.finalize_s, store.stats_s,
/// store.bytes, dict.bytes.
void AddSetupLayers(const Tracer& tracer, uint64_t store_bytes,
                    uint64_t dict_bytes, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_

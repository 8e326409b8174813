#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <sys/wait.h>
#include <unistd.h>

#include "sp2b/gen/generator.h"
#include "sp2b/gen/query_shapes.h"
#include "sp2b/metrics.h"
#include "sp2b/queries.h"
#include "sp2b/report.h"
#include "sp2b/sparql/parser.h"
#include "sp2b/store/index_store.h"
#include "sp2b/store/ntriples.h"

namespace perfbench {

using namespace sp2b;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- Tracer

namespace {
// Open spans of the calling thread, innermost last.
thread_local std::vector<int64_t> open_spans;
}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), recording_(enabled), epoch_(Clock::now()) {}

int64_t Tracer::Begin(std::string_view name, uint64_t request) {
  if (!recording_) return -1;
  double start = MsSince(epoch_);
  int64_t parent = open_spans.empty() ? -1 : open_spans.back();
  int64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int64_t>(spans_.size());
    spans_.push_back({std::string(name), start, -1, parent, request});
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  double end = MsSince(epoch_);
  open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ms = end;
}

std::map<std::string, double> Tracer::TotalMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[s.name] += s.end_ms - s.start_ms;
  return out;
}

std::map<std::string, double> Tracer::SelfMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children run on their parent's thread and nest inside it, so the
  // time they cover is the sum of their durations.
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ms - spans_[i].start_ms;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -= s.end_ms - s.start_ms;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
  return out;
}

std::map<uint64_t, std::vector<double>> Tracer::Durations(
    std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<uint64_t, std::vector<double>> out;
  for (const Span& s : spans_) {
    if (s.name == name) out[s.request].push_back(s.end_ms - s.start_ms);
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  for (const Span& s : spans_) {
    out << "{\"name\": \"" << s.name << "\", \"start_ms\": "
        << JsonDouble(s.start_ms, 4) << ", \"end_ms\": "
        << JsonDouble(s.end_ms, 4) << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

// ------------------------------------------------------------ Statistics

double Median(std::vector<double> values) { return PercentileOf(values, 0.5); }

double PercentileOf(std::vector<double> values, double q) {
  return Percentile(values, q);
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(std::max(v, 1e-6));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double Sum(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return sum;
}

void Samples::Add(const std::string& id, double ms) {
  auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    order_.push_back(id);
    it = by_id_.emplace(id, std::vector<double>{}).first;
  }
  it->second.push_back(ms);
}

std::vector<double> Samples::Medians() const {
  std::vector<double> out;
  for (const std::string& id : order_) out.push_back(Median(by_id_.at(id)));
  return out;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

void Progress(const Options& opts, const std::string& what) {
  std::fprintf(stderr, "[%7.2fs] %s\n", SecondsSince(opts.process_start),
               what.c_str());
}

void Fail(const Options& opts, const std::string& query_id,
          const std::string& what) {
  std::fprintf(stderr,
               "FAILED: %s\nrepro: python3 perfbench/run.py --workload %s "
               "--seed %llu --seconds %g --trace %d  # query %s\n",
               what.c_str(), opts.workload.c_str(),
               static_cast<unsigned long long>(opts.seed), opts.seconds,
               opts.trace ? 1 : 0, query_id.c_str());
  std::exit(3);
}

// ------------------------------------------------------------- Documents

Document GenerateAndLoad(uint64_t triples, Tracer& tracer) {
  Document doc;
  {
    ScopedSpan span(tracer, "gen.generate");
    std::ostringstream out;
    gen::NTriplesSink sink(out);
    gen::GeneratorConfig config;
    config.triple_limit = triples;
    config.seed = kDocumentSeed;
    gen::Generate(config, sink);
    doc.text = std::move(out).str();
  }
  doc.dict = std::make_unique<rdf::Dictionary>();
  doc.store = std::make_unique<rdf::IndexStore>();
  {
    ScopedSpan span(tracer, "store.parse");
    std::istringstream in(doc.text);
    doc.triples = rdf::ParseNTriples(in, *doc.dict, *doc.store);
  }
  {
    ScopedSpan span(tracer, "store.finalize");
    doc.store->Finalize();
  }
  {
    ScopedSpan span(tracer, "store.stats");
    doc.stats = std::make_unique<rdf::Stats>(
        rdf::Stats::Build(*doc.store, *doc.dict));
  }
  return doc;
}

Document LoadText(const std::string& ntriples, StoreKind kind) {
  Document doc;
  doc.dict = std::make_unique<rdf::Dictionary>();
  doc.store = rdf::MakeStore(kind);
  std::istringstream in(ntriples);
  doc.triples = rdf::ParseNTriples(in, *doc.dict, *doc.store);
  doc.store->Finalize();
  doc.stats =
      std::make_unique<rdf::Stats>(rdf::Stats::Build(*doc.store, *doc.dict));
  return doc;
}

BulkLoadSampler::BulkLoadSampler(const std::string& ntriples, double seconds)
    : seconds_(seconds) {
  int down[2], up[2];
  if (pipe(down) != 0 || pipe(up) != 0) throw std::runtime_error("pipe failed");
  pid_ = fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // The helper: one load per command byte, until the pipe closes.
    close(down[1]);
    close(up[0]);
    char command;
    while (read(down[0], &command, 1) == 1) {
      double rate = 0;
      try {
        Clock::time_point t0 = Clock::now();
        Document doc = LoadText(ntriples, StoreKind::kIndex);
        rate = static_cast<double>(doc.triples) / SecondsSince(t0);
      } catch (const std::exception&) {
        _exit(1);
      }
      if (write(up[1], &rate, sizeof(rate)) != sizeof(rate)) _exit(1);
    }
    _exit(0);
  }
  close(down[0]);
  close(up[1]);
  to_helper_ = down[1];
  from_helper_ = up[0];
}

BulkLoadSampler::~BulkLoadSampler() {
  close(to_helper_);
  close(from_helper_);
  int status = 0;
  waitpid(pid_, &status, 0);
}

double BulkLoadSampler::Load() {
  const char command = 'L';
  double rate = 0;
  if (write(to_helper_, &command, 1) != 1 ||
      read(from_helper_, &rate, sizeof(rate)) != sizeof(rate)) {
    throw std::runtime_error("the bulk-load process failed");
  }
  return rate;
}

void BulkLoadSampler::Poll(double elapsed_s) {
  if (rates_.size() < kBulkLoads &&
      elapsed_s >= seconds_ * static_cast<double>(rates_.size()) /
                       static_cast<double>(kBulkLoads)) {
    rates_.push_back(Load());
  }
}

double BulkLoadSampler::Rate() {
  while (rates_.size() < kBulkLoads) rates_.push_back(Load());
  return Median(rates_);
}

std::vector<gen::ShapeQuery> ShapeCorpus(const rdf::Store& store,
                                         const rdf::Dictionary& dict,
                                         const int (&per_selectivity)[3]) {
  gen::QueryShapeGenerator generator(store, dict, kShapeCorpusSeed);
  std::vector<gen::ShapeQuery> corpus;
  for (int sel = 0; sel < 3; ++sel) {
    for (int k = 0; k < per_selectivity[sel]; ++k) {
      // Unconstrained shapes stay small (star fanout <= 2, chain depth
      // 1, no snowflake), as do one-constant chains (depth <= 3): one
      // step further yields 150-350k rows and 80-180 MB of SPARQL-JSON
      // at 250k triples, and a single such query outweighs the rest of
      // the corpus.
      corpus.push_back(generator.Star(sel == 0 ? 1 + k % 2 : 1 + k % 4, sel));
      corpus.push_back(generator.Chain(sel == 0 ? 1 : 1 + k % (sel + 2), sel));
      if (sel > 0) corpus.push_back(generator.Snowflake(1 + k % 3, sel));
      corpus.push_back(generator.Path(sel));
    }
  }
  return corpus;
}

std::vector<gen::ShapeQuery> SelectiveShapes(const rdf::Store& store,
                                             const rdf::Dictionary& dict,
                                             const rdf::Stats* stats,
                                             const int (&per_selectivity)[3],
                                             size_t count, size_t max_rows) {
  sparql::Engine engine(store, dict, sparql::EngineConfig::Planned(), stats);
  std::vector<gen::ShapeQuery> kept;
  for (gen::ShapeQuery& q : ShapeCorpus(store, dict, per_selectivity)) {
    if (kept.size() == count) break;
    if (engine.Execute(sparql::Parse(q.text, DefaultPrefixes())).row_count() <= max_rows) {
      kept.push_back(std::move(q));
    }
  }
  return kept;
}

double StatsNumber(const std::string& json, const std::string& key) {
  size_t pos = json.find("\"" + key + "\":");
  if (pos == std::string::npos) return 0;
  return std::strtod(json.c_str() + pos + key.size() + 3, nullptr);
}

std::vector<std::string> SortedGrid(const sparql::QueryResult& result,
                                    const rdf::Dictionary& dict) {
  std::vector<std::string> rows;
  if (result.is_ask) {
    rows.push_back(result.ask_value ? "yes" : "no");
    return rows;
  }
  for (size_t i = 0; i < result.row_count(); ++i) {
    rows.push_back(result.RowToString(i, dict));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

void AddSetupLayers(const Tracer& tracer, uint64_t store_bytes,
                    uint64_t dict_bytes, Report* report) {
  std::map<std::string, double> total = tracer.TotalMs();
  auto seconds = [&](const char* span) {
    auto it = total.find(span);
    return it == total.end() ? 0.0 : it->second / 1000.0;
  };
  report->per_layer["gen.generate_s"] = {seconds("gen.generate"), "s"};
  report->per_layer["store.parse_s"] = {seconds("store.parse"), "s"};
  report->per_layer["store.finalize_s"] = {seconds("store.finalize"), "s"};
  report->per_layer["store.stats_s"] = {seconds("store.stats"), "s"};
  report->per_layer["store.bytes"] = {static_cast<double>(store_bytes),
                                      "bytes"};
  report->per_layer["dict.bytes"] = {static_cast<double>(dict_bytes), "bytes"};
}

}  // namespace perfbench

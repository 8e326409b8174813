// catalog: the paper's own protocol. One thread, in-process, the
// planned engine on the hexastore. Each operation is one query end to
// end: sparql::Parse, Engine::Execute, then net::SerializeResults to
// SPARQL-JSON into a byte-counting sink. The fixed list is the 25
// catalog queries (Q1-Q12 with variants, qa1-qa4, qp1-qp4) and a shape
// corpus over all three selectivity levels, in an order drawn from
// --seed; it is replayed in whole rounds until --seconds have passed.
#include <atomic>
#include <set>
#include <sstream>
#include <thread>

#include "harness.h"
#include "sp2b/net/protocol.h"
#include "sp2b/queries.h"
#include "sp2b/sparql/engine.h"
#include "sp2b/sparql/parser.h"
#include "workloads.h"

namespace perfbench {

using namespace sp2b;

namespace {

constexpr uint64_t kCatalogTriples = 250000;
// Shapes per (shape, selectivity): few unconstrained ones (they are
// the heavy tail), many selective ones. 25 + 3 * 2 + 4 * 30 = 151
// operations a round, so the kMinRounds rounds a run always makes leave
// at least ten samples beyond p99.
constexpr int kShapesPerSelectivity[3] = {2, 15, 15};
constexpr int kMinRounds = 7;

struct Op {
  std::string id;
  std::string shape;  // empty for catalog queries
  std::string text;
};

struct Outcome {
  uint64_t rows = 0;
  uint64_t checksum = 0;
  uint64_t response_bytes = 0;
  uint64_t result_bytes = 0;
  sparql::ExecStats stats;
};

// Largest ratio of estimated to actual rows (either way) over the
// operators of an EXPLAIN rendering; 0 when no operator reports rows.
double MaxQError(const std::string& explain) {
  auto number_after = [](const std::string& line, const char* key,
                         double* out) {
    size_t pos = line.find(key);
    if (pos == std::string::npos) return false;
    std::string digits;
    for (size_t i = pos + std::string(key).size(); i < line.size(); ++i) {
      char c = line[i];
      if (c >= '0' && c <= '9') {
        digits += c;
      } else if (c != ',') {
        break;
      }
    }
    if (digits.empty()) return false;
    *out = std::strtod(digits.c_str(), nullptr);
    return true;
  };
  double worst = 0;
  std::istringstream lines(explain);
  std::string line;
  while (std::getline(lines, line)) {
    double est = 0, rows = 0;
    if (!number_after(line, "est=", &est) ||
        !number_after(line, "rows=", &rows)) {
      continue;
    }
    est = std::max(est, 1.0);
    rows = std::max(rows, 1.0);
    worst = std::max(worst, std::max(est / rows, rows / est));
  }
  return worst;
}

// Distinct lines: the generator can emit one triple twice (see
// README.md), and a store holds each triple once.
uint64_t CountErdoesObjectLines(const std::string& text) {
  const std::string suffix = " <http://localhost/persons/Paul_Erdoes> .";
  std::istringstream in(text);
  std::string line;
  std::set<std::string> lines;
  while (std::getline(in, line)) {
    if (line.size() >= suffix.size() &&
        line.compare(line.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      lines.insert(line);
    }
  }
  return lines.size();
}

}  // namespace

Report RunCatalog(const Options& opts, Tracer& tracer) {
  Document doc = GenerateAndLoad(kCatalogTriples, tracer);
  const double setup_s = SecondsSince(opts.process_start);
  Progress(opts, "set-up done: " + std::to_string(doc.triples) + " triples");

  std::vector<Op> ops;
  for (const std::string& id : CatalogQueryIds()) {
    ops.push_back({id, "", GetQuery(id).text});
  }
  const size_t catalog_count = ops.size();
  for (gen::ShapeQuery& q : ShapeCorpus(*doc.store, *doc.dict,
                                        kShapesPerSelectivity)) {
    ops.push_back({"s" + std::to_string(ops.size()) + ":" + q.id, q.shape,
                   std::move(q.text)});
  }

  sparql::Engine engine(*doc.store, *doc.dict, sparql::EngineConfig::Planned(),
                        doc.stats.get());
  const sparql::PrefixMap& prefixes = DefaultPrefixes();
  Report report;

  // One operation end to end; returns its time in ms.
  auto run_op = [&](size_t index, sparql::QueryResult* result,
                    uint64_t* bytes) {
    const Op& op = ops[index];
    ++report.attempted;
    *bytes = 0;
    Clock::time_point t0 = Clock::now();
    try {
      sparql::AstQuery ast;
      {
        ScopedSpan span(tracer, "sparql.parse", index);
        ast = sparql::Parse(op.text, prefixes);
      }
      {
        ScopedSpan span(tracer, "engine.execute", index);
        *result = engine.Execute(ast);
      }
      ScopedSpan span(tracer, "protocol.serialize", index);
      net::SerializeResults(*result, *doc.dict, net::ResultFormat::kJson,
                            [bytes](std::string_view s) { *bytes += s.size(); });
    } catch (const std::exception& e) {
      Fail(opts, op.id, std::string("query raised: ") + e.what());
    }
    return MsSince(t0);
  };

  BulkLoadSampler bulk_loads(doc.text, opts.seconds);
  // A warm-up round fills the caches and records each operation's rows,
  // response size, result memory and counters; it is not timed.
  tracer.set_recording(false);
  std::vector<Outcome> first(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    sparql::QueryResult result;
    run_op(i, &result, &first[i].response_bytes);
    first[i].rows = result.row_count();
    first[i].result_bytes = result.rows.MemoryBytes();
    first[i].stats = result.stats;
  }

  Samples query_ms, shape_ms;
  std::vector<double> all_ms, round_qps;
  std::vector<double> traced_round_s, untraced_round_s;
  std::vector<size_t> order(ops.size());
  Clock::time_point measure_start = Clock::now();
  for (int round = 0;; ++round) {
    bulk_loads.Poll(SecondsSince(measure_start));
    // The traced run alternates traced and untraced rounds; their
    // medians give the tracing overhead.
    const bool traced = opts.trace && round % 2 == 0;
    tracer.set_recording(traced);
    // A new order each round, so no operation always follows the same
    // neighbour (q4 leaves the caches cold for whatever comes next).
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    SeededShuffle(&order, opts.seed * 1000003 + static_cast<uint64_t>(round));
    double round_ms = 0;
    for (size_t index : order) {
      sparql::QueryResult result;
      uint64_t bytes = 0;
      const double ms = run_op(index, &result, &bytes);
      round_ms += ms;
      all_ms.push_back(ms);
      (ops[index].shape.empty() ? query_ms : shape_ms).Add(ops[index].id, ms);
      if (result.row_count() != first[index].rows ||
          bytes != first[index].response_bytes) {
        Fail(opts, ops[index].id, "result changed between rounds");
      }
    }
    const double round_s = round_ms / 1000.0;
    round_qps.push_back(static_cast<double>(ops.size()) / round_s);
    (traced ? traced_round_s : untraced_round_s).push_back(round_s);
    const bool need_untraced = opts.trace && untraced_round_s.empty();
    if (SecondsSince(measure_start) >= opts.seconds && !need_untraced &&
        round + 1 >= kMinRounds) {
      break;
    }
  }
  tracer.set_recording(opts.trace);
  const double peak_rss_mb = PeakRssMb();
  Progress(opts, std::to_string(round_qps.size()) + " rounds of " +
                     std::to_string(ops.size()) + " operations");

  // Per-layer figures of the traced rounds.
  if (opts.trace) {
    auto execute = tracer.Durations("engine.execute");
    auto serialize = tracer.Durations("protocol.serialize");
    auto parse = tracer.Durations("sparql.parse");
    std::vector<double> parse_all;
    for (auto& [index, values] : parse) {
      parse_all.insert(parse_all.end(), values.begin(), values.end());
    }
    report.per_layer["sparql.parse_us"] = {Median(parse_all) * 1000.0, "us"};
    std::map<std::string, std::vector<double>> shape_exec;
    uint64_t probes = 0, bindings = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
      probes += first[i].stats.probes;
      bindings += first[i].stats.bindings;
      if (!ops[i].shape.empty()) {
        shape_exec[ops[i].shape].push_back(Median(execute[i]));
        continue;
      }
      const std::string& id = ops[i].id;
      report.per_layer["engine.execute_ms." + id] = {Median(execute[i]), "ms"};
      report.per_layer["protocol.serialize_ms." + id] = {
          Median(serialize[i]), "ms"};
      report.per_layer["engine.result_bytes." + id] = {
          static_cast<double>(first[i].result_bytes), "bytes"};
      std::string explain;
      engine.ExecuteExplained(sparql::Parse(ops[i].text, prefixes),
                              sparql::QueryLimits::None(), &explain);
      report.per_layer["plan.q_error_max." + id] = {MaxQError(explain),
                                                    "ratio"};
    }
    for (auto& [shape, medians] : shape_exec) {
      report.per_layer["shape." + shape + ".execute_ms"] = {GeoMean(medians),
                                                            "ms"};
    }
    report.per_layer["engine.probes"] = {static_cast<double>(probes), "count"};
    report.per_layer["engine.bindings"] = {static_cast<double>(bindings),
                                           "count"};
    AddSelfTimes(tracer, traced_round_s.size(), &report);
    report.per_layer["trace.overhead_pct"] = {
        (Median(traced_round_s) / Median(untraced_round_s) - 1.0) * 100.0,
        "%"};
    AddSetupLayers(tracer, doc.store->MemoryBytes(), doc.dict->MemoryBytes(),
                   &report);
  }

  // Correctness: every operation against the backtracking semantic
  // engine on the vertical store (another evaluator over another
  // storage scheme), then the properties the paper fixes.
  {
    // Grid checksums of the planned results, taken now so that the
    // sorted row strings do not count towards peak_rss_mb.
    for (size_t i = 0; i < ops.size(); ++i) {
      sparql::QueryResult r =
          engine.Execute(sparql::Parse(ops[i].text, prefixes));
      if (r.row_count() != first[i].rows) {
        Fail(opts, ops[i].id, "result changed between runs");
      }
      first[i].checksum = ResultGridChecksum(r, *doc.dict);
    }
    Document ref = LoadText(doc.text, StoreKind::kVertical);
    std::vector<std::pair<uint64_t, uint64_t>> expected(ops.size());
    std::atomic<size_t> next{0};
    auto worker = [&] {
      sparql::Engine semantic(*ref.store, *ref.dict,
                              sparql::EngineConfig::Semantic(),
                              ref.stats.get());
      for (size_t i = next++; i < ops.size(); i = next++) {
        sparql::QueryResult r =
            semantic.Execute(sparql::Parse(ops[i].text, prefixes));
        expected[i] = {r.row_count(), ResultGridChecksum(r, *ref.dict)};
      }
    };
    // The reference runs after the measurement, so it may use the
    // machine: three threads cut its ~30 s to the slowest query's ~9 s.
    std::thread helpers[2] = {std::thread(worker), std::thread(worker)};
    worker();
    for (std::thread& t : helpers) t.join();
    for (size_t i = 0; i < ops.size(); ++i) {
      if (expected[i].first != first[i].rows ||
          expected[i].second != first[i].checksum) {
        Fail(opts, ops[i].id,
             "planned/hexastore gave " + std::to_string(first[i].rows) +
                 " rows, semantic/vertical " +
                 std::to_string(expected[i].first) +
                 " (or the grid checksums differ)");
      }
    }
  }
  Progress(opts, "reference checks done");
  auto rows_of = [&](const std::string& id) {
    for (size_t i = 0; i < catalog_count; ++i) {
      if (ops[i].id == id) return first[i];
    }
    Fail(opts, id, "query missing from the catalog");
  };
  const std::pair<const char*, uint64_t> fixed[] = {
      {"q1", 1}, {"q3c", 0}, {"q9", 4}, {"q11", 10},
      {"q12a", 1}, {"q12b", 1}, {"q12c", 0}};  // ASK: 1 = true
  for (const auto& [id, rows] : fixed) {
    if (rows_of(id).rows != rows) {
      Fail(opts, id, "row count " + std::to_string(rows_of(id).rows) +
                         " != the paper's " + std::to_string(rows));
    }
  }
  if (rows_of("q5a").rows != rows_of("q5b").rows ||
      rows_of("q5a").checksum != rows_of("q5b").checksum) {
    Fail(opts, "q5b", "q5a and q5b differ");
  }
  const uint64_t erdoes = CountErdoesObjectLines(doc.text);
  if (rows_of("q10").rows != erdoes) {
    Fail(opts, "q10", "rows " + std::to_string(rows_of("q10").rows) +
                          " != " + std::to_string(erdoes) +
                          " document lines with object person:Paul_Erdoes");
  }

  std::vector<double> query_medians = query_ms.Medians();
  report.end_to_end["setup_s"] = {setup_s, "s"};
  report.end_to_end["peak_rss_mb"] = {peak_rss_mb, "MB"};
  report.end_to_end["query_geomean_ms"] = {GeoMean(query_medians), "ms"};
  report.end_to_end["query_total_s"] = {Sum(query_medians) / 1000.0, "s"};
  report.end_to_end["shape_geomean_ms"] = {GeoMean(shape_ms.Medians()), "ms"};
  report.end_to_end["throughput_qps"] = {Median(round_qps), "req/s"};
  report.end_to_end["latency_p50_ms"] = {PercentileOf(all_ms, 0.50), "ms"};
  report.end_to_end["latency_p99_ms"] = {PercentileOf(all_ms, 0.99), "ms"};
  report.end_to_end["ingest_triples_per_s"] = {bulk_loads.Rate(),
                                               "triples/s"};
  return report;
}

}  // namespace perfbench

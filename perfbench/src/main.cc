// sp2b_perfbench: runs one workload with one seed, checks its outputs
// against independent references, and prints one JSON line with every
// metric of the mode (end-to-end untraced, per-layer traced).
//
//   sp2b_perfbench --workload catalog|endpoint|live_ingest --seed N
//                  --seconds S --trace 0|1 [--out DIR]
//
// Exit codes: 0 success, 2 usage, 3 a correctness check failed (a
// one-line repro is printed), 1 any other error.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.h"
#include "sp2b/queries.h"
#include "sp2b/report.h"
#include "sp2b/strict_parse.h"
#include "workloads.h"

namespace perfbench {

std::vector<std::string> CatalogQueryIds() {
  std::vector<std::string> ids;
  for (const auto* set : {&sp2b::AllQueries(), &sp2b::AggregateQueries(),
                          &sp2b::PathQueries()}) {
    for (const sp2b::BenchmarkQuery& q : *set) ids.push_back(q.id);
  }
  return ids;
}

std::vector<std::pair<std::string, std::string>> EndToEndMetrics() {
  return {{"setup_s", "s"},          {"peak_rss_mb", "MB"},
          {"query_geomean_ms", "ms"}, {"query_total_s", "s"},
          {"shape_geomean_ms", "ms"}, {"throughput_qps", "req/s"},
          {"latency_p50_ms", "ms"},   {"latency_p99_ms", "ms"},
          {"ingest_triples_per_s", "triples/s"}};
}

std::vector<std::pair<std::string, std::string>> PerLayerMetrics() {
  std::vector<std::pair<std::string, std::string>> names = {
      {"gen.generate_s", "s"},
      {"store.parse_s", "s"},
      {"store.finalize_s", "s"},
      {"store.stats_s", "s"},
      {"store.bytes", "bytes"},
      {"dict.bytes", "bytes"},
      {"sparql.parse_us", "us"},
      {"engine.probes", "count"},
      {"engine.bindings", "count"},
      {"shape.star.execute_ms", "ms"},
      {"shape.chain.execute_ms", "ms"},
      {"shape.snowflake.execute_ms", "ms"},
      {"shape.path.execute_ms", "ms"},
      {"cache.result_hit_rate", "ratio"},
      {"cache.plan_hit_rate", "ratio"},
      {"cache.result_evictions", "count"},
      {"server.latency_p50_ms", "ms"},
      {"net.transport_ms", "ms"},
      {"live.commit_ms_p50", "ms"},
      {"live.epochs", "count"},
      {"live.compactions", "count"},
      {"live.delta_runs_max", "count"},
      {"live.pins_high_water", "count"},
      {"self_s.sparql", "s"},
      {"self_s.engine", "s"},
      {"self_s.protocol", "s"},
      {"self_s.http", "s"},
      {"trace.overhead_pct", "%"},
  };
  for (const std::string& id : CatalogQueryIds()) {
    names.push_back({"engine.execute_ms." + id, "ms"});
    names.push_back({"engine.result_bytes." + id, "bytes"});
    names.push_back({"protocol.serialize_ms." + id, "ms"});
    names.push_back({"plan.q_error_max." + id, "ratio"});
  }
  return names;
}

void AddSelfTimes(const Tracer& tracer, size_t rounds, Report* report) {
  std::map<std::string, double> self = tracer.SelfMs();
  auto per_round_s = [&](std::initializer_list<const char*> spans) {
    double ms = 0;
    for (const char* span : spans) {
      auto it = self.find(span);
      if (it != self.end()) ms += it->second;
    }
    return ms / 1000.0 / static_cast<double>(std::max<size_t>(rounds, 1));
  };
  report->per_layer["self_s.sparql"] = {per_round_s({"sparql.parse"}), "s"};
  report->per_layer["self_s.engine"] = {per_round_s({"engine.execute"}), "s"};
  report->per_layer["self_s.protocol"] = {
      per_round_s({"protocol.serialize"}), "s"};
  report->per_layer["self_s.http"] = {
      per_round_s({"http.query", "http.update"}), "s"};
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: sp2b_perfbench --workload catalog|endpoint|live_ingest"
               " --seed N --seconds S --trace 0|1 [--out DIR]\n");
  return 2;
}

std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

int Run(int argc, char** argv, Clock::time_point process_start) {
  Options opts;
  opts.process_start = process_start;
  opts.out_dir = ".bench_build/perfbench/out";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      opts.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      auto n = sp2b::ParseDigitsOnly(value);
      if (!n) return Usage();
      opts.seed = *n;
      have_seed = true;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      auto s = sp2b::ParsePositiveSeconds(value);
      if (!s || *s > 600) return Usage();
      opts.seconds = *s;
      have_seconds = true;
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage();
      }
      opts.trace = value[0] == '1';
      have_trace = true;
    } else if (std::strcmp(flag, "--out") == 0) {
      opts.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace) {
    return Usage();
  }
  Report (*run)(const Options&, Tracer&) = nullptr;
  if (opts.workload == "catalog") {
    run = RunCatalog;
  } else if (opts.workload == "endpoint") {
    run = RunEndpoint;
  } else if (opts.workload == "live_ingest") {
    run = RunLiveIngest;
  } else {
    return Usage();
  }
  std::filesystem::create_directories(opts.out_dir);

  Tracer tracer(opts.trace);
  Report report = run(opts, tracer);

  std::string metrics;
  auto emit = [&](const std::string& name, const Metric& m) {
    metrics += (metrics.empty() ? "\"" : ", \"") + name +
               "\": {\"value\": " + Number(m.value) + ", \"unit\": \"" +
               m.unit + "\"}";
  };
  if (opts.trace) {
    const std::string path = opts.out_dir + "/trace-" + opts.workload + "-" +
                             std::to_string(opts.seed) + ".jsonl";
    if (!tracer.Write(path)) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "spans written to %s\n", path.c_str());
    for (const auto& [name, unit] : PerLayerMetrics()) {
      auto it = report.per_layer.find(name);
      emit(name, it == report.per_layer.end() ? Metric{0, unit} : it->second);
    }
  } else {
    for (const auto& [name, unit] : EndToEndMetrics()) {
      auto it = report.end_to_end.find(name);
      if (it == report.end_to_end.end() || !(it->second.value > 0)) {
        Fail(opts, "-", "end-to-end metric " + name + " missing or not > 0");
      }
      emit(name, it->second);
    }
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Clock::time_point process_start =
      perfbench::Clock::now();
  try {
    return perfbench::Run(argc, argv, process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

// endpoint: an in-process SparqlServer with its default caches (plan
// and result cache on, planned engine) and two closed-loop keep-alive
// clients. The fixed list is Zipf-ranked parameterized selective
// instances of the catalog templates, built the way
// `bench_throughput --cache-workload` builds them, plus distinct shape
// queries at selectivity 1-2 (each misses the result cache and hits
// the plan cache). --seed orders the list. Every round starts from
// emptied caches, so each round replays exactly the same work.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <thread>

#include "harness.h"
#include "sp2b/net/http.h"
#include "sp2b/net/protocol.h"
#include "sp2b/net/server.h"
#include "sp2b/queries.h"
#include "sp2b/sparql/parser.h"
#include "workloads.h"

namespace perfbench {

using namespace sp2b;

namespace {

constexpr uint64_t kEndpointTriples = 250000;
// 936 + 64 shapes = 1000 requests a round, so p99 (10 beyond) falls
// inside the ~19 slow first misses (q8, q9, q11 at 5-8 ms) rather than
// on the cliff between them and the shapes.
constexpr size_t kCatalogRequests = 936;
// Selective shapes only: a selectivity-1 snowflake can still return
// 240k rows (a ~60 MB body), which belongs to `catalog`. The first 64
// candidates of at most kMaxShapeRows rows are kept.
constexpr int kShapeCandidates[3] = {0, 16, 16};
constexpr size_t kShapes = 64;
constexpr size_t kMaxShapeRows = 1000;
constexpr int kClients = 2;

struct Instance {
  std::string id;  // template ("q10") or shape id
  bool shape = false;
  std::string text;
  std::string target;  // GET /sparql?query=...
};

// First projected column of a discovery query, deduplicated.
std::vector<std::string> Discover(const Document& doc, const std::string& query,
                                  size_t limit) {
  sparql::Engine engine(*doc.store, *doc.dict, sparql::EngineConfig::Planned(),
                        doc.stats.get());
  sparql::QueryResult r =
      engine.Execute(sparql::Parse(query, DefaultPrefixes()));
  std::vector<std::string> out;
  for (size_t i = 0; i < r.rows.size() && out.size() < limit; ++i) {
    rdf::TermId id = r.rows.Row(i)[r.projection[0]];
    if (id == rdf::kNoTerm) continue;
    std::string lexical = r.ResolveTerm(id, *doc.dict).lexical;
    if (std::find(out.begin(), out.end(), lexical) == out.end()) {
      out.push_back(std::move(lexical));
    }
  }
  return out;
}

std::string Replace(std::string text, const std::string& from,
                    const std::string& to) {
  size_t pos = text.find(from);
  if (pos != std::string::npos) text.replace(pos, from.size(), to);
  return text;
}

// The selective instances in popularity rank order: template groups
// interleaved round-robin so the Zipf head spans templates, as in
// mixed endpoint logs. Bulk templates (q2, q3a, q5a/b, q6: 0.7-9 MB
// bodies) are left to `catalog`; q4 is left out because the HTTP
// client cannot receive its 256 MB body (see README.md).
std::vector<Instance> RankedInstances(const Document& doc) {
  std::vector<std::vector<Instance>> groups;
  std::vector<Instance> q1;
  for (const std::string& title : Discover(
           doc, "SELECT ?t WHERE { ?j rdf:type bench:Journal . ?j dc:title ?t }",
           12)) {
    q1.push_back({"q1", false,
                  Replace(GetQuery("q1").text, "\"Journal 1 (1940)\"",
                          "\"" + title + "\""), ""});
  }
  groups.push_back(std::move(q1));
  std::vector<Instance> q10, q8, q12b;
  for (const std::string& name : Discover(
           doc,
           "SELECT ?n WHERE { ?p rdf:type foaf:Person . ?p foaf:name ?n } "
           "LIMIT 10",
           10)) {
    std::string iri = "http://localhost/persons/";
    for (char c : name) iri += c == ' ' ? '_' : c;
    q10.push_back({"q10", false,
                   Replace(GetQuery("q10").text, "person:Paul_Erdoes",
                           "<" + iri + ">"), ""});
    q8.push_back({"q8", false,
                  Replace(GetQuery("q8").text, "\"Paul Erdoes\"",
                          "\"" + name + "\""), ""});
    q12b.push_back({"q12b", false,
                    Replace(GetQuery("q12b").text, "\"Paul Erdoes\"",
                            "\"" + name + "\""), ""});
  }
  groups.push_back(std::move(q10));
  groups.push_back(std::move(q8));
  groups.push_back(std::move(q12b));
  std::vector<Instance> q11;
  for (int offset = 0; offset <= 70; offset += 10) {
    q11.push_back({"q11", false,
                   Replace(GetQuery("q11").text, "OFFSET 50",
                           "OFFSET " + std::to_string(offset)), ""});
  }
  groups.push_back(std::move(q11));
  std::vector<Instance> singles;
  for (const char* id : {"q3b", "q3c", "q9", "q12a", "q12c"}) {
    singles.push_back({id, false, GetQuery(id).text, ""});
  }
  groups.push_back(std::move(singles));

  std::vector<Instance> ranked;
  for (size_t i = 0;; ++i) {
    bool any = false;
    for (std::vector<Instance>& g : groups) {
      if (i < g.size()) {
        ranked.push_back(std::move(g[i]));
        any = true;
      }
    }
    if (!any) break;
  }
  return ranked;
}

// Requests per rank r under Zipf(s = 1): total * (1/r) / H, rounded by
// largest remainder so the counts sum to `total` exactly.
std::vector<size_t> ZipfCounts(size_t ranks, size_t total) {
  double harmonic = 0;
  for (size_t r = 1; r <= ranks; ++r) harmonic += 1.0 / static_cast<double>(r);
  std::vector<size_t> counts(ranks);
  std::vector<std::pair<double, size_t>> remainders;
  size_t assigned = 0;
  for (size_t r = 0; r < ranks; ++r) {
    double exact = static_cast<double>(total) /
                   (static_cast<double>(r + 1) * harmonic);
    counts[r] = static_cast<size_t>(exact);
    assigned += counts[r];
    remainders.push_back({exact - std::floor(exact), r});
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (size_t i = 0; assigned < total; ++i, ++assigned) {
    ++counts[remainders[i % ranks].second];
  }
  return counts;
}

struct Reply {
  double ms = 0;
  bool ok = false;
  std::string body;
};

}  // namespace

Report RunEndpoint(const Options& opts, Tracer& tracer) {
  Document doc = GenerateAndLoad(kEndpointTriples, tracer);
  net::ServerConfig config;
  config.workers = kClients;  // one lane per keep-alive client
  net::SparqlServer server(*doc.store, *doc.dict, doc.stats.get(), config);
  {
    ScopedSpan span(tracer, "server.start");
    server.Start();
  }
  const double setup_s = SecondsSince(opts.process_start);
  Progress(opts, "set-up done: " + std::to_string(doc.triples) +
                     " triples, serving on port " +
                     std::to_string(server.port()));
  BulkLoadSampler bulk_loads(doc.text, opts.seconds);

  // The fixed list: instance indices, Zipf counts for the catalog
  // instances and one request per shape query, in a --seed order.
  std::vector<Instance> instances = RankedInstances(doc);
  std::vector<size_t> list;
  std::vector<size_t> counts = ZipfCounts(instances.size(), kCatalogRequests);
  for (size_t r = 0; r < counts.size(); ++r) {
    list.insert(list.end(), counts[r], r);
  }
  for (gen::ShapeQuery& q : SelectiveShapes(*doc.store, *doc.dict, doc.stats.get(),
                                            kShapeCandidates, kShapes,
                                            kMaxShapeRows)) {
    list.push_back(instances.size());
    instances.push_back({q.id, true, std::move(q.text), ""});
  }
  for (Instance& in : instances) {
    in.target = "/sparql?query=" + net::PercentEncode(in.text);
  }
  SeededShuffle(&list, opts.seed);

  Report report;
  // The first response of each instance is kept for decoding after
  // the measurement; every later response must be byte-identical to it.
  std::vector<std::optional<std::string>> first_body(instances.size());
  Samples query_ms, shape_ms;
  // Latency percentiles are taken per round (1000 samples, so 10 lie
  // beyond p99) and reported as the median over rounds: a burst of
  // outside load then moves a few rounds, not the result.
  std::vector<double> all_ms, round_p50, round_p99;
  std::vector<double> round_qps, traced_round_s, untraced_round_s;
  std::vector<std::unique_ptr<net::HttpClient>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<net::HttpClient>("127.0.0.1",
                                                        server.port()));
  }

  std::vector<Reply> replies(list.size());
  Clock::time_point measure_start = Clock::now();
  for (int round = 0;; ++round) {
    bulk_loads.Poll(SecondsSince(measure_start));
    const bool traced = opts.trace && round % 2 == 0;
    tracer.set_recording(traced);
    server.InvalidateCaches();
    std::atomic<size_t> cursor{0};
    const uint64_t request_base = static_cast<uint64_t>(round) * list.size();
    auto client_loop = [&](net::HttpClient& client) {
      for (size_t i = cursor++; i < list.size(); i = cursor++) {
        Reply& reply = replies[i];
        const size_t k = list[i];
        Clock::time_point t0 = Clock::now();
        reply.body.clear();
        try {
          ScopedSpan span(tracer, "http.query", request_base + i);
          net::HttpResponse resp = client.Get(instances[k].target);
          reply.ok = resp.status == 200;
          reply.body = std::move(resp.body);
        } catch (const net::HttpError&) {
          reply.ok = false;
          client.Close();
        }
        reply.ms = MsSince(t0);
      }
    };
    Clock::time_point t0 = Clock::now();
    std::thread helper(client_loop, std::ref(*clients[1]));
    client_loop(*clients[0]);
    helper.join();
    const double round_s = SecondsSince(t0);
    round_qps.push_back(static_cast<double>(list.size()) / round_s);
    (traced ? traced_round_s : untraced_round_s).push_back(round_s);

    std::vector<double> round_ms;
    // The responses are compared only now, after the round's timing.
    for (size_t i = 0; i < list.size(); ++i) {
      Reply& reply = replies[i];
      const size_t k = list[i];
      ++report.attempted;
      if (!reply.ok) {
        ++report.failed;
        continue;
      }
      all_ms.push_back(reply.ms);
      round_ms.push_back(reply.ms);
      (instances[k].shape ? shape_ms : query_ms)
          .Add(std::to_string(k), reply.ms);
      if (!first_body[k]) {
        first_body[k] = std::move(reply.body);
      } else if (reply.body != *first_body[k]) {
        Fail(opts, instances[k].id + " (instance " + std::to_string(k) + ")",
             "response bytes differ from the instance's first response");
      }
    }
    round_p50.push_back(PercentileOf(round_ms, 0.50));
    round_p99.push_back(PercentileOf(round_ms, 0.99));
    const bool need_untraced = opts.trace && untraced_round_s.empty();
    if (SecondsSince(measure_start) >= opts.seconds && !need_untraced) break;
  }
  tracer.set_recording(opts.trace);
  const double peak_rss_mb = PeakRssMb();
  Progress(opts, std::to_string(round_qps.size()) + " rounds of " +
                     std::to_string(list.size()) + " requests");

  // Lanes stay with their keep-alive connection, so /stats goes over
  // one of the clients' connections.
  const std::string stats = clients[0]->Get("/stats").body;
  if (opts.trace) {
    const double hits = StatsNumber(stats, "result_hits");
    const double misses = StatsNumber(stats, "result_misses");
    const double plan_hits = StatsNumber(stats, "plan_hits");
    const double plan_misses = StatsNumber(stats, "plan_misses");
    const double server_p50 = StatsNumber(stats, "p50_ms");
    report.per_layer["cache.result_hit_rate"] = {
        hits / std::max(hits + misses, 1.0), "ratio"};
    report.per_layer["cache.plan_hit_rate"] = {
        plan_hits / std::max(plan_hits + plan_misses, 1.0), "ratio"};
    report.per_layer["cache.result_evictions"] = {
        StatsNumber(stats, "result_evictions"), "count"};
    report.per_layer["server.latency_p50_ms"] = {server_p50, "ms"};
    report.per_layer["net.transport_ms"] = {
        PercentileOf(all_ms, 0.5) - server_p50, "ms"};
    std::vector<double> parse_us;
    for (const Instance& in : instances) {
      Clock::time_point t0 = Clock::now();
      sparql::Parse(in.text, DefaultPrefixes());
      parse_us.push_back(MsSince(t0) * 1000.0);
    }
    report.per_layer["sparql.parse_us"] = {Median(parse_us), "us"};
    AddSelfTimes(tracer, traced_round_s.size(), &report);
    report.per_layer["trace.overhead_pct"] = {
        (Median(traced_round_s) / Median(untraced_round_s) - 1.0) * 100.0,
        "%"};
    AddSetupLayers(tracer, doc.store->MemoryBytes(), doc.dict->MemoryBytes(),
                   &report);
  }
  // A lane stays with its keep-alive connection until the client
  // closes it, so the clients go first.
  clients.clear();
  server.Stop();

  // Each distinct instance's verified response, decoded, against the
  // semantic engine's grid in-process.
  sparql::Engine semantic(*doc.store, *doc.dict,
                          sparql::EngineConfig::Semantic(), doc.stats.get());
  for (size_t k = 0; k < instances.size(); ++k) {
    if (!first_body[k]) continue;  // every request of it failed
    std::vector<std::string> wire = net::SortedWireGrid(
        net::DecodeResults(*first_body[k], net::ResultFormat::kJson));
    sparql::QueryResult r =
        semantic.Execute(sparql::Parse(instances[k].text, DefaultPrefixes()));
    if (wire != SortedGrid(r, *doc.dict)) {
      Fail(opts, instances[k].id + " (instance " + std::to_string(k) + ")",
           "decoded response differs from the semantic engine's grid");
    }
  }
  Progress(opts, "reference checks done");

  std::vector<double> query_medians = query_ms.Medians();
  report.end_to_end["setup_s"] = {setup_s, "s"};
  report.end_to_end["peak_rss_mb"] = {peak_rss_mb, "MB"};
  report.end_to_end["query_geomean_ms"] = {GeoMean(query_medians), "ms"};
  report.end_to_end["query_total_s"] = {Sum(query_medians) / 1000.0, "s"};
  report.end_to_end["shape_geomean_ms"] = {GeoMean(shape_ms.Medians()), "ms"};
  report.end_to_end["throughput_qps"] = {Median(round_qps), "req/s"};
  report.end_to_end["latency_p50_ms"] = {Median(round_p50), "ms"};
  report.end_to_end["latency_p99_ms"] = {Median(round_p99), "ms"};
  report.end_to_end["ingest_triples_per_s"] = {bulk_loads.Rate(),
                                               "triples/s"};
  return report;
}

}  // namespace perfbench

// live_ingest: SparqlServer(LiveStore&) over a base document cut at a
// fixed year. One writer POSTs the remaining years to /update in equal
// batches; one reader, taking turns with it, replays a fixed list of
// monotone queries (their row counts can only grow as triples arrive)
// after every commit, in an order drawn from --seed. Each round starts
// from a fresh live store over the same base, so every round replays
// the same commits; the store layer sees delta runs, merge cursors,
// background compaction, dictionary growth and a result-cache
// invalidation per commit.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "harness.h"
#include "sp2b/gen/year_batches.h"
#include "sp2b/net/http.h"
#include "sp2b/net/protocol.h"
#include "sp2b/net/server.h"
#include "sp2b/queries.h"
#include "sp2b/store/index_store.h"
#include "sp2b/store/live_store.h"
#include "sp2b/store/ntriples.h"
#include "workloads.h"

namespace perfbench {

using namespace sp2b;

namespace {

constexpr uint64_t kLiveTriples = 250000;
// Base: the years up to 1974, 210k triples. The other 40k arrive in ten
// POST /update batches of ~4000 lines, so a round takes ~3 s, holds
// one background compaction, and a run holds enough rounds for a steady
// median.
constexpr int kBaseLastYear = 1974;
constexpr size_t kBatches = 10;
// Monotone catalog queries: basic graph patterns with at most equality
// filters and no negation, ordering or limits.
constexpr const char* kMonotoneQueries[] = {"q1",  "q3b",  "q3c", "q8", "q9",
                                            "q10", "q12a", "qp1", "qp4"};
constexpr int kShapeCandidates[3] = {0, 8, 8};
constexpr size_t kShapes = 16;
constexpr size_t kMaxShapeRows = 1000;

struct Read {
  std::string id;
  bool shape = false;
  std::string text;
  std::string target;  // GET /sparql?query=...
};

// A store's triples as (count, sum of FNV-1a of their N-Triples
// lines): equal for two stores with the same triple set, whatever
// their dictionaries and scan orders, in constant memory.
std::pair<uint64_t, uint64_t> TripleSetDigest(const rdf::Store& store,
                                              const rdf::Dictionary& dict) {
  std::pair<uint64_t, uint64_t> digest{0, 0};
  store.Match({}, [&](const rdf::Triple& t) {
    ++digest.first;
    digest.second += Fnv1a(dict.ToNTriples(t.s) + " " + dict.ToNTriples(t.p) +
                           " " + dict.ToNTriples(t.o) + " .");
    return true;
  });
  return digest;
}

std::unique_ptr<rdf::LiveStore> MakeLiveStore(const std::string& base,
                                              Tracer& tracer) {
  auto dict = std::make_unique<rdf::Dictionary>();
  auto store = std::make_unique<rdf::IndexStore>();
  {
    ScopedSpan span(tracer, "store.parse");
    std::istringstream in(base);
    rdf::ParseNTriples(in, *dict, *store);
  }
  {
    ScopedSpan span(tracer, "store.finalize");
    store->Finalize();
  }
  ScopedSpan span(tracer, "store.stats");  // the constructor builds them
  return std::make_unique<rdf::LiveStore>(std::move(store), std::move(dict));
}

}  // namespace

Report RunLiveIngest(const Options& opts, Tracer& tracer) {
  // Set-up: generate, load the base into a live store, start serving.
  std::string base;
  std::vector<std::string> batches;
  {
    ScopedSpan span(tracer, "gen.generate");
    gen::GeneratorConfig config;
    config.triple_limit = kLiveTriples;
    config.seed = kDocumentSeed;
    std::string rest;
    for (gen::YearBatch& y : gen::GenerateYearBatches(config)) {
      (y.year <= kBaseLastYear ? base : rest) += y.ntriples;
    }
    // kBatches batches of equal line counts (the last one shorter).
    const size_t lines = static_cast<size_t>(
        std::count(rest.begin(), rest.end(), '\n'));
    const size_t batch_lines = (lines + kBatches - 1) / kBatches;
    for (size_t pos = 0; pos < rest.size();) {
      size_t end = pos;
      for (size_t n = 0; n < batch_lines && end < rest.size(); ++n) {
        end = rest.find('\n', end);
        end = end == std::string::npos ? rest.size() : end + 1;
      }
      batches.push_back(rest.substr(pos, end - pos));
      pos = end;
    }
  }
  net::ServerConfig config;
  config.workers = 2;  // one lane each for the writer and the reader
  std::unique_ptr<rdf::LiveStore> live = MakeLiveStore(base, tracer);
  auto server = std::make_unique<net::SparqlServer>(*live, config);
  {
    ScopedSpan span(tracer, "server.start");
    server->Start();
  }
  const double setup_s = SecondsSince(opts.process_start);
  Progress(opts, "set-up done: base " + std::to_string(live->Pin()->size()) +
                     " triples, " + std::to_string(batches.size()) +
                     " update batches");

  // The read list; shapes draw their constants from the base epoch.
  std::vector<Read> reads;
  for (const char* id : kMonotoneQueries) {
    reads.push_back({id, false, GetQuery(id).text, ""});
  }
  {
    std::shared_ptr<const rdf::SnapshotStore> snap = live->Pin();
    for (gen::ShapeQuery& q :
         SelectiveShapes(*snap, live->dict(), snap->stats(), kShapeCandidates,
                         kShapes, kMaxShapeRows)) {
      reads.push_back({q.id, true, std::move(q.text), ""});
    }
  }
  for (Read& r : reads) r.target = "/sparql?query=" + net::PercentEncode(r.text);
  // The read list in segments: every read once per segment, in a
  // --seed order. Segment b follows the b-th commit, so reads spread
  // over the whole ingest and each one follows a commit (the result
  // cache cannot serve it) instead of a closed loop of cache hits
  // racing ahead of the writer.
  std::vector<std::vector<size_t>> segments(batches.size() + 1);
  for (size_t b = 0; b < segments.size(); ++b) {
    for (size_t i = 0; i < reads.size(); ++i) segments[b].push_back(i);
    SeededShuffle(&segments[b], opts.seed * 1000003 + b);
  }
  const size_t reads_per_round = segments.size() * reads.size();

  Report report;
  const uint64_t base_size = live->Pin()->size();
  Samples query_ms, shape_ms;
  // Read latency percentiles over all measured reads of the run (275 a
  // round).
  std::vector<double> all_ms;
  std::vector<double> read_qps, ingest_rate, commit_ms;
  std::vector<double> traced_round_s, untraced_round_s;
  uint64_t delta_runs_max = 0;
  std::string stats_json;
  rdf::IngestStats last_ingest;
  // Per round: the final snapshot's size and triple-set digest, checked
  // against a from-scratch store after the measurement.
  std::vector<std::pair<uint64_t, uint64_t>> final_digests;

  // Round 0 warms the allocator, the server and the caches up; it is
  // checked like the others but not measured.
  Clock::time_point measure_start = Clock::now();
  for (int round = 0;; ++round) {
    const bool warmup = round == 0;
    const bool traced = opts.trace && round % 2 == 1;
    if (round > 0) {
      tracer.set_recording(false);
      server.reset();
      live.reset();  // before the next store, so two never coexist
      live = MakeLiveStore(base, tracer);
      server = std::make_unique<net::SparqlServer>(*live, config);
      server->Start();
    }
    tracer.set_recording(traced);
    const uint64_t request_base = static_cast<uint64_t>(round) * 100000;
    auto writer_client =
        std::make_unique<net::HttpClient>("127.0.0.1", server->port());
    net::HttpClient reader_client("127.0.0.1", server->port());

    // The writer and the reader take turns: read segment b runs once b
    // updates are acknowledged, and update b + 1 is sent once segment b
    // is done. Left to the scheduler, where a segment of ~3 ms reads
    // fell within a ~200 ms commit decided how much CPU and memory
    // bandwidth it shared with that commit, and read latency swung by
    // a factor of two from round to round.
    std::atomic<bool> writer_failed{false};
    std::mutex turn_mu;
    std::condition_variable turn_cv;
    size_t acked = 0;          // guarded by turn_mu
    size_t segments_done = 0;  // guarded by turn_mu
    double ingest_s = 0;  // busy time of the writer: its POSTs alone
    Clock::time_point round_start = Clock::now();
    std::thread writer([&] {
      for (size_t b = 0; b < batches.size(); ++b) {
        {
          std::unique_lock<std::mutex> lock(turn_mu);
          turn_cv.wait(lock, [&] { return segments_done > b; });
        }
        Clock::time_point t0 = Clock::now();
        try {
          ScopedSpan span(tracer, "http.update", request_base + 50000 + b);
          net::HttpResponse resp = writer_client->Post(
              "/update", "application/n-triples", batches[b]);
          if (resp.status != 200) writer_failed = true;
        } catch (const net::HttpError&) {
          writer_failed = true;
        }
        const double ms = MsSince(t0);
        if (!warmup) commit_ms.push_back(ms);
        ingest_s += ms / 1000.0;
        delta_runs_max =
            std::max(delta_runs_max, live->ingest_stats().delta_runs);
        {
          std::lock_guard<std::mutex> lock(turn_mu);
          acked = b + 1;
        }
        turn_cv.notify_all();
      }
    });

    // (read, body) of every successful read, decoded after the round.
    std::vector<std::pair<size_t, std::string>> bodies;
    uint64_t read_failures = 0;
    double reading_s = 0;  // busy time of the reader: its segments alone
    for (size_t b = 0; b < segments.size(); ++b) {
      {
        std::unique_lock<std::mutex> lock(turn_mu);
        turn_cv.wait(lock, [&] { return acked >= b; });
      }
      Clock::time_point segment_start = Clock::now();
      for (size_t k : segments[b]) {
        const Read& r = reads[k];
        Clock::time_point t0 = Clock::now();
        std::string body;
        bool ok = false;
        try {
          ScopedSpan span(tracer, "http.query",
                          request_base + b * reads.size() + k);
          net::HttpResponse resp = reader_client.Get(
              r.target, {{"Accept", net::kContentTypeBinary}});
          ok = resp.status == 200;
          body = std::move(resp.body);
        } catch (const net::HttpError&) {
          reader_client.Close();
        }
        const double ms = MsSince(t0);
        if (!ok) {
          ++read_failures;
          continue;
        }
        if (!warmup) {
          all_ms.push_back(ms);
          (r.shape ? shape_ms : query_ms).Add(r.id, ms);
        }
        bodies.push_back({k, std::move(body)});
      }
      reading_s += SecondsSince(segment_start);
      {
        std::lock_guard<std::mutex> lock(turn_mu);
        segments_done = b + 1;
      }
      turn_cv.notify_all();
    }
    if (!warmup) {
      read_qps.push_back(static_cast<double>(reads_per_round) / reading_s);
    }
    writer.join();
    const double round_s = SecondsSince(round_start);
    if (!warmup) {
      (traced ? traced_round_s : untraced_round_s).push_back(round_s);
    }
    tracer.set_recording(false);

    report.attempted += reads_per_round + batches.size();
    report.failed += read_failures + (writer_failed ? batches.size() : 0);
    if (writer_failed) Fail(opts, "/update", "a POST /update failed");

    // Checks of the round, outside every timed region.
    stats_json = reader_client.Get("/stats").body;
    writer_client.reset();
    reader_client.Close();
    last_ingest = live->ingest_stats();
    if (!warmup) {
      ingest_rate.push_back(static_cast<double>(last_ingest.triples_added) /
                            ingest_s);
    }
    std::vector<uint64_t> last(reads.size(), 0);
    for (const auto& [read, body] : bodies) {
      net::WireResults wire;
      try {
        wire = net::DecodeResults(body, net::ResultFormat::kBinary);
      } catch (const net::ProtocolError& e) {
        Fail(opts, reads[read].id, std::string("undecodable body: ") + e.what());
      }
      const uint64_t rows =
          wire.is_ask ? (wire.ask_value ? 1 : 0) : wire.rows.size();
      if (rows < last[read]) {
        Fail(opts, reads[read].id,
             "row count fell from " + std::to_string(last[read]) + " to " +
                 std::to_string(rows) + " between epochs");
      }
      last[read] = rows;
    }
    if (live->Pin()->size() != base_size + last_ingest.triples_added) {
      Fail(opts, "-", "final snapshot size != base + triples added");
    }
    final_digests.push_back(TripleSetDigest(*live->Pin(), live->dict()));
    if (warmup) {
      measure_start = Clock::now();
      continue;
    }
    const bool need_untraced = opts.trace && untraced_round_s.empty();
    if (SecondsSince(measure_start) >= opts.seconds && !need_untraced) break;
  }
  const double peak_rss_mb = PeakRssMb();
  Progress(opts, std::to_string(read_qps.size()) + " rounds of " +
                     std::to_string(batches.size()) + " updates and " +
                     std::to_string(reads_per_round) + " reads");

  if (opts.trace) {
    const double hits = StatsNumber(stats_json, "result_hits");
    const double misses = StatsNumber(stats_json, "result_misses");
    const double plan_hits = StatsNumber(stats_json, "plan_hits");
    const double plan_misses = StatsNumber(stats_json, "plan_misses");
    const double server_p50 = StatsNumber(stats_json, "p50_ms");
    report.per_layer["cache.result_hit_rate"] = {
        hits / std::max(hits + misses, 1.0), "ratio"};
    report.per_layer["cache.plan_hit_rate"] = {
        plan_hits / std::max(plan_hits + plan_misses, 1.0), "ratio"};
    report.per_layer["cache.result_evictions"] = {
        StatsNumber(stats_json, "result_evictions"), "count"};
    report.per_layer["server.latency_p50_ms"] = {server_p50, "ms"};
    report.per_layer["net.transport_ms"] = {
        PercentileOf(all_ms, 0.5) - server_p50, "ms"};
    report.per_layer["live.commit_ms_p50"] = {Median(commit_ms), "ms"};
    report.per_layer["live.epochs"] = {
        static_cast<double>(last_ingest.epochs), "count"};
    report.per_layer["live.compactions"] = {
        static_cast<double>(last_ingest.compactions), "count"};
    report.per_layer["live.delta_runs_max"] = {
        static_cast<double>(delta_runs_max), "count"};
    report.per_layer["live.pins_high_water"] = {
        static_cast<double>(last_ingest.pinned_high_water), "count"};
    AddSelfTimes(tracer, traced_round_s.size(), &report);
    report.per_layer["trace.overhead_pct"] = {
        (Median(traced_round_s) / Median(untraced_round_s) - 1.0) * 100.0,
        "%"};
    std::shared_ptr<const rdf::SnapshotStore> snap = live->Pin();
    AddSetupLayers(tracer, snap->MemoryBytes(), live->dict().MemoryBytes(),
                   &report);
  }
  server.reset();
  live.reset();

  // The from-scratch reference: every distinct line sent, bulk-loaded
  // at once.
  {
    std::string all = base;
    for (const std::string& b : batches) all += b;
    std::set<std::string_view> lines;
    for (size_t pos = 0; pos < all.size();) {
      size_t end = all.find('\n', pos);
      if (end == std::string::npos) end = all.size();
      if (end > pos) lines.insert(std::string_view(all).substr(pos, end - pos));
      pos = end + 1;
    }
    Document scratch = LoadText(all, StoreKind::kIndex);
    const std::pair<uint64_t, uint64_t> expected =
        TripleSetDigest(*scratch.store, *scratch.dict);
    if (base_size + last_ingest.triples_added != lines.size()) {
      Fail(opts, "-",
           "base " + std::to_string(base_size) + " + added " +
               std::to_string(last_ingest.triples_added) + " != " +
               std::to_string(lines.size()) + " distinct lines sent");
    }
    for (const auto& digest : final_digests) {
      if (digest != expected) {
        Fail(opts, "-", "a final snapshot differs from a from-scratch store");
      }
    }
  }
  Progress(opts, "reference checks done");

  std::vector<double> query_medians = query_ms.Medians();
  report.end_to_end["setup_s"] = {setup_s, "s"};
  report.end_to_end["peak_rss_mb"] = {peak_rss_mb, "MB"};
  report.end_to_end["query_geomean_ms"] = {GeoMean(query_medians), "ms"};
  report.end_to_end["query_total_s"] = {Sum(query_medians) / 1000.0, "s"};
  report.end_to_end["shape_geomean_ms"] = {GeoMean(shape_ms.Medians()), "ms"};
  report.end_to_end["throughput_qps"] = {Median(read_qps), "req/s"};
  report.end_to_end["latency_p50_ms"] = {PercentileOf(all_ms, 0.50), "ms"};
  report.end_to_end["latency_p99_ms"] = {PercentileOf(all_ms, 0.99), "ms"};
  report.end_to_end["ingest_triples_per_s"] = {Median(ingest_rate),
                                               "triples/s"};
  return report;
}

}  // namespace perfbench

// The three workloads and the metric names they report.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace perfbench {

/// q1 ... q12c, qa1 ... qa4, qp1 ... qp4: the 25 catalog queries.
std::vector<std::string> CatalogQueryIds();

/// (name, unit) of every end-to-end metric; each workload reports all.
std::vector<std::pair<std::string, std::string>> EndToEndMetrics();
/// (name, unit) of every per-layer metric. A layer a workload does not
/// exercise reads 0 there.
std::vector<std::pair<std::string, std::string>> PerLayerMetrics();

/// self_s.sparql / engine / protocol / http: per-round self time of
/// each layer's spans over `rounds` traced rounds.
void AddSelfTimes(const Tracer& tracer, size_t rounds, Report* report);

Report RunCatalog(const Options& opts, Tracer& tracer);
Report RunEndpoint(const Options& opts, Tracer& tracer);
Report RunLiveIngest(const Options& opts, Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

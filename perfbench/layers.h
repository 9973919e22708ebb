// Per-layer replay: calls each layer's public functions on a workload's own
// inputs, outside the cluster, and times them. Nothing inside the program is
// instrumented; the pipeline's counters and stage spans come from the
// JobResults of the traced run instead (main.cc).
#ifndef GMINER_PERFBENCH_LAYERS_H_
#define GMINER_PERFBENCH_LAYERS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/config.h"
#include "graph/graph.h"
#include "spans.h"
#include "workloads.h"

namespace gminer::perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Median of `v` (mean of the middle pair for an even count); 0 when empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

struct LayerReplay {
  std::vector<Metric> metrics;
  uint64_t app_result = 0;  // the apps replay's answer, checked against the oracle
};

// Replays partition, storage, lsh, task store, RCV cache, network, intersect
// and app-update calls for workload `w` on graph `g` under `config`.
// Task-store spill files go under `scratch_dir`, which is created if missing.
LayerReplay ReplayLayers(const Workload& w, const Graph& g, const JobConfig& config,
                         const std::string& scratch_dir, SpanRecorder& spans);

}  // namespace gminer::perfbench

#endif  // GMINER_PERFBENCH_LAYERS_H_

// The benchmark's workloads: which graph, which app, which cluster shape,
// and the serial oracle each job's result is checked against.
#ifndef GMINER_PERFBENCH_WORKLOADS_H_
#define GMINER_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "core/job.h"
#include "core/job_result.h"
#include "graph/graph.h"

namespace gminer::perfbench {

enum class App { kTc, kMcf };

struct Workload {
  std::string name;
  std::string dataset;  // MakeDataset name
  double scale = 1.0;   // MakeDataset scale factor
  double small_scale = 1.0;  // scale of the --small self-check variant
  App app = App::kTc;
  int workers = 1;
  int threads = 1;
  PartitionStrategy partition = PartitionStrategy::kBdg;
  size_t rcv_cache_capacity = size_t{1} << 14;
};

// All workloads, in BENCHMARK.json order.
const std::vector<Workload>& Workloads();

// nullptr when `name` names no workload.
const Workload* FindWorkload(const std::string& name);

// The job configuration of one run: the shared bench settings plus the
// workload's knobs. `seed` feeds JobConfig::seed; spill files go to
// `spill_dir`, which must exist.
JobConfig MakeConfig(const Workload& w, uint64_t seed, const std::string& spill_dir);

std::unique_ptr<JobBase> MakeJob(App app);

// The job's answer (triangle count or maximum clique size) read from a
// finished result.
uint64_t ResultOf(App app, const JobResult& result);

// The same answer from the single-threaded oracle in baselines/serial.h.
uint64_t SerialResult(App app, const Graph& g);

}  // namespace gminer::perfbench

#endif  // GMINER_PERFBENCH_WORKLOADS_H_

#include "workloads.h"

#include "apps/mcf.h"
#include "apps/tc.h"
#include "baselines/serial.h"

namespace gminer::perfbench {

const std::vector<Workload>& Workloads() {
  // tc-btc-1w: ~1 us of compute per task, no network; the per-task pipeline
  // (LSH key, store insert/pop, spill, admit, finish) does almost all work.
  // mcf-orkut-2w: compute-bound branch and bound; pulls mostly hit the cache.
  // tc-orkut-pull: hash partition and a small cache, so remote fetches and
  // cache evictions dominate.
  static const std::vector<Workload> kWorkloads = {
      {.name = "tc-btc-1w", .dataset = "btc", .scale = 4.0, .small_scale = 0.25,
       .app = App::kTc, .workers = 1, .threads = 1},
      {.name = "mcf-orkut-2w", .dataset = "orkut", .scale = 4.0, .small_scale = 1.0,
       .app = App::kMcf, .workers = 2, .threads = 2},
      {.name = "tc-orkut-pull", .dataset = "orkut", .scale = 8.0, .small_scale = 1.0,
       .app = App::kTc, .workers = 4, .threads = 1, .partition = PartitionStrategy::kHash,
       .rcv_cache_capacity = 1024},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

JobConfig MakeConfig(const Workload& w, uint64_t seed, const std::string& spill_dir) {
  // The settings of the repository's bench harness (bench/bench_common.h
  // BenchConfig) with the workload's cluster shape, partitioner and cache.
  JobConfig config;
  config.num_workers = w.workers;
  config.threads_per_worker = w.threads;
  config.partition = w.partition;
  config.rcv_cache_capacity = w.rcv_cache_capacity;
  config.task_block_capacity = 2048;
  config.task_buffer_batch = 128;
  config.net_latency_us = 50;
  config.net_bandwidth_gbps = 1.0;
  config.spill_dir = spill_dir;
  config.seed = seed;
  return config;
}

std::unique_ptr<JobBase> MakeJob(App app) {
  if (app == App::kMcf) {
    return std::make_unique<MaxCliqueJob>();
  }
  return std::make_unique<TriangleCountJob>();
}

uint64_t ResultOf(App app, const JobResult& result) {
  if (result.final_aggregate.empty()) {
    return 0;
  }
  return app == App::kMcf ? MaxCliqueJob::MaxCliqueSize(result.final_aggregate)
                          : TriangleCountJob::Count(result.final_aggregate);
}

uint64_t SerialResult(App app, const Graph& g) {
  return app == App::kMcf ? SerialMaxClique(g) : SerialTriangleCount(g);
}

}  // namespace gminer::perfbench

#include "layers.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <utility>

#include "common/rng.h"
#include "common/serialize.h"
#include "core/job.h"
#include "core/rcv_cache.h"
#include "core/task_store.h"
#include "graph/intersect.h"
#include "lsh/minhash.h"
#include "metrics/counters.h"
#include "metrics/memory_tracker.h"
#include "net/network.h"
#include "partition/bdg_partitioner.h"
#include "partition/hash_partitioner.h"
#include "storage/vertex_table.h"

namespace gminer::perfbench {
namespace {

// Per-item calls (up to hundreds of thousands per workload) are timed and
// traced in groups, so neither clock reads nor the span file dominate.
constexpr size_t kGroup = 1024;
// Update() calls run from ~1 us (TC) to milliseconds (MCF).
constexpr size_t kUpdateGroup = 64;
// Repetitions of the set-up layers (partition, load); the median is reported.
constexpr int kSetupReps = 3;
constexpr size_t kMaxIntersectPairs = size_t{1} << 18;
constexpr size_t kSendRecvRounds = 20000;

// Keeps replayed results observable so the timed calls are not elided.
volatile uint64_t g_sink = 0;

// Runs fn(i) for i in [0, n), one span and one clock interval per group of
// `group` calls. Returns the summed nanoseconds.
template <typename Fn>
int64_t TimeGroups(SpanRecorder& spans, const char* name, size_t n, size_t group, Fn&& fn) {
  int64_t total_ns = 0;
  for (size_t begin = 0; begin < n; begin += group) {
    const size_t end = std::min(n, begin + group);
    ScopedSpan span(spans, name);
    span.set_calls(static_cast<int64_t>(end - begin));
    const int64_t start = NowNs();
    for (size_t i = begin; i < end; ++i) {
      fn(i);
    }
    total_ns += NowNs() - start;
  }
  return total_ns;
}

double PerCall(int64_t ns, size_t calls) {
  return calls == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(calls);
}

std::unique_ptr<Partitioner> MakePartitioner(const JobConfig& c) {
  if (c.partition == PartitionStrategy::kBdg) {
    return std::make_unique<BdgPartitioner>(c.bdg_num_sources, c.bdg_bfs_depth,
                                            c.bdg_max_rounds, c.seed);
  }
  return std::make_unique<HashPartitioner>();
}

class CollectSink : public SeedSink {
 public:
  void Emit(std::unique_ptr<TaskBase> task) override { tasks.push_back(std::move(task)); }
  std::vector<std::unique_ptr<TaskBase>> tasks;
};

// The remote subset of a task's candidates, as the worker computes it before
// the task enters the store (it is the task's LSH key input).
void SetToPull(TaskBase& task, const std::vector<WorkerId>& owner, WorkerId me) {
  std::vector<VertexId> to_pull;
  for (const VertexId v : task.candidates()) {
    if (owner[v] != me) {
      to_pull.push_back(v);
    }
  }
  std::sort(to_pull.begin(), to_pull.end());
  to_pull.erase(std::unique(to_pull.begin(), to_pull.end()), to_pull.end());
  task.set_to_pull(std::move(to_pull));
}

// Serves every vertex straight from the partition tables: Update() runs with
// no pipeline, cache or network behind it.
class ReplayContext : public UpdateContext {
 public:
  ReplayContext(const std::vector<VertexTable>& tables, const std::vector<WorkerId>& owner,
                WorkerId me, AggregatorBase* aggregator, uint64_t seed)
      : tables_(tables), owner_(owner), me_(me), aggregator_(aggregator), rng_(seed) {}

  const VertexRecord* GetVertex(VertexId v) override {
    return v < owner_.size() ? tables_[static_cast<size_t>(owner_[v])].Find(v) : nullptr;
  }
  bool IsLocal(VertexId v) const override { return v < owner_.size() && owner_[v] == me_; }
  void Spawn(std::unique_ptr<TaskBase> task) override { spawned_.push_back(std::move(task)); }
  void Output(const std::string& /*line*/) override {}
  void* aggregator() override { return aggregator_; }
  bool cancelled() const override { return false; }
  WorkerId worker_id() const override { return me_; }
  int num_workers() const override { return static_cast<int>(tables_.size()); }
  Rng& rng() override { return rng_; }

  std::vector<std::unique_ptr<TaskBase>> TakeSpawned() { return std::exchange(spawned_, {}); }

 private:
  const std::vector<VertexTable>& tables_;
  const std::vector<WorkerId>& owner_;
  WorkerId me_;
  AggregatorBase* aggregator_;
  Rng rng_;
  std::vector<std::unique_ptr<TaskBase>> spawned_;
};

}  // namespace

LayerReplay ReplayLayers(const Workload& w, const Graph& g, const JobConfig& config,
                         const std::string& scratch_dir, SpanRecorder& spans) {
  LayerReplay out;
  const auto add = [&out](const char* name, double value, const char* unit) {
    out.metrics.push_back({name, value, unit});
  };
  const int k = config.num_workers;
  const std::unique_ptr<JobBase> job = MakeJob(w.app);

  // --- partition ---
  std::vector<WorkerId> owner;
  {
    ScopedSpan layer(spans, "partition");
    std::vector<double> seconds;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      const std::unique_ptr<Partitioner> partitioner = MakePartitioner(config);
      ScopedSpan call(spans, "Partitioner::Partition");
      call.set_calls(1);
      const int64_t start = NowNs();
      owner = partitioner->Partition(g, k);
      seconds.push_back(static_cast<double>(NowNs() - start) / 1e9);
    }
    add("partition.s", Median(seconds), "s");
    add("partition.edge_cut", EvaluatePartition(g, owner, k).edge_cut_fraction, "ratio");
  }

  // --- storage ---
  std::vector<VertexTable> tables;
  {
    ScopedSpan layer(spans, "storage");
    std::vector<double> seconds;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      tables.clear();
      tables.resize(static_cast<size_t>(k));
      int64_t ns = 0;
      for (int i = 0; i < k; ++i) {
        ScopedSpan call(spans, "VertexTable::LoadPartition");
        call.set_calls(1);
        const int64_t start = NowNs();
        tables[static_cast<size_t>(i)].LoadPartition(g, owner, i);
        ns += NowNs() - start;
      }
      seconds.push_back(static_cast<double>(ns) / 1e9);
    }
    int64_t bytes = 0;
    for (const VertexTable& t : tables) {
      bytes += t.byte_size();
    }
    add("storage.load_s", Median(seconds), "s");
    add("storage.table_MB", static_cast<double>(bytes) / 1e6, "MB");
  }

  // Seed tasks of every worker, as the job's seeder emits them.
  std::vector<std::vector<std::unique_ptr<TaskBase>>> tasks(static_cast<size_t>(k));
  size_t num_tasks = 0;
  for (int i = 0; i < k; ++i) {
    CollectSink sink;
    job->GenerateSeeds(tables[static_cast<size_t>(i)], sink);
    for (const auto& task : sink.tasks) {
      SetToPull(*task, owner, i);
    }
    num_tasks += sink.tasks.size();
    tasks[static_cast<size_t>(i)] = std::move(sink.tasks);
  }

  // --- lsh ---
  {
    ScopedSpan layer(spans, "lsh");
    const MinHasher hasher(config.lsh_num_hashes, config.lsh_bands, config.seed);
    uint64_t keys = 0;
    int64_t ns = 0;
    for (const auto& worker_tasks : tasks) {
      ns += TimeGroups(spans, "MinHasher::Key", worker_tasks.size(), kGroup,
                       [&](size_t t) { keys ^= hasher.Key(worker_tasks[t]->candidates()); });
    }
    g_sink = keys;
    add("lsh.key_ns", PerCall(ns, num_tasks), "ns");
  }

  // --- core: task store (leaves each worker's tasks in the store's pop order) ---
  {
    ScopedSpan layer(spans, "core.task_store");
    int64_t insert_ns = 0;
    int64_t pop_ns = 0;
    for (int i = 0; i < k; ++i) {
      auto& worker_tasks = tasks[static_cast<size_t>(i)];
      const std::string dir = scratch_dir + "/store_w" + std::to_string(i);
      std::filesystem::create_directories(dir);
      WorkerCounters counters;
      MemoryTracker memory;
      TaskStore::Options options;
      options.block_capacity = config.task_block_capacity;
      options.memory_blocks = config.task_store_memory_blocks;
      options.enable_lsh = config.enable_lsh;
      options.lsh_num_hashes = config.lsh_num_hashes;
      options.lsh_bands = config.lsh_bands;
      options.lsh_seed = config.seed;
      options.spill_dir = dir;
      TaskStore store(options, [&job] { return job->MakeTask(); }, &counters, &memory);

      std::vector<std::vector<std::unique_ptr<TaskBase>>> batches;
      for (size_t t = 0; t < worker_tasks.size(); ++t) {
        if (t % config.task_buffer_batch == 0) {
          batches.emplace_back();
        }
        batches.back().push_back(std::move(worker_tasks[t]));
      }
      insert_ns += TimeGroups(spans, "TaskStore::InsertBatch", batches.size(), 1,
                              [&](size_t b) { store.InsertBatch(std::move(batches[b])); });
      std::vector<std::unique_ptr<TaskBase>> popped;
      popped.reserve(worker_tasks.size());
      pop_ns += TimeGroups(spans, "TaskStore::TryPop", worker_tasks.size(), kGroup,
                           [&](size_t) { popped.push_back(store.TryPop()); });
      std::erase(popped, nullptr);
      worker_tasks = std::move(popped);
      std::filesystem::remove_all(dir);
    }
    add("core.task_store.insert_ns", PerCall(insert_ns, num_tasks), "ns");
    add("core.task_store.pop_ns", PerCall(pop_ns, num_tasks), "ns");
  }

  // --- core: RCV cache, replaying each task's remote candidates in pop order:
  // take references (hits), install the misses as pulled vertices, release ---
  {
    ScopedSpan layer(spans, "core.rcv_cache");
    int64_t ns = 0;
    size_t ops = 0;
    for (int i = 0; i < k; ++i) {
      WorkerCounters counters;
      MemoryTracker memory;
      RcvCache cache(config.rcv_cache_capacity, &counters, &memory);
      std::vector<VertexRecord> fetched;
      std::vector<char> hit;
      for (const auto& task : tasks[static_cast<size_t>(i)]) {
        const std::vector<VertexId>& remote = task->to_pull();
        if (remote.empty()) {
          continue;
        }
        // Untimed: copy the records a pull would deliver for the misses.
        fetched.clear();
        for (const VertexId v : remote) {
          if (cache.Get(v) == nullptr) {
            fetched.push_back(*tables[static_cast<size_t>(owner[v])].Find(v));
          }
        }
        hit.assign(remote.size(), 0);
        ScopedSpan span(spans, "RcvCache::AddRefIfPresent+Insert+Release");
        span.set_calls(static_cast<int64_t>(2 * remote.size() + fetched.size()));
        const int64_t start = NowNs();
        for (size_t j = 0; j < remote.size(); ++j) {
          hit[j] = cache.AddRefIfPresent(remote[j]) ? 1 : 0;
        }
        size_t next = 0;
        for (size_t j = 0; j < remote.size(); ++j) {
          if (hit[j] == 0) {
            cache.Insert(std::move(fetched[next++]), 1);
          }
        }
        for (const VertexId v : remote) {
          cache.Release(v);
        }
        ns += NowNs() - start;
        ops += 2 * remote.size() + fetched.size();
      }
    }
    // 0 when the workload pulls nothing (one worker): the layer does no work.
    add("core.rcv_cache.op_ns", PerCall(ns, ops), "ns");
  }

  // --- net: one pull-batch-sized message through the simulated network ---
  {
    ScopedSpan layer(spans, "net");
    WorkerCounters c0;
    WorkerCounters c1;
    Network net(2, {&c0, &c1});
    const std::vector<uint8_t> payload(config.pull_batch_bytes, 0x5a);
    uint64_t received = 0;
    const int64_t ns =
        TimeGroups(spans, "Network::Send+Receive", kSendRecvRounds, kGroup, [&](size_t) {
          net.Send(0, 1, MessageType::kPullRequest, payload);
          received += net.Receive(1)->payload.size();
        });
    g_sink = received;
    add("net.send_recv_ns", PerCall(ns, kSendRecvRounds), "ns");
  }

  // --- graph: IntersectCount over edge endpoints (an evenly strided sample) ---
  {
    ScopedSpan layer(spans, "graph");
    const uint64_t stride = std::max<uint64_t>(1, (g.num_edges() + kMaxIntersectPairs - 1) /
                                                      kMaxIntersectPairs);
    std::vector<std::pair<VertexId, VertexId>> pairs;
    uint64_t edge = 0;
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      for (const VertexId v : g.neighbors(u)) {
        if (v > u && edge++ % stride == 0) {
          pairs.emplace_back(u, v);
        }
      }
    }
    uint64_t common = 0;
    const int64_t ns = TimeGroups(spans, "IntersectCount", pairs.size(), kGroup, [&](size_t p) {
      common += IntersectCount(g.neighbors(pairs[p].first), g.neighbors(pairs[p].second));
    });
    g_sink = common;
    add("graph.intersect_ns", PerCall(ns, pairs.size()), "ns");
  }

  // --- apps: Update() of every task until it dies ---
  {
    ScopedSpan layer(spans, "apps");
    const std::unique_ptr<AggregatorBase> aggregator = job->MakeAggregator();
    int64_t ns = 0;
    size_t calls = 0;
    for (int i = 0; i < k; ++i) {
      auto& worker_tasks = tasks[static_cast<size_t>(i)];
      ReplayContext ctx(tables, owner, i, aggregator.get(), config.seed);
      size_t t = 0;
      while (t < worker_tasks.size()) {
        const size_t end = std::min(worker_tasks.size(), t + kUpdateGroup);
        ScopedSpan span(spans, "TaskBase::Update");
        const size_t calls_before = calls;
        const int64_t start = NowNs();
        for (; t < end; ++t) {
          TaskBase& task = *worker_tasks[t];
          while (true) {
            task.Update(ctx);
            ++calls;
            if (task.dead()) {
              break;
            }
            task.advance_round();
          }
        }
        ns += NowNs() - start;
        span.set_calls(static_cast<int64_t>(calls - calls_before));
        for (auto& spawned : ctx.TakeSpawned()) {
          worker_tasks.push_back(std::move(spawned));
        }
      }
    }
    OutArchive partial;
    aggregator->SerializePartial(partial);
    const std::vector<uint8_t> bytes = partial.TakeBuffer();
    InArchive in(bytes.data(), bytes.size());
    out.app_result = in.Read<uint64_t>();
    add("apps.update_us", PerCall(ns, calls) / 1e3, "us");
    add("apps.compute_s", static_cast<double>(ns) / 1e9, "s");
  }
  return out;
}

}  // namespace gminer::perfbench

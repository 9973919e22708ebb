// Task-pipeline benchmark harness (see README.md in this directory).
//
// One process runs one workload. It builds the workload's graph from --seed,
// computes the serial oracle once (outside every timed region), runs one
// discarded warm-up job, then submits jobs through Cluster::Run one at a
// time from this single thread — a closed loop with one client — for
// --seconds, checking every job's result against the oracle.
//
//   --trace 0  reports the end-to-end metrics of untraced jobs.
//   --trace 1  alternates untraced and traced jobs, then replays each
//              layer's public calls on the workload's inputs (layers.h),
//              writes the harness's spans as Chrome trace-event JSON and
//              reports the per-layer metrics.
//
// A human-readable report goes to stdout; the last line is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "graph/generators.h"
#include "layers.h"
#include "spans.h"
#include "workloads.h"

namespace gminer::perfbench {
namespace {

// Fewest measured jobs per run, whatever --seconds says: medians need a few.
constexpr size_t kMinJobs = 3;
constexpr size_t kMinTracedJobs = 2;

struct Options {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/out";
  bool small = false;           // the self-check's reduced-scale graphs
  bool wrong_expected = false;  // self-check: offset the oracle so every job must fail
};

void PrintUsage() {
  std::fprintf(stderr,
               "usage: gminer_perfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--out DIR] [--small] [--wrong-expected]\nworkloads:");
  for (const Workload& w : Workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    char* end = nullptr;
    if (arg == "--small") {
      o->small = true;
    } else if (arg == "--wrong-expected") {
      o->wrong_expected = true;
    } else if (!has_value) {
      return false;
    } else if (arg == "--workload") {
      o->workload = argv[++i];
    } else if (arg == "--out") {
      o->out_dir = argv[++i];
    } else if (arg == "--seed") {
      o->seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds") {
      o->seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(o->seconds >= 0.0)) return false;
    } else if (arg == "--trace") {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return false;
      o->trace = v == "1";
    } else {
      return false;
    }
  }
  return FindWorkload(o->workload) != nullptr;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

struct JobSample {
  double job_s = 0.0;   // Cluster::Run wall time, submit to result
  double exec_s = 0.0;  // JobResult::elapsed_seconds
  double cpu_s = 0.0;   // process user + sys CPU during the call
  double mem_MB = 0.0;  // JobResult::peak_memory_bytes
  JobResult result;
};

class Runner {
 public:
  Runner(const Workload& w, const Graph& g, JobConfig config, uint64_t expected,
         SpanRecorder& spans)
      : w_(w), g_(g), config_(std::move(config)), expected_(expected), spans_(spans) {}

  JobSample Run(bool traced) {
    const std::unique_ptr<JobBase> job = MakeJob(w_.app);
    RunOptions options;
    options.enable_tracing = traced;
    JobSample s;
    {
      ScopedSpan span(spans_, traced ? "Cluster::Run traced" : "Cluster::Run");
      span.set_calls(1);
      const double cpu_before = ProcessCpuSeconds();
      const int64_t start = NowNs();
      s.result = Cluster(config_).Run(g_, *job, options);
      s.job_s = static_cast<double>(NowNs() - start) / 1e9;
      s.cpu_s = ProcessCpuSeconds() - cpu_before;
    }
    s.exec_s = s.result.elapsed_seconds;
    s.mem_MB = static_cast<double>(s.result.peak_memory_bytes) / 1e6;
    ++attempted_;
    const uint64_t answer = ResultOf(w_.app, s.result);
    if (s.result.status != JobStatus::kOk || answer != expected_) {
      ++failed_;
      std::fprintf(stderr, "job %d failed: status %s, result %" PRIu64 ", expected %" PRIu64 "\n",
                   attempted_, JobStatusName(s.result.status), answer, expected_);
    }
    std::fprintf(stderr, "job %d%s: job_s %.4f exec_s %.4f cpu_s %.4f mem_MB %.2f\n", attempted_,
                 traced ? " (traced)" : "", s.job_s, s.exec_s, s.cpu_s, s.mem_MB);
    s.result.outputs.clear();
    return s;
  }

  int attempted() const { return attempted_; }
  int failed() const { return failed_; }

 private:
  const Workload& w_;
  const Graph& g_;
  const JobConfig config_;
  const uint64_t expected_;
  SpanRecorder& spans_;
  int attempted_ = 0;
  int failed_ = 0;
};

template <typename Fn>
std::vector<double> Column(const std::vector<JobSample>& samples, Fn&& fn) {
  std::vector<double> v;
  v.reserve(samples.size());
  for (const JobSample& s : samples) {
    v.push_back(fn(s));
  }
  return v;
}

template <typename Fn>
double MedianOf(const std::vector<JobSample>& samples, Fn&& fn) {
  return Median(Column(samples, fn));
}

// The sample count, and the highest percentile that has at least ten jobs
// beyond it, when that percentile lies above the median.
std::string SampleNote(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  char note[96];
  if (v.size() <= 20) {
    std::snprintf(note, sizeof(note), "median of %zu untraced jobs", v.size());
  } else {
    const size_t i = v.size() - 11;
    std::snprintf(note, sizeof(note), "median of %zu untraced jobs; p%zu %.6g", v.size(),
                  100 * (i + 1) / v.size(), v[i]);
  }
  return note;
}

// Median over traced jobs of one stage's percentile, in microseconds; 0 when
// the stage never occurred (e.g. pull_wait with one worker).
double StageUs(const std::vector<JobSample>& traced, const char* stage, bool p99) {
  return MedianOf(traced, [&](const JobSample& s) {
    for (const StageLatency& l : s.result.stage_latencies) {
      if (l.stage == stage) {
        return static_cast<double>(p99 ? l.p99_ns : l.p50_ns) / 1e3;
      }
    }
    return 0.0;
  });
}

void PrintMetric(const Metric& m, const char* note) {
  std::printf("  %-28s %14.6g %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(), note);
}

void PrintJsonLine(bool correct, int attempted, int failed, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    PrintUsage();
    return 2;
  }
  const Workload& w = *FindWorkload(opt.workload);
  const std::string spill_dir = opt.out_dir + "/spill";
  std::error_code ec;
  std::filesystem::create_directories(spill_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", spill_dir.c_str(), ec.message().c_str());
    return 1;
  }
  SpanRecorder spans(opt.trace);
  const double scale = opt.small ? w.small_scale : w.scale;

  Graph g;
  {
    ScopedSpan span(spans, "MakeDataset");
    g = MakeDataset(w.dataset, scale, opt.seed);
  }
  uint64_t expected = 0;
  double serial_s = 0.0;
  {
    ScopedSpan span(spans, "serial oracle");
    const int64_t start = NowNs();
    expected = SerialResult(w.app, g);
    serial_s = static_cast<double>(NowNs() - start) / 1e9;
  }
  const uint64_t oracle = expected;
  if (opt.wrong_expected) {
    ++expected;
  }
  const JobConfig config = MakeConfig(w, opt.seed, spill_dir);
  Runner runner(w, g, config, expected, spans);

  runner.Run(/*traced=*/false);  // warm-up: checked, not timed
  std::vector<JobSample> untraced;
  std::vector<JobSample> traced;
  const int64_t deadline = NowNs() + static_cast<int64_t>(opt.seconds * 1e9);
  while (true) {
    const bool enough = opt.trace ? traced.size() >= kMinTracedJobs &&
                                        untraced.size() >= kMinTracedJobs
                                  : untraced.size() >= kMinJobs;
    if (enough && NowNs() >= deadline) {
      break;
    }
    if (opt.trace && traced.size() < untraced.size()) {
      traced.push_back(runner.Run(/*traced=*/true));
    } else {
      untraced.push_back(runner.Run(/*traced=*/false));
    }
  }

  const int compute_threads = config.num_workers * config.threads_per_worker;
  const int attempted = runner.attempted();
  const int failed = runner.failed();
  struct Timed {
    const char* name;
    const char* unit;
    std::vector<double> values;
  };
  const std::vector<Timed> timed = {
      {"job_s", "s", Column(untraced, [](const JobSample& s) { return s.job_s; })},
      {"exec_s", "s", Column(untraced, [](const JobSample& s) { return s.exec_s; })},
      {"setup_s", "s", Column(untraced, [](const JobSample& s) { return s.job_s - s.exec_s; })},
      {"cpu_s", "s", Column(untraced, [](const JobSample& s) { return s.cpu_s; })},
      {"mem_MB", "MB", Column(untraced, [](const JobSample& s) { return s.mem_MB; })},
  };
  std::vector<Metric> end_to_end;
  for (const Timed& t : timed) {
    end_to_end.push_back({t.name, Median(t.values), t.unit});
  }
  end_to_end.push_back({"ok_frac", static_cast<double>(attempted - failed) / attempted, "ratio"});
  const double job_s = end_to_end[0].value;
  const double exec_s = end_to_end[1].value;
  const Metric failed_frac = {"failed_frac", static_cast<double>(failed) / attempted, "ratio"};
  const std::vector<Metric> reference = {
      {"ref.serial_s", serial_s, "s"},
      {"ref.vs_serial", exec_s / serial_s, "ratio"},
  };

  std::printf("workload %s seed %" PRIu64 ": %s x%g (|V| = %u, |E| = %" PRIu64
              "), %d worker(s) x %d thread(s), expected result %" PRIu64 "\n",
              w.name.c_str(), opt.seed, w.dataset.c_str(), scale, g.num_vertices(),
              g.num_edges(), config.num_workers, config.threads_per_worker, oracle);
  std::printf("end to end (closed loop, one client; warm-up job discarded):\n");
  for (size_t i = 0; i < timed.size(); ++i) {
    PrintMetric(end_to_end[i], SampleNote(timed[i].values).c_str());
  }
  PrintMetric(end_to_end.back(), "jobs ok and equal to the oracle / jobs attempted");
  std::printf("not gated:\n");
  PrintMetric(failed_frac, "= 1 - ok_frac");
  for (const Metric& m : reference) {
    PrintMetric(m, "");
  }

  bool correct = failed == 0;
  if (!opt.trace) {
    PrintJsonLine(correct, attempted, failed, end_to_end);
    return 0;
  }

  const std::string replay_dir = opt.out_dir + "/replay";
  LayerReplay replay = ReplayLayers(w, g, config, replay_dir, spans);
  if (replay.app_result != expected) {
    std::fprintf(stderr, "apps replay result %" PRIu64 " != expected %" PRIu64 "\n",
                 replay.app_result, expected);
    correct = false;
  }
  const auto totals = [](const JobSample& s) -> const CountersSnapshot& {
    return s.result.totals;
  };
  std::vector<Metric>& layers = replay.metrics;
  const std::vector<Metric> from_runs = {
      {"core.task_store.spill_MB",
       MedianOf(untraced, [&](const JobSample& s) { return totals(s).disk_bytes_written / 1e6; }),
       "MB"},
      {"core.rcv_cache.hit_ratio",
       MedianOf(untraced, [&](const JobSample& s) { return totals(s).CacheHitRate(); }), "ratio"},
      {"net.MB", MedianOf(untraced, [&](const JobSample& s) { return totals(s).net_bytes_sent / 1e6; }),
       "MB"},
      {"net.msgs",
       MedianOf(untraced, [&](const JobSample& s) { return 1.0 * totals(s).net_messages; }),
       "count"},
      {"net.pull_ids",
       MedianOf(untraced, [&](const JobSample& s) { return 1.0 * totals(s).pull_requests; }),
       "count"},
      {"net.ids_per_batch",
       MedianOf(untraced,
                [&](const JobSample& s) {
                  const CountersSnapshot& t = totals(s);
                  return t.pull_batches_sent == 0
                             ? 0.0
                             : 1.0 * t.pull_requests / t.pull_batches_sent;
                }),
       "count"},
      {"net.dedup_hits",
       MedianOf(untraced, [&](const JobSample& s) { return 1.0 * totals(s).dedup_hits; }),
       "count"},
      {"core.compute_s",
       MedianOf(untraced, [&](const JobSample& s) { return totals(s).compute_busy_ns / 1e9; }),
       "s"},
      {"core.compute_share",
       MedianOf(untraced,
                [&](const JobSample& s) {
                  return totals(s).compute_busy_ns / 1e9 / (s.exec_s * compute_threads);
                }),
       "ratio"},
      {"core.cpu_util_pct",
       MedianOf(untraced, [](const JobSample& s) { return 100.0 * s.result.avg_cpu_utilization; }),
       "%"},
      {"core.steals",
       MedianOf(untraced, [&](const JobSample& s) { return 1.0 * totals(s).tasks_stolen_in; }),
       "count"},
      {"core.queue_wait_p50_us", StageUs(traced, "queue_wait", false), "us"},
      {"core.queue_wait_p99_us", StageUs(traced, "queue_wait", true), "us"},
      {"core.pull_wait_p50_us", StageUs(traced, "pull_wait", false), "us"},
      {"core.ready_wait_p50_us", StageUs(traced, "ready_wait", false), "us"},
      {"core.compute_p50_us", StageUs(traced, "compute", false), "us"},
      {"core.pull_rtt_p50_us", StageUs(traced, "pull_rtt", false), "us"},
      {"core.trace_dropped",
       MedianOf(traced, [](const JobSample& s) { return 1.0 * s.result.trace_events_dropped; }),
       "count"},
      {"trace.overhead",
       MedianOf(traced, [](const JobSample& s) { return s.job_s; }) / job_s, "ratio"},
  };
  layers.insert(layers.end(), from_runs.begin(), from_runs.end());
  layers.insert(layers.end(), reference.begin(), reference.end());

  std::printf("per layer (replayed calls; counters of the untraced jobs; stage spans of %zu "
              "traced jobs):\n",
              traced.size());
  for (const Metric& m : layers) {
    const bool sampled = m.name.starts_with("core.") && m.name.ends_with("_us");
    PrintMetric(m, sampled ? "sampled: trace rings drop events when full, see "
                             "core.trace_dropped"
                           : "");
  }
  const std::string span_file =
      opt.out_dir + "/spans-" + w.name + "-seed" + std::to_string(opt.seed) + ".json";
  if (!spans.WriteChromeTrace(span_file)) {
    std::fprintf(stderr, "cannot write %s\n", span_file.c_str());
    return 1;
  }
  std::printf("harness spans: %s (%zu spans)\n", span_file.c_str(), spans.size());
  std::filesystem::remove_all(replay_dir, ec);
  PrintJsonLine(correct, attempted, failed, layers);
  return 0;
}

}  // namespace
}  // namespace gminer::perfbench

int main(int argc, char** argv) { return gminer::perfbench::Main(argc, argv); }

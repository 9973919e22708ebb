// The benchmark's own spans: one around each call it makes into a layer (or
// around each group of calls, for per-item calls made hundreds of thousands
// of times) and one around each Cluster::Run. Spans stay in memory and are
// written as Chrome trace-event JSON (chrome://tracing, Perfetto) when the
// run ends.
#ifndef GMINER_PERFBENCH_SPANS_H_
#define GMINER_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace gminer::perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  // Opens a span as a child of the innermost open span. Returns its id, or
  // -1 when recording is off.
  int Open(std::string name) {
    if (!enabled_) {
      return -1;
    }
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), NowNs(), 0, open_.empty() ? -1 : open_.back(), 0});
    open_.push_back(id);
    return id;
  }

  // Closes span `id` (the innermost open one); `calls` is how many layer
  // calls it covers (0 = not a call group).
  void Close(int id, int64_t calls = 0) {
    if (id < 0) {
      return;
    }
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    spans_[static_cast<size_t>(id)].calls = calls;
    open_.pop_back();
  }

  size_t size() const { return spans_.size(); }

  // Writes every closed span as a complete ("X") trace event. Returns false
  // when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %zu, \"parent\": %d, \"calls\": %lld}}",
                   i == 0 ? "" : ",", s.name.c_str(),
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                   static_cast<long long>(s.calls));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;  // plain identifier text: no quotes or backslashes
    int64_t start_ns;
    int64_t end_ns;
    int parent;
    int64_t calls;
  };

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name)
      : recorder_(recorder), id_(recorder.Open(std::move(name))) {}
  ~ScopedSpan() { recorder_.Close(id_, calls_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_calls(int64_t calls) { calls_ = calls; }

 private:
  SpanRecorder& recorder_;
  int id_;
  int64_t calls_ = 0;
};

}  // namespace gminer::perfbench

#endif  // GMINER_PERFBENCH_SPANS_H_

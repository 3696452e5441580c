// In-memory span recorder for the benchmark's traced run.
//
// A span is recorded around each call the benchmark makes into a layer's
// public function: its name (the per-layer metric it feeds, e.g.
// "benign.make_s"), start, end, and the span that was open when it began.
// Spans stay in memory and are folded into per-layer self times when the
// run ends. With tracing off, Span() is a plain call: no clock is read, so
// the untraced run that yields the end-to-end metrics pays nothing.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Record {
    const char* name;
    double start;  ///< seconds since the tracer was created
    double end;
    int parent;  ///< index into records(), -1 for a top-level span
  };

  explicit Tracer(bool enabled)
      : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

  /// Runs f() inside a span called `name` and returns its result.
  template <typename F>
  decltype(auto) Span(const char* name, F&& f) {
    if (!enabled_) return std::forward<F>(f)();
    const Scope scope(*this, name);
    return std::forward<F>(f)();
  }

  const std::vector<Record>& records() const { return records_; }

  /// Self time per span name: each span's duration minus the part of it
  /// that its child spans cover, summed over all spans of that name.
  std::map<std::string, double> SelfSeconds() const {
    std::vector<double> self(records_.size());
    for (std::size_t i = 0; i < records_.size(); ++i) {
      self[i] = records_[i].end - records_[i].start;
    }
    for (const Record& r : records_) {
      if (r.parent >= 0) self[static_cast<std::size_t>(r.parent)] -= r.end - r.start;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      out[records_[i].name] += self[i];
    }
    return out;
  }

 private:
  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t), index_(t.records_.size()) {
      t_.records_.push_back({name, t_.Now(), 0.0, t_.open_});
      t_.open_ = static_cast<int>(index_);
    }
    ~Scope() {
      Record& r = t_.records_[index_];
      r.end = t_.Now();
      t_.open_ = r.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::size_t index_;
  };

  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Record> records_;
  int open_ = -1;
};

}  // namespace perfbench

// In-memory span recorder for the traced run.
//
// A span is (name, parent, start, end) on the steady clock, recorded from
// the benchmark's own code around one call into a layer.  Spans are kept
// in memory and written out when the run ends.  A disabled tracer records
// nothing, so the same pipeline code gives the untraced-equivalent pass
// that trace.overhead_share compares against.
#pragma once

#include <string>
#include <vector>

namespace bench {

class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;  ///< index into spans(), -1 for a root
    double start = 0, end = 0;
    double seconds() const { return end - start; }
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// RAII span; inert when the tracer is disabled.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  /// Total seconds of every span with this name (0 when absent).
  double seconds(const std::string& name) const;

  /// A span's duration minus the part its direct children cover.
  double self_seconds(int index) const;

  /// True when every span lies inside its parent's interval, siblings do
  /// not overlap, and each parent precedes its children.
  bool well_nested() const;

  /// One JSON object per line: {"name","parent","start_s","end_s"} with
  /// times relative to the first span's start.
  void write(const std::string& path) const;

  /// The traced table: one row per span, indented by depth, with its
  /// duration, self time and share of its root span.
  std::string table() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  int open_ = -1;  ///< innermost open span
};

}  // namespace bench

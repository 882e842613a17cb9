#include "trace.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"

namespace bench {

Tracer::Scope::Scope(Tracer& tracer, std::string name) : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  index_ = static_cast<int>(tracer_.spans_.size());
  tracer_.spans_.push_back({std::move(name), tracer_.open_, now_s(), 0});
  tracer_.open_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Span& span = tracer_.spans_[static_cast<std::size_t>(index_)];
  span.end = now_s();
  tracer_.open_ = span.parent;
}

double Tracer::seconds(const std::string& name) const {
  double total = 0;
  for (const Span& s : spans_)
    if (s.name == name) total += s.seconds();
  return total;
}

double Tracer::self_seconds(int index) const {
  double self = spans_[static_cast<std::size_t>(index)].seconds();
  for (const Span& s : spans_)
    if (s.parent == index) self -= s.seconds();
  return self;
}

bool Tracer::well_nested() const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end < s.start) return false;
    if (s.parent >= static_cast<int>(i)) return false;
    if (s.parent >= 0) {
      const Span& p = spans_[static_cast<std::size_t>(s.parent)];
      if (s.start < p.start || s.end > p.end) return false;
    }
    // The previous sibling (spans are appended in start order) must have
    // ended before this one started.
    for (std::size_t j = i; j-- > 0;) {
      if (spans_[j].parent != s.parent) continue;
      if (spans_[j].end > s.start) return false;
      break;
    }
  }
  return true;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  const double t0 = spans_.empty() ? 0 : spans_.front().start;
  char buf[96];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof buf, ",\"start_s\":%.9f,\"end_s\":%.9f}\n",
                  s.start - t0, s.end - t0);
    out << "{\"name\":\"" << s.name << "\",\"parent\":" << s.parent << buf;
  }
}

std::string Tracer::table() const {
  std::string out =
      "| span | ms | self ms | share of root |\n|---|---|---|---|\n";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    int depth = 0;
    int root = static_cast<int>(i);
    while (spans_[static_cast<std::size_t>(root)].parent >= 0) {
      root = spans_[static_cast<std::size_t>(root)].parent;
      ++depth;
    }
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf, "| %s%s | %.3f | %.3f | %.4f |\n",
                  std::string(2 * static_cast<std::size_t>(depth), '.').c_str(),
                  s.name.c_str(), s.seconds() * 1e3,
                  self_seconds(static_cast<int>(i)) * 1e3,
                  s.seconds() /
                      spans_[static_cast<std::size_t>(root)].seconds());
    out += buf;
  }
  return out;
}

}  // namespace bench

#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace servebench {

int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Tracer::NextId() {
  return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
}

void Tracer::Record(const Span& span) {
  kspdg::MutexLock lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::Spans() const {
  kspdg::MutexLock lock(mu_);
  return spans_;
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,request,name,start_ns,end_ns\n");
  for (const Span& s : Spans()) {
    std::fprintf(f, "%llu,%llu,%llu,%s,%lld,%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, uint64_t parent,
                       uint64_t request)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.parent = parent;
  span_.request = request;
  span_.id = tracer_->NextId();
  span_.start_ns = Tracer::NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = Tracer::NowNs();
  tracer_->Record(span_);
}

namespace {

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the span).
std::unordered_map<uint64_t, int64_t> SelfNs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::unordered_map<uint64_t, int64_t> self;
  self.reserve(spans.size());
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>>& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_start = 0, cur_end = -1;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start_ns);
        b = std::min(b, s.end_ns);
        if (b <= a) continue;
        if (a > cur_end) {
          if (cur_end > cur_start) covered += cur_end - cur_start;
          cur_start = a;
          cur_end = b;
        } else {
          cur_end = std::max(cur_end, b);
        }
      }
      if (cur_end > cur_start) covered += cur_end - cur_start;
    }
    self[s.id] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

}  // namespace

std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, int64_t> self = SelfNs(spans);
  std::map<std::string, SpanTotals> out;
  for (const Span& s : spans) {
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    t.self_ms += static_cast<double>(self[s.id]) / 1e6;
  }
  return out;
}

std::map<uint64_t, double> PerRequestMs(const std::vector<Span>& spans,
                                        const std::string& name,
                                        bool self_time) {
  std::unordered_map<uint64_t, int64_t> self;
  if (self_time) self = SelfNs(spans);
  std::map<uint64_t, double> out;
  for (const Span& s : spans) {
    if (name != s.name) continue;
    int64_t ns = self_time ? self[s.id] : s.end_ns - s.start_ns;
    out[s.request] += static_cast<double>(ns) / 1e6;
  }
  return out;
}

}  // namespace servebench

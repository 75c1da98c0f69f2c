#include "trace.h"

#include <chrono>
#include <unordered_map>

namespace uxmbench {

namespace {

// The innermost open span on this thread (0 = none) and its request.
thread_local uint64_t tls_parent = 0;
thread_local uint64_t tls_request = 0;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.id = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = tls_parent;
  span_.request = tls_parent == 0 ? span_.id : tls_request;
  saved_parent_ = tls_parent;
  saved_request_ = tls_request;
  tls_parent = span_.id;
  tls_request = span_.request;
  span_.start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  tls_parent = saved_parent_;
  tls_request = saved_request_;
  tracer_->Record(span_);
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

void Tracer::Count(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += value;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> Tracer::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::map<std::string, SpanStats> Tracer::Aggregate() const {
  const std::vector<Span> all = spans();
  // Children of one span run on the parent's thread one after another,
  // so the time they cover is the sum of their durations.
  std::unordered_map<uint64_t, double> child_us;
  for (const Span& s : all) {
    if (s.parent != 0) child_us[s.parent] += s.duration_us();
  }
  std::map<std::string, SpanStats> out;
  for (const Span& s : all) {
    SpanStats& st = out[s.name];
    ++st.count;
    st.durations_us.push_back(s.duration_us());
    st.total_us += s.duration_us();
    const auto it = child_us.find(s.id);
    st.self_us += s.duration_us() - (it == child_us.end() ? 0.0 : it->second);
  }
  return out;
}

}  // namespace uxmbench

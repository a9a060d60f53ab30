// Registry storage: name -> metric maps with stable references. A deque
// never relocates elements, so a reference handed out once stays valid for
// the process lifetime even as registration continues.
#include "obs/obs.hpp"

#include <chrono>

#ifndef HSIS_OBS_DISABLE
#include <algorithm>
#include <deque>
#include <mutex>
#include <unordered_map>
#endif

namespace hsis::obs {

uint64_t WallTimer::nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

#ifndef HSIS_OBS_DISABLE

struct Registry::Impl {
  mutable std::mutex mu;
  std::deque<Counter> counters;
  std::deque<Gauge> gauges;
  std::deque<Histogram> histograms;
  std::unordered_map<std::string, size_t> counterIdx;
  std::unordered_map<std::string, size_t> gaugeIdx;
  std::unordered_map<std::string, size_t> histogramIdx;
};

Registry& Registry::instance() {
  static Registry r;
  return r;
}

Registry::Impl& Registry::impl() const {
  // Intentionally leaked: exporters may run from atexit handlers after
  // ordinary static destructors, so the registry must outlive everything.
  static Impl* impl = new Impl;
  return *impl;
}

Counter& Registry::counter(std::string_view name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto [it, fresh] = im.counterIdx.try_emplace(std::string(name), im.counters.size());
  if (fresh) im.counters.emplace_back();
  return im.counters[it->second];
}

Gauge& Registry::gauge(std::string_view name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto [it, fresh] = im.gaugeIdx.try_emplace(std::string(name), im.gauges.size());
  if (fresh) im.gauges.emplace_back();
  return im.gauges[it->second];
}

Histogram& Registry::histogram(std::string_view name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto [it, fresh] =
      im.histogramIdx.try_emplace(std::string(name), im.histograms.size());
  if (fresh) im.histograms.emplace_back();
  return im.histograms[it->second];
}

void Registry::resetAll() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  for (Counter& c : im.counters) c.reset();
  for (Gauge& g : im.gauges) g.reset();
  for (Histogram& h : im.histograms) h.reset();
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  touch_.clear();
}

std::vector<MetricSample> Registry::collect() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::vector<MetricSample> out;
  out.reserve(im.counterIdx.size() + im.gaugeIdx.size() +
              im.histogramIdx.size());
  for (const auto& [name, idx] : im.counterIdx) {
    if (!im.counters[idx].touched()) continue;
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::Counter;
    s.value = static_cast<int64_t>(im.counters[idx].value());
    out.push_back(std::move(s));
  }
  for (const auto& [name, idx] : im.gaugeIdx) {
    if (!im.gauges[idx].touched()) continue;
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::Gauge;
    s.value = im.gauges[idx].value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, idx] : im.histogramIdx) {
    const Histogram& h = im.histograms[idx];
    if (!h.touched()) continue;
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::Histogram;
    s.count = h.count();
    s.sum = h.sum();
    s.value = static_cast<int64_t>(s.count);
    s.max = h.maxValue();
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      uint64_t c = h.bucketCount(b);
      if (c != 0) s.buckets.emplace_back(Histogram::bucketLow(b), c);
    }
    // Bucketed quantiles: the inclusive lower bound of the bucket where the
    // cumulative count first crosses the quantile. Exact for max (tracked
    // separately); a lower bound for p50/p90, good enough for a table.
    if (s.count > 0) {
      uint64_t n50 = (s.count + 1) / 2;          // ceil(count * 0.50)
      uint64_t n90 = (s.count * 9 + 9) / 10;     // ceil(count * 0.90)
      uint64_t n99 = (s.count * 99 + 99) / 100;  // ceil(count * 0.99)
      uint64_t cum = 0;
      for (const auto& [low, c] : s.buckets) {
        uint64_t prev = cum;
        cum += c;
        if (prev < n50 && n50 <= cum) s.p50 = low;
        if (prev < n90 && n90 <= cum) s.p90 = low;
        if (prev < n99 && n99 <= cum) s.p99 = low;
      }
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return out;
}

HistogramSummary summarizeHistogram(const Histogram& h) {
  HistogramSummary s;
  s.count = h.count();
  s.sum = h.sum();
  s.max = h.maxValue();
  if (s.count == 0) return s;
  const uint64_t n50 = (s.count + 1) / 2;
  const uint64_t n90 = (s.count * 9 + 9) / 10;
  const uint64_t n99 = (s.count * 99 + 99) / 100;
  uint64_t cum = 0;
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    const uint64_t c = h.bucketCount(b);
    if (c == 0) continue;
    const uint64_t prev = cum;
    cum += c;
    const uint64_t low = Histogram::bucketLow(b);
    if (prev < n50 && n50 <= cum) s.p50 = low;
    if (prev < n90 && n90 <= cum) s.p90 = low;
    if (prev < n99 && n99 <= cum) s.p99 = low;
  }
  return s;
}

#else  // HSIS_OBS_DISABLE

HistogramSummary summarizeHistogram(const Histogram&) { return {}; }

Counter Registry::dummyCounter_;
Gauge Registry::dummyGauge_;
Histogram Registry::dummyHistogram_;

Registry& Registry::instance() {
  static Registry r;
  return r;
}

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

#endif  // HSIS_OBS_DISABLE

std::string histogramSummaryJson(const HistogramSummary& s) {
  // Key set is part of the contract (consumers assert it); only the values
  // switch between numbers and null.
  std::string out = "{\"count\": " + std::to_string(s.count);
  auto quantile = [&](const char* name, uint64_t v) {
    out += ", \"";
    out += name;
    out += "\": ";
    out += s.count == 0 ? "null" : std::to_string(v);
  };
  quantile("p50", s.p50);
  quantile("p90", s.p90);
  quantile("p99", s.p99);
  quantile("max", s.max);
  out += "}";
  return out;
}

}  // namespace hsis::obs

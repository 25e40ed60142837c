#include "stats.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace apnabench {

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double>& v) { return percentile(v, 0.5); }

namespace {

std::size_t window_of(std::int64_t at_ns, std::int64_t start_ns,
                      std::int64_t span_ns, std::size_t windows) {
  if (at_ns <= start_ns || span_ns <= 0) return 0;
  const auto w = static_cast<std::size_t>(
      static_cast<double>(at_ns - start_ns) / static_cast<double>(span_ns) *
      static_cast<double>(windows));
  return std::min(w, windows - 1);
}

}  // namespace

WindowedSamples::WindowedSamples(std::size_t windows, std::int64_t start_ns,
                                 std::int64_t span_ns)
    : start_ns_(start_ns),
      span_ns_(span_ns),
      windows_(std::max<std::size_t>(windows, 1)) {}

void WindowedSamples::add(std::int64_t at_ns, double value) {
  windows_[window_of(at_ns, start_ns_, span_ns_, windows_.size())].push_back(
      value);
}

std::size_t WindowedSamples::count() const {
  std::size_t n = 0;
  for (const auto& w : windows_) n += w.size();
  return n;
}

std::vector<double> WindowedSamples::window_quantiles(double q,
                                                      std::size_t min_per_window) {
  std::vector<double> per_window;
  for (auto& w : windows_)
    if (w.size() >= min_per_window && !w.empty())
      per_window.push_back(percentile(w, q));
  return per_window;
}

WindowedCounter::WindowedCounter(std::size_t windows, std::int64_t start_ns,
                                 std::int64_t span_ns)
    : start_ns_(start_ns),
      span_ns_(span_ns),
      counts_(std::max<std::size_t>(windows, 1), 0) {}

void WindowedCounter::add(std::int64_t at_ns, std::uint64_t n) {
  counts_[window_of(at_ns, start_ns_, span_ns_, counts_.size())] += n;
}

std::vector<double> WindowedCounter::rates_per_s() const {
  const double window_s =
      static_cast<double>(span_ns_) / 1e9 / static_cast<double>(counts_.size());
  std::vector<double> rates;
  if (window_s <= 0) return rates;
  for (const std::uint64_t c : counts_)
    rates.push_back(static_cast<double>(c) / window_s);
  return rates;
}

double rate_over_windows(const std::vector<WindowedCounter>& rounds, double over) {
  std::vector<double> all;
  for (const WindowedCounter& r : rounds) {
    const std::vector<double> rates = r.rates_per_s();
    all.insert(all.end(), rates.begin(), rates.end());
  }
  return percentile(all, over);
}

double quantile_over_windows(std::vector<WindowedSamples>& rounds, double q,
                             double over, std::size_t min_per_window) {
  std::vector<double> all;
  for (WindowedSamples& r : rounds) {
    const std::vector<double> qs = r.window_quantiles(q, min_per_window);
    all.insert(all.end(), qs.begin(), qs.end());
  }
  if (all.empty()) return pooled(rounds, q);
  return percentile(all, over);
}

double pooled(const std::vector<WindowedSamples>& rounds, double q) {
  std::vector<double> all;
  for (const WindowedSamples& r : rounds)
    for (const auto& w : r.windows()) all.insert(all.end(), w.begin(), w.end());
  return percentile(all, q);
}

std::size_t Log2Histogram::bucket_of(std::uint64_t v) {
  return v == 0 ? 0 : static_cast<std::size_t>(std::bit_width(v));
}

void Log2Histogram::add(std::uint64_t v) {
  ++buckets_[bucket_of(v)];
  ++count_;
}

}  // namespace apnabench

// Percentiles, windowed medians and a log2 histogram — the arithmetic every
// reported figure goes through (pinned against known inputs by the
// self-test).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace apnabench {

/// The q-quantile (0 <= q <= 1) of `v` by linear interpolation between the
/// closest ranks (position q * (n - 1) in sorted order). Sorts `v` in place.
/// 0 for an empty input.
double percentile(std::vector<double>& v, double q);

/// Median of `v` (percentile 0.5). Sorts in place.
double median(std::vector<double>& v);

/// Samples split into equal-length time windows of a phase, so a figure can
/// be read from a quantile over windows of a per-window statistic: a slow
/// window (another tenant of the host running) then moves the figure by at
/// most one rank instead of dragging the whole phase.
class WindowedSamples {
 public:
  /// `windows` windows covering [start_ns, start_ns + span_ns).
  WindowedSamples(std::size_t windows, std::int64_t start_ns,
                  std::int64_t span_ns);

  /// Files `value` under the window containing `at_ns` (clamped to the
  /// first/last window).
  void add(std::int64_t at_ns, double value);

  std::size_t count() const;

  /// The per-window q-quantiles of windows holding at least
  /// `min_per_window` samples.
  std::vector<double> window_quantiles(double q, std::size_t min_per_window);

  const std::vector<std::vector<double>>& windows() const { return windows_; }

 private:
  std::int64_t start_ns_;
  std::int64_t span_ns_;
  std::vector<std::vector<double>> windows_;
};

/// Counts per window of a phase, for rates.
class WindowedCounter {
 public:
  WindowedCounter(std::size_t windows, std::int64_t start_ns,
                  std::int64_t span_ns);
  void add(std::int64_t at_ns, std::uint64_t n = 1);
  /// Per-second rate of each window.
  std::vector<double> rates_per_s() const;

 private:
  std::int64_t start_ns_;
  std::int64_t span_ns_;
  std::vector<std::uint64_t> counts_;
};

/// The reported figures are the median window: on a shared host the speed
/// switches between regimes every few seconds, and a quartile of the windows
/// lands on one regime or the other depending on how a run's time split.
constexpr double kRateOverWindows = 0.5;     // median of window rates
constexpr double kLatencyOverWindows = 0.5;  // median of window quantiles

/// A phase measured in several rounds (interleaved with other phases, so
/// each figure samples the whole run rather than one stretch of it).
///
/// The `over`-quantile of the per-second rates of every window of every
/// round.
double rate_over_windows(const std::vector<WindowedCounter>& rounds, double over);
/// The `over`-quantile, over every window of every round holding at least
/// `min_per_window` samples, of that window's q-quantile; the pooled
/// q-quantile when no window qualifies.
double quantile_over_windows(std::vector<WindowedSamples>& rounds, double q,
                             double over, std::size_t min_per_window);
/// q-quantile of every sample of every round pooled.
double pooled(const std::vector<WindowedSamples>& rounds, double q);

/// Power-of-two bucketed histogram of non-negative integers (bucket b
/// holds values in [2^(b-1), 2^b), bucket 0 holds 0). Used for the span
/// self-time summaries written with a trace.
class Log2Histogram {
 public:
  void add(std::uint64_t v);
  std::uint64_t count() const { return count_; }
  std::uint64_t bucket(std::size_t b) const { return buckets_[b]; }
  static std::size_t bucket_of(std::uint64_t v);

 private:
  std::array<std::uint64_t, 65> buckets_{};
  std::uint64_t count_ = 0;
};

}  // namespace apnabench

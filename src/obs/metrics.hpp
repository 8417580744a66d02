// Metrics registry: the process-wide (or per-experiment) catalogue of
// counters, gauges and log-bucketed histograms, registered by name + labels.
// Servers, the reliable transport, the fault injector and the monitoring
// collector all publish into one registry, and the JSONL exporter turns it
// into the machine-readable sidecar every bench emits. Instruments have
// stable addresses once registered, so hot paths can cache pointers and skip
// the name lookup.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace roia::obs {

/// Label set of one instrument, canonicalized (sorted by key) on
/// registration so {a=1,b=2} and {b=2,a=1} name the same instrument.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing event count.
class Counter {
 public:
  void increment(std::uint64_t delta = 1) { value_ += delta; }
  /// Mirrors an externally maintained monotone total (e.g. ReliableStats);
  /// never moves backwards.
  void setTotal(std::uint64_t total) {
    if (total > value_) value_ = total;
  }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_{0};
};

/// Last-written instantaneous value.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double delta) { value_ += delta; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_{0.0};
};

/// Log-bucketed histogram: bucket i covers [min * growth^i, min * growth^(i+1)).
/// Geometric buckets bound the *relative* quantile error by the growth
/// factor, which is what tick-duration distributions need — 0.1 ms and
/// 100 ms resolve equally well. Two histograms with the same config merge
/// bucket-wise (for aggregating per-server into per-zone distributions).
class LogHistogram {
 public:
  struct Config {
    /// Lower edge of the first bucket; samples below land in underflow.
    double minValue{1e-3};
    /// Upper edge of the last bucket; samples at or above land in overflow.
    double maxValue{1e7};
    /// Bucket width ratio. 2^(1/8) keeps quantile estimates within ~4.5%.
    double growth{1.0905077326652577};

    [[nodiscard]] bool operator==(const Config&) const = default;
  };

  LogHistogram() : LogHistogram(Config{}) {}
  explicit LogHistogram(Config config);

  void add(double x);
  /// Adds the other histogram's samples; configs must match exactly.
  void merge(const LogHistogram& other);
  void reset();

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }

  /// Quantile estimate (q in [0, 1]) by nearest rank over the buckets; the
  /// in-bucket position is the geometric midpoint, clamped to the observed
  /// min/max so the estimate never leaves the sampled range.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] std::size_t bucketCount() const { return counts_.size(); }
  [[nodiscard]] std::uint64_t bucketHits(std::size_t i) const { return counts_.at(i); }
  [[nodiscard]] double bucketLow(std::size_t i) const;
  [[nodiscard]] double bucketHigh(std::size_t i) const;
  [[nodiscard]] std::uint64_t underflow() const { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }

 private:
  [[nodiscard]] std::size_t bucketIndex(double x) const;

  Config config_;
  double logMin_;
  double logGrowth_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_{0};
  std::uint64_t overflow_{0};
  std::uint64_t count_{0};
  double sum_{0.0};
  double min_{0.0};
  double max_{0.0};
  /// Whether min_/max_ hold a real sample: non-finite samples are counted
  /// (in count_ and under/overflow) but excluded from the moments.
  bool haveFinite_{false};
};

/// Name + labels → instrument. Reference-stable: registered instruments
/// never move, so callers may cache the returned references across the
/// lifetime of the registry.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name, Labels labels = {});
  Gauge& gauge(std::string_view name, Labels labels = {});
  LogHistogram& histogram(std::string_view name, Labels labels = {},
                          LogHistogram::Config config = {});

  /// Lookup without creating; nullptr when the instrument does not exist.
  [[nodiscard]] const Counter* findCounter(std::string_view name, const Labels& labels = {}) const;
  [[nodiscard]] const LogHistogram* findHistogram(std::string_view name,
                                                  const Labels& labels = {}) const;

  [[nodiscard]] std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// One JSON object per instrument per line (histograms with p50/p95/p99).
  void writeJsonl(std::ostream& out) const;

 private:
  struct Key {
    std::string name;
    Labels labels;
    auto operator<=>(const Key&) const = default;
  };

  static Key makeKey(std::string_view name, Labels labels);

  // unique_ptr values keep instrument addresses stable across rehash/insert.
  std::map<Key, std::unique_ptr<Counter>> counters_;
  std::map<Key, std::unique_ptr<Gauge>> gauges_;
  std::map<Key, std::unique_ptr<LogHistogram>> histograms_;
};

}  // namespace roia::obs

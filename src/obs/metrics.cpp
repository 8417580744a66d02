#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>

#include "obs/json.hpp"

namespace roia::obs {

LogHistogram::LogHistogram(Config config) : config_(config) {
  if (!(config_.minValue > 0.0) || !(config_.maxValue > config_.minValue) ||
      !(config_.growth > 1.0)) {
    throw std::invalid_argument("LogHistogram: need 0 < minValue < maxValue and growth > 1");
  }
  logMin_ = std::log(config_.minValue);
  logGrowth_ = std::log(config_.growth);
  const auto buckets = static_cast<std::size_t>(
      std::ceil((std::log(config_.maxValue) - logMin_) / logGrowth_));
  counts_.assign(std::max<std::size_t>(1, buckets), 0);
}

std::size_t LogHistogram::bucketIndex(double x) const {
  auto i = static_cast<std::size_t>(
      std::max(0.0, (std::log(x) - logMin_) / logGrowth_));
  // The log-ratio of an exact bucket boundary can land an ulp on either
  // side of the integer; nudge against the true (pow-computed) edges so a
  // boundary value always lands in the bucket whose low edge it is.
  if (i + 1 < counts_.size() && x >= bucketLow(i + 1)) {
    ++i;
  } else if (i > 0 && x < bucketLow(i)) {
    --i;
  }
  return i;
}

void LogHistogram::add(double x) {
  // Non-finite samples are tallied (count + under/overflow) but excluded
  // from the moments: a single NaN must not poison min/max/sum and turn
  // every later quantile() into NaN.
  if (!std::isfinite(x)) {
    ++count_;
    if (x > 0.0) {
      ++overflow_;  // +inf
    } else {
      ++underflow_;  // NaN, -inf
    }
    return;
  }
  if (!haveFinite_) {
    min_ = max_ = x;
    haveFinite_ = true;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  if (!(x >= config_.minValue)) {  // also catches non-positives
    ++underflow_;
  } else if (x >= config_.maxValue) {
    ++overflow_;
  } else {
    const std::size_t i = std::min(bucketIndex(x), counts_.size() - 1);
    ++counts_[i];
  }
}

void LogHistogram::merge(const LogHistogram& other) {
  if (!(config_ == other.config_)) {
    throw std::invalid_argument("LogHistogram::merge: mismatched configs");
  }
  if (other.count_ == 0) return;
  if (other.haveFinite_) {
    if (!haveFinite_) {
      min_ = other.min_;
      max_ = other.max_;
      haveFinite_ = true;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
  }
  count_ += other.count_;
  sum_ += other.sum_;
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
}

void LogHistogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  underflow_ = overflow_ = count_ = 0;
  sum_ = min_ = max_ = 0.0;
  haveFinite_ = false;
}

double LogHistogram::bucketLow(std::size_t i) const {
  return config_.minValue * std::pow(config_.growth, static_cast<double>(i));
}

double LogHistogram::bucketHigh(std::size_t i) const { return bucketLow(i + 1); }

double LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank: the (rank+1)-th smallest sample, rank in [0, count).
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1));
  std::uint64_t seen = underflow_;
  if (rank < seen) return min_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (rank < seen) {
      const double mid = std::sqrt(bucketLow(i) * bucketHigh(i));
      return std::clamp(mid, min_, max_);
    }
  }
  return max_;  // overflow bucket
}

MetricsRegistry::Key MetricsRegistry::makeKey(std::string_view name, Labels labels) {
  std::sort(labels.begin(), labels.end());
  return Key{std::string(name), std::move(labels)};
}

Counter& MetricsRegistry::counter(std::string_view name, Labels labels) {
  auto& slot = counters_[makeKey(name, std::move(labels))];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(std::string_view name, Labels labels) {
  auto& slot = gauges_[makeKey(name, std::move(labels))];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

LogHistogram& MetricsRegistry::histogram(std::string_view name, Labels labels,
                                         LogHistogram::Config config) {
  auto& slot = histograms_[makeKey(name, std::move(labels))];
  if (!slot) slot = std::make_unique<LogHistogram>(config);
  return *slot;
}

const Counter* MetricsRegistry::findCounter(std::string_view name, const Labels& labels) const {
  const auto it = counters_.find(makeKey(name, labels));
  return it == counters_.end() ? nullptr : it->second.get();
}

const LogHistogram* MetricsRegistry::findHistogram(std::string_view name,
                                                   const Labels& labels) const {
  const auto it = histograms_.find(makeKey(name, labels));
  return it == histograms_.end() ? nullptr : it->second.get();
}

namespace {

std::string labelsAsJson(const Labels& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out.push_back(',');
    first = false;
    appendJsonString(out, k);
    out.push_back(':');
    appendJsonString(out, v);
  }
  out.push_back('}');
  return out;
}

}  // namespace

void MetricsRegistry::writeJsonl(std::ostream& out) const {
  std::string line;
  const auto emit = [&](std::string_view kind, const Key& key, auto&& body) {
    line.clear();
    line += "{\"kind\":";
    appendJsonString(line, kind);
    line += ",\"name\":";
    appendJsonString(line, key.name);
    line += ",\"labels\":";
    line += labelsAsJson(key.labels);
    body(line);
    line += "}";
    out << line << '\n';
  };
  for (const auto& [key, c] : counters_) {
    emit("counter", key, [&](std::string& l) {
      l += ",\"value\":" + std::to_string(c->value());
    });
  }
  for (const auto& [key, g] : gauges_) {
    emit("gauge", key, [&](std::string& l) {
      l += ",\"value\":";
      appendJsonNumber(l, g->value());
    });
  }
  for (const auto& [key, h] : histograms_) {
    emit("histogram", key, [&](std::string& l) {
      l += ",\"count\":" + std::to_string(h->count());
      l += ",\"sum\":";
      appendJsonNumber(l, h->sum());
      l += ",\"min\":";
      appendJsonNumber(l, h->min());
      l += ",\"max\":";
      appendJsonNumber(l, h->max());
      l += ",\"p50\":";
      appendJsonNumber(l, h->quantile(0.5));
      l += ",\"p95\":";
      appendJsonNumber(l, h->quantile(0.95));
      l += ",\"p99\":";
      appendJsonNumber(l, h->quantile(0.99));
    });
  }
}

}  // namespace roia::obs

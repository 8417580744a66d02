// Unit and property tests for the common substrate: ids, time types,
// deterministic RNG, statistics accumulators and math helpers.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace roia {
namespace {

// ---------- ids ----------

TEST(Ids, DefaultIsInvalid) {
  ServerId id;
  EXPECT_FALSE(id.valid());
  EXPECT_TRUE(ServerId{3}.valid());
}

TEST(Ids, ComparesByValue) {
  EXPECT_EQ(ClientId{7}, ClientId{7});
  EXPECT_NE(ClientId{7}, ClientId{8});
  EXPECT_LT(ClientId{7}, ClientId{8});
}

TEST(Ids, HashIsUsable) {
  std::set<EntityId> set{EntityId{1}, EntityId{2}, EntityId{1}};
  EXPECT_EQ(set.size(), 2u);
}

// ---------- time ----------

TEST(SimTimeTest, ArithmeticIsExact) {
  const SimTime t{1000};
  const SimDuration d = SimDuration::milliseconds(3);
  EXPECT_EQ((t + d).micros, 4000);
  EXPECT_EQ((t + d - d).micros, 1000);
  EXPECT_EQ(((t + d) - t).micros, 3000);
}

TEST(SimTimeTest, Conversions) {
  EXPECT_DOUBLE_EQ(SimDuration::milliseconds(40).asMillis(), 40.0);
  EXPECT_DOUBLE_EQ(SimDuration::seconds(2).asSeconds(), 2.0);
  EXPECT_DOUBLE_EQ(SimTime{1500000}.asSeconds(), 1.5);
}

TEST(SimTimeTest, Ordering) {
  EXPECT_LT(SimTime{1}, SimTime{2});
  EXPECT_LT(SimDuration::milliseconds(1), SimDuration::milliseconds(2));
  EXPECT_EQ(SimTime::max(), SimTime::max());
}

TEST(SimTimeTest, DurationScaling) {
  EXPECT_EQ((SimDuration::milliseconds(3) * 4).micros, 12000);
  EXPECT_EQ((4 * SimDuration::milliseconds(3)).micros, 12000);
}

// ---------- rng ----------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.nextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntBoundsInclusive) {
  Rng rng(9);
  bool sawLo = false, sawHi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.uniformInt(3, 7);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 7u);
    sawLo |= (v == 3);
    sawHi |= (v == 7);
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng(1);
  EXPECT_EQ(rng.uniformInt(5, 5), 5u);
  EXPECT_EQ(rng.uniformInt(9, 3), 9u);  // lo >= hi returns lo
}

TEST(RngTest, ChanceEdges) {
  Rng rng(11);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
  EXPECT_FALSE(rng.chance(-0.5));
  EXPECT_TRUE(rng.chance(1.5));
}

TEST(RngTest, ChanceApproximatesProbability) {
  Rng rng(13);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  StatAccumulator acc;
  for (int i = 0; i < 50000; ++i) acc.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(acc.mean(), 10.0, 0.05);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(19);
  StatAccumulator acc;
  for (int i = 0; i < 50000; ++i) acc.add(rng.exponential(4.0));
  EXPECT_NEAR(acc.mean(), 4.0, 0.1);
  EXPECT_GE(acc.min(), 0.0);
}

TEST(RngTest, SplitStreamsAreIndependentAndDeterministic) {
  const Rng parent(123);
  Rng childA = parent.split(1);
  Rng childA2 = parent.split(1);
  Rng childB = parent.split(2);
  int equalAB = 0;
  for (int i = 0; i < 64; ++i) {
    const auto a = childA.next();
    EXPECT_EQ(a, childA2.next());  // same salt -> same stream
    if (a == childB.next()) ++equalAB;
  }
  EXPECT_LT(equalAB, 3);
}

TEST(SplitMixTest, KnownFirstValueIsStable) {
  SplitMix64 sm(0);
  const auto v1 = sm.next();
  SplitMix64 sm2(0);
  EXPECT_EQ(v1, sm2.next());
  EXPECT_NE(v1, sm.next());
}

// ---------- stats ----------

TEST(StatAccumulatorTest, EmptyIsSafe) {
  StatAccumulator acc;
  EXPECT_TRUE(acc.empty());
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.min(), 0.0);
}

TEST(StatAccumulatorTest, KnownValues) {
  StatAccumulator acc;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(v);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
  EXPECT_EQ(acc.count(), 8u);
}

TEST(StatAccumulatorTest, MergeMatchesSequential) {
  StatAccumulator whole, a, b;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-5, 5);
    whole.add(v);
    (i % 2 == 0 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(StatAccumulatorTest, MergeWithEmpty) {
  StatAccumulator a, empty;
  a.add(1.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(EwmaTest, FirstSampleInitializes) {
  Ewma ewma(0.5);
  EXPECT_FALSE(ewma.initialized());
  ewma.add(10.0);
  EXPECT_TRUE(ewma.initialized());
  EXPECT_DOUBLE_EQ(ewma.value(), 10.0);
  ewma.add(0.0);
  EXPECT_DOUBLE_EQ(ewma.value(), 5.0);
}

TEST(EwmaTest, ConvergesToConstant) {
  Ewma ewma(0.2);
  for (int i = 0; i < 200; ++i) ewma.add(3.0);
  EXPECT_NEAR(ewma.value(), 3.0, 1e-9);
}

TEST(HistogramTest, BucketsAndOutOfRange) {
  Histogram h(0.0, 10.0, 10);
  h.add(-1.0);
  h.add(0.0);
  h.add(5.5);
  h.add(9.999);
  h.add(10.0);
  h.add(100.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(5), 1u);
  EXPECT_EQ(h.bucket(9), 1u);
}

TEST(HistogramTest, QuantileOfUniformData) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i) + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.quantile(0.9), 90.0, 1.5);
  EXPECT_NEAR(h.quantile(0.0), 0.0, 1.5);
}

TEST(HistogramTest, InvalidConstruction) {
  EXPECT_THROW(Histogram(0.0, 0.0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(WindowedAverageTest, EvictsOldSamples) {
  WindowedAverage w(SimDuration::seconds(1));
  w.add(SimTime{0}, 10.0);
  w.add(SimTime{500000}, 20.0);
  EXPECT_DOUBLE_EQ(w.average(), 15.0);
  // 2.0 s: the first two samples fall outside the 1 s window.
  w.add(SimTime{2000000}, 30.0);
  EXPECT_DOUBLE_EQ(w.average(), 30.0);
  EXPECT_EQ(w.size(), 1u);
}

TEST(SampleSeriesTest, AddAndSize) {
  SampleSeries s;
  EXPECT_TRUE(s.empty());
  s.add(1.0, 2.0);
  s.add(3.0, 4.0);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.x[1], 3.0);
  EXPECT_DOUBLE_EQ(s.y[1], 4.0);
}

// ---------- math ----------

TEST(Vec2Test, BasicOps) {
  const Vec2 a{3, 4};
  EXPECT_DOUBLE_EQ(a.length(), 5.0);
  EXPECT_DOUBLE_EQ(a.lengthSq(), 25.0);
  EXPECT_DOUBLE_EQ(a.distance({0, 0}), 5.0);
  EXPECT_DOUBLE_EQ((a + Vec2{1, 1}).x, 4.0);
  EXPECT_DOUBLE_EQ((a - Vec2{1, 1}).y, 3.0);
  EXPECT_DOUBLE_EQ((a * 2.0).x, 6.0);
  EXPECT_DOUBLE_EQ(a.dot({1, 0}), 3.0);
}

TEST(Vec2Test, NormalizedHandlesZero) {
  EXPECT_EQ(Vec2{}.normalized(), Vec2{});
  const Vec2 n = Vec2{10, 0}.normalized();
  EXPECT_DOUBLE_EQ(n.x, 1.0);
  EXPECT_DOUBLE_EQ(n.y, 0.0);
}

TEST(PolynomialTest, HornerMatchesDirect) {
  const std::vector<double> coeffs{1.0, -2.0, 0.5, 3.0};
  for (double x : {-2.0, 0.0, 0.5, 10.0}) {
    const double direct = 1.0 - 2.0 * x + 0.5 * x * x + 3.0 * x * x * x;
    EXPECT_NEAR(evalPolynomial(coeffs, x), direct, 1e-9 * std::max(1.0, std::fabs(direct)));
  }
}

TEST(PolynomialTest, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(evalPolynomial({}, 3.0), 0.0);
}

TEST(MathTest, LerpAndApprox) {
  EXPECT_DOUBLE_EQ(lerp(0.0, 10.0, 0.25), 2.5);
  EXPECT_TRUE(approxEqual(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(approxEqual(1.0, 1.1));
}

TEST(MathTest, RoundHalfAwayEqualsLlround) {
  using Limits = std::numeric_limits<double>;
  // Ties, the largest double below 0.5, signed zero, the smallest
  // subnormal, the edge of the integer-only range (2^52), the fallback
  // threshold (2^62), the end of int64 (2^63) and the specials.
  std::vector<double> edges{0.5, 1.5, 2.5, 0.49999999999999994, 0.0, Limits::denorm_min(),
                            Limits::infinity(), Limits::quiet_NaN()};
  for (const double p : {0x1p52, 0x1p62, 0x1p63}) {
    for (const double v : {p - 0.5, p, p + 0.5, std::nextafter(p, 0.0),
                           std::nextafter(p, Limits::infinity())}) {
      edges.push_back(v);
    }
  }
  const std::size_t positives = edges.size();
  for (std::size_t i = 0; i < positives; ++i) edges.push_back(-edges[i]);
  for (const double x : edges) {
    EXPECT_EQ(roundHalfAway(x), std::llround(x)) << "x=" << x;
  }

  // A million finite doubles: raw bit patterns (every exponent), values of
  // every magnitude up to past 2^63, and half-integers with their
  // neighbours, where truncation and rounding part ways.
  Rng rng(7);
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  double firstMismatch = 0.0;
  const auto check = [&](double x) {
    if (!std::isfinite(x)) return;
    ++checked;
    if (roundHalfAway(x) != std::llround(x) && mismatches++ == 0) firstMismatch = x;
  };
  while (checked < 1'000'000) {
    check(std::bit_cast<double>(rng.next()));
    const double mantissa = 1.0 + static_cast<double>(rng.next() >> 12) * 0x1p-52;
    const double magnitude = std::ldexp(mantissa, static_cast<int>(rng.uniformInt(0, 130)) - 66);
    check(rng.chance(0.5) ? magnitude : -magnitude);
    const double half = static_cast<double>(rng.next() >> (11 + rng.uniformInt(0, 52))) + 0.5;
    for (const double v : {half, std::nextafter(half, 0.0), std::nextafter(half, 0x1p60)}) {
      check(v);
      check(-v);
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first mismatch at x=" << firstMismatch;
}

}  // namespace
}  // namespace roia

// Small math helpers: 2-D vectors for the virtual environment,
// polynomial evaluation shared by the fitting and model layers, and exact
// inline rounding for the hot paths.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

namespace roia {

/// 2-D position/direction in the virtual environment.
struct Vec2 {
  double x{0.0};
  double y{0.0};

  constexpr Vec2() = default;
  constexpr Vec2(double x_, double y_) : x(x_), y(y_) {}

  constexpr Vec2 operator+(Vec2 o) const { return {x + o.x, y + o.y}; }
  constexpr Vec2 operator-(Vec2 o) const { return {x - o.x, y - o.y}; }
  constexpr Vec2 operator*(double k) const { return {x * k, y * k}; }
  constexpr Vec2& operator+=(Vec2 o) { x += o.x; y += o.y; return *this; }

  [[nodiscard]] constexpr double dot(Vec2 o) const { return x * o.x + y * o.y; }
  [[nodiscard]] constexpr double lengthSq() const { return x * x + y * y; }
  [[nodiscard]] double length() const { return std::sqrt(lengthSq()); }
  [[nodiscard]] constexpr double distanceSq(Vec2 o) const { return (*this - o).lengthSq(); }
  [[nodiscard]] double distance(Vec2 o) const { return (*this - o).length(); }
  [[nodiscard]] Vec2 normalized() const {
    const double len = length();
    return len > 0.0 ? Vec2{x / len, y / len} : Vec2{};
  }

  constexpr bool operator==(const Vec2&) const = default;
};

/// Horner evaluation of a polynomial with coefficients in ascending order:
/// coeffs[0] + coeffs[1]*x + coeffs[2]*x^2 + ...
inline double evalPolynomial(std::span<const double> coeffs, double x) {
  double acc = 0.0;
  for (std::size_t i = coeffs.size(); i-- > 0;) {
    acc = acc * x + coeffs[i];
  }
  return acc;
}

/// std::llround(x) for every double, inline: g++ emits llround as an
/// out-of-line libm call, and the codec and the cost model round once per
/// field and once per charge. Truncation is exact below 2^62, and so is the
/// remainder x - trunc(x), so comparing it with +-0.5 rounds half away from
/// zero exactly as llround does. Larger magnitudes, infinities and NaN
/// take llround itself.
inline std::int64_t roundHalfAway(double x) {
  if (!(std::fabs(x) < 0x1p62)) return std::llround(x);
  const auto truncated = static_cast<std::int64_t>(x);
  const double remainder = x - static_cast<double>(truncated);
  return truncated + (remainder >= 0.5 ? 1 : 0) - (remainder <= -0.5 ? 1 : 0);
}

/// Linear interpolation.
constexpr double lerp(double a, double b, double t) { return a + (b - a) * t; }

/// True if |a - b| <= atol + rtol * max(|a|, |b|).
inline bool approxEqual(double a, double b, double rtol = 1e-9, double atol = 1e-12) {
  return std::fabs(a - b) <= atol + rtol * std::fmax(std::fabs(a), std::fabs(b));
}

}  // namespace roia

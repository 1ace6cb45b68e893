// Measurement helpers of the native benchmark: latency samples, the
// percentile rule, ratios that carry their base, and the one-line JSON
// result.  Header-only so the self-test binary links nothing else.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Exact latency samples with bounded memory.  When the buffer fills, every
/// other sample is dropped and only every 2^k-th later sample is kept, so
/// the survivors stay spread evenly over the whole window.
class Samples {
 public:
  explicit Samples(std::size_t cap = std::size_t{1} << 21) : cap_(cap) {}

  void add(std::uint64_t ns) {
    if ((seen_++ & (stride_ - 1)) != 0) return;
    if (v_.capacity() < cap_) v_.reserve(cap_);  // once, at the first sample
    if (v_.size() == cap_) {
      std::size_t w = 0;
      for (std::size_t r = 0; r < v_.size(); r += 2) v_[w++] = v_[r];
      v_.resize(w);
      stride_ *= 2;
      if (((seen_ - 1) & (stride_ - 1)) != 0) return;
    }
    v_.push_back(ns);
  }

  void append(const Samples& other) {
    v_.insert(v_.end(), other.v_.begin(), other.v_.end());
  }

  [[nodiscard]] const std::vector<std::uint64_t>& values() const {
    return v_;
  }

 private:
  std::size_t cap_;
  std::uint64_t stride_ = 1;
  std::uint64_t seen_ = 0;
  std::vector<std::uint64_t> v_;
};

/// Nearest-rank percentile `p` (0 < p < 1) of `values`, reported only when
/// at least ten samples lie above its rank; otherwise std::nullopt.
[[nodiscard]] inline std::optional<double> percentile(
    std::vector<std::uint64_t> values, double p) {
  const std::size_t n = values.size();
  if (n == 0 || p <= 0.0 || p >= 1.0) return std::nullopt;
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (n - rank < 10) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return static_cast<double>(values[rank - 1]);
}

/// A ratio printed with its base; a zero base reads as 0.
struct Ratio {
  double num = 0;
  double base = 0;
  [[nodiscard]] double value() const { return base > 0 ? num / base : 0.0; }
};

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Shortest decimal that reads back as the same double.
[[nodiscard]] inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

/// A JSON string literal, with quotes, backslashes and control characters
/// escaped.
[[nodiscard]] inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// The benchmark's last output line.
[[nodiscard]] inline std::string result_json(bool correct,
                                             std::uint64_t attempted,
                                             std::uint64_t failed,
                                             const std::vector<Metric>& ms) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(ms[i].name) + ": {\"value\": " +
           json_number(ms[i].value) + ", \"unit\": " + json_string(ms[i].unit) +
           "}";
  }
  return out + "}}";
}

}  // namespace perfbench

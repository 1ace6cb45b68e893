// Self-test of the benchmark's measurement helpers: the percentile and its
// ten-beyond rule, sample thinning, ratio bases, span durations and the
// JSON result line.  Exits non-zero on the first failed check.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "trace.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest: line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

std::vector<std::uint64_t> iota(std::uint64_t n) {
  std::vector<std::uint64_t> v;
  for (std::uint64_t i = 1; i <= n; ++i) v.push_back(n + 1 - i);  // reversed
  return v;
}

void test_percentile() {
  // Nearest rank over 1..n: p50 of 1..20 is 10, with 10 samples above it.
  EXPECT(percentile(iota(20), 0.50) == 10.0);
  // Nine samples above the rank: not reportable.
  EXPECT(!percentile(iota(19), 0.50).has_value());
  // p99 needs 1000 samples (rank 990, ten above).
  EXPECT(percentile(iota(1000), 0.99) == 990.0);
  EXPECT(!percentile(iota(999), 0.99).has_value());
  EXPECT(!percentile({}, 0.50).has_value());
  EXPECT(!percentile(iota(100), 1.0).has_value());
  // Input order does not matter; duplicates count as samples.
  std::vector<std::uint64_t> dup(30, 7);
  EXPECT(percentile(dup, 0.5) == 7.0);
}

void test_samples() {
  Samples s(8);
  for (std::uint64_t i = 0; i < 100; ++i) s.add(i);
  EXPECT(s.values().size() <= 8);
  EXPECT(s.values().size() >= 4);
  // Survivors are an even stride over the whole stream, from its start.
  const auto& v = s.values();
  for (std::size_t i = 1; i < v.size(); ++i) {
    EXPECT(v[i] - v[i - 1] == v[1] - v[0]);
  }
  EXPECT(v.front() == 0);
  EXPECT(v.back() + (v[1] - v[0]) >= 100);
  Samples all;
  for (std::uint64_t i = 0; i < 1000; ++i) all.add(i);
  EXPECT(all.values().size() == 1000);
  Samples merged;
  merged.append(all);
  merged.append(s);
  EXPECT(merged.values().size() == 1000 + v.size());
}

void test_ratio() {
  EXPECT((Ratio{3, 4}.value() == 0.75));
  EXPECT((Ratio{5, 0}.value() == 0.0));  // empty base reads as 0
  EXPECT((Ratio{0, 0}.value() == 0.0));
}

void test_json() {
  EXPECT(json_number(0.1) == "0.1");
  EXPECT(json_number(1234567.0) == "1234567");
  EXPECT(std::strtod(json_number(1.0 / 3.0).c_str(), nullptr) == 1.0 / 3.0);
  EXPECT(json_number(1e300 * 1e300) == "0");
  EXPECT(json_string("a\"b\\c\n") == "\"a\\\"b\\\\c\\u000a\"");
  const std::string line = result_json(
      true, 12, 0, {{"ops_per_s", 1.5, "1/s"}, {"setup_s", 0.25, "s"}});
  EXPECT(line ==
         "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": "
         "{\"ops_per_s\": {\"value\": 1.5, \"unit\": \"1/s\"}, \"setup_s\": "
         "{\"value\": 0.25, \"unit\": \"s\"}}}");
  EXPECT(result_json(false, 1, 1, {}) ==
         "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": "
         "{}}");
}

void test_tracer() {
  Tracer off;
  EXPECT(off.record(SpanName::lnvc_send, 1, 2, 7) == kNoParent);
  EXPECT(off.spans().empty());
  Tracer t(2);
  t.enable();
  const std::uint32_t root = t.open(SpanName::op, 100, kNoOp);
  t.record(SpanName::lnvc_send, 100, 130, 9, root);
  t.close(root, 200, 9);
  EXPECT(t.full());
  EXPECT(t.record(SpanName::lnvc_send, 300, 400, 9) == kNoParent);
  EXPECT(t.spans().size() == 2);
  EXPECT(t.spans()[1].parent == root);
  EXPECT(t.spans()[0].op == 9);
  const auto d = durations({&t}, SpanName::op);
  EXPECT(d.size() == 1 && d[0] == 100);
  EXPECT(durations({&t}, SpanName::lnvc_send).at(0) == 30);
}

}  // namespace

int main() {
  test_percentile();
  test_samples();
  test_ratio();
  test_json();
  test_tracer();
  if (failures == 0) std::printf("perfbench selftest: ok\n");
  return failures == 0 ? 0 : 1;
}

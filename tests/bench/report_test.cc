// The one reporting path of the benches (bench/common.h): the median-of-runs
// merge, the top-factor filter, and the BENCH_*.json writer.
#include "bench/common.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace bench {
namespace {

struct Run {
  double key = 0.0;
  int id = 0;
};

int MedianRunId(const std::vector<Run>& runs) {
  return MedianLowRun(runs, [](const Run& run) { return run.key; }).id;
}

TEST(MedianLowRunTest, OddCountPicksTheMiddleKey) {
  EXPECT_EQ(MedianRunId({{3.0, 0}, {1.0, 1}, {2.0, 2}}), 2);
  EXPECT_EQ(MedianRunId({{7.0, 0}}), 0);
}

TEST(MedianLowRunTest, EvenCountPicksTheLowerMiddleKey) {
  EXPECT_EQ(MedianRunId({{4.0, 0}, {1.0, 1}, {3.0, 2}, {2.0, 3}}), 3);
  EXPECT_EQ(MedianRunId({{9.0, 0}, {5.0, 1}}), 1);
}

TEST(MedianLowRunTest, TieGoesToTheEarliestRun) {
  EXPECT_EQ(MedianRunId({{5.0, 0}, {2.0, 1}, {9.0, 2}, {2.0, 3}}), 1);
  EXPECT_EQ(MedianRunId({{4.0, 0}, {4.0, 1}, {4.0, 2}}), 0);
}

TEST(TopFactorsTest, SkipsCovariancesAndKeepsTheFirstThree) {
  const std::vector<std::string> names = {"a", "b", "c", "d"};
  std::vector<vprof::Factor> ranked(5);
  ranked[0].func_a = 0;
  ranked[0].func_b = 1;  // a covariance
  for (vprof::FuncId f = 0; f < 4; ++f) {
    ranked[f + 1].func_a = f;
    ranked[f + 1].contribution = 0.4 - 0.1 * f;
  }
  ranked[1].body_a = true;
  const std::vector<FactorShare> top = TopFactors(ranked, names);
  ASSERT_EQ(top.size(), kTopFactors);
  EXPECT_EQ(top[0].name, "a(body)");
  EXPECT_EQ(top[1].name, "b");
  EXPECT_EQ(top[2].name, "c");
  EXPECT_DOUBLE_EQ(top[2].contribution, 0.2);
}

Json SmallReport() {
  return Json::Object()
      .Set("benchmark", "t")
      .Set("points", Json::Array()
                         .Push(Json::Object()
                                   .Set("threads", 8)
                                   .Set("tps", Json(1234.56, 1))
                                   .Set("top_factors",
                                        FactorsJson({{"say \"hi\"", 0.25}})))
                         .Push(Json::Object()))
      .Set("pass", true);
}

constexpr char kSmallReport[] = R"({
  "benchmark": "t",
  "points": [
    {
      "threads": 8,
      "tps": 1234.6,
      "top_factors": [
        {
          "name": "say \"hi\"",
          "contribution": 0.2500
        }
      ]
    },
    {}
  ],
  "pass": true
})";

TEST(JsonTest, DumpsANestedDocumentAndEscapesNames) {
  EXPECT_EQ(SmallReport().Dump(), kSmallReport);
}

TEST(WriteBenchJsonTest, AppendsTheProvenanceKeys) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("bench_report_test_" + std::to_string(getpid()) + ".json");
  ASSERT_TRUE(WriteBenchJson(path.c_str(), SmallReport()));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::filesystem::remove(path);

  // The document's own members come first, unchanged.
  const std::string body(kSmallReport, sizeof(kSmallReport) - 3);  // no "\n}"
  const std::string written = text.str();
  ASSERT_EQ(written.compare(0, body.size(), body), 0) << written;
  for (const char* key : {"\"git_sha\": \"", "\"cpus\": ", "\"build_type\": \"",
                          "\"date_utc\": \""}) {
    EXPECT_NE(written.find(key, body.size()), std::string::npos) << key;
  }
  EXPECT_EQ(written.substr(written.size() - 3), "\n}\n");
}

TEST(WriteBenchJsonTest, FailsWhenTheFileCannotBeOpened) {
  EXPECT_FALSE(WriteBenchJson("/nonexistent-dir/BENCH_x.json", SmallReport()));
}

}  // namespace
}  // namespace bench

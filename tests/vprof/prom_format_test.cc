// Prometheus text-exposition conformance for the service's metrics
// endpoints: sorted family order, HELP/TYPE for every family, label-value
// escaping, and byte-stable formatting. Validated structurally rather than
// by golden text so the checks survive metric additions.
#include <cctype>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/vprof/service/online_tree.h"
#include "src/vprof/service/prom.h"
#include "src/vprof/service/vprofd.h"
#include "tests/vprof/trace_builder.h"

namespace vprof {
namespace {

using vprof_test::TraceBuilder;

bool IsValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(name[0])) && name[0] != '_') {
    return false;
  }
  for (const char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != ':') {
      return false;
    }
  }
  return true;
}

// Splits "name{labels} value" / "name value"; empty name on malformed input.
void SplitSampleLine(const std::string& line, std::string* name,
                     std::string* labels, std::string* value) {
  name->clear();
  labels->clear();
  value->clear();
  size_t pos = line.find_first_of("{ ");
  if (pos == std::string::npos) return;
  *name = line.substr(0, pos);
  if (line[pos] == '{') {
    // The label block ends at the first unescaped '}' outside quotes.
    bool in_quotes = false;
    size_t end = std::string::npos;
    for (size_t i = pos + 1; i < line.size(); ++i) {
      if (in_quotes) {
        if (line[i] == '\\') {
          ++i;  // skip the escaped character
        } else if (line[i] == '"') {
          in_quotes = false;
        }
      } else if (line[i] == '"') {
        in_quotes = true;
      } else if (line[i] == '}') {
        end = i;
        break;
      }
    }
    if (end == std::string::npos || end + 1 >= line.size() ||
        line[end + 1] != ' ') {
      name->clear();
      return;
    }
    *labels = line.substr(pos, end - pos + 1);
    *value = line.substr(end + 2);
  } else {
    *value = line.substr(pos + 1);
  }
}

// Structural validation of one exposition document:
//   - every family appears once, in sorted order, as HELP then TYPE then
//     its samples (possibly none);
//   - sample names match the current family; values parse as doubles;
//   - label blocks are well-formed key="value" lists with escaped quotes.
void ValidatePromText(const std::string& text) {
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(text.back(), '\n') << "document must end with a newline";

  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    const size_t nl = text.find('\n', start);
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }

  std::string prev_family;
  std::string current;  // family whose block we are inside
  bool type_seen = false;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    SCOPED_TRACE("line " + std::to_string(i + 1) + ": " + line);
    ASSERT_FALSE(line.empty());
    if (line.rfind("# HELP ", 0) == 0) {
      const size_t name_end = line.find(' ', 7);
      ASSERT_NE(name_end, std::string::npos);
      const std::string name = line.substr(7, name_end - 7);
      EXPECT_TRUE(IsValidMetricName(name));
      EXPECT_LT(prev_family, name) << "families out of order or duplicated";
      prev_family = name;
      current = name;
      type_seen = false;
      // TYPE must immediately follow HELP.
      ASSERT_LT(i + 1, lines.size());
      EXPECT_EQ(lines[i + 1].rfind("# TYPE " + name + " ", 0), 0u)
          << "HELP not followed by TYPE for " << name;
    } else if (line.rfind("# TYPE ", 0) == 0) {
      const size_t name_end = line.find(' ', 7);
      ASSERT_NE(name_end, std::string::npos);
      EXPECT_EQ(line.substr(7, name_end - 7), current);
      const std::string type = line.substr(name_end + 1);
      EXPECT_TRUE(type == "counter" || type == "gauge") << type;
      type_seen = true;
    } else {
      std::string name, labels, value;
      SplitSampleLine(line, &name, &labels, &value);
      ASSERT_FALSE(name.empty()) << "malformed sample line";
      EXPECT_EQ(name, current) << "sample outside its family block";
      EXPECT_TRUE(type_seen) << "sample before TYPE";
      char* end = nullptr;
      std::strtod(value.c_str(), &end);
      EXPECT_TRUE(end != value.c_str() && *end == '\0')
          << "unparsable value: " << value;
      if (!labels.empty()) {
        // {k="v",k2="v2"}: quotes balanced, values escaped.
        EXPECT_EQ(labels.front(), '{');
        EXPECT_EQ(labels.back(), '}');
        bool in_quotes = false;
        for (size_t j = 1; j + 1 < labels.size(); ++j) {
          if (in_quotes) {
            if (labels[j] == '\\') {
              ++j;
              EXPECT_TRUE(labels[j] == '\\' || labels[j] == '"' ||
                          labels[j] == 'n')
                  << "bad escape \\" << labels[j];
            } else if (labels[j] == '"') {
              in_quotes = false;
            }
          } else if (labels[j] == '"') {
            in_quotes = true;
          }
        }
        EXPECT_FALSE(in_quotes) << "unbalanced quotes";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// PromWriter
// ---------------------------------------------------------------------------

TEST(PromWriterTest, EmitsSortedFamiliesWithHelpAndType) {
  PromWriter w;
  // Declared deliberately out of order.
  w.Family("zzz_total", "counter", "Last family.");
  w.Family("aaa_gauge", "gauge", "First family.");
  w.Family("mmm_total", "counter", "Middle family.");
  w.Sample("zzz_total", uint64_t{7});
  w.Sample("aaa_gauge", 1.5);
  w.Sample("mmm_total", uint64_t{0});
  const std::string text = w.Text();
  ValidatePromText(text);
  EXPECT_LT(text.find("aaa_gauge"), text.find("mmm_total"));
  EXPECT_LT(text.find("mmm_total"), text.find("zzz_total"));
  EXPECT_NE(text.find("# HELP aaa_gauge First family.\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE aaa_gauge gauge\n"), std::string::npos);
  EXPECT_NE(text.find("\naaa_gauge 1.5\n"), std::string::npos);
}

TEST(PromWriterTest, LargeCountersDoNotRoundThroughDouble) {
  PromWriter w;
  w.Family("big_total", "counter", "A counter too large for a double.");
  const uint64_t big = (uint64_t{1} << 63) + 3;
  w.Sample("big_total", big);
  EXPECT_NE(w.Text().find("big_total " + std::to_string(big) + "\n"),
            std::string::npos);
}

TEST(PromWriterTest, EscapesLabelValues) {
  EXPECT_EQ(PromWriter::EscapeLabel("plain"), "plain");
  EXPECT_EQ(PromWriter::EscapeLabel("a\"b"), "a\\\"b");
  EXPECT_EQ(PromWriter::EscapeLabel("a\\b"), "a\\\\b");
  EXPECT_EQ(PromWriter::EscapeLabel("a\nb"), "a\\nb");

  PromWriter w;
  w.Family("f", "gauge", "Escaping.");
  w.Sample("f", PromWriter::Labels{{"path", "fn\"quote\\slash\nline"}}, 1.0);
  const std::string text = w.Text();
  ValidatePromText(text);
  EXPECT_NE(text.find("f{path=\"fn\\\"quote\\\\slash\\nline\"} 1\n"),
            std::string::npos);
}

TEST(PromWriterTest, SamplesWithinFamilySortByLabels) {
  PromWriter w;
  w.Family("f", "gauge", "Label ordering.");
  w.Sample("f", PromWriter::Labels{{"path", "zebra"}}, 1.0);
  w.Sample("f", PromWriter::Labels{{"path", "aardvark"}}, 2.0);
  const std::string text = w.Text();
  ValidatePromText(text);
  EXPECT_LT(text.find("aardvark"), text.find("zebra"));
}

TEST(PromWriterTest, FamilyWithoutSamplesStillDeclared) {
  PromWriter w;
  w.Family("empty_total", "counter", "No samples yet.");
  const std::string text = w.Text();
  ValidatePromText(text);
  EXPECT_NE(text.find("# TYPE empty_total counter\n"), std::string::npos);
}

TEST(VprofdPromTest, SupervisorFamiliesAreConformant) {
  VprofdOptions options;
  options.root_function = "prom_fmt_supervisor_root";
  options.enable_controller = false;
  options.enable_supervisor = true;
  Vprofd daemon(std::move(options));
  const std::string text = daemon.MetricsText();
  ValidatePromText(text);
  EXPECT_NE(text.find("# TYPE vprofd_supervisor_state gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("vprofd_supervisor_state 0\n"), std::string::npos);
  EXPECT_NE(
      text.find("# TYPE vprofd_supervisor_escalations_total counter\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("# TYPE vprofd_supervisor_restorations_total counter\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("# TYPE vprofd_supervisor_unhealthy_epochs_total counter\n"),
      std::string::npos);
}

// ---------------------------------------------------------------------------
// OnlineTreeSnapshot::ToPromText
// ---------------------------------------------------------------------------

Trace BuildEvilTrace() {
  TraceBuilder tb;
  tb.Begin(0, 1, 0).End(0, 1, 1000);
  tb.Exec(0, 1, 0, 1000);
  const int root = tb.Invoke(0, "prom_fmt_root", 0, 1000, -1, 1);
  // Function names carry arbitrary bytes; the exposition must escape them.
  tb.Invoke(0, "evil\"quote\\slash\nnewline", 0, 400, root, 1);
  tb.Invoke(0, "prom_fmt_leaf", 400, 900, root, 1);
  return tb.Build();
}

TEST(OnlineTreePromTest, ExpositionIsConformant) {
  OnlineVarianceTree tree;
  tree.Fold(BuildEvilTrace());
  const std::string text = tree.Snapshot().ToPromText();
  ValidatePromText(text);

  // Tracer self-health families are first-class metrics.
  EXPECT_NE(text.find("# TYPE vprof_dropped_records_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE vprof_stuck_threads_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE vprof_stuck_thread_epochs_total counter\n"),
            std::string::npos);
  // Per-node gauges keyed by escaped path.
  EXPECT_NE(text.find("evil\\\"quote\\\\slash\\nnewline"), std::string::npos);
  // The raw (unescaped) name must never appear.
  EXPECT_EQ(text.find("evil\"quote"), std::string::npos);
}

TEST(OnlineTreePromTest, EmptyTreeStillExposesStats) {
  OnlineVarianceTree tree;
  const std::string text = tree.Snapshot().ToPromText();
  ValidatePromText(text);
  EXPECT_NE(text.find("vprof_epochs_total 0\n"), std::string::npos);
}

}  // namespace
}  // namespace vprof

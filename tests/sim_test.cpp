// Tests for the simulated-time trace recorder.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sim/trace.hpp"

namespace sim = rcs::sim;

namespace {

TEST(Trace, RecordsWhenEnabled) {
  sim::TraceRecorder tr(true);
  tr.add("cpu", 0.0, 1.0, "work");
  tr.add("cpu", 2.0, 3.5, "more");
  tr.add("fpga", 0.0, 4.0, "kernel");
  EXPECT_EQ(tr.spans().size(), 3u);
  auto busy = tr.busy_by_resource();
  EXPECT_DOUBLE_EQ(busy["cpu"], 2.5);
  EXPECT_DOUBLE_EQ(busy["fpga"], 4.0);
  auto util = tr.utilization(5.0);
  EXPECT_DOUBLE_EQ(util["cpu"], 0.5);
  EXPECT_DOUBLE_EQ(util["fpga"], 0.8);
}

TEST(Trace, DisabledRecorderIsNoop) {
  sim::TraceRecorder tr(false);
  tr.add("cpu", 0.0, 1.0, "work");
  EXPECT_TRUE(tr.spans().empty());
}

TEST(Trace, RejectsBackwardsSpan) {
  sim::TraceRecorder tr(true);
  EXPECT_THROW(tr.add("cpu", 2.0, 1.0, "bad"), rcs::Error);
}

TEST(Trace, CsvSortedByStart) {
  sim::TraceRecorder tr(true);
  tr.add("b", 2.0, 3.0, "late");
  tr.add("a", 0.0, 1.0, "early");
  std::ostringstream os;
  tr.write_csv(os);
  const std::string s = os.str();
  EXPECT_EQ(s.find("resource,start,end,label"), 0u);
  EXPECT_LT(s.find("early"), s.find("late"));
}

}  // namespace

#include "util/table.hpp"

#include <gtest/gtest.h>

namespace fdb {
namespace {

TEST(Table, RendersHeaderAndRows) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  t.add_row({"10", "20"});
  const auto out = t.render();
  EXPECT_NE(out.find("x"), std::string::npos);
  EXPECT_NE(out.find("10"), std::string::npos);
  EXPECT_NE(out.find("20"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, ColumnsAligned) {
  Table t({"a", "bbbb"});
  t.add_row({"wide-cell", "1"});
  const auto out = t.render();
  // Header line and data line must be equally long lines (alignment).
  const auto first_newline = out.find('\n');
  const auto header = out.substr(0, first_newline);
  EXPECT_GE(header.size(), std::string("a  bbbb").size());
}

TEST(FormatG, CompactDoubles) {
  EXPECT_EQ(format_g(1.0), "1");
  EXPECT_EQ(format_g(0.5), "0.5");
  EXPECT_EQ(format_g(1e-9), "1e-09");
}

}  // namespace
}  // namespace fdb

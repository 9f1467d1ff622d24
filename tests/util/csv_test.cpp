#include "util/csv.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "temp_path.hpp"

namespace popbean {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class CsvTest : public ::testing::Test {
 protected:
  std::string path_ = unique_temp_path("popbean_csv_test", ".csv");

  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvTest, WritesHeaderAndRows) {
  {
    CsvWriter csv(path_, {"n", "eps", "time"});
    csv.row({101.0, 0.01, 25.5});
    csv.row({std::vector<std::string>{"1001", "0.001", "fast"}});
  }
  EXPECT_EQ(read_file(path_), "n,eps,time\n101,0.01,25.5\n1001,0.001,fast\n");
}

TEST_F(CsvTest, RejectsArityMismatch) {
  CsvWriter csv(path_, {"a", "b"});
  EXPECT_THROW(csv.row({1.0, 2.0, 3.0}), std::logic_error);
}

TEST_F(CsvTest, ThrowsOnUnwritablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir/x.csv", {"a"}), std::runtime_error);
}

TEST(CsvEscapeTest, PlainCellUnchanged) {
  EXPECT_EQ(csv_escape("hello"), "hello");
  EXPECT_EQ(csv_escape("3.14"), "3.14");
}

TEST(CsvEscapeTest, QuotesCommasAndQuotes) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

}  // namespace
}  // namespace popbean

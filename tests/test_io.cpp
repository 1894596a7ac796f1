#include "combinatorics/io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "combinatorics/builders.hpp"
#include "mac/pattern_io.hpp"
#include "util/rng.hpp"

namespace wc = wakeup::comb;
namespace wm = wakeup::mac;
namespace wu = wakeup::util;

TEST(FamilyIo, RoundTripPreservesEverything) {
  const auto original = wc::build_bit_splitter(33);
  std::ostringstream out;
  wc::write_family(out, original);
  std::istringstream in(out.str());
  const auto loaded = wc::read_family(in);

  EXPECT_EQ(loaded.params().n, original.params().n);
  EXPECT_EQ(loaded.params().k, original.params().k);
  EXPECT_EQ(loaded.origin(), original.origin());
  ASSERT_EQ(loaded.length(), original.length());
  for (std::size_t j = 0; j < loaded.length(); ++j) {
    EXPECT_EQ(loaded.set(j).members(), original.set(j).members()) << "set " << j;
  }
}

TEST(FamilyIo, RoundTripRandomized) {
  const auto original = wc::build_randomized(100, 8, 4.0, 77);
  std::ostringstream out;
  wc::write_family(out, original);
  std::istringstream in(out.str());
  const auto loaded = wc::read_family(in);
  ASSERT_EQ(loaded.length(), original.length());
  for (std::size_t j = 0; j < loaded.length(); ++j) {
    EXPECT_EQ(loaded.set(j).members(), original.set(j).members());
  }
}

TEST(FamilyIo, CommentsAndBlankLinesSkipped) {
  std::istringstream in(
      "# a comment\n"
      "\n"
      "selective-family v1\n"
      "n 4 k 2 origin manual\n"
      "# sets follow\n"
      "set 2 0 3\n"
      "set 0\n"
      "end\n");
  const auto fam = wc::read_family(in);
  EXPECT_EQ(fam.params().n, 4u);
  ASSERT_EQ(fam.length(), 2u);
  EXPECT_TRUE(fam.set(0).contains(0));
  EXPECT_TRUE(fam.set(0).contains(3));
  EXPECT_TRUE(fam.set(1).empty());
}

TEST(FamilyIo, RejectsBadHeader) {
  std::istringstream in("wrong header\n");
  EXPECT_THROW(wc::read_family(in), std::runtime_error);
}

TEST(FamilyIo, RejectsOutOfRangeStation) {
  std::istringstream in(
      "selective-family v1\n"
      "n 4 k 2 origin manual\n"
      "set 1 4\n"
      "end\n");
  EXPECT_THROW(wc::read_family(in), std::runtime_error);
}

TEST(FamilyIo, RejectsWrongMemberCount) {
  std::istringstream too_few(
      "selective-family v1\nn 4 k 2 origin x\nset 3 0 1\nend\n");
  EXPECT_THROW(wc::read_family(too_few), std::runtime_error);
  std::istringstream too_many(
      "selective-family v1\nn 4 k 2 origin x\nset 1 0 1\nend\n");
  EXPECT_THROW(wc::read_family(too_many), std::runtime_error);
}

TEST(FamilyIo, RejectsMissingEnd) {
  std::istringstream in("selective-family v1\nn 4 k 2 origin x\nset 1 0\n");
  EXPECT_THROW(wc::read_family(in), std::runtime_error);
}

TEST(FamilyIo, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/family.txt";
  const auto original = wc::build_mod_prime(12, 3);
  wc::save_family(path, original);
  const auto loaded = wc::load_family(path);
  EXPECT_EQ(loaded.length(), original.length());
  std::remove(path.c_str());
}

TEST(FamilyIo, LoadMissingFileThrows) {
  EXPECT_THROW(wc::load_family("/nonexistent/family.txt"), std::runtime_error);
}

// ------------------------------------------------------------- pattern io

TEST(PatternIo, RoundTrip) {
  wu::Rng rng(3);
  const auto original = wm::patterns::staggered(64, 6, 5, 3, rng);
  std::ostringstream out;
  wm::write_pattern_csv(out, original);
  std::istringstream in(out.str());
  const auto loaded = wm::read_pattern_csv(in, 64);
  EXPECT_EQ(loaded.arrivals(), original.arrivals());
  EXPECT_EQ(loaded.n(), 64u);
}

TEST(PatternIo, AcceptsHeaderCommentsBlanks) {
  std::istringstream in(
      "station,wake\n"
      "# comment\n"
      "\n"
      "3,0\n"
      "7,4\n");
  const auto p = wm::read_pattern_csv(in, 10);
  ASSERT_EQ(p.k(), 2u);
  EXPECT_EQ(p.arrivals()[0].station, 3u);
  EXPECT_EQ(p.arrivals()[1].wake, 4);
}

TEST(PatternIo, RejectsMalformedRow) {
  std::istringstream missing_field("3\n");
  EXPECT_THROW(wm::read_pattern_csv(missing_field, 10), std::runtime_error);
  std::istringstream non_numeric("a,b\n");
  EXPECT_THROW(wm::read_pattern_csv(non_numeric, 10), std::runtime_error);
}

// Rows a reader cannot represent throw instead of being read as some
// other row: an out-of-range or signed station (once wrapped to station 1),
// trailing junk in either field, and a third field.
const char* const kMisparsedRows[] = {"4294967297,5\n", "-4294967295,5\n", "3x,7\n",
                                      "3,7abc\n", "3,7,9\n"};

TEST(PatternIo, RejectsRowsItCannotRepresent) {
  for (const char* text : kMisparsedRows) {
    std::istringstream in(text);
    EXPECT_THROW((void)wm::read_pattern_csv(in, 10), std::runtime_error) << text;
  }
  // Spaces around a field and CRLF line ends stay accepted.
  std::istringstream spaced("station,wake\r\n3, 7\r\n\t4 ,\t9 \r\n");
  const auto p = wm::read_pattern_csv(spaced, 10);
  EXPECT_EQ(p.arrivals(), (std::vector<wm::Arrival>{{3, 7}, {4, 9}}));
}

TEST(PatternIo, SemanticValidationApplies) {
  std::istringstream dup("1,0\n1,2\n");
  EXPECT_THROW(wm::read_pattern_csv(dup, 10), std::invalid_argument);
  std::istringstream out_of_range("99,0\n");
  EXPECT_THROW(wm::read_pattern_csv(out_of_range, 10), std::invalid_argument);
}

TEST(PatternIo, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/pattern.csv";
  wu::Rng rng(9);
  const auto original = wm::patterns::uniform_window(32, 5, 0, 20, rng);
  wm::save_pattern_csv(path, original);
  const auto loaded = wm::load_pattern_csv(path, 32);
  EXPECT_EQ(loaded.arrivals(), original.arrivals());
  std::remove(path.c_str());
}

// ------------------------------------------------------------ arrivals io

TEST(ArrivalsIo, LoadSaveLoadRoundTripsPacketForPacket) {
  // A generated trace pinned to disk must replay identically: the scenario
  // constructor canonicalizes packet order, so save -> load is a fixpoint.
  wu::Rng rng(17);
  const auto arrival = wm::ArrivalSpec::parse("bursty:0.6:0.1");
  const auto original = wm::arrivals::generate(arrival, /*n=*/48, /*k=*/8,
                                               /*horizon=*/300, rng);
  const std::string path = testing::TempDir() + "/arrivals.csv";
  wm::save_arrivals_csv(path, original);
  const auto loaded = wm::load_arrivals_csv(path, 48, 300);
  EXPECT_EQ(loaded.packets(), original.packets());
  EXPECT_EQ(loaded.stations(), original.stations());
  EXPECT_EQ(loaded.horizon(), original.horizon());
  EXPECT_EQ(loaded.packets_total(), original.packets_total());

  // And a second save of the reloaded scenario is byte-identical.
  std::ostringstream first, second;
  wm::write_arrivals_csv(first, original);
  wm::write_arrivals_csv(second, loaded);
  EXPECT_EQ(first.str(), second.str());
  std::remove(path.c_str());
}

TEST(ArrivalsIo, RejectsRowsItCannotRepresent) {
  for (const char* text : kMisparsedRows) {
    std::istringstream in(text);
    EXPECT_THROW((void)wm::read_arrivals_csv(in, 10, 16), std::runtime_error) << text;
  }
  // A trace row naming station 2^32 + 3 is not station 3.
  std::istringstream wrapped("1,0\n4294967299,1\n");
  EXPECT_THROW((void)wm::read_arrivals_csv(wrapped, 8, 0), std::runtime_error);
  // A slot at the Slot maximum leaves no horizon to derive.
  std::istringstream last_slot("1,9223372036854775807\n");
  EXPECT_THROW((void)wm::read_arrivals_csv(last_slot, 8, 0), std::runtime_error);

  std::istringstream spaced("# trace\r\nstation,slot\r\n3, 7\r\n3,2\r\n 1 ,7\r\n");
  const auto s = wm::read_arrivals_csv(spaced, 8, 0);
  EXPECT_EQ(s.horizon(), 8);
  EXPECT_EQ(s.packets(), (std::vector<wm::Arrival>{{3, 2}, {1, 7}, {3, 7}}));
}

TEST(ArrivalsIo, SaveToUnwritablePathThrows) {
  const wm::DynamicScenario scenario(4, 8, {{0, 1}, {2, 3}});
  EXPECT_THROW(wm::save_arrivals_csv("/nonexistent/dir/arrivals.csv", scenario),
               std::runtime_error);
}

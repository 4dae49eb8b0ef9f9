#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "util/crc32.h"
#include "util/math.h"
#include "util/random.h"
#include "util/status.h"
#include "util/table_printer.h"

namespace segdb {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad B");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad B");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad B");
}

TEST(StatusTest, EqualityComparesCodes) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::OK());
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto fails = [] { return Status::Corruption("page 7"); };
  auto wrapper = [&]() -> Status {
    SEGDB_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kCorruption);
}

TEST(ResultTest, ValueRoundTrip) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, ErrorPropagates) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

// The WAL stamps every chain page and record with this CRC; the vectors
// below pin it to CRC-32/IEEE (reflected 0xEDB88320) so a table or
// conditioning bug cannot silently re-derive a self-consistent checksum.
TEST(Crc32Test, MatchesIeeeKnownAnswers) {
  const char* check = "123456789";
  EXPECT_EQ(util::Crc32(check, std::strlen(check)), 0xCBF43926u);
  EXPECT_EQ(util::Crc32("", 0), 0x00000000u);
  EXPECT_EQ(util::Crc32("a", 1), 0xE8B7BE43u);
  const char* abc = "abc";
  EXPECT_EQ(util::Crc32(abc, 3), 0x352441C2u);
}

TEST(Crc32Test, IncrementalChainingEqualsOneShot) {
  const std::string data = "The quick brown fox jumps over the lazy dog";
  const uint32_t whole = util::Crc32(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t head = util::Crc32(data.data(), split);
    const uint32_t chained =
        util::Crc32(data.data() + split, data.size() - split, head);
    EXPECT_EQ(chained, whole) << "split at " << split;
  }
}

TEST(Crc32Test, SingleBitFlipsAlwaysChangeTheChecksum) {
  uint8_t buf[64];
  for (size_t i = 0; i < sizeof(buf); ++i) buf[i] = static_cast<uint8_t>(i);
  const uint32_t clean = util::Crc32(buf, sizeof(buf));
  for (size_t byte = 0; byte < sizeof(buf); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      buf[byte] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_NE(util::Crc32(buf, sizeof(buf)), clean)
          << "byte " << byte << " bit " << bit;
      buf[byte] ^= static_cast<uint8_t>(1u << bit);
    }
  }
}

// util::Crc32 folds eight bytes per step; this checks it against the plain
// one-table, one-byte-per-step loop at every length up to 1,100 bytes, at
// every start offset modulo 8 (misaligned loads), from a zero and a random
// seed, and chained at every split.
TEST(Crc32Test, SliceBy8MatchesBytewiseReference) {
  std::vector<uint32_t> table(256);
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  const auto reference = [&table](const uint8_t* p, size_t n, uint32_t seed) {
    uint32_t c = ~seed;
    for (size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
    return ~c;
  };

  constexpr size_t kMaxLen = 1100;
  Rng rng(20261019);
  std::vector<uint8_t> buf(kMaxLen + 8);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Next());
  const uint32_t seeds[] = {0u, static_cast<uint32_t>(rng.Next())};
  for (size_t offset = 0; offset < 8; ++offset) {
    const uint8_t* p = buf.data() + offset;
    for (uint32_t seed : seeds) {
      for (size_t len = 0; len <= kMaxLen; ++len) {
        ASSERT_EQ(util::Crc32(p, len, seed), reference(p, len, seed))
            << "offset " << offset << " len " << len << " seed " << seed;
      }
      const uint32_t whole = util::Crc32(p, kMaxLen, seed);
      for (size_t split = 0; split <= kMaxLen; ++split) {
        const uint32_t head = util::Crc32(p, split, seed);
        ASSERT_EQ(util::Crc32(p + split, kMaxLen - split, head), whole)
            << "offset " << offset << " split " << split << " seed "
            << seed;
      }
    }
  }
}

TEST(MathTest, FloorLog2) {
  EXPECT_EQ(FloorLog2(1), 0u);
  EXPECT_EQ(FloorLog2(2), 1u);
  EXPECT_EQ(FloorLog2(3), 1u);
  EXPECT_EQ(FloorLog2(4), 2u);
  EXPECT_EQ(FloorLog2(1023), 9u);
  EXPECT_EQ(FloorLog2(1024), 10u);
}

TEST(MathTest, CeilLog2) {
  EXPECT_EQ(CeilLog2(1), 0u);
  EXPECT_EQ(CeilLog2(2), 1u);
  EXPECT_EQ(CeilLog2(3), 2u);
  EXPECT_EQ(CeilLog2(4), 2u);
  EXPECT_EQ(CeilLog2(5), 3u);
}

TEST(MathTest, CeilDiv) {
  EXPECT_EQ(CeilDiv(0, 4), 0u);
  EXPECT_EQ(CeilDiv(1, 4), 1u);
  EXPECT_EQ(CeilDiv(4, 4), 1u);
  EXPECT_EQ(CeilDiv(5, 4), 2u);
}

TEST(MathTest, LogStar) {
  EXPECT_EQ(LogStar(1), 0u);
  EXPECT_EQ(LogStar(2), 1u);
  EXPECT_EQ(LogStar(4), 2u);
  EXPECT_EQ(LogStar(16), 3u);
  EXPECT_EQ(LogStar(65536), 4u);
}

TEST(MathTest, IlStarIsTinyForFeasibleBlockSizes) {
  // The paper notes IL*(B) is a very small constant; check the actual
  // values for realistic block sizes.
  EXPECT_EQ(IlStar(2), 0u);
  EXPECT_LE(IlStar(64), 2u);
  EXPECT_LE(IlStar(4096), 2u);
  EXPECT_LE(IlStar(1u << 20), 2u);
}

TEST(MathTest, CeilLogBase) {
  EXPECT_EQ(CeilLogBase(1, 16), 0u);
  EXPECT_EQ(CeilLogBase(16, 16), 1u);
  EXPECT_EQ(CeilLogBase(17, 16), 2u);
  EXPECT_EQ(CeilLogBase(256, 16), 2u);
  EXPECT_EQ(CeilLogBase(1000000, 2), 20u);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.Next() == b.Next());
  EXPECT_LT(equal, 4);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 9);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter tp({"N", "ios"});
  tp.AddRow({"1000", "12"});
  tp.AddRow({"1000000", "30"});
  std::ostringstream os;
  tp.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| 1000000 |"), std::string::npos);
  EXPECT_NE(out.find("N"), std::string::npos);
}

TEST(TablePrinterTest, CsvOutput) {
  TablePrinter tp({"a", "b"});
  tp.AddRow({"1", "2"});
  std::ostringstream os;
  tp.PrintCsv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TablePrinterTest, FmtHelpers) {
  EXPECT_EQ(TablePrinter::Fmt(1.2345, 2), "1.23");
  EXPECT_EQ(TablePrinter::Fmt(uint64_t{42}), "42");
  EXPECT_EQ(TablePrinter::Fmt(int64_t{-7}), "-7");
}

}  // namespace
}  // namespace segdb

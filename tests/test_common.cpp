// Unit tests for the common substrate: RNG, units, table, parallel_for,
// check macros.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "common/base64.hpp"
#include "common/binio.hpp"
#include "common/check.hpp"
#include "common/crc32.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace yoloc {
namespace {

TEST(Crc32, MatchesKnownVectors) {
  // zlib-compatible check values.
  const char digits[] = "123456789";
  EXPECT_EQ(crc32(digits, 9), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0x00000000u);
  const char a[] = "a";
  EXPECT_EQ(crc32(a, 1), 0xE8B7BE43u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const char data[] = "YOLOCPLN section payload";
  const std::size_t n = sizeof(data) - 1;
  const std::uint32_t whole = crc32(data, n);
  const std::uint32_t part = crc32(data + 5, n - 5, crc32(data, 5));
  EXPECT_EQ(whole, part);
  EXPECT_NE(crc32(data, n - 1), whole);
}

TEST(BinIo, RoundTripsEveryPrimitive) {
  ByteWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-42);
  w.f32(-0.625f);
  w.f64(3.141592653589793);
  w.str("yoloc");
  w.str("");

  ByteReader r(w.buffer().data(), w.buffer().size());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.f32(), -0.625f);
  EXPECT_EQ(r.f64(), 3.141592653589793);
  EXPECT_EQ(r.str(), "yoloc");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.remaining(), 0u);
  r.expect_exhausted("binio test");
}

TEST(BinIo, EncodingIsLittleEndianAndStable) {
  ByteWriter w;
  w.u32(0x01020304u);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.buffer()[0], 0x04);
  EXPECT_EQ(w.buffer()[1], 0x03);
  EXPECT_EQ(w.buffer()[2], 0x02);
  EXPECT_EQ(w.buffer()[3], 0x01);
}

TEST(BinIo, ReaderRefusesToRunPastTheBuffer) {
  ByteWriter w;
  w.u32(7);
  ByteReader r(w.buffer().data(), w.buffer().size());
  (void)r.u32();
  EXPECT_THROW((void)r.u8(), std::runtime_error);

  // A string length prefix larger than the remaining payload must throw
  // instead of reading out of bounds.
  ByteWriter bad;
  bad.u32(1000);
  ByteReader br(bad.buffer().data(), bad.buffer().size());
  EXPECT_THROW((void)br.str(), std::runtime_error);

  ByteReader partial(w.buffer().data(), 2);
  EXPECT_THROW((void)partial.u32(), std::runtime_error);
  EXPECT_THROW(partial.expect_exhausted("partial"), std::runtime_error);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int diffs = 0;
  for (int i = 0; i < 16; ++i) {
    if (a() != b()) ++diffs;
  }
  EXPECT_GT(diffs, 12);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntCoversFullRangeInclusive) {
  Rng rng(11);
  std::set<int> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(0, 7));
  EXPECT_EQ(seen.size(), 8u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(13);
  const int n = 20000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, NormalScalesMeanAndStddev) {
  Rng rng(17);
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.08);
}

TEST(Rng, NormalMatchesReferencePolarMethod) {
  // Textbook Marsaglia polar method over uniform(-1, 1): pins the stream
  // normal() produces (and therefore every seeded synthetic dataset).
  Rng rng(29);
  Rng ref(29);
  for (int i = 0; i < 500; ++i) {
    double u = 0.0;
    double v = 0.0;
    double s = 0.0;
    do {
      u = ref.uniform(-1.0, 1.0);
      v = ref.uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    EXPECT_EQ(rng.normal(), u * factor) << "pair " << i;
    EXPECT_EQ(rng.normal(), v * factor) << "pair " << i;
  }
  EXPECT_EQ(rng(), ref());
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(19);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(31);
  Rng child = a.fork();
  EXPECT_NE(a(), child());
}

TEST(Units, TopsPerWattIsOpsPerPicojoule) {
  EXPECT_DOUBLE_EQ(tops_per_watt(100.0, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(tops_per_watt(0.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(tops_per_watt(100.0, 0.0), 0.0);
}

TEST(Units, GopsIsOpsPerNanosecond) {
  EXPECT_DOUBLE_EQ(gops(256.0, 8.9), 256.0 / 8.9);
}

TEST(Units, DensityMbPerMm2) {
  EXPECT_DOUBLE_EQ(mb_per_mm2(1.2e6, 0.24), 5.0);
}

TEST(Units, FormatSiPicksSuffix) {
  EXPECT_EQ(format_si(1.25e9, 2), "1.25 G");
  EXPECT_EQ(format_si(500.0, 0), "500 ");
}

TEST(Units, FormatFixedPrecision) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
}

TEST(Table, RendersHeadersAndRows) {
  TextTable t({"A", "B"});
  t.add_row({"x", "y"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| A"), std::string::npos);
  EXPECT_NE(s.find("| x"), std::string::npos);
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(Table, NumericRowFormatting) {
  TextTable t({"name", "v1", "v2"});
  t.add_row("row", {1.5, 2.25}, 2);
  EXPECT_NE(t.to_string().find("2.25"), std::string::npos);
}

TEST(Table, RejectsMismatchedRowWidth) {
  TextTable t({"A", "B"});
  EXPECT_THROW(t.add_row({"only-one"}), std::runtime_error);
}

TEST(Parallel, CoversAllIndicesExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(hits.size(), [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, HandlesZeroAndOne) {
  std::atomic<int> count{0};
  parallel_for(0, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 0);
  parallel_for(1, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 1);
}

TEST(Check, ThrowsWithMessage) {
  try {
    YOLOC_CHECK(false, "special-message");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("special-message"),
              std::string::npos);
  }
}

TEST(Check, MessageNamesTheSourceFileRelativeToTheRepository) {
  // Check messages reach clients (HTTP error bodies, yolocplan_inspect),
  // so a library check names its file from the repository root, never
  // by the build host's absolute path.
  Rng rng(1);
  try {
    (void)rng.uniform(2.0, 1.0);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(" at src/common/rng.cpp:"), std::string::npos)
        << what;
    EXPECT_EQ(what.find("/src/common/rng.cpp"), std::string::npos) << what;
  }
}

TEST(Check, PassesOnTrue) {
  EXPECT_NO_THROW(YOLOC_CHECK(true, "never"));
}

TEST(Base64, MatchesRfc4648Vectors) {
  const std::pair<const char*, const char*> vectors[] = {
      {"", ""},           {"f", "Zg=="},     {"fo", "Zm8="},
      {"foo", "Zm9v"},    {"foob", "Zm9vYg=="},
      {"fooba", "Zm9vYmE="}, {"foobar", "Zm9vYmFy"},
  };
  for (const auto& [plain, encoded] : vectors) {
    EXPECT_EQ(base64_encode(plain, std::strlen(plain)), encoded) << plain;
    std::vector<std::uint8_t> back;
    ASSERT_TRUE(base64_decode(encoded, back)) << encoded;
    EXPECT_EQ(std::string(back.begin(), back.end()), plain);
  }
}

TEST(Base64, RoundTripsBinaryExactly) {
  // f32 tensors ride base64 through the HTTP API; the round trip must
  // be byte-exact for every value including NaN payloads and -0.0.
  Rng rng(11);
  std::vector<float> values(257);  // deliberately not a multiple of 3 bytes
  for (float& v : values) v = rng.normal(0.0f, 10.0f);
  values[0] = -0.0f;
  values[1] = std::numeric_limits<float>::quiet_NaN();
  values[2] = std::numeric_limits<float>::infinity();
  const std::string text =
      base64_encode(values.data(), values.size() * sizeof(float));
  std::vector<std::uint8_t> back;
  ASSERT_TRUE(base64_decode(text, back));
  ASSERT_EQ(back.size(), values.size() * sizeof(float));
  EXPECT_EQ(std::memcmp(back.data(), values.data(), back.size()), 0);
}

TEST(Base64, StrictDecoderRejectsMalformedInput) {
  std::vector<std::uint8_t> out;
  // Length not a multiple of 4.
  EXPECT_FALSE(base64_decode("Zg", out));
  EXPECT_FALSE(base64_decode("Zm9vY", out));
  // Characters outside the alphabet (including whitespace).
  EXPECT_FALSE(base64_decode("Zm9v\n", out));
  EXPECT_FALSE(base64_decode("Zm!v", out));
  // Padding in the wrong place.
  EXPECT_FALSE(base64_decode("=m9v", out));
  EXPECT_FALSE(base64_decode("Z==v", out));
  EXPECT_FALSE(base64_decode("Zg==Zg==", out));  // pad before the end
  // A failed decode leaves `out` empty, never half-filled.
  EXPECT_TRUE(out.empty());
  // And the empty string is valid.
  EXPECT_TRUE(base64_decode("", out));
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace yoloc

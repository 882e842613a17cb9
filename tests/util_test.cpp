// Unit tests for src/util: deterministic RNG, bit-string helpers (checked
// against the paper's worked examples), table rendering, CLI parsing.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "util/bitstring.hpp"
#include "util/cli.hpp"
#include "util/fingerprint.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace dring::util {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(1234), b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, InRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.in_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(42);
  Rng child = parent.split();
  Rng parent2(42);
  Rng child2 = parent2.split();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(child.next_u64(), child2.next_u64());
}

TEST(Rng, ShufflePermutes) {
  Rng rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  auto shuffled_sorted = v;
  std::sort(shuffled_sorted.begin(), shuffled_sorted.end());
  EXPECT_EQ(shuffled_sorted, sorted);
}

TEST(Bitstring, ToBinary) {
  EXPECT_EQ(to_binary(0), "0");
  EXPECT_EQ(to_binary(1), "1");
  EXPECT_EQ(to_binary(2), "10");
  EXPECT_EQ(to_binary(6), "110");
  EXPECT_EQ(to_binary(164), "10100100");
}

TEST(Bitstring, FromBinaryRoundTrip) {
  for (std::uint64_t v : {0ULL, 1ULL, 2ULL, 5ULL, 48ULL, 164ULL, 304ULL,
                          1023ULL, 123456789ULL}) {
    EXPECT_EQ(from_binary(to_binary(v)), v);
  }
  EXPECT_EQ(from_binary("000110000"), 48u);  // leading zeros ignored
}

TEST(Bitstring, PadLeft) {
  EXPECT_EQ(pad_left("11", 4), "0011");
  EXPECT_EQ(pad_left("1111", 4), "1111");
  EXPECT_EQ(pad_left("11111", 4), "11111");
}

// Figure 9 of the paper: agent a with k1=010, k2=010, k3=000 -> ID 48.
TEST(Bitstring, Figure9AgentA) {
  EXPECT_EQ(interleave3("010", "010", "000"), "000110000");
  EXPECT_EQ(interleaved_id(2, 2, 0), 48u);
}

// Figure 9, agent b: k1=011, k2=100, k3=000 -> ID 164.
TEST(Bitstring, Figure9AgentB) {
  EXPECT_EQ(interleave3("011", "100", "000"), "010100100");
  EXPECT_EQ(interleaved_id(3, 4, 0), 164u);
}

// Figure 10, agent a: k1=10, k2=01, k3=10 -> ID 42.
TEST(Bitstring, Figure10AgentA) {
  EXPECT_EQ(interleave3("10", "01", "10"), "101010");
  EXPECT_EQ(interleaved_id(2, 1, 2), 42u);
}

// Figure 10, agent b: k1=110, k2=010, k3=000 -> ID 304.
TEST(Bitstring, Figure10AgentB) {
  EXPECT_EQ(interleave3("110", "010", "000"), "100110000");
  EXPECT_EQ(interleaved_id(6, 2, 0), 304u);
}

TEST(Bitstring, InterleavePadsShorterInputs) {
  // Different lengths: all padded to the longest before interleaving:
  // "001", "010", "100" -> a0 b0 c0 a1 b1 c1 a2 b2 c2.
  EXPECT_EQ(interleave3("1", "10", "100"), "001010100");
}

TEST(Bitstring, DupMatchesPaperExample) {
  EXPECT_EQ(dup("1010", 2), "11001100");  // paper, Section 3.2.3
  EXPECT_EQ(dup("01", 3), "000111");
  EXPECT_EQ(dup("", 5), "");
  EXPECT_EQ(dup("1", 1), "1");
}

TEST(BitVec, SetTestResetAcrossWordBoundaries) {
  util::BitVec v(130);  // spans three 64-bit words
  EXPECT_EQ(v.size(), 130u);
  EXPECT_EQ(v.count(), 0u);
  for (const std::size_t i : {0u, 63u, 64u, 127u, 128u, 129u}) {
    EXPECT_FALSE(v.test(i));
    v.set(i);
    EXPECT_TRUE(v.test(i));
  }
  EXPECT_EQ(v.count(), 6u);
  v.reset(64);
  EXPECT_FALSE(v.test(64));
  EXPECT_EQ(v.count(), 5u);
}

TEST(BitVec, TestAndSetReportsFreshnessOnce) {
  util::BitVec v(70);
  EXPECT_TRUE(v.test_and_set(69));
  EXPECT_FALSE(v.test_and_set(69));
  EXPECT_TRUE(v.test(69));
  EXPECT_EQ(v.count(), 1u);
}

TEST(BitVec, ResetRangeClearsExactlyTheHalfOpenInterval) {
  util::BitVec v(200);
  for (std::size_t i = 0; i < 200; ++i) v.set(i);
  v.reset_range(10, 140);  // head bits, full middle words, tail bits
  for (std::size_t i = 0; i < 200; ++i)
    EXPECT_EQ(v.test(i), i < 10 || i >= 140) << "bit " << i;
  EXPECT_EQ(v.count(), 70u);
  v.reset_range(50, 50);  // empty interval is a no-op
  EXPECT_EQ(v.count(), 70u);
}

TEST(BitVec, ResizeZeroesNewlyExposedBits) {
  util::BitVec v(10);
  for (std::size_t i = 0; i < 10; ++i) v.set(i);
  v.resize(5);   // shrink: the dropped bits must not survive a regrow
  v.resize(80);
  EXPECT_EQ(v.count(), 5u);
  for (std::size_t i = 5; i < 80; ++i) EXPECT_FALSE(v.test(i));
}

TEST(Bitstring, DistinctKTriplesGiveDistinctIds) {
  // "Two IDs are equal if and only if their ki's are equal."
  std::set<std::uint64_t> ids;
  int count = 0;
  for (std::uint64_t k1 = 0; k1 < 6; ++k1)
    for (std::uint64_t k2 = 0; k2 < 6; ++k2)
      for (std::uint64_t k3 = 0; k3 < 6; ++k3) {
        ids.insert(interleaved_id(k1, k2, k3));
        ++count;
      }
  EXPECT_EQ(static_cast<int>(ids.size()), count);
}

TEST(Table, RendersAlignedCells) {
  Table t({"a", "bbbb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  std::ostringstream ss;
  t.print(ss);
  const std::string out = ss.str();
  EXPECT_NE(out.find("| a   | bbbb |"), std::string::npos);
  EXPECT_NE(out.find("| 333 | 4    |"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"x", "y"});
  t.add_row({"1", "hello,world"});
  std::ostringstream ss;
  t.print_csv(ss);
  EXPECT_EQ(ss.str(), "x,y\n1,\"hello,world\"\n");
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(1234567), "1,234,567");
  EXPECT_EQ(fmt_count(-1234), "-1,234");
}

TEST(Fingerprint, Fnv1aKeepsTheProjectBasis) {
  // Basis 1469598103934665603 (not the standard 14695981039346656037):
  // every committed fingerprint and golden digest depends on it.
  EXPECT_EQ(fnv1a(""), 1469598103934665603ULL);
  EXPECT_EQ(fnv1a("a"), (1469598103934665603ULL ^ 'a') * 1099511628211ULL);
}

TEST(Fingerprint, ParseHexU64IsStrict) {
  EXPECT_EQ(parse_hex_u64("0x0000000000000010"), 16u);
  EXPECT_EQ(parse_hex_u64("0XdeadBEEF"), 0xdeadbeefu);
  EXPECT_EQ(parse_hex_u64("ff"), 255u);
  EXPECT_EQ(parse_hex_u64("0xffffffffffffffff"), ~std::uint64_t{0});
  for (const char* bad : {"", "0x", "-1", "+1", "0x-1", " 0x1", "0x1 ",
                          "0xzz", "0x1g", "0x0x1", "0x10000000000000000"})
    EXPECT_THROW(parse_hex_u64(bad), std::invalid_argument)
        << '"' << bad << '"';
}

TEST(Cli, ParsesFlagsAndPositionals) {
  // Note: a bare flag followed by a non-flag token would consume it as its
  // value, so boolean flags go last or use the --flag=true form.
  const char* argv[] = {"prog", "--n=12", "--seed", "7", "pos1", "--verbose"};
  Cli cli(6, argv);
  EXPECT_EQ(cli.get_int("n", 0), 12);
  EXPECT_EQ(cli.get_int("seed", 0), 7);
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_FALSE(cli.get_bool("quiet", false));
  EXPECT_EQ(cli.get("missing", "dflt"), "dflt");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

}  // namespace
}  // namespace dring::util

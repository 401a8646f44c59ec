// Unit tests for src/common: Status/StatusOr, BitVector, Rng, ZipfSampler,
// TablePrinter, Flags, CsvWriter, EventCount.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/bit_vector.h"
#include "common/csv_writer.h"
#include "common/event_count.h"
#include "common/flags.h"
#include "common/random.h"
#include "common/status.h"
#include "common/table_printer.h"

namespace vos {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (auto code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kIoError, StatusCode::kCorruption,
        StatusCode::kUnimplemented, StatusCode::kInternal}) {
    EXPECT_FALSE(StatusCodeToString(code).empty());
    EXPECT_NE(StatusCodeToString(code), "Unknown");
  }
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::IoError("x"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::NotFound("nope"));
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, WorksWithMoveOnlyTypes) {
  StatusOr<std::unique_ptr<int>> v(std::make_unique<int>(7));
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> taken = std::move(v).value();
  EXPECT_EQ(*taken, 7);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseHalf(int x, int* out) {
  VOS_ASSIGN_OR_RETURN(int h, Half(x));
  *out = h;
  return Status::OK();
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseHalf(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_EQ(UseHalf(3, &out).code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------- BitVector

TEST(BitVectorTest, StartsAllZero) {
  BitVector bits(100);
  EXPECT_EQ(bits.size(), 100u);
  EXPECT_EQ(bits.ones(), 0u);
  for (size_t i = 0; i < bits.size(); ++i) EXPECT_FALSE(bits.Get(i));
}

TEST(BitVectorTest, FlipTogglesAndTracksOnes) {
  BitVector bits(70);
  EXPECT_TRUE(bits.Flip(3));
  EXPECT_TRUE(bits.Flip(64));  // crosses the word boundary
  EXPECT_EQ(bits.ones(), 2u);
  EXPECT_TRUE(bits.Get(3));
  EXPECT_TRUE(bits.Get(64));
  EXPECT_FALSE(bits.Flip(3));  // back to zero
  EXPECT_EQ(bits.ones(), 1u);
  EXPECT_FALSE(bits.Get(3));
}

TEST(BitVectorTest, FractionOnes) {
  BitVector bits(8);
  EXPECT_DOUBLE_EQ(bits.FractionOnes(), 0.0);
  bits.Flip(0);
  bits.Flip(1);
  EXPECT_DOUBLE_EQ(bits.FractionOnes(), 0.25);
  EXPECT_DOUBLE_EQ(BitVector(0).FractionOnes(), 0.0);
}

TEST(BitVectorTest, ClearKeepsTheSize) {
  BitVector bits(50);
  bits.Flip(10);
  bits.Flip(20);
  bits.Clear();
  EXPECT_EQ(bits.ones(), 0u);
  EXPECT_EQ(bits.size(), 50u);
}

TEST(BitVectorTest, HammingDistance) {
  BitVector a(130), b(130);
  a.Flip(0);
  a.Flip(129);
  b.Flip(129);
  b.Flip(64);
  EXPECT_EQ(a.HammingDistance(b), 2u);  // bits 0 and 64 differ
  EXPECT_EQ(a.HammingDistance(a), 0u);
}

TEST(BitVectorTest, EqualityAndMemory) {
  BitVector a(65), b(65);
  EXPECT_TRUE(a == b);
  a.Flip(7);
  EXPECT_FALSE(a == b);
  EXPECT_EQ(a.MemoryBits(), 128u);  // two 64-bit words
}

/// Property sweep: ones() stays exact through long random flip sequences at
/// many sizes (including word-boundary sizes).
class BitVectorPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BitVectorPropertyTest, OnesMatchesBruteForceUnderRandomFlips) {
  const size_t size = GetParam();
  BitVector bits(size);
  std::vector<bool> model(size, false);
  Rng rng(size * 31 + 1);
  for (int step = 0; step < 2000; ++step) {
    const size_t pos = rng.NextBounded(size);
    bits.Flip(pos);
    model[pos] = !model[pos];
  }
  size_t brute = 0;
  for (size_t i = 0; i < size; ++i) {
    EXPECT_EQ(bits.Get(i), model[i]) << "bit " << i;
    brute += model[i];
  }
  EXPECT_EQ(bits.ones(), brute);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitVectorPropertyTest,
                         ::testing::Values(1, 2, 63, 64, 65, 127, 128, 1000));

// ------------------------------------------------------------------ Rng

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.NextU64() == b.NextU64());
  EXPECT_LT(equal, 3);
}

TEST(RngTest, SeedResetsSequence) {
  Rng rng(9);
  const uint64_t first = rng.NextU64();
  rng.NextU64();
  rng.Seed(9);
  EXPECT_EQ(rng.NextU64(), first);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(7), 7u);
  }
  EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(RngTest, BoundedIsRoughlyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 10;
  constexpr int kSamples = 100000;
  int counts[kBuckets] = {0};
  for (int i = 0; i < kSamples; ++i) ++counts[rng.NextBounded(kBuckets)];
  // Chi-square with 9 dof; 99.9% critical value ≈ 27.9.
  double chi2 = 0;
  const double expected = static_cast<double>(kSamples) / kBuckets;
  for (int c : counts) chi2 += (c - expected) * (c - expected) / expected;
  EXPECT_LT(chi2, 27.9);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(21);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(31);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.NextBernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, ShufflePreservesElementsAndPermutes) {
  Rng rng(41);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[i] = i;
  std::vector<int> original = v;
  rng.Shuffle(v);
  std::multiset<int> a(v.begin(), v.end()), b(original.begin(),
                                              original.end());
  EXPECT_EQ(a, b);
  EXPECT_NE(v, original);  // astronomically unlikely to be identity
}

// ----------------------------------------------------------- ZipfSampler

TEST(ZipfSamplerTest, SamplesWithinRange) {
  Rng rng(3);
  ZipfSampler zipf(17, 1.0);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(zipf.Sample(rng), 17u);
}

TEST(ZipfSamplerTest, AlphaZeroIsUniform) {
  Rng rng(13);
  ZipfSampler zipf(4, 0.0);
  int counts[4] = {0};
  for (int i = 0; i < 40000; ++i) ++counts[zipf.Sample(rng)];
  for (int c : counts) EXPECT_NEAR(c / 40000.0, 0.25, 0.02);
}

TEST(ZipfSamplerTest, HeadIsHeavierThanTail) {
  Rng rng(17);
  ZipfSampler zipf(100, 1.0);
  int head = 0, tail = 0;
  for (int i = 0; i < 20000; ++i) {
    const size_t r = zipf.Sample(rng);
    if (r == 0) ++head;
    if (r == 99) ++tail;
  }
  // P(0)/P(99) = 100 under alpha=1.
  EXPECT_GT(head, tail * 20);
}

TEST(ZipfSamplerTest, SingleRankAlwaysZero) {
  Rng rng(19);
  ZipfSampler zipf(1, 2.0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.Sample(rng), 0u);
}

/// Frequency of rank r should be ∝ 1/(r+1)^alpha; check the ratio of
/// adjacent head ranks across exponents.
class ZipfExponentTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfExponentTest, HeadRatioMatchesExponent) {
  const double alpha = GetParam();
  Rng rng(static_cast<uint64_t>(alpha * 100) + 7);
  ZipfSampler zipf(1000, alpha);
  size_t c0 = 0, c1 = 0;
  for (int i = 0; i < 200000; ++i) {
    const size_t r = zipf.Sample(rng);
    c0 += (r == 0);
    c1 += (r == 1);
  }
  const double expected_ratio = std::pow(2.0, alpha);
  EXPECT_NEAR(static_cast<double>(c0) / c1, expected_ratio,
              0.15 * expected_ratio);
}

INSTANTIATE_TEST_SUITE_P(Alphas, ZipfExponentTest,
                         ::testing::Values(0.5, 0.75, 1.0, 1.5));

// ---------------------------------------------------------- TablePrinter

TEST(TablePrinterTest, AlignsColumnsAndFormats) {
  TablePrinter t({"name", "value"});
  t.AddRow({"alpha", "1.5"});
  t.AddRow({"b", "22"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  // Numeric column right-aligned: "  1.5" end-aligned with "   22".
  EXPECT_NE(out.find(" 1.5"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TablePrinterTest, FormatHelpers) {
  EXPECT_EQ(TablePrinter::FormatInt(42), "42");
  EXPECT_EQ(TablePrinter::FormatDouble(0.125, 3), "0.125");
  EXPECT_EQ(TablePrinter::FormatDouble(1234567.0, 3), "1.23e+06");
}

// ----------------------------------------------------------------- Flags

TEST(FlagsTest, ParsesBothForms) {
  const char* argv[] = {"prog", "--k=100", "--dataset", "youtube_s",
                        "--verbose"};
  auto flags = Flags::Parse(5, const_cast<char**>(argv));
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetInt("k", 0), 100);
  EXPECT_EQ(flags->GetString("dataset", ""), "youtube_s");
  EXPECT_TRUE(flags->GetBool("verbose", false));
  EXPECT_FALSE(flags->Has("missing"));
  EXPECT_EQ(flags->GetDouble("lambda", 2.0), 2.0);  // default
}

TEST(FlagsTest, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "oops"};
  auto flags = Flags::Parse(2, const_cast<char**>(argv));
  EXPECT_FALSE(flags.ok());
  EXPECT_EQ(flags.status().code(), StatusCode::kInvalidArgument);
}

TEST(FlagsTest, TypedDefaultsAndOverrides) {
  const char* argv[] = {"prog", "--x=2.5", "--flag=false"};
  auto flags = Flags::Parse(3, const_cast<char**>(argv));
  ASSERT_TRUE(flags.ok());
  EXPECT_DOUBLE_EQ(flags->GetDouble("x", 0.0), 2.5);
  EXPECT_FALSE(flags->GetBool("flag", true));
}

// ------------------------------------------------------------- CsvWriter

TEST(CsvWriterTest, WritesEscapedRows) {
  const std::string path = ::testing::TempDir() + "/vos_csv_test.csv";
  auto writer = CsvWriter::Open(path, {"a", "b"});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->WriteRow({"plain", "has,comma"}).ok());
  ASSERT_TRUE(writer->WriteRow({"quote\"inside", "2"}).ok());
  ASSERT_TRUE(writer->Close().ok());

  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(),
            "a,b\nplain,\"has,comma\"\n\"quote\"\"inside\",2\n");
  std::remove(path.c_str());
}

TEST(CsvWriterTest, RowArityEnforced) {
  const std::string path = ::testing::TempDir() + "/vos_csv_arity.csv";
  auto writer = CsvWriter::Open(path, {"a", "b"});
  ASSERT_TRUE(writer.ok());
  EXPECT_EQ(writer->WriteRow({"only-one"}).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(writer->Close().ok());
  EXPECT_EQ(writer->WriteRow({"x", "y"}).code(),
            StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(CsvWriterTest, OpenFailsOnBadPath) {
  auto writer = CsvWriter::Open("/nonexistent-dir/file.csv", {"a"});
  EXPECT_FALSE(writer.ok());
  EXPECT_EQ(writer.status().code(), StatusCode::kIoError);
}

// ------------------------------------------------------------ EventCount

TEST(EventCountTest, NotifyBetweenPrepareAndWaitIsNotLost) {
  EventCount ec;
  const EventCount::Key timed = ec.PrepareWait();
  ec.NotifyAll();
  ASSERT_TRUE(ec.WaitUntil(
      timed, std::chrono::steady_clock::now() + std::chrono::seconds(60)));
  const EventCount::Key key = ec.PrepareWait();
  ec.NotifyAll();
  ec.Wait(key);  // returns at once: the notify came after PrepareWait
}

TEST(EventCountTest, NotifyBeforePrepareWaitDoesNotWake) {
  EventCount ec;
  ec.NotifyAll();  // nobody registered: nothing to carry over
  const EventCount::Key key = ec.PrepareWait();
  EXPECT_FALSE(ec.WaitUntil(key, std::chrono::steady_clock::now() +
                                     std::chrono::milliseconds(5)));
}

TEST(EventCountTest, WaitUntilReturnsFalseAtDeadline) {
  EventCount ec;
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::milliseconds(30);
  const EventCount::Key key = ec.PrepareWait();
  EXPECT_FALSE(ec.WaitUntil(key, deadline));
  EXPECT_GE(std::chrono::steady_clock::now(), deadline);
  // Unregistered on the way out: a later wait still times out alone.
  const EventCount::Key again = ec.PrepareWait();
  EXPECT_FALSE(ec.WaitUntil(again, std::chrono::steady_clock::now()));
}

/// Notifiers hand out tokens (add one, NotifyAll) and waiters take them
/// (recheck, else wait), both with random delays. Every token must be
/// taken exactly once and no wait may run into its (generous) deadline:
/// a lost wakeup would leave a waiter asleep beside an untaken token.
TEST(EventCountTest, StressCountsEveryWake) {
  constexpr int kNotifiers = 4;
  constexpr int kWaiters = 4;
  constexpr int kTokensEach = 500;
  constexpr int kTotal = kNotifiers * kTokensEach;
  EventCount ec;
  std::atomic<int> tokens{0};
  std::atomic<int> taken{0};
  std::atomic<int> timeouts{0};
  std::vector<int> taken_by(kWaiters, 0);
  const auto random_pause = [](Rng& rng) {
    const uint64_t r = rng.NextBounded(8);
    if (r == 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(rng.NextBounded(200)));
    } else if (r == 1) {
      std::this_thread::yield();
    }
  };
  const auto try_take = [&] {
    int have = tokens.load(std::memory_order_relaxed);
    while (have > 0) {
      if (tokens.compare_exchange_weak(have, have - 1,
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
        // The last token also wakes everyone still waiting, so they see
        // that the run is over.
        if (taken.fetch_add(1, std::memory_order_acq_rel) + 1 == kTotal) {
          ec.NotifyAll();
        }
        return true;
      }
    }
    return false;
  };
  std::vector<std::thread> threads;
  for (int w = 0; w < kWaiters; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(100 + w);
      for (;;) {
        if (try_take()) {
          ++taken_by[w];
          random_pause(rng);
          continue;
        }
        if (taken.load(std::memory_order_acquire) == kTotal) return;
        const EventCount::Key key = ec.PrepareWait();
        if (tokens.load(std::memory_order_acquire) > 0 ||
            taken.load(std::memory_order_acquire) == kTotal) {
          ec.CancelWait();
          continue;
        }
        if (!ec.WaitUntil(key, std::chrono::steady_clock::now() +
                                   std::chrono::seconds(30))) {
          timeouts.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int n = 0; n < kNotifiers; ++n) {
    threads.emplace_back([&, n] {
      Rng rng(200 + n);
      for (int t = 0; t < kTokensEach; ++t) {
        random_pause(rng);
        tokens.fetch_add(1, std::memory_order_release);
        ec.NotifyAll();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  int sum = 0;
  for (int count : taken_by) sum += count;
  EXPECT_EQ(sum, kTotal);
  EXPECT_EQ(taken.load(), kTotal);
  EXPECT_EQ(tokens.load(), 0);
  EXPECT_EQ(timeouts.load(), 0) << "a waiter slept through a notify";
}

}  // namespace
}  // namespace vos

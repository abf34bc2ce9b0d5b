// Detector snapshot/restore contract: a detector restored from an
// ExportState blob continues the stream bitwise-identically to the
// uninterrupted original — for every quantizer, for both approximate EMD
// solvers, and at every thread-pool size — and every malformed blob fails
// with a typed Status that leaves the target detector untouched.

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bagcpd/common/buffer_arena.h"
#include "bagcpd/common/rng.h"
#include "bagcpd/core/detector.h"
#include "bagcpd/data/gmm.h"
#include "bagcpd/runtime/thread_pool.h"
#include "bagcpd/serialize/checkpoint.h"
#include "bagcpd/serialize/wire.h"

namespace bagcpd {
namespace {

DetectorOptions BaseOptions() {
  DetectorOptions options;
  options.tau = 3;
  options.tau_prime = 3;
  options.bootstrap.replicates = 40;
  options.signature.method = SignatureMethod::kKMeans;
  options.signature.k = 3;
  options.seed = 17;
  return options;
}

BagSequence JumpStream(std::size_t length, std::size_t change_at,
                       std::uint64_t seed) {
  Rng rng(seed);
  const GaussianMixture before = GaussianMixture::Isotropic({0.0, 0.0}, 0.5);
  const GaussianMixture after = GaussianMixture::Isotropic({4.0, 4.0}, 0.5);
  BagSequence bags;
  for (std::size_t t = 0; t < length; ++t) {
    const GaussianMixture& mix =
        (change_at > 0 && t >= change_at) ? after : before;
    bags.push_back(mix.SampleBag(14, &rng));
  }
  return bags;
}

void ExpectIdenticalStep(const std::optional<StepResult>& a,
                         const std::optional<StepResult>& b,
                         const std::string& what) {
  ASSERT_EQ(a.has_value(), b.has_value()) << what;
  if (!a.has_value()) return;
  EXPECT_EQ(a->time, b->time) << what;
  EXPECT_EQ(a->score, b->score) << what;
  EXPECT_TRUE((std::isnan(a->ci_lo) && std::isnan(b->ci_lo)) ||
              a->ci_lo == b->ci_lo)
      << what;
  EXPECT_TRUE((std::isnan(a->ci_up) && std::isnan(b->ci_up)) ||
              a->ci_up == b->ci_up)
      << what;
  EXPECT_TRUE((std::isnan(a->xi) && std::isnan(b->xi)) || a->xi == b->xi)
      << what;
  EXPECT_EQ(a->alarm, b->alarm) << what;
}

// The core pin: run `options` over a 16-bag stream, snapshot after
// `split` bags, restore into a fresh detector, and feed both the identical
// tail. Every step — and the final re-exported state — must match bitwise.
void RunRestorePin(const DetectorOptions& options, std::size_t split,
                   ThreadPool* pool, const std::string& what) {
  const BagSequence bags = JumpStream(16, 9, 101);

  auto original = BagStreamDetector::Create(options).MoveValueUnsafe();
  original->set_thread_pool(pool);
  for (std::size_t t = 0; t < split; ++t) {
    ASSERT_TRUE(original->Push(bags[t]).ok()) << what;
  }

  std::string blob;
  ASSERT_TRUE(original->ExportState(&blob).ok()) << what;
  EXPECT_GT(blob.size(), 16u) << what;

  auto restored = BagStreamDetector::Create(options).MoveValueUnsafe();
  restored->set_thread_pool(pool);
  const Status imported = restored->ImportState(blob);
  ASSERT_TRUE(imported.ok()) << what << ": " << imported.ToString();
  EXPECT_EQ(restored->pushed_count(), original->pushed_count()) << what;

  for (std::size_t t = split; t < bags.size(); ++t) {
    Result<std::optional<StepResult>> a = original->Push(bags[t]);
    Result<std::optional<StepResult>> b = restored->Push(bags[t]);
    ASSERT_TRUE(a.ok() && b.ok()) << what << " step " << t;
    ExpectIdenticalStep(a.ValueOrDie(), b.ValueOrDie(),
                        what + " step " + std::to_string(t));
  }

  // Stronger than score equality: the complete serialized states agree
  // byte for byte after the shared tail.
  std::string end_a, end_b;
  ASSERT_TRUE(original->ExportState(&end_a).ok()) << what;
  ASSERT_TRUE(restored->ExportState(&end_b).ok()) << what;
  EXPECT_EQ(end_a, end_b) << what;
}

TEST(DetectorStateTest, EveryQuantizerRestoresBitwise) {
  for (SignatureMethod method : AllSignatureMethods()) {
    DetectorOptions options = BaseOptions();
    options.signature.method = method;
    RunRestorePin(options, 9, nullptr,
                  std::string("quantizer=") + SignatureMethodName(method));
  }
}

TEST(DetectorStateTest, ApproxSolversRestoreBitwise) {
  for (EmdSolverKind kind : {EmdSolverKind::kSinkhorn, EmdSolverKind::kSliced}) {
    DetectorOptions options = BaseOptions();
    options.emd.kind = kind;
    RunRestorePin(options, 9, nullptr,
                  std::string("emd=") + EmdSolverKindName(kind));
  }
}

TEST(DetectorStateTest, RestoreIsPoolSizeInvariant) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    for (EmdSolverKind kind :
         {EmdSolverKind::kExact, EmdSolverKind::kSinkhorn,
          EmdSolverKind::kSliced}) {
      DetectorOptions options = BaseOptions();
      options.emd.kind = kind;
      RunRestorePin(options, 9, &pool,
                    std::string("pool=") + std::to_string(threads) +
                        " emd=" + EmdSolverKindName(kind));
    }
  }
}

TEST(DetectorStateTest, MidWarmupSnapshotRestores) {
  // Export before the window ever fills: counters and a partial ring, no
  // primed table, empty history.
  RunRestorePin(BaseOptions(), 3, nullptr, "mid-warmup");
}

TEST(DetectorStateTest, FreshDetectorSnapshotRestores) {
  RunRestorePin(BaseOptions(), 0, nullptr, "fresh");
}

TEST(DetectorStateTest, CreateFromStateRebuildsConfiguration) {
  const BagSequence bags = JumpStream(16, 9, 33);
  DetectorOptions options = BaseOptions();
  options.emd.kind = EmdSolverKind::kSinkhorn;

  auto original = BagStreamDetector::Create(options).MoveValueUnsafe();
  for (std::size_t t = 0; t < 9; ++t) {
    ASSERT_TRUE(original->Push(bags[t]).ok());
  }
  std::string blob;
  ASSERT_TRUE(original->ExportState(&blob).ok());

  Result<std::unique_ptr<BagStreamDetector>> restored =
      BagStreamDetector::CreateFromState(blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  auto detector = restored.MoveValueUnsafe();
  EXPECT_EQ(detector->options().emd.kind, EmdSolverKind::kSinkhorn);
  EXPECT_EQ(detector->options().seed, options.seed);
  EXPECT_EQ(detector->pushed_count(), 9u);

  for (std::size_t t = 9; t < bags.size(); ++t) {
    Result<std::optional<StepResult>> a = original->Push(bags[t]);
    Result<std::optional<StepResult>> b = detector->Push(bags[t]);
    ASSERT_TRUE(a.ok() && b.ok());
    ExpectIdenticalStep(a.ValueOrDie(), b.ValueOrDie(),
                        "CreateFromState step " + std::to_string(t));
  }
}

TEST(DetectorStateTest, ImportRecyclesThroughArena) {
  const BagSequence bags = JumpStream(10, 0, 7);
  auto original = BagStreamDetector::Create(BaseOptions()).MoveValueUnsafe();
  for (const Bag& bag : bags) ASSERT_TRUE(original->Push(bag).ok());
  std::string blob;
  ASSERT_TRUE(original->ExportState(&blob).ok());

  BufferArena arena{BufferArenaOptions{}};
  auto restored = BagStreamDetector::Create(BaseOptions()).MoveValueUnsafe();
  restored->set_buffer_arena(&arena);
  ASSERT_TRUE(restored->ImportState(blob).ok());
  const BufferArenaStats first = arena.stats();
  EXPECT_GT(first.acquires, 0u);
  // A second import re-acquires the staging buffer from the pool.
  ASSERT_TRUE(restored->ImportState(blob).ok());
  const BufferArenaStats second = arena.stats();
  EXPECT_GT(second.pool_hits, first.pool_hits);
}

// ---- Robustness: every malformed blob is a typed error, and the target
// ---- detector keeps producing the untouched twin's results afterwards.

class DetectorStateRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bags_ = JumpStream(16, 9, 55);
    auto source = BagStreamDetector::Create(BaseOptions()).MoveValueUnsafe();
    for (std::size_t t = 0; t < 9; ++t) ASSERT_TRUE(source->Push(bags_[t]).ok());
    ASSERT_TRUE(source->ExportState(&blob_).ok());
  }

  // Feeds the remaining bags to `victim` and an untouched twin; a failed
  // import must not have changed what the victim computes.
  void ExpectUnmodified(BagStreamDetector* victim, std::size_t fed) {
    auto twin = BagStreamDetector::Create(BaseOptions()).MoveValueUnsafe();
    for (std::size_t t = 0; t < fed; ++t) ASSERT_TRUE(twin->Push(bags_[t]).ok());
    for (std::size_t t = fed; t < bags_.size(); ++t) {
      Result<std::optional<StepResult>> a = victim->Push(bags_[t]);
      Result<std::optional<StepResult>> b = twin->Push(bags_[t]);
      ASSERT_TRUE(a.ok() && b.ok());
      ExpectIdenticalStep(a.ValueOrDie(), b.ValueOrDie(),
                          "post-failure step " + std::to_string(t));
    }
  }

  BagSequence bags_;
  std::string blob_;
};

TEST_F(DetectorStateRobustnessTest, TruncatedBlobIsIoError) {
  auto victim = BagStreamDetector::Create(BaseOptions()).MoveValueUnsafe();
  for (std::size_t t = 0; t < 5; ++t) ASSERT_TRUE(victim->Push(bags_[t]).ok());
  for (std::size_t len : {std::size_t{0}, std::size_t{7}, std::size_t{40},
                          blob_.size() - 1}) {
    const Status status =
        victim->ImportState(std::string_view(blob_).substr(0, len));
    EXPECT_EQ(status.code(), StatusCode::kIoError)
        << "prefix " << len << ": " << status.ToString();
  }
  ExpectUnmodified(victim.get(), 5);
}

TEST_F(DetectorStateRobustnessTest, FlippedByteIsChecksumError) {
  auto victim = BagStreamDetector::Create(BaseOptions()).MoveValueUnsafe();
  std::string corrupt = blob_;
  corrupt[corrupt.size() / 2] ^= 0x20;
  const Status status = victim->ImportState(corrupt);
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
  ExpectUnmodified(victim.get(), 0);
}

TEST_F(DetectorStateRobustnessTest, UnknownVersionIsNotImplemented) {
  auto victim = BagStreamDetector::Create(BaseOptions()).MoveValueUnsafe();
  std::string future = blob_;
  future[8] = 42;  // Version u32 sits right after the 8-byte magic.
  const Status status = victim->ImportState(future);
  EXPECT_EQ(status.code(), StatusCode::kNotImplemented) << status.ToString();
}

TEST_F(DetectorStateRobustnessTest, SpecMismatchIsInvalid) {
  DetectorOptions other = BaseOptions();
  other.tau_prime = 4;  // Same blob, differently-configured target.
  auto victim = BagStreamDetector::Create(other).MoveValueUnsafe();
  const Status status = victim->ImportState(blob_);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  // The message names both specs so the mismatch is actionable.
  EXPECT_NE(status.ToString().find("tau_prime"), std::string::npos);
}

TEST_F(DetectorStateRobustnessTest, WrongBlobKindIsInvalid) {
  auto victim = BagStreamDetector::Create(BaseOptions()).MoveValueUnsafe();
  std::string engine_blob;
  serialize::WireWriter writer(&engine_blob);
  writer.BeginBlob(serialize::BlobKind::kEngineCheckpoint);
  writer.EndBlob();
  const Status status = victim->ImportState(engine_blob);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
}

TEST_F(DetectorStateRobustnessTest, HostileRngStateIsInvalid) {
  // A CRC-valid blob whose RNG text carries a word position past the
  // 312-word block: re-encode every section, swapping in the hostile text,
  // so the checksum is valid and only the RNG decoder can object.
  Result<serialize::WireReader> opened =
      serialize::OpenBlob(blob_, serialize::BlobKind::kDetector);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  serialize::WireReader reader = opened.MoveValueUnsafe();
  std::string hostile;
  serialize::WireWriter writer(&hostile);
  writer.BeginBlob(serialize::BlobKind::kDetector);
  bool saw_rng = false;
  while (!reader.AtEnd()) {
    std::uint32_t tag = 0;
    std::string_view payload;
    ASSERT_TRUE(reader.NextSection(&tag, &payload).ok());
    writer.BeginSection(tag);
    if (tag == serialize::kSecRng) {
      serialize::WireReader section(payload);
      std::string_view text;
      ASSERT_TRUE(section.ReadString(&text).ok());
      const std::string state(text);
      writer.PutString(state.substr(0, state.rfind(' ') + 1) + "313");
      saw_rng = true;
    } else {
      writer.PutBytes(payload.data(), payload.size());
    }
    writer.EndSection();
  }
  writer.EndBlob();
  ASSERT_TRUE(saw_rng);

  auto victim = BagStreamDetector::Create(BaseOptions()).MoveValueUnsafe();
  for (std::size_t t = 0; t < 5; ++t) ASSERT_TRUE(victim->Push(bags_[t]).ok());
  const Status status = victim->ImportState(hostile);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  ExpectUnmodified(victim.get(), 5);
}

TEST(DetectorStateTest, EstimatedStateBytesTracksWindowFill) {
  const BagSequence bags = JumpStream(10, 0, 3);
  auto detector = BagStreamDetector::Create(BaseOptions()).MoveValueUnsafe();
  const std::size_t empty = detector->EstimatedStateBytes();
  for (const Bag& bag : bags) ASSERT_TRUE(detector->Push(bag).ok());
  EXPECT_GT(detector->EstimatedStateBytes(), empty);
}

TEST(DetectorStateTest, InspectDetectorBlobReportsFill) {
  const BagSequence bags = JumpStream(8, 0, 3);
  auto detector = BagStreamDetector::Create(BaseOptions()).MoveValueUnsafe();
  for (const Bag& bag : bags) ASSERT_TRUE(detector->Push(bag).ok());
  std::string blob;
  ASSERT_TRUE(detector->ExportState(&blob).ok());

  Result<serialize::DetectorBlobInfo> info =
      serialize::InspectDetectorBlob(blob);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.ValueOrDie().window_capacity, 6u);
  // Between pushes the steady-state ring holds tau + tau' - 1 signatures:
  // each scored push slides the oldest out before control returns.
  EXPECT_EQ(info.ValueOrDie().window_fill, 5u);
  EXPECT_EQ(info.ValueOrDie().next_index, 8u);
  EXPECT_EQ(info.ValueOrDie().blob_bytes, blob.size());
  EXPECT_NE(info.ValueOrDie().spec.find("tau=3"), std::string::npos);
}

}  // namespace
}  // namespace bagcpd

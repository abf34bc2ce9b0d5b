// Engine-level checkpoint contract: ExportStream/ImportStream and
// Checkpoint/Restore continue every stream bitwise-identically — across
// different shard counts on either side of the restore — spilled streams
// transparently rehydrate on their next bag with identical results, and
// every malformed or conflicting import is a typed Status.

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bagcpd/common/rng.h"
#include "bagcpd/data/gmm.h"
#include "bagcpd/runtime/stream_engine.h"
#include "bagcpd/serialize/checkpoint.h"

namespace bagcpd {
namespace {

DetectorOptions EngineDetector() {
  DetectorOptions options;
  options.tau = 3;
  options.tau_prime = 3;
  options.bootstrap.replicates = 30;
  options.signature.method = SignatureMethod::kKMeans;
  options.signature.k = 3;
  options.seed = 0;  // Engines derive per-stream seeds themselves.
  return options;
}

StreamEngineOptions EngineOptions(std::size_t shards) {
  StreamEngineOptions options;
  options.num_shards = shards;
  options.seed = 5;
  options.detector = EngineDetector();
  return options;
}

BagSequence KeyStream(const std::string& key, std::size_t length) {
  Rng rng(1000 + std::hash<std::string>{}(key) % 97);
  const GaussianMixture before = GaussianMixture::Isotropic({0.0, 0.0}, 0.5);
  const GaussianMixture after = GaussianMixture::Isotropic({4.0, 4.0}, 0.5);
  BagSequence bags;
  for (std::size_t t = 0; t < length; ++t) {
    bags.push_back((t >= length / 2 ? after : before).SampleBag(14, &rng));
  }
  return bags;
}

std::map<std::string, BagSequence> Corpus(std::size_t keys,
                                          std::size_t length) {
  std::map<std::string, BagSequence> corpus;
  for (std::size_t i = 0; i < keys; ++i) {
    const std::string key = "stream-" + std::to_string(i);
    corpus[key] = KeyStream(key, length);
  }
  return corpus;
}

// Round-robin submission, time-major, like live interleaved traffic.
void SubmitRange(StreamEngine* engine,
                 const std::map<std::string, BagSequence>& corpus,
                 std::size_t from, std::size_t to) {
  for (std::size_t t = from; t < to; ++t) {
    for (const auto& [key, bags] : corpus) {
      ASSERT_TRUE(engine->Submit(key, bags[t]).ok()) << key << " t=" << t;
    }
  }
}

std::map<std::string, std::vector<StepResult>> DrainSteps(
    StreamEngine* engine) {
  std::map<std::string, std::vector<StepResult>> steps;
  for (const EngineEvent& event : engine->DrainEvents()) {
    if (event.kind == EngineEvent::Kind::kStep) {
      steps[event.stream_id].push_back(event.step);
    }
  }
  return steps;
}

void AppendSteps(std::map<std::string, std::vector<StepResult>>* into,
                 std::map<std::string, std::vector<StepResult>> tail) {
  for (auto& [key, steps] : tail) {
    auto& dest = (*into)[key];
    dest.insert(dest.end(), steps.begin(), steps.end());
  }
}

void ExpectIdenticalSeries(
    const std::map<std::string, std::vector<StepResult>>& a,
    const std::map<std::string, std::vector<StepResult>>& b,
    const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (const auto& [key, steps] : a) {
    auto it = b.find(key);
    ASSERT_NE(it, b.end()) << what << " key " << key;
    ASSERT_EQ(steps.size(), it->second.size()) << what << " key " << key;
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const StepResult& x = steps[i];
      const StepResult& y = it->second[i];
      EXPECT_EQ(x.time, y.time) << what << " " << key << " step " << i;
      EXPECT_EQ(x.score, y.score) << what << " " << key << " step " << i;
      EXPECT_TRUE((std::isnan(x.xi) && std::isnan(y.xi)) || x.xi == y.xi)
          << what << " " << key << " step " << i;
      EXPECT_EQ(x.alarm, y.alarm) << what << " " << key << " step " << i;
    }
  }
}

std::string MakeSpillDir() {
  std::string tmpl = ::testing::TempDir() + "bagcpd-spill-XXXXXX";
  const char* dir = mkdtemp(tmpl.data());
  EXPECT_NE(dir, nullptr);
  return tmpl;
}

std::size_t CountFiles(const std::string& dir) {
  std::size_t files = 0;
  DIR* handle = opendir(dir.c_str());
  EXPECT_NE(handle, nullptr) << dir;
  if (handle == nullptr) return files;
  while (dirent* entry = readdir(handle)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") ++files;
  }
  closedir(handle);
  return files;
}

std::string FileContents(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

ino_t InodeOf(const std::string& path) {
  struct stat st {};
  EXPECT_EQ(stat(path.c_str(), &st), 0) << path;
  return st.st_ino;
}

TEST(EngineCheckpointTest, RewriteFileBytesMovesAndOverwritesInPlace) {
  const std::string dir = MakeSpillDir();
  const std::string a = dir + "/a", b = dir + "/b", c = dir + "/c";
  const std::string longer(5000, 'x');
  const std::string shorter = "spill payload";
  ASSERT_TRUE(serialize::WriteFileBytes(a, longer).ok());
  const ino_t inode = InodeOf(a);

  // Shrinks: the old tail must not survive past the new payload.
  ASSERT_TRUE(serialize::RewriteFileBytes(a, b, shorter).ok());
  EXPECT_NE(access(a.c_str(), F_OK), 0);
  EXPECT_EQ(FileContents(b), shorter);
  EXPECT_EQ(InodeOf(b), inode);  // The same file, renamed.

  // Grows.
  ASSERT_TRUE(serialize::RewriteFileBytes(b, c, longer).ok());
  EXPECT_EQ(FileContents(c), longer);
  EXPECT_EQ(InodeOf(c), inode);
  EXPECT_EQ(CountFiles(dir), 1u);

  // A missing file to reuse falls back to a plain write.
  ASSERT_TRUE(serialize::RewriteFileBytes(a, b, shorter).ok());
  EXPECT_EQ(FileContents(b), shorter);
  EXPECT_EQ(CountFiles(dir), 2u);
}

TEST(EngineCheckpointTest, CheckpointRestoreBitwiseAcrossShardCounts) {
  const auto corpus = Corpus(5, 18);

  // The uninterrupted reference run.
  auto reference = StreamEngine::Create(EngineOptions(2)).MoveValueUnsafe();
  SubmitRange(reference.get(), corpus, 0, 18);
  reference->Flush();
  const auto expected = DrainSteps(reference.get());

  const std::size_t shard_pairs[][2] = {{1, 4}, {2, 2}, {4, 1}};
  for (const auto& pair : shard_pairs) {
    const std::string what = "shards " + std::to_string(pair[0]) + "->" +
                             std::to_string(pair[1]);
    auto first = StreamEngine::Create(EngineOptions(pair[0])).MoveValueUnsafe();
    SubmitRange(first.get(), corpus, 0, 9);
    first->Flush();
    auto combined = DrainSteps(first.get());

    std::string blob;
    ASSERT_TRUE(first->Checkpoint(&blob).ok()) << what;

    // A fresh engine — different process in the CI recovery job, different
    // shard count here — continues the tail bitwise.
    auto second =
        StreamEngine::Create(EngineOptions(pair[1])).MoveValueUnsafe();
    const Status restored = second->Restore(blob);
    ASSERT_TRUE(restored.ok()) << what << ": " << restored.ToString();
    EXPECT_EQ(second->restored_count(), corpus.size()) << what;
    EXPECT_EQ(second->live_stream_count(), corpus.size()) << what;
    second->DrainEvents();  // Discard the kRestore events.

    SubmitRange(second.get(), corpus, 9, 18);
    second->Flush();
    AppendSteps(&combined, DrainSteps(second.get()));
    ExpectIdenticalSeries(expected, combined, what);
  }
}

TEST(EngineCheckpointTest, ExportImportSingleStreamRoundTrip) {
  const auto corpus = Corpus(3, 16);

  auto reference = StreamEngine::Create(EngineOptions(2)).MoveValueUnsafe();
  SubmitRange(reference.get(), corpus, 0, 16);
  reference->Flush();
  const auto expected = DrainSteps(reference.get());

  auto first = StreamEngine::Create(EngineOptions(3)).MoveValueUnsafe();
  SubmitRange(first.get(), corpus, 0, 10);
  first->Flush();
  auto combined = DrainSteps(first.get());

  std::string blob;
  ASSERT_TRUE(first->ExportStream("stream-1", &blob).ok());

  // The blob is self-describing: key, profile, and resume position.
  Result<serialize::StreamBlobInfo> info = serialize::InspectStreamBlob(blob);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.ValueOrDie().key, "stream-1");
  EXPECT_EQ(info.ValueOrDie().profile, kDefaultProfileName);
  EXPECT_EQ(info.ValueOrDie().detector.next_index, 10u);

  auto second = StreamEngine::Create(EngineOptions(1)).MoveValueUnsafe();
  ASSERT_TRUE(second->ImportStream("stream-1", blob).ok());
  EXPECT_EQ(second->restored_count(), 1u);
  second->DrainEvents();
  for (std::size_t t = 10; t < 16; ++t) {
    ASSERT_TRUE(second->Submit("stream-1", corpus.at("stream-1")[t]).ok());
    ASSERT_TRUE(first->Submit("stream-0", corpus.at("stream-0")[t]).ok());
    ASSERT_TRUE(first->Submit("stream-2", corpus.at("stream-2")[t]).ok());
    ASSERT_TRUE(first->Submit("stream-1", corpus.at("stream-1")[t]).ok());
  }
  first->Flush();
  second->Flush();
  AppendSteps(&combined, DrainSteps(first.get()));
  // The imported copy's tail must equal the original's tail bitwise.
  const auto imported_tail = DrainSteps(second.get());
  ASSERT_EQ(imported_tail.size(), 1u);
  ExpectIdenticalSeries(expected, combined, "original engines");
  std::map<std::string, std::vector<StepResult>> expected_tail;
  const auto& full = expected.at("stream-1");
  const auto& prefix_done = combined.at("stream-1").size();
  (void)prefix_done;
  expected_tail["stream-1"] =
      std::vector<StepResult>(full.end() - imported_tail.at("stream-1").size(),
                              full.end());
  ExpectIdenticalSeries(expected_tail, imported_tail, "imported tail");
}

TEST(EngineCheckpointTest, CheckpointEventsCarryBlobSizes) {
  const auto corpus = Corpus(2, 10);
  auto engine = StreamEngine::Create(EngineOptions(2)).MoveValueUnsafe();
  SubmitRange(engine.get(), corpus, 0, 10);
  engine->Flush();
  engine->DrainEvents();

  std::string blob;
  ASSERT_TRUE(engine->ExportStream("stream-0", &blob).ok());
  bool saw_checkpoint = false;
  for (const EngineEvent& event : engine->DrainEvents()) {
    if (event.kind == EngineEvent::Kind::kCheckpoint) {
      saw_checkpoint = true;
      EXPECT_EQ(event.stream_id, "stream-0");
      EXPECT_EQ(event.profile, kDefaultProfileName);
      EXPECT_GT(event.blob_bytes, 0u);
    }
  }
  EXPECT_TRUE(saw_checkpoint);

  // The legacy drains predate checkpoint events and must stay step/error
  // only: a second export followed by the legacy pair sees neither kind.
  ASSERT_TRUE(engine->ExportStream("stream-1", &blob).ok());
  EXPECT_TRUE(engine->Drain().empty());
  EXPECT_TRUE(engine->DrainErrors().empty());
}

TEST(EngineCheckpointTest, ImportConflictsAreTypedErrors) {
  const auto corpus = Corpus(2, 8);
  auto source = StreamEngine::Create(EngineOptions(1)).MoveValueUnsafe();
  SubmitRange(source.get(), corpus, 0, 8);
  source->Flush();
  std::string blob;
  ASSERT_TRUE(source->ExportStream("stream-0", &blob).ok());

  auto target = StreamEngine::Create(EngineOptions(1)).MoveValueUnsafe();
  // Key mismatch: the blob names stream-0.
  EXPECT_EQ(target->ImportStream("stream-9", blob).code(),
            StatusCode::kInvalidArgument);
  // Import into an already-bound key.
  ASSERT_TRUE(target->Submit("stream-0", corpus.at("stream-0")[0]).ok());
  target->Flush();
  EXPECT_EQ(target->ImportStream("stream-0", blob).code(),
            StatusCode::kInvalidArgument);
  // Truncated / corrupt blobs are IO errors, not crashes.
  EXPECT_EQ(target
                ->ImportStream("stream-0",
                               std::string_view(blob).substr(0, blob.size() / 2))
                .code(),
            StatusCode::kIoError);
  // Unknown key on export.
  std::string out;
  EXPECT_EQ(target->ExportStream("no-such-stream", &out).code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineCheckpointTest, RestoreRejectsSeedAndOptionMismatches) {
  const auto corpus = Corpus(2, 8);
  auto source = StreamEngine::Create(EngineOptions(2)).MoveValueUnsafe();
  SubmitRange(source.get(), corpus, 0, 8);
  source->Flush();
  std::string blob;
  ASSERT_TRUE(source->Checkpoint(&blob).ok());

  // Engine seed mismatch: per-stream seeds would re-derive differently, so
  // bitwise continuation is impossible and the restore is refused up front.
  StreamEngineOptions other_seed = EngineOptions(2);
  other_seed.seed = 6;
  auto wrong_seed = StreamEngine::Create(other_seed).MoveValueUnsafe();
  EXPECT_EQ(wrong_seed->Restore(blob).code(), StatusCode::kInvalidArgument);

  // Same seed but differently-configured default profile: the per-stream
  // options-spec gate refuses each stream.
  StreamEngineOptions other_detector = EngineOptions(2);
  other_detector.detector.tau = 4;
  auto wrong_detector = StreamEngine::Create(other_detector).MoveValueUnsafe();
  EXPECT_EQ(wrong_detector->Restore(blob).code(),
            StatusCode::kInvalidArgument);

  // A detector blob is not an engine checkpoint.
  std::string stream_blob;
  ASSERT_TRUE(source->ExportStream("stream-0", &stream_blob).ok());
  EXPECT_EQ(wrong_seed->Restore(stream_blob).code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineCheckpointTest, SpillThenTouchRoundTrip) {
  // More keys than the widest shard count below: the budget LRU never spills
  // the stream whose bag triggered the check, so a shard must own at least
  // two streams to spill at all.
  const auto corpus = Corpus(6, 14);

  auto reference = StreamEngine::Create(EngineOptions(2)).MoveValueUnsafe();
  SubmitRange(reference.get(), corpus, 0, 14);
  reference->Flush();
  const auto expected = DrainSteps(reference.get());

  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    StreamEngineOptions options = EngineOptions(shards);
    options.spill_directory = MakeSpillDir();
    options.spill_resident_bytes = 1;  // Force the budget LRU constantly.
    auto engine = StreamEngine::Create(options).MoveValueUnsafe();
    SubmitRange(engine.get(), corpus, 0, 14);
    engine->Flush();

    // Every stream went cold and came back at least once, and the spill
    // churn never changed a single score bit.
    EXPECT_GT(engine->spilled_count(), 0u) << shards << " shards";
    EXPECT_GT(engine->restored_count(), 0u) << shards << " shards";
    std::map<std::string, std::vector<StepResult>> steps;
    bool saw_spill = false, saw_rehydrate = false;
    for (const EngineEvent& event : engine->DrainEvents()) {
      switch (event.kind) {
        case EngineEvent::Kind::kStep:
          steps[event.stream_id].push_back(event.step);
          break;
        case EngineEvent::Kind::kCheckpoint:
          saw_spill = true;
          EXPECT_GT(event.blob_bytes, 0u);
          break;
        case EngineEvent::Kind::kRestore:
          saw_rehydrate = true;
          EXPECT_GT(event.blob_bytes, 0u);
          break;
        default:
          break;
      }
    }
    EXPECT_TRUE(saw_spill) << shards << " shards";
    EXPECT_TRUE(saw_rehydrate) << shards << " shards";
    // Rehydrated files are reused by later spills or deleted: an idle
    // engine's directory holds exactly one file per spilled stream.
    EXPECT_EQ(CountFiles(options.spill_directory),
              engine->spilled_count() - engine->restored_count())
        << shards << " shards";
    ExpectIdenticalSeries(expected, steps,
                          "spill @ " + std::to_string(shards) + " shards");
    // Rehydration stages file bytes through the shard arenas.
    EXPECT_GT(engine->arena_stats().pool_hits, 0u);
  }
}

TEST(EngineCheckpointTest, RehydratedSpillFileLeavesTheDirectory) {
  // No budget, so no spill follows the rehydrate to reuse its file: the
  // shard deletes it before it goes idle.
  StreamEngineOptions options = EngineOptions(1);
  options.spill_directory = MakeSpillDir();
  options.max_idle_submissions = 4;
  auto engine = StreamEngine::Create(options).MoveValueUnsafe();
  const BagSequence cold = KeyStream("cold", 5);
  for (std::size_t t = 0; t < 4; ++t) {
    ASSERT_TRUE(engine->Submit("cold", cold[t]).ok());
  }
  const Bag filler = KeyStream("busy", 1).front();
  for (int i = 0; i < 600; ++i) {  // The idle sweep spills "cold".
    ASSERT_TRUE(engine->Submit("busy", filler).ok());
  }
  engine->Flush();
  ASSERT_EQ(engine->spilled_count(), 1u);
  EXPECT_EQ(CountFiles(options.spill_directory), 1u);

  ASSERT_TRUE(engine->Submit("cold", cold[4]).ok());
  engine->Flush();
  EXPECT_EQ(engine->restored_count(), 1u);
  EXPECT_EQ(CountFiles(options.spill_directory), 0u);
}

TEST(EngineCheckpointTest, CheckpointCoversSpilledStreams) {
  const auto corpus = Corpus(3, 12);

  auto reference = StreamEngine::Create(EngineOptions(1)).MoveValueUnsafe();
  SubmitRange(reference.get(), corpus, 0, 12);
  reference->Flush();
  const auto expected = DrainSteps(reference.get());

  StreamEngineOptions options = EngineOptions(2);
  options.spill_directory = MakeSpillDir();
  options.spill_resident_bytes = 1;
  auto spilling = StreamEngine::Create(options).MoveValueUnsafe();
  SubmitRange(spilling.get(), corpus, 0, 7);
  spilling->Flush();
  auto combined = DrainSteps(spilling.get());

  // At this point most streams sit in spill files, not memory; the engine
  // checkpoint must carry them all the same.
  std::string blob;
  ASSERT_TRUE(spilling->Checkpoint(&blob).ok());
  Result<serialize::CheckpointInfo> info = serialize::InspectCheckpoint(blob);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.ValueOrDie().engine_seed, 5u);
  EXPECT_EQ(info.ValueOrDie().streams.size(), corpus.size());

  // Restore into a plain engine with no spilling at all.
  auto second = StreamEngine::Create(EngineOptions(2)).MoveValueUnsafe();
  ASSERT_TRUE(second->Restore(blob).ok());
  second->DrainEvents();
  SubmitRange(second.get(), corpus, 7, 12);
  second->Flush();
  AppendSteps(&combined, DrainSteps(second.get()));
  ExpectIdenticalSeries(expected, combined, "spilled checkpoint");
}

TEST(EngineCheckpointTest, ResidentBytesTrackSpill) {
  const auto corpus = Corpus(2, 10);
  StreamEngineOptions options = EngineOptions(1);
  options.spill_directory = MakeSpillDir();
  auto engine = StreamEngine::Create(options).MoveValueUnsafe();
  SubmitRange(engine.get(), corpus, 0, 10);
  engine->Flush();
  // No budget: both streams stay resident and accounted.
  EXPECT_EQ(engine->spilled_count(), 0u);
  EXPECT_GT(engine->resident_state_bytes(), 0u);
  EXPECT_EQ(engine->live_stream_count(), 2u);
}

}  // namespace
}  // namespace bagcpd

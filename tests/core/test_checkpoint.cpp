// Write-ahead journal + StudyCheckpoint (DESIGN.md §13). The load-bearing
// property is fail-closed resume: a journal either loads exactly the records
// the killed process committed, or throws JournalError — it never half-loads
// — while a torn tail past the commit pointer is silently discarded (that is
// the SIGKILL-mid-append case the design exists for).
#include "core/checkpoint/checkpoint.hpp"
#include "core/checkpoint/journal.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace encdns::core {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kFingerprint = 0x1122334455667788ull;

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/encdns_ckpt_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string journal_file() const { return dir_ + "/journal.bin"; }
  [[nodiscard]] std::string commit_file() const { return dir_ + "/journal.commit"; }

  [[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path) const {
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
  }
  void write_file(const std::string& path,
                  const std::vector<std::uint8_t>& bytes) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  /// A journal with three committed records ("alpha" superseded once).
  void seed_journal() const {
    Journal journal(dir_, kFingerprint, /*resume=*/false);
    journal.append("alpha", {1, 2, 3});
    journal.append("beta", {4, 5});
    journal.commit();
    journal.append("alpha", {9, 9, 9});
    journal.commit();
  }

  std::string dir_;
};

TEST_F(CheckpointTest, CommittedRecordsSurviveReopen) {
  seed_journal();
  Journal journal(dir_, kFingerprint, /*resume=*/true);
  ASSERT_EQ(journal.records().size(), 3u);
  EXPECT_EQ(journal.records()[0].key, "alpha");
  EXPECT_EQ(journal.records()[1].key, "beta");
  const Journal::Record* last = journal.find_last("alpha");
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->body, (std::vector<std::uint8_t>{9, 9, 9}));
  EXPECT_EQ(journal.find_last("gamma"), nullptr);
}

TEST_F(CheckpointTest, UncommittedAppendIsDiscardedOnReopen) {
  {
    Journal journal(dir_, kFingerprint, false);
    journal.append("alpha", {1});
    journal.commit();
    journal.append("torn", {2, 3, 4});  // no commit: dies before durable
  }
  Journal journal(dir_, kFingerprint, true);
  EXPECT_EQ(journal.records().size(), 1u);
  EXPECT_EQ(journal.find_last("torn"), nullptr);
}

TEST_F(CheckpointTest, TornTailBeyondCommitPointerIsTruncated) {
  seed_journal();
  // Simulate SIGKILL mid-append: garbage after the committed prefix.
  std::ofstream out(journal_file(), std::ios::binary | std::ios::app);
  out << "garbage bytes from a torn write";
  out.close();
  Journal journal(dir_, kFingerprint, true);
  EXPECT_EQ(journal.records().size(), 3u);
}

TEST_F(CheckpointTest, ResumeAfterTornTailTruncationCanAppendAgain) {
  seed_journal();
  std::ofstream(journal_file(), std::ios::binary | std::ios::app) << "torn";
  {
    Journal journal(dir_, kFingerprint, true);
    journal.append("gamma", {7});
    journal.commit();
  }
  Journal journal(dir_, kFingerprint, true);
  ASSERT_EQ(journal.records().size(), 4u);
  EXPECT_EQ(journal.records().back().key, "gamma");
}

TEST_F(CheckpointTest, ZeroLengthJournalFailsClosed) {
  seed_journal();
  write_file(journal_file(), {});
  EXPECT_THROW(Journal(dir_, kFingerprint, true), JournalError);
}

TEST_F(CheckpointTest, MissingJournalFailsClosed) {
  EXPECT_THROW(Journal(dir_, kFingerprint, true), JournalError);
}

TEST_F(CheckpointTest, MissingCommitSidecarFailsClosed) {
  seed_journal();
  fs::remove(commit_file());
  EXPECT_THROW(Journal(dir_, kFingerprint, true), JournalError);
}

TEST_F(CheckpointTest, JournalShorterThanCommitPointerFailsClosed) {
  seed_journal();
  auto bytes = read_file(journal_file());
  bytes.resize(bytes.size() - 1);
  write_file(journal_file(), bytes);
  EXPECT_THROW(Journal(dir_, kFingerprint, true), JournalError);
}

TEST_F(CheckpointTest, BitFlipInCommittedPrefixFailsClosed) {
  seed_journal();
  auto bytes = read_file(journal_file());
  bytes[bytes.size() / 2] ^= 0x40;
  write_file(journal_file(), bytes);
  EXPECT_THROW(Journal(dir_, kFingerprint, true), JournalError);
}

TEST_F(CheckpointTest, VersionSkewFailsClosed) {
  seed_journal();
  auto bytes = read_file(journal_file());
  bytes[8] ^= 0xFF;  // u32 version lives right after the 8-byte magic
  write_file(journal_file(), bytes);
  EXPECT_THROW(Journal(dir_, kFingerprint, true), JournalError);
}

TEST_F(CheckpointTest, VersionOneJournalFailsClosed) {
  // Version 1 journals hold the retired absolute-snapshot records; a
  // well-formed v1 header must be refused by name, before any record is
  // read (the version check precedes the checksum).
  seed_journal();
  auto bytes = read_file(journal_file());
  bytes[8] = 1;  // little-endian u32 version right after the 8-byte magic
  bytes[9] = bytes[10] = bytes[11] = 0;
  write_file(journal_file(), bytes);
  try {
    Journal journal(dir_, kFingerprint, true);
    FAIL() << "a version-1 journal must not load";
  } catch (const JournalError& e) {
    EXPECT_NE(std::string(e.what()).find("journal version 1"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(CheckpointTest, WrongMagicFailsClosed) {
  seed_journal();
  auto bytes = read_file(journal_file());
  bytes[0] = 'X';
  write_file(journal_file(), bytes);
  EXPECT_THROW(Journal(dir_, kFingerprint, true), JournalError);
}

TEST_F(CheckpointTest, FingerprintMismatchFailsClosed) {
  seed_journal();
  EXPECT_THROW(Journal(dir_, kFingerprint ^ 1, true), JournalError);
}

TEST_F(CheckpointTest, RandomSingleBitCorruptionNeverHalfLoads) {
  seed_journal();
  const auto pristine_journal = read_file(journal_file());
  const auto pristine_commit = read_file(commit_file());
  util::Rng rng(0xC0FFEE);
  for (int trial = 0; trial < 100; ++trial) {
    auto journal_bytes = pristine_journal;
    auto commit_bytes = pristine_commit;
    const bool hit_sidecar = rng.chance(0.3);
    auto& target = hit_sidecar ? commit_bytes : journal_bytes;
    const std::size_t at =
        static_cast<std::size_t>(rng.next() % target.size());
    target[at] ^= static_cast<std::uint8_t>(1u << (rng.next() % 8));
    write_file(journal_file(), journal_bytes);
    write_file(commit_file(), commit_bytes);
    try {
      Journal journal(dir_, kFingerprint, true);
      // A flip the validator tolerated must not have changed what loads:
      // the only acceptable outcomes are "throws" and "exact records".
      ASSERT_EQ(journal.records().size(), 3u) << "trial " << trial;
      EXPECT_EQ(journal.find_last("alpha")->body,
                (std::vector<std::uint8_t>{9, 9, 9}))
          << "trial " << trial;
    } catch (const JournalError&) {
      // fail-closed: the expected outcome
    }
    write_file(journal_file(), pristine_journal);
    write_file(commit_file(), pristine_commit);
  }
  // The pristine pair must still load (the loop restored it).
  Journal journal(dir_, kFingerprint, true);
  EXPECT_EQ(journal.records().size(), 3u);
}

TEST_F(CheckpointTest, KillAfterEnvSigkillsAtTheConfiguredCommit) {
  EXPECT_EXIT(
      {
        ::setenv("ENCDNS_CHECKPOINT_KILL_AFTER", "2", 1);
        Journal journal(dir_, kFingerprint, false);
        journal.append("a", {1});
        journal.commit();  // commit 1: survives
        journal.append("b", {2});
        journal.commit();  // commit 2: SIGKILL fires here
        std::_Exit(0);     // never reached
      },
      ::testing::KilledBySignal(SIGKILL), "");
}

// --- cursor / metrics codecs -------------------------------------------------

WorldCursor sample_cursor() {
  WorldCursor cursor;
  cursor.global_platform.rng.words = {1, 2, 3, 4};
  cursor.global_platform.rng.cached_normal = 0.25;
  cursor.global_platform.rng.has_cached_normal = true;
  cursor.global_platform.next_id = 42;
  cursor.cn_platform.rng.words = {5, 6, 7, 8};
  cursor.cn_platform.next_id = 7;
  cache::ExportedEntry entry;
  entry.key = "example.com|A|853";
  entry.expiry_s = 1234567;
  cache::CachedAnswer answer;
  answer.rcode = dns::RCode::kNxDomain;
  cache::encode_cached_answer(answer, entry.wire);
  cursor.caches.push_back({entry});
  cursor.caches.push_back({});  // second backend, empty cache
  return cursor;
}

TEST_F(CheckpointTest, CursorCodecRoundTripsByteIdentically) {
  util::ByteWriter w;
  encode_cursor(w, sample_cursor());
  util::ByteReader r(w.data());
  const WorldCursor decoded = decode_cursor(r);
  r.expect_done();
  EXPECT_EQ(decoded.global_platform.next_id, 42u);
  EXPECT_EQ(decoded.cn_platform.next_id, 7u);
  ASSERT_EQ(decoded.caches.size(), 2u);
  ASSERT_EQ(decoded.caches[0].size(), 1u);
  EXPECT_EQ(decoded.caches[0][0].key, "example.com|A|853");
  dns::RCode rcode = dns::RCode::kNoError;
  std::vector<dns::ResourceRecord> records;
  ASSERT_TRUE(cache::decode_cached_answer(decoded.caches[0][0].wire, rcode,
                                          records));
  EXPECT_EQ(rcode, dns::RCode::kNxDomain);
  util::ByteWriter again;
  encode_cursor(again, decoded);
  EXPECT_EQ(again.data(), w.data());
}

TEST_F(CheckpointTest, TruncatedCursorFailsClosed) {
  util::ByteWriter w;
  encode_cursor(w, sample_cursor());
  util::ByteReader r(w.data().data(), w.size() - 3);
  EXPECT_THROW((void)decode_cursor(r), util::CodecError);
}

// --- StudyCheckpoint over the journal ---------------------------------------

obs::Snapshot sample_delta(std::uint64_t value) {
  obs::Snapshot delta;
  delta.counters.push_back({"test.ckpt.work", value, false});
  return delta;
}

TEST_F(CheckpointTest, PhaseCommitRoundTripsStateAndCursor) {
  const std::vector<std::uint8_t> state = {0xDE, 0xAD, 0xBE, 0xEF};
  {
    StudyCheckpoint checkpoint(dir_, kFingerprint, false);
    checkpoint.commit_phase_delta("scan_campaign", state, sample_cursor(),
                                  sample_delta(5));
  }
  StudyCheckpoint checkpoint(dir_, kFingerprint, true);
  const auto loaded = checkpoint.load_phase_delta("scan_campaign");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->state, state);
  EXPECT_EQ(loaded->cursor.global_platform.next_id, 42u);
  ASSERT_EQ(loaded->cursor.caches.size(), 2u);
  EXPECT_EQ(loaded->cursor.caches[0][0].expiry_s, 1234567);
  ASSERT_EQ(loaded->delta.counters.size(), 1u);
  EXPECT_EQ(loaded->delta.counters[0].name, "test.ckpt.work");
  EXPECT_EQ(loaded->delta.counters[0].value, 5u);
  EXPECT_TRUE(checkpoint.load_skeleton().has_value());
  EXPECT_FALSE(checkpoint.load_phase_delta("doh_discovery").has_value());
}

TEST_F(CheckpointTest, PartialsSupersedeAndPhaseWinsOverPartial) {
  {
    StudyCheckpoint checkpoint(dir_, kFingerprint, false);
    WorldCursor pre = sample_cursor();
    auto hook = checkpoint.phase_delta_hook("performance", pre, [&] {
      return sample_cursor();  // capture: caches at save time
    });
    EXPECT_FALSE(hook->load().has_value());
    hook->save({1});
    hook->save({2, 2});
    EXPECT_EQ(hook->load().value(), (std::vector<std::uint8_t>{2, 2}));
  }
  {
    StudyCheckpoint checkpoint(dir_, kFingerprint, true);
    const auto partial = checkpoint.load_partial_delta("performance");
    ASSERT_TRUE(partial.has_value());
    EXPECT_EQ(partial->state, (std::vector<std::uint8_t>{2, 2}));
    EXPECT_FALSE(checkpoint.load_phase_delta("performance").has_value());
    checkpoint.commit_phase_delta("performance", {3, 3, 3}, sample_cursor(),
                                  sample_delta(1));
  }
  StudyCheckpoint checkpoint(dir_, kFingerprint, true);
  const auto loaded = checkpoint.load_phase_delta("performance");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->state, (std::vector<std::uint8_t>{3, 3, 3}));
}

TEST_F(CheckpointTest, PartialPreCursorKeepsThePrePhasePlatformPosition) {
  // The hybrid-cursor contract: platform cursors in a partial are the
  // pre-phase ones (the prologue re-runs on resume), but cache contents are
  // captured at save time.
  StudyCheckpoint checkpoint(dir_, kFingerprint, false);
  WorldCursor pre = sample_cursor();
  pre.global_platform.next_id = 100;
  pre.caches = {{}, {}};
  auto hook = checkpoint.phase_delta_hook("netflow", pre, [&] {
    WorldCursor advanced = sample_cursor();
    advanced.global_platform.next_id = 999;  // platform moved mid-phase
    advanced.caches[1].push_back(advanced.caches[0][0]);  // caches moved too
    return advanced;
  });
  hook->save({1});
  const auto partial = checkpoint.load_partial_delta("netflow");
  ASSERT_TRUE(partial.has_value());
  EXPECT_EQ(partial->cursor.global_platform.next_id, 100u);  // pre-phase
  ASSERT_EQ(partial->cursor.caches.size(), 2u);
  EXPECT_EQ(partial->cursor.caches[0].size(), 1u);  // at-save, not pre
  EXPECT_EQ(partial->cursor.caches[1].size(), 1u);
}

}  // namespace
}  // namespace encdns::core

// ArtifactStore: round trips, fingerprint verification (corruption degrades
// to a rebuild, never a wrong value), LRU byte-cap eviction, and the
// OnceCache spill hook (memory -> disk -> build with write-through).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "util/artifact_store.h"
#include "util/once_cache.h"

namespace xlv::util {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("xlv-artifact-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter++));
    fs::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

std::vector<fs::path> entryFiles(const fs::path& root) {
  std::vector<fs::path> files;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(root, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file() && it->path().extension() == ".art") {
      files.push_back(it->path());
    }
  }
  return files;
}

TEST(ArtifactStore, StoreLoadRoundTripAndStats) {
  TempDir dir;
  ArtifactStore store(ArtifactStoreConfig{dir.str(), 0});

  EXPECT_FALSE(store.load("golden", "key-a").has_value());
  EXPECT_EQ(1u, store.stats().misses);

  std::string payload = "binary";
  payload.push_back('\0');
  payload += "payload\nwith=weird:bytes";
  store.store("golden", "key-a", payload);
  EXPECT_EQ(1u, store.stats().stores);

  const auto loaded = store.load("golden", "key-a");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(payload, *loaded);
  EXPECT_EQ(1u, store.stats().hits);

  // Same key, different domain: a distinct entry.
  EXPECT_FALSE(store.load("prefix", "key-a").has_value());
  store.store("prefix", "key-a", "other");
  EXPECT_EQ("other", store.load("prefix", "key-a").value());

  // Overwrite (atomic replace) serves the newest payload.
  store.store("golden", "key-a", "v2");
  EXPECT_EQ("v2", store.load("golden", "key-a").value());
}

TEST(ArtifactStore, PersistsAcrossStoreInstancesLikeProcesses) {
  TempDir dir;
  {
    ArtifactStore writer(ArtifactStoreConfig{dir.str(), 0});
    writer.store("golden", "shared", "across-process payload");
  }
  ArtifactStore reader(ArtifactStoreConfig{dir.str(), 0});
  const auto loaded = reader.load("golden", "shared");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ("across-process payload", *loaded);
}

TEST(ArtifactStore, CorruptEntryIsDroppedAndReportedAsMiss) {
  TempDir dir;
  ArtifactStore store(ArtifactStoreConfig{dir.str(), 0});
  store.store("golden", "k", "the payload");

  const auto files = entryFiles(dir.path);
  ASSERT_EQ(1u, files.size());

  // Flip one payload byte on disk: the embedded FNV fingerprint must catch
  // it; the entry is dropped (no file left) and the load is a miss.
  {
    std::fstream f(files[0], std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-4, std::ios::end);
    f.put('X');
  }
  EXPECT_FALSE(store.load("golden", "k").has_value());
  EXPECT_EQ(1u, store.stats().corrupt);
  EXPECT_TRUE(entryFiles(dir.path).empty());

  // Truncation (a torn write that bypassed the atomic rename) is equally
  // fatal for that entry and equally recoverable.
  store.store("golden", "k", "the payload");
  const auto files2 = entryFiles(dir.path);
  ASSERT_EQ(1u, files2.size());
  fs::resize_file(files2[0], fs::file_size(files2[0]) / 2);
  EXPECT_FALSE(store.load("golden", "k").has_value());
  EXPECT_EQ(2u, store.stats().corrupt);

  // After the drop a rebuild + store works again.
  store.store("golden", "k", "rebuilt");
  EXPECT_EQ("rebuilt", store.load("golden", "k").value());
}

TEST(ArtifactStore, TempFilesAreNeverVisibleAsEntries) {
  TempDir dir;
  ArtifactStore store(ArtifactStoreConfig{dir.str(), 0});
  for (int i = 0; i < 16; ++i) {
    store.store("d", "k" + std::to_string(i), std::string(100, 'x'));
  }
  // Only finished entries on disk: no .tmp leftovers (rename is the commit).
  std::size_t tmp = 0;
  for (fs::recursive_directory_iterator it(dir.path), end; it != end; ++it) {
    if (it->is_regular_file() && it->path().extension() != ".art") ++tmp;
  }
  EXPECT_EQ(0u, tmp);
  EXPECT_EQ(16u, entryFiles(dir.path).size());
}

TEST(ArtifactStore, AKeyStoredTwiceHoldsOneEntryWithTheSecondPayload) {
  TempDir dir;
  ArtifactStore store(ArtifactStoreConfig{dir.str(), 0});
  store.store("d", "k", std::string(500, 'a'));
  store.store("d", "k", "second");
  EXPECT_EQ("second", store.load("d", "k").value());
  EXPECT_EQ(2u, store.stats().stores);
  std::vector<fs::path> files;
  for (const auto& e : fs::recursive_directory_iterator(dir.path)) {
    if (e.is_regular_file()) files.push_back(e.path());
  }
  ASSERT_EQ(1u, files.size()) << "a temp file was left behind";
  EXPECT_EQ(".art", files.front().extension());
  EXPECT_EQ(fs::file_size(files.front()), store.diskBytes());
}

TEST(ArtifactStore, ByteCapEvictsLeastRecentlyUsed) {
  TempDir dir;
  // Entries are ~payload + envelope; a cap of ~2.5 entries keeps two.
  const std::string payload(400, 'p');
  ArtifactStore probe(ArtifactStoreConfig{dir.str(), 0});
  probe.store("d", "probe", payload);
  const std::uint64_t entryBytes = probe.diskBytes();
  ASSERT_GT(entryBytes, 400u);
  fs::remove_all(dir.path / "d");

  // Millisecond gaps keep the mtime-based LRU order unambiguous even on
  // filesystems with coarse timestamp resolution.
  const auto gap = [] { std::this_thread::sleep_for(std::chrono::milliseconds(15)); };
  ArtifactStore store(ArtifactStoreConfig{dir.str(), entryBytes * 5 / 2});
  store.store("d", "a", payload);
  gap();
  store.store("d", "b", payload);
  EXPECT_EQ(0u, store.stats().evictions);

  // Touch "a" so "b" is the least recently used, then overflow.
  gap();
  ASSERT_TRUE(store.load("d", "a").has_value());
  gap();
  store.store("d", "c", payload);
  EXPECT_EQ(1u, store.stats().evictions);
  EXPECT_TRUE(store.load("d", "a").has_value());
  EXPECT_TRUE(store.load("d", "c").has_value());
  EXPECT_FALSE(store.load("d", "b").has_value()) << "LRU victim must be b";
  EXPECT_LE(store.diskBytes(), entryBytes * 5 / 2);
}

TEST(ArtifactStore, ProcessStoreConfigureAndDisable) {
  TempDir dir;
  EXPECT_EQ(nullptr, processArtifactStore());
  configureProcessArtifactStore(ArtifactStoreConfig{dir.str(), 0});
  ASSERT_NE(nullptr, processArtifactStore());
  processArtifactStore()->store("d", "k", "v");
  EXPECT_EQ("v", processArtifactStore()->load("d", "k").value());
  configureProcessArtifactStore(std::nullopt);
  EXPECT_EQ(nullptr, processArtifactStore());
}

// --- the OnceCache spill hook ------------------------------------------------

std::string encodeInt(const int& v) { return std::to_string(v); }
int decodeInt(std::string_view s) {
  // Strict tiny codec for the test: any non-digit is a DecodeError.
  if (s.empty()) throw DecodeError("empty int");
  int v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') throw DecodeError("bad int");
    v = v * 10 + (c - '0');
  }
  return v;
}

TEST(ArtifactStore, GetOrBuildWithStoreLayersMemoryDiskBuild) {
  TempDir dir;
  ArtifactStore store(ArtifactStoreConfig{dir.str(), 0});
  OnceCache<int> mem;
  int builds = 0;
  const std::function<int()> build = [&] { return ++builds, 41 + builds; };

  // Cold everything: builds, writes through.
  bool memHit = true, diskHit = true;
  auto v1 = getOrBuildWithStore<int>(mem, &store, "d", "k", build, encodeInt, decodeInt,
                                     &memHit, &diskHit);
  EXPECT_EQ(42, *v1);
  EXPECT_EQ(1, builds);
  EXPECT_FALSE(memHit);
  EXPECT_FALSE(diskHit);
  EXPECT_EQ(1u, store.stats().stores);

  // Memory-warm: no disk traffic at all.
  const auto diskStatsBefore = store.stats();
  auto v2 = getOrBuildWithStore<int>(mem, &store, "d", "k", build, encodeInt, decodeInt,
                                     &memHit, &diskHit);
  EXPECT_EQ(42, *v2);
  EXPECT_TRUE(memHit);
  EXPECT_FALSE(diskHit);
  EXPECT_EQ(1, builds);
  EXPECT_EQ(diskStatsBefore.hits, store.stats().hits);

  // Fresh memory (a new process): served from disk, not rebuilt.
  OnceCache<int> mem2;
  auto v3 = getOrBuildWithStore<int>(mem2, &store, "d", "k", build, encodeInt, decodeInt,
                                     &memHit, &diskHit);
  EXPECT_EQ(42, *v3);
  EXPECT_FALSE(memHit);
  EXPECT_TRUE(diskHit);
  EXPECT_EQ(1, builds);

  // No store configured: plain OnceCache behavior.
  OnceCache<int> mem3;
  auto v4 = getOrBuildWithStore<int>(mem3, nullptr, "d", "k", build, encodeInt, decodeInt,
                                     &memHit, &diskHit);
  EXPECT_EQ(43, *v4);
  EXPECT_EQ(2, builds);
  EXPECT_FALSE(diskHit);
}

TEST(ArtifactStore, UndecodablePayloadIsDroppedAndRebuilt) {
  TempDir dir;
  ArtifactStore store(ArtifactStoreConfig{dir.str(), 0});
  // A verified entry whose *decode* fails (schema skew): not-an-int bytes.
  store.store("d", "k", "not-an-int");

  OnceCache<int> mem;
  int builds = 0;
  bool memHit = true, diskHit = true;
  auto v = getOrBuildWithStore<int>(
      mem, &store, "d", "k", [&] { return ++builds, 7; }, encodeInt, decodeInt, &memHit,
      &diskHit);
  EXPECT_EQ(7, *v);
  EXPECT_EQ(1, builds) << "decode failure must fall back to a rebuild";
  EXPECT_FALSE(diskHit);
  EXPECT_EQ(1u, store.stats().corrupt);
  // The unusable entry must not linger in the hit ledger: a warm run that
  // rebuilt everything has to report zero hits (--require-disk-hits).
  EXPECT_EQ(0u, store.stats().hits);
  EXPECT_GE(store.stats().misses, 1u);

  // The rebuild overwrote the bad entry: a fresh memory layer now disk-hits.
  OnceCache<int> mem2;
  auto v2 = getOrBuildWithStore<int>(
      mem2, &store, "d", "k", [&] { return ++builds, 8; }, encodeInt, decodeInt, &memHit,
      &diskHit);
  EXPECT_EQ(7, *v2);
  EXPECT_EQ(1, builds);
  EXPECT_TRUE(diskHit);
}

// --- age-based expiry (ROADMAP store housekeeping) ---------------------------

/// Backdate an entry file's mtime so it looks `age` old to the expiry scan.
void backdate(const fs::path& file, std::chrono::seconds age) {
  fs::last_write_time(file, fs::file_time_type::clock::now() - age);
}

TEST(ArtifactStore, GcExpiresEntriesOlderThanMaxAge) {
  TempDir dir;
  ArtifactStore store(ArtifactStoreConfig{dir.str(), 0, /*maxAgeSeconds=*/3600});
  store.store("golden", "old", "stale-payload");
  store.store("golden", "fresh", "fresh-payload");
  ASSERT_EQ(2u, entryFiles(dir.path).size());

  // Age one entry past the limit; the other stays current.
  for (const fs::path& f : entryFiles(dir.path)) {
    if (fs::file_size(f) == 0) continue;
    std::ifstream in(f);
    std::string content((std::istreambuf_iterator<char>(in)), {});
    if (content.find("stale-payload") != std::string::npos) {
      backdate(f, std::chrono::seconds(7200));
    }
  }

  EXPECT_EQ(1u, store.gc());
  EXPECT_EQ(1u, store.stats().expired);
  EXPECT_FALSE(store.load("golden", "old").has_value());
  EXPECT_EQ("fresh-payload", store.load("golden", "fresh").value());
  EXPECT_EQ(1u, entryFiles(dir.path).size());
}

TEST(ArtifactStore, ConstructionSweepExpiresAgedEntries) {
  TempDir dir;
  {
    ArtifactStore store(ArtifactStoreConfig{dir.str(), 0});
    store.store("golden", "k", "payload");
  }
  for (const fs::path& f : entryFiles(dir.path)) backdate(f, std::chrono::seconds(7200));

  // A new store instance (a later process) with an age limit self-cleans at
  // construction — the stale entry is gone before the first load.
  ArtifactStore store(ArtifactStoreConfig{dir.str(), 0, /*maxAgeSeconds=*/3600});
  EXPECT_EQ(1u, store.stats().expired);
  EXPECT_EQ(0u, entryFiles(dir.path).size());
  EXPECT_FALSE(store.load("golden", "k").has_value());
}

TEST(ArtifactStore, ZeroMaxAgeNeverExpires) {
  TempDir dir;
  ArtifactStore store(ArtifactStoreConfig{dir.str(), 0, /*maxAgeSeconds=*/0});
  store.store("golden", "k", "payload");
  for (const fs::path& f : entryFiles(dir.path)) backdate(f, std::chrono::seconds(1u << 20));
  EXPECT_EQ(0u, store.gc());
  EXPECT_EQ(0u, store.stats().expired);
  EXPECT_EQ("payload", store.load("golden", "k").value());
}

TEST(ArtifactStore, GcEnforcesByteCapWithoutAgeLimit) {
  TempDir dir;
  std::uint64_t bytes = 0;
  {
    // Populate unbounded, then reopen with a cap: gc() must evict down.
    ArtifactStore store(ArtifactStoreConfig{dir.str(), 0});
    for (int i = 0; i < 8; ++i) {
      const auto before = entryFiles(dir.path);
      store.store("golden", "key-" + std::to_string(i), std::string(256, 'x'));
      // Backdate only the just-written entry: genuinely distinct mtimes
      // keep the LRU order deterministic on coarse-resolution filesystems.
      for (const fs::path& f : entryFiles(dir.path)) {
        if (std::find(before.begin(), before.end(), f) == before.end()) {
          backdate(f, std::chrono::seconds(100 - i * 10));
        }
      }
    }
    bytes = store.diskBytes();
  }
  ASSERT_GT(bytes, 0u);
  ArtifactStore capped(ArtifactStoreConfig{dir.str(), bytes / 2, 0});
  EXPECT_GT(capped.gc(), 0u);
  EXPECT_LE(capped.diskBytes(), bytes / 2);
  EXPECT_GT(entryFiles(dir.path).size(), 0u);
}

}  // namespace
}  // namespace xlv::util

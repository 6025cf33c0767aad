#include "util/artifact_store.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <vector>

#include "util/fault_point.h"
#include "util/file.h"
#include "util/fnv.h"
#include "util/log.h"

namespace xlv::util {

namespace fs = std::filesystem;

namespace {

// Entry envelope (util/codec.h): the full key (hash-collision check) plus
// the payload and its fingerprint. Version-bump on any change so stale
// stores are dropped as corrupt instead of misread.
constexpr const char* kEntryTag = "artifact";
constexpr int kEntryVersion = 1;
constexpr const char* kEntrySuffix = ".art";
// Temp files carry this marker; a crashed writer's orphan is swept once it
// is old enough that no live writer can still own it.
constexpr const char* kTempMarker = ".art.tmp.";
constexpr auto kStaleTempAge = std::chrono::hours(1);

bool isTempFile(const fs::path& p) {
  return p.filename().string().find(kTempMarker) != std::string::npos;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

}  // namespace

ArtifactStore::ArtifactStore(ArtifactStoreConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.dir.empty()) {
    throw std::runtime_error("artifact store: empty cache directory");
  }
  std::error_code ec;
  fs::create_directories(cfg_.dir, ec);
  if (ec || !fs::is_directory(cfg_.dir)) {
    throw std::runtime_error("artifact store: cannot create directory '" + cfg_.dir +
                             "': " + ec.message());
  }
  // Sweep temp orphans left by crashed writers, expire aged entries and
  // take the initial byte census the capped store's running total starts
  // from.
  std::lock_guard<std::mutex> lock(mutex_);
  expireOldEntriesLocked();
  approxBytes_ = scanLocked(/*sweepStaleTemps=*/true);
}

std::string ArtifactStore::entryPath(std::string_view domain, const std::string& key) const {
  return (fs::path(cfg_.dir) / std::string(domain) / (hex64(fnv1a64(key)) + kEntrySuffix))
      .string();
}

std::optional<std::string> ArtifactStore::load(std::string_view domain,
                                               const std::string& key) {
  const std::string path = entryPath(domain, key);
  // File I/O runs without the mutex: rename() publication means a read
  // sees a whole entry or none, so the lock only needs to cover the
  // stats/census metadata — concurrent executor tasks must not serialize
  // their disk reads behind one another.
  std::optional<std::string> raw = tryReadFile(path);
  if (!raw) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.misses;
    return std::nullopt;
  }
  try {
    Decoder d(*raw, kEntryTag, kEntryVersion);
    const std::string storedKey = d.str("key");
    const std::uint64_t fingerprint = d.u64("fnv");
    std::string payload = d.str("payload");
    d.finish();
    if (storedKey != key) {
      // A different key hashing to the same file: a valid entry that is
      // simply not ours. Leave it in place (last writer owns the slot).
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.misses;
      return std::nullopt;
    }
    if (fnv1a64(payload) != fingerprint) {
      throw DecodeError("payload fingerprint mismatch");
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.hits;
    }
    // LRU recency: a hit makes the entry the freshest. Failures (entry
    // raced away by an eviction) are harmless — recency is advisory.
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
    return payload;
  } catch (const DecodeError& e) {
    XLV_WARN("artifact") << "dropping corrupt entry " << path << ": " << e.what();
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.corrupt;
    removeEntryLocked(path);
    ++stats_.misses;
    return std::nullopt;
  }
}

void ArtifactStore::store(std::string_view domain, const std::string& key,
                          std::string_view payload) {
  // Chaos hook: a "fail" skips the store (a later load is a plain miss and
  // rebuilds), a "short" publishes a truncated entry (the load-side FNV
  // check drops it and rebuilds) — both degrade to recomputation, never to
  // wrong results.
  const FaultAction fault = faultPoint("store.write");
  if (fault == FaultAction::Fail) return;

  const std::string path = entryPath(domain, key);
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  if (ec) return;

  Encoder e(kEntryTag, kEntryVersion);
  e.str("key", key);
  e.u64("fnv", fnv1a64(payload));
  e.str("payload", payload);
  std::string entry = e.take();
  if (fault == FaultAction::Short) entry.resize(entry.size() / 2);

  // A replaced entry's size leaves the census. file_size can fail even
  // after exists() (another process's eviction racing us); an errored size
  // must read as 0, not as uintmax_t(-1) collapsing the running total.
  std::uint64_t replacedBytes = 0;
  if (fs::exists(path, ec) && !ec) {
    const std::uintmax_t sz = fs::file_size(path, ec);
    if (!ec) replacedBytes = static_cast<std::uint64_t>(sz);
  }
  // Like load(), the write itself runs without the mutex.
  try {
    publishFile(path, entry);
  } catch (const std::runtime_error&) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.stores;
  approxBytes_ += entry.size();
  approxBytes_ -= std::min<std::uint64_t>(approxBytes_, replacedBytes);
  // The running total makes the common case O(1); a full rescan (which
  // also resyncs the total against files other processes added or
  // removed) runs only when the cap looks crossed.
  if (cfg_.maxBytes != 0 && approxBytes_ > cfg_.maxBytes) evictOverCapLocked();
}

void ArtifactStore::dropCorrupt(std::string_view domain, const std::string& key) {
  const std::string path = entryPath(domain, key);
  std::lock_guard<std::mutex> lock(mutex_);
  XLV_WARN("artifact") << "dropping undecodable entry " << path;
  ++stats_.corrupt;
  // The preceding load() booked this entry as a hit, but the caller could
  // not use it: re-book it as a miss so warm-run ledgers (and the
  // --require-disk-hits guard built on them) cannot pass on entries that
  // were all rebuilt.
  if (stats_.hits > 0) {
    --stats_.hits;
    ++stats_.misses;
  }
  removeEntryLocked(path);
}

void ArtifactStore::removeEntryLocked(const std::string& path) {
  std::error_code ec;
  std::uint64_t bytes = 0;
  if (fs::exists(path, ec) && !ec) {
    const std::uintmax_t sz = fs::file_size(path, ec);
    if (!ec) bytes = static_cast<std::uint64_t>(sz);
  }
  if (fs::remove(path, ec) && !ec) {
    approxBytes_ -= std::min<std::uint64_t>(approxBytes_, bytes);
  }
}

std::uint64_t ArtifactStore::diskBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return scanLocked(/*sweepStaleTemps=*/false);
}

std::uint64_t ArtifactStore::scanLocked(bool sweepStaleTemps) const {
  std::uint64_t total = 0;
  // The walk's error code is separate from the per-entry ones: a file
  // raced away by a sibling process's eviction mid-scan must neither abort
  // the walk nor contribute file_size's uintmax_t(-1) sentinel (which
  // would collapse the census and trigger spurious evictions).
  std::error_code walkEc;
  const auto now = fs::file_time_type::clock::now();
  for (fs::recursive_directory_iterator it(cfg_.dir, walkEc), end;
       !walkEc && it != end; it.increment(walkEc)) {
    std::error_code ec;
    if (!it->is_regular_file(ec) || ec) continue;
    if (isTempFile(it->path())) {
      // An orphan of a crashed writer: invisible to readers, but it eats
      // cache-dir space outside the byte cap — sweep it once it is too old
      // to belong to a live write.
      const auto mtime = it->last_write_time(ec);
      if (sweepStaleTemps && !ec && now - mtime > kStaleTempAge) {
        std::error_code rec;
        fs::remove(it->path(), rec);
      }
      continue;
    }
    if (it->path().extension() == kEntrySuffix) {
      const std::uintmax_t sz = it->file_size(ec);
      if (!ec) total += static_cast<std::uint64_t>(sz);
    }
  }
  return total;
}

void ArtifactStore::evictOverCapLocked() {
  struct EntryFile {
    fs::file_time_type mtime;
    std::string path;
    std::uint64_t size = 0;
  };
  std::vector<EntryFile> files;
  std::uint64_t total = 0;
  // Separate walk vs per-entry error codes, as in scanLocked: one raced-away
  // file must not abort the walk or poison the census.
  std::error_code walkEc;
  const auto now = fs::file_time_type::clock::now();
  for (fs::recursive_directory_iterator it(cfg_.dir, walkEc), end; !walkEc && it != end;
       it.increment(walkEc)) {
    std::error_code ec;
    if (!it->is_regular_file(ec) || ec) continue;
    if (isTempFile(it->path())) {
      const auto mtime = it->last_write_time(ec);
      if (!ec && now - mtime > kStaleTempAge) {
        std::error_code rec;
        fs::remove(it->path(), rec);
      }
      continue;
    }
    if (it->path().extension() != kEntrySuffix) continue;
    EntryFile f;
    f.path = it->path().string();
    f.size = it->file_size(ec);
    f.mtime = it->last_write_time(ec);
    if (ec) continue;
    total += f.size;
    files.push_back(std::move(f));
  }
  if (total > cfg_.maxBytes) {
    // Oldest first; path tiebreak keeps the order deterministic on coarse
    // mtime filesystems. Evict below a LOW-WATER mark (7/8 of the cap):
    // stopping at exactly the cap would leave the very next store to
    // re-cross it and rescan, i.e. one full directory walk per write in
    // steady state.
    const std::uint64_t lowWater = cfg_.maxBytes - cfg_.maxBytes / 8;
    std::sort(files.begin(), files.end(), [](const EntryFile& a, const EntryFile& b) {
      return a.mtime != b.mtime ? a.mtime < b.mtime : a.path < b.path;
    });
    for (const EntryFile& f : files) {
      if (total <= lowWater) break;
      std::error_code rec;
      if (fs::remove(f.path, rec) && !rec) {
        total -= f.size;
        ++stats_.evictions;
      }
    }
  }
  // The scan is ground truth (other processes may have added or evicted
  // entries since our last census): resync the running total.
  approxBytes_ = total;
}

std::size_t ArtifactStore::expireOldEntriesLocked() {
  if (cfg_.maxAgeSeconds == 0) return 0;
  std::size_t removed = 0;
  const auto cutoff =
      fs::file_time_type::clock::now() - std::chrono::seconds(cfg_.maxAgeSeconds);
  std::error_code walkEc;
  for (fs::recursive_directory_iterator it(cfg_.dir, walkEc), end; !walkEc && it != end;
       it.increment(walkEc)) {
    std::error_code ec;
    if (!it->is_regular_file(ec) || ec) continue;
    if (isTempFile(it->path()) || it->path().extension() != kEntrySuffix) continue;
    const auto mtime = it->last_write_time(ec);
    if (ec || mtime >= cutoff) continue;
    // No approxBytes_ bookkeeping here: both callers rescan the census
    // right after the expiry pass.
    std::error_code rec;
    if (fs::remove(it->path(), rec) && !rec) {
      ++stats_.expired;
      ++removed;
    }
  }
  return removed;
}

std::size_t ArtifactStore::gc() {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t evictionsBefore = stats_.evictions;
  const std::size_t expired = expireOldEntriesLocked();
  approxBytes_ = scanLocked(/*sweepStaleTemps=*/true);
  if (cfg_.maxBytes != 0 && approxBytes_ > cfg_.maxBytes) evictOverCapLocked();
  return expired + (stats_.evictions - evictionsBefore);
}

ArtifactStoreStats ArtifactStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void ArtifactStore::resetStats() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_ = ArtifactStoreStats{};
}

// --- process-wide store ------------------------------------------------------

namespace {

std::unique_ptr<ArtifactStore>& processStoreSlot() {
  static std::unique_ptr<ArtifactStore> store;
  return store;
}

}  // namespace

ArtifactStore* processArtifactStore() noexcept { return processStoreSlot().get(); }

void configureProcessArtifactStore(const std::optional<ArtifactStoreConfig>& cfg) {
  if (!cfg) {
    processStoreSlot().reset();
    return;
  }
  processStoreSlot() = std::make_unique<ArtifactStore>(*cfg);
  XLV_INFO("artifact") << "cache dir '" << cfg->dir << "'"
                       << (cfg->maxBytes > 0
                               ? " (cap " + std::to_string(cfg->maxBytes) + " bytes)"
                               : std::string(" (unbounded)"));
}

}  // namespace xlv::util

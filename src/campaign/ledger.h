// Result ledgers: each result type declares its ledger fields once, as
// (wire key, member, merge rule) in wire order. The codec (serialize.cpp),
// the fragment stitch and the shard merge (shard.cpp) walk these lists, so
// adding a counter is one entry here plus a kCampaignCodecVersion bump.
// The item -> campaign rollup in campaign.cpp maps fields with different
// meanings and is not driven from here. See README.md, "Result ledgers".
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <variant>

#include "analysis/mutation_analysis.h"
#include "campaign/campaign.h"
#include "util/codec.h"

namespace xlv::campaign {

/// How a field folds across concurrently run fragments or shards.
enum class Merge {
  Sum,    ///< work and counts
  Max,    ///< elapsed time and thread count
  All,    ///< "served from cache": true only when every part was
  Any,    ///< "reused something": true when some part did
  First,  ///< per-item constant: the lowest fragment's value stands
};

template <class T>
struct LedgerField {
  const char* key;
  std::variant<double T::*, int T::*, std::uint64_t T::*, bool T::*> member;
  Merge merge;
};

// The field lists, one per result type.
inline constexpr LedgerField<analysis::AnalysisReport> kAnalysisLedger[] = {
    {"an.cyclesPerRun", &analysis::AnalysisReport::cyclesPerRun, Merge::First},
    {"an.cyclesSimulated", &analysis::AnalysisReport::cyclesSimulated, Merge::Sum},
    {"an.cyclesSkipped", &analysis::AnalysisReport::cyclesSkipped, Merge::Sum},
    {"an.simSeconds", &analysis::AnalysisReport::simSeconds, Merge::Sum},
    {"an.wallSeconds", &analysis::AnalysisReport::wallSeconds, Merge::Max},
    {"an.goldenSeconds", &analysis::AnalysisReport::goldenSeconds, Merge::Sum},
    {"an.goldenFromCache", &analysis::AnalysisReport::goldenFromCache, Merge::All},
    {"an.goldenFromDisk", &analysis::AnalysisReport::goldenFromDisk, Merge::All},
    {"an.mutantCacheHits", &analysis::AnalysisReport::mutantCacheHits, Merge::Sum},
    {"an.threadsUsed", &analysis::AnalysisReport::threadsUsed, Merge::Max},
    {"an.nativeCompiles", &analysis::AnalysisReport::nativeCompiles, Merge::Sum},
    {"an.nativeCacheHits", &analysis::AnalysisReport::nativeCacheHits, Merge::Sum},
    {"an.batchedMutants", &analysis::AnalysisReport::batchedMutants, Merge::Sum},
};

inline constexpr LedgerField<CampaignItemResult> kItemLedger[] = {
    {"item.taskSeconds", &CampaignItemResult::taskSeconds, Merge::Max},
    {"item.goldenSeconds", &CampaignItemResult::goldenSeconds, Merge::Sum},
    {"item.goldenFromCache", &CampaignItemResult::goldenFromCache, Merge::All},
    {"item.prefixShared", &CampaignItemResult::prefixShared, Merge::Any},
};

inline constexpr LedgerField<CampaignResult> kCampaignLedger[] = {
    {"simSeconds", &CampaignResult::simSeconds, Merge::Sum},
    {"goldenSeconds", &CampaignResult::goldenSeconds, Merge::Sum},
    {"goldenCacheHits", &CampaignResult::goldenCacheHits, Merge::Sum},
    {"prefixCacheHits", &CampaignResult::prefixCacheHits, Merge::Sum},
    {"mutantCacheHits", &CampaignResult::mutantCacheHits, Merge::Sum},
    {"diskHits", &CampaignResult::diskHits, Merge::Sum},
    {"diskStores", &CampaignResult::diskStores, Merge::Sum},
    {"diskEvictions", &CampaignResult::diskEvictions, Merge::Sum},
    {"cyclesSimulated", &CampaignResult::cyclesSimulated, Merge::Sum},
    {"cyclesSkipped", &CampaignResult::cyclesSkipped, Merge::Sum},
    {"nativeCompiles", &CampaignResult::nativeCompiles, Merge::Sum},
    {"nativeCacheHits", &CampaignResult::nativeCacheHits, Merge::Sum},
    {"batchedMutants", &CampaignResult::batchedMutants, Merge::Sum},
    {"wallSeconds", &CampaignResult::wallSeconds, Merge::Max},
    {"threadsUsed", &CampaignResult::threadsUsed, Merge::Max},
};

constexpr const auto& ledgerOf(const analysis::AnalysisReport&) { return kAnalysisLedger; }
constexpr const auto& ledgerOf(const CampaignItemResult&) { return kItemLedger; }
constexpr const auto& ledgerOf(const CampaignResult&) { return kCampaignLedger; }

/// Flags take All/Any, numbers Sum/Max; First fits either.
template <class T, std::size_t N>
constexpr bool rulesFitTypes(const LedgerField<T> (&fields)[N]) {
  for (const auto& f : fields) {
    const bool flag = std::holds_alternative<bool T::*>(f.member);
    const bool flagRule = f.merge == Merge::All || f.merge == Merge::Any;
    if (f.merge != Merge::First && flag != flagRule) return false;
  }
  return true;
}
static_assert(rulesFitTypes(kAnalysisLedger) && rulesFitTypes(kItemLedger) &&
              rulesFitTypes(kCampaignLedger));

namespace ledger_detail {
inline void put(util::Encoder& e, const char* k, bool v) { e.boolean(k, v); }
inline void put(util::Encoder& e, const char* k, double v) { e.f64(k, v); }
inline void put(util::Encoder& e, const char* k, int v) { e.i64(k, v); }
inline void put(util::Encoder& e, const char* k, std::uint64_t v) { e.u64(k, v); }
inline void get(util::Decoder& d, const char* k, bool& v) { v = d.boolean(k); }
inline void get(util::Decoder& d, const char* k, double& v) { v = d.f64(k); }
inline void get(util::Decoder& d, const char* k, int& v) { v = static_cast<int>(d.i64(k)); }
inline void get(util::Decoder& d, const char* k, std::uint64_t& v) { v = d.u64(k); }

template <class V>
V folded(Merge rule, V acc, V part) {
  switch (rule) {
    case Merge::Sum: return acc + part;
    case Merge::Max: return std::max(acc, part);
    case Merge::All: return acc && part;
    case Merge::Any: return acc || part;
    case Merge::First: break;
  }
  return acc;
}
}  // namespace ledger_detail

/// Encode the ledger fields in list order, each by its member's type.
template <class T>
void putLedger(util::Encoder& e, const T& x) {
  for (const auto& f : ledgerOf(x)) {
    std::visit([&](auto m) { ledger_detail::put(e, f.key, x.*m); }, f.member);
  }
}

template <class T>
void getLedger(util::Decoder& d, T& x) {
  for (const auto& f : ledgerOf(x)) {
    std::visit([&](auto m) { ledger_detail::get(d, f.key, x.*m); }, f.member);
  }
}

/// Put every field at its fold's starting point: All flags true, First
/// untouched, the rest back to the member's default (so threadsUsed floors
/// at 1).
template <class T>
void resetLedger(T& x) {
  const T fresh{};
  for (const auto& f : ledgerOf(x)) {
    if (f.merge == Merge::First) continue;
    std::visit([&](auto m) { x.*m = f.merge == Merge::All ? true : fresh.*m; }, f.member);
  }
}

/// Fold one part's ledger into `into` by each field's rule.
template <class T>
void foldLedger(T& into, const T& part) {
  for (const auto& f : ledgerOf(into)) {
    std::visit([&](auto m) { into.*m = ledger_detail::folded(f.merge, into.*m, part.*m); },
               f.member);
  }
}

}  // namespace xlv::campaign

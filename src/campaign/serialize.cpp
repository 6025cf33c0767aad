#include "campaign/serialize.h"

#include "analysis/mutant_cache.h"
#include "campaign/ledger.h"
#include "util/codec.h"

namespace xlv::campaign {

using util::Decoder;
using util::DecodeError;
using util::Encoder;

namespace {

constexpr const char* kSpecTag = "campaign-spec";
constexpr const char* kResultTag = "campaign-result";
constexpr const char* kAnalysisTag = "analysis-report";
constexpr const char* kMutantTag = "mutant-result";
constexpr const char* kPrefixTag = "flow-prefix";
constexpr const char* kPlanTag = "shard-plan";
constexpr const char* kOutputTag = "shard-output";

// --- enum <-> canonical wire names ------------------------------------------
// Enums travel as names, not raw integers: the decoder rejects values a
// different build would interpret differently, and shard files stay
// human-readable. Forward mappings are the shared canonical ones
// (insertion::sensorKindName, core::mutantSetVariantName,
// mutation::mutantKindName); only the reverse lookups live here.

using insertion::sensorKindName;

insertion::SensorKind sensorKindByName(const std::string& s) {
  if (s == "razor") return insertion::SensorKind::Razor;
  if (s == "counter") return insertion::SensorKind::Counter;
  throw DecodeError("unknown sensor kind '" + s + "'");
}

core::MutantSetVariant mutantSetByName(const std::string& s) {
  if (s == "full") return core::MutantSetVariant::Full;
  if (s == "min") return core::MutantSetVariant::MinDelay;
  if (s == "max") return core::MutantSetVariant::MaxDelay;
  throw DecodeError("unknown mutant-set variant '" + s + "'");
}

mutation::MutantKind mutantKindByName(const std::string& s) {
  const auto kind = mutation::mutantKindFromName(s);
  if (!kind) throw DecodeError("unknown mutant kind '" + s + "'");
  return *kind;
}

analysis::SimBackend simBackendByName(const std::string& s) {
  try {
    return analysis::simBackendFromName(s);
  } catch (const std::invalid_argument& e) {
    throw DecodeError(e.what());
  }
}

// --- field-group helpers -----------------------------------------------------

void putUnit(Encoder& e, const ShardUnit& u) {
  e.u64("unit.taskId", u.taskId);
  e.u64("unit.mutantBegin", u.mutantBegin);
  e.u64("unit.mutantEnd", u.mutantEnd);
}

ShardUnit getUnit(Decoder& d) {
  ShardUnit u;
  u.taskId = static_cast<std::size_t>(d.u64("unit.taskId"));
  u.mutantBegin = static_cast<std::size_t>(d.u64("unit.mutantBegin"));
  u.mutantEnd = static_cast<std::size_t>(d.u64("unit.mutantEnd"));
  return u;
}

void putCorner(Encoder& e, const sta::Corner& c) {
  e.str("corner.name", c.name);
  e.f64("corner.process", c.processFactor);
  e.f64("corner.voltage", c.voltageFactor);
  e.f64("corner.temperature", c.temperatureFactor);
}

sta::Corner getCorner(Decoder& d) {
  sta::Corner c;
  c.name = d.str("corner.name");
  c.processFactor = d.f64("corner.process");
  c.voltageFactor = d.f64("corner.voltage");
  c.temperatureFactor = d.f64("corner.temperature");
  return c;
}

void putOptions(Encoder& e, const core::FlowOptions& o) {
  e.str("opt.sensorKind", sensorKindName(o.sensorKind));
  e.u64("opt.testbenchCycles", o.testbenchCycles);
  e.boolean("opt.hasCorner", o.staCorner.has_value());
  if (o.staCorner) putCorner(e, *o.staCorner);
  e.boolean("opt.hasThreshold", o.staThresholdFraction.has_value());
  if (o.staThresholdFraction) e.f64("opt.threshold", *o.staThresholdFraction);
  e.boolean("opt.hasSpread", o.staSpreadFraction.has_value());
  if (o.staSpreadFraction) e.f64("opt.spread", *o.staSpreadFraction);
  e.boolean("opt.hasHfRatio", o.hfRatio.has_value());
  if (o.hfRatio) e.i64("opt.hfRatio", *o.hfRatio);
  e.str("opt.mutantSet", core::mutantSetVariantName(o.mutantSet));
  e.u64("opt.mutantBegin", o.mutantBegin);
  e.u64("opt.mutantEnd", o.mutantEnd);
  e.boolean("opt.useGoldenCache", o.useGoldenCache);
  e.boolean("opt.useMutantCache", o.useMutantCache);
  e.i64("opt.timingRepetitions", o.timingRepetitions);
  e.boolean("opt.measureRtl", o.measureRtl);
  e.boolean("opt.measureOptimized", o.measureOptimized);
  e.boolean("opt.runMutationAnalysis", o.runMutationAnalysis);
  e.i64("opt.analysisThreads", o.analysisThreads);
  e.str("opt.backend", analysis::simBackendName(o.backend));
  e.i64("opt.batch", o.batch);
  e.boolean("opt.measureTlm", o.measureTlm);
}

core::FlowOptions getOptions(Decoder& d) {
  core::FlowOptions o;
  o.sensorKind = sensorKindByName(d.str("opt.sensorKind"));
  o.testbenchCycles = d.u64("opt.testbenchCycles");
  if (d.boolean("opt.hasCorner")) o.staCorner = getCorner(d);
  if (d.boolean("opt.hasThreshold")) o.staThresholdFraction = d.f64("opt.threshold");
  if (d.boolean("opt.hasSpread")) o.staSpreadFraction = d.f64("opt.spread");
  if (d.boolean("opt.hasHfRatio")) o.hfRatio = static_cast<int>(d.i64("opt.hfRatio"));
  o.mutantSet = mutantSetByName(d.str("opt.mutantSet"));
  o.mutantBegin = static_cast<std::size_t>(d.u64("opt.mutantBegin"));
  o.mutantEnd = static_cast<std::size_t>(d.u64("opt.mutantEnd"));
  o.useGoldenCache = d.boolean("opt.useGoldenCache");
  o.useMutantCache = d.boolean("opt.useMutantCache");
  o.timingRepetitions = static_cast<int>(d.i64("opt.timingRepetitions"));
  o.measureRtl = d.boolean("opt.measureRtl");
  o.measureOptimized = d.boolean("opt.measureOptimized");
  o.runMutationAnalysis = d.boolean("opt.runMutationAnalysis");
  o.analysisThreads = static_cast<int>(d.i64("opt.analysisThreads"));
  o.backend = simBackendByName(d.str("opt.backend"));
  o.batch = static_cast<int>(d.i64("opt.batch"));
  o.measureTlm = d.boolean("opt.measureTlm");
  return o;
}

void putMutantSpec(Encoder& e, const mutation::MutantSpec& m) {
  e.str("spec.target", m.targetSignal);
  e.str("spec.kind", mutation::mutantKindName(m.kind));
  e.i64("spec.deltaTicks", m.deltaTicks);
}

mutation::MutantSpec getMutantSpec(Decoder& d) {
  mutation::MutantSpec m;
  m.targetSignal = d.str("spec.target");
  m.kind = mutantKindByName(d.str("spec.kind"));
  m.deltaTicks = static_cast<int>(d.i64("spec.deltaTicks"));
  return m;
}

// The content fields come from the ONE shared field list
// (analysis::putMutantResultFields), so this wire codec and the disk
// artifact codec cannot drift apart; only the id — variant-local, excluded
// from artifacts — is added here.
void putMutantResult(Encoder& e, const analysis::MutantResult& r) {
  e.i64("mut.id", r.id);
  analysis::putMutantResultFields(e, "mut.", r);
}

analysis::MutantResult getMutantResult(Decoder& d) {
  const int id = static_cast<int>(d.i64("mut.id"));
  analysis::MutantResult r = analysis::getMutantResultFields(d, "mut.");
  r.id = id;
  return r;
}

void putAnalysis(Encoder& e, const analysis::AnalysisReport& a) {
  putLedger(e, a);
  e.beginList("an.results", a.results.size());
  for (const auto& r : a.results) putMutantResult(e, r);
}

analysis::AnalysisReport getAnalysis(Decoder& d) {
  analysis::AnalysisReport a;
  getLedger(d, a);
  a.results.resize(d.beginList("an.results"));
  for (auto& r : a.results) r = getMutantResult(d);
  return a;
}

void putSensor(Encoder& e, const insertion::InsertedSensor& s) {
  e.str("sensor.endpoint", s.endpointName);
  e.str("sensor.instance", s.instanceName);
  e.str("sensor.error", s.errorSignal);
  e.str("sensor.q", s.qSignal);
  e.str("sensor.measVal", s.measValSignal);
  e.str("sensor.outOk", s.outOkSignal);
  e.f64("sensor.arrivalPs", s.endpointArrivalPs);
}

insertion::InsertedSensor getSensor(Decoder& d) {
  insertion::InsertedSensor s;
  s.endpointName = d.str("sensor.endpoint");
  s.instanceName = d.str("sensor.instance");
  s.errorSignal = d.str("sensor.error");
  s.qSignal = d.str("sensor.q");
  s.measValSignal = d.str("sensor.measVal");
  s.outOkSignal = d.str("sensor.outOk");
  s.endpointArrivalPs = d.f64("sensor.arrivalPs");
  return s;
}

// The portable FlowReport subset: every field sameResults compares plus the
// timing ledger — never the elaborated designs (see serialize.h).
void putReport(Encoder& e, const core::FlowReport& r) {
  e.str("rep.ipName", r.ipName);
  e.str("rep.sensorKind", sensorKindName(r.sensorKind));
  e.i64("rep.hfRatio", r.hfRatio);
  e.i64("rep.skippedEndpoints", r.skippedEndpoints);
  e.f64("rep.sensorAreaGates", r.sensorAreaGates);
  e.i64("rep.staCriticalCount", r.sta.criticalCount);
  e.f64("rep.staThresholdPs", r.sta.thresholdPs);
  e.f64("rep.staClockPeriodPs", r.sta.clockPeriodPs);
  e.f64("rep.staMinSlackPs", r.sta.minSlackPs);
  e.i64("rep.locRtlClean", r.loc.rtlClean);
  e.i64("rep.locRtlAugmented", r.loc.rtlAugmented);
  e.i64("rep.locTlm", r.loc.tlm);
  e.i64("rep.locTlmInjected", r.loc.tlmInjected);
  e.beginList("rep.sensors", r.sensors.size());
  for (const auto& s : r.sensors) putSensor(e, s);
  e.beginList("rep.mutantSpecs", r.mutantSpecs.size());
  for (const auto& m : r.mutantSpecs) putMutantSpec(e, m);
  putAnalysis(e, r.analysis);
}

core::FlowReport getReport(Decoder& d) {
  core::FlowReport r;
  r.ipName = d.str("rep.ipName");
  r.sensorKind = sensorKindByName(d.str("rep.sensorKind"));
  r.hfRatio = static_cast<int>(d.i64("rep.hfRatio"));
  r.skippedEndpoints = static_cast<int>(d.i64("rep.skippedEndpoints"));
  r.sensorAreaGates = d.f64("rep.sensorAreaGates");
  r.sta.criticalCount = static_cast<int>(d.i64("rep.staCriticalCount"));
  r.sta.thresholdPs = d.f64("rep.staThresholdPs");
  r.sta.clockPeriodPs = d.f64("rep.staClockPeriodPs");
  r.sta.minSlackPs = d.f64("rep.staMinSlackPs");
  r.loc.rtlClean = static_cast<int>(d.i64("rep.locRtlClean"));
  r.loc.rtlAugmented = static_cast<int>(d.i64("rep.locRtlAugmented"));
  r.loc.tlm = static_cast<int>(d.i64("rep.locTlm"));
  r.loc.tlmInjected = static_cast<int>(d.i64("rep.locTlmInjected"));
  r.sensors.resize(d.beginList("rep.sensors"));
  for (auto& s : r.sensors) s = getSensor(d);
  r.mutantSpecs.resize(d.beginList("rep.mutantSpecs"));
  for (auto& m : r.mutantSpecs) m = getMutantSpec(d);
  r.analysis = getAnalysis(d);
  return r;
}

void putItemResult(Encoder& e, const CampaignItemResult& it) {
  e.u64("item.taskId", it.taskId);
  e.str("item.label", it.label);
  e.str("item.error", it.error);
  putLedger(e, it);
  putReport(e, it.report);
}

CampaignItemResult getItemResult(Decoder& d) {
  CampaignItemResult it;
  it.taskId = static_cast<std::size_t>(d.u64("item.taskId"));
  it.label = d.str("item.label");
  it.error = d.str("item.error");
  getLedger(d, it);
  it.report = getReport(d);
  return it;
}

}  // namespace

std::vector<std::string> knownCaseStudyNames() {
  return {"Plasma", "DSP", "Filter", "Handshake"};
}

ips::CaseStudy buildCaseStudyByName(const std::string& name) {
  if (name == "Plasma") return ips::buildPlasmaCase();
  if (name == "DSP") return ips::buildDspCase();
  if (name == "Filter") return ips::buildFilterCase();
  if (name == "Handshake") return ips::buildHandshakeCase();
  throw DecodeError("unknown case study '" + name + "' (known: Plasma, DSP, Filter, Handshake)");
}

std::string encodeCampaignSpec(const CampaignSpec& spec) {
  Encoder e(kSpecTag, kCampaignCodecVersion);
  e.str("name", spec.name);
  e.i64("executor.threads", spec.executor.threads);
  e.i64("executor.chunkSize", spec.executor.chunkSize);
  e.beginList("items", spec.items.size());
  for (const auto& item : spec.items) {
    e.str("item.case", item.caseStudy.name);
    e.str("item.label", item.label);
    e.str("item.prefixKey", item.prefixKey);
    putOptions(e, item.options);
  }
  return e.take();
}

CampaignSpec decodeCampaignSpec(std::string_view data) {
  Decoder d(data, kSpecTag, kCampaignCodecVersion);
  CampaignSpec spec;
  spec.name = d.str("name");
  spec.executor.threads = static_cast<int>(d.i64("executor.threads"));
  spec.executor.chunkSize = static_cast<int>(d.i64("executor.chunkSize"));
  spec.items.resize(d.beginList("items"));
  for (auto& item : spec.items) {
    item.caseStudy = buildCaseStudyByName(d.str("item.case"));
    item.label = d.str("item.label");
    item.prefixKey = d.str("item.prefixKey");
    item.options = getOptions(d);
  }
  d.finish();
  return spec;
}

std::string encodeCampaignResult(const CampaignResult& result) {
  Encoder e(kResultTag, kCampaignCodecVersion);
  e.str("name", result.name);
  putLedger(e, result);
  e.beginList("items", result.items.size());
  for (const auto& it : result.items) putItemResult(e, it);
  return e.take();
}

CampaignResult decodeCampaignResult(std::string_view data) {
  Decoder d(data, kResultTag, kCampaignCodecVersion);
  CampaignResult result;
  result.name = d.str("name");
  getLedger(d, result);
  result.items.resize(d.beginList("items"));
  for (auto& it : result.items) it = getItemResult(d);
  d.finish();
  return result;
}

std::string encodeAnalysisReport(const analysis::AnalysisReport& report) {
  Encoder e(kAnalysisTag, kCampaignCodecVersion);
  putAnalysis(e, report);
  return e.take();
}

analysis::AnalysisReport decodeAnalysisReport(std::string_view data) {
  Decoder d(data, kAnalysisTag, kCampaignCodecVersion);
  analysis::AnalysisReport report = getAnalysis(d);
  d.finish();
  return report;
}

std::string encodeMutantResult(const analysis::MutantResult& result) {
  Encoder e(kMutantTag, kCampaignCodecVersion);
  putMutantResult(e, result);
  return e.take();
}

analysis::MutantResult decodeMutantResult(std::string_view data) {
  Decoder d(data, kMutantTag, kCampaignCodecVersion);
  analysis::MutantResult result = getMutantResult(d);
  d.finish();
  return result;
}

// --- flow-prefix artifact ----------------------------------------------------

std::string encodeFlowPrefix(const core::FlowPrefix& prefix) {
  const core::FlowReport& r = prefix.report;
  Encoder e(kPrefixTag, kCampaignCodecVersion);
  e.str("ip", r.ipName);
  e.str("kind", sensorKindName(r.sensorKind));
  e.f64("sta.thresholdPs", r.sta.thresholdPs);
  e.f64("sta.clockPeriodPs", r.sta.clockPeriodPs);
  e.i64("sta.criticalCount", r.sta.criticalCount);
  e.f64("sta.minSlackPs", r.sta.minSlackPs);
  e.beginList("sta.paths", r.sta.paths.size());
  for (const auto& p : r.sta.paths) {
    e.i64("path.endpoint", p.endpoint);
    e.str("path.endpointName", p.endpointName);
    e.i64("path.startpoint", p.startpoint);
    e.str("path.startpointName", p.startpointName);
    e.f64("path.arrivalPs", p.arrivalPs);
    e.f64("path.slackPs", p.slackPs);
    e.f64("path.logicLevels", p.logicLevels);
    e.boolean("path.critical", p.critical);
  }
  e.beginList("sensors", r.sensors.size());
  for (const auto& s : r.sensors) putSensor(e, s);
  return e.take();
}

core::FlowPrefix decodeFlowPrefix(std::string_view data, const ips::CaseStudy& cs,
                                  const core::FlowOptions& opts) {
  Decoder d(data, kPrefixTag, kCampaignCodecVersion);
  const std::string ip = d.str("ip");
  const insertion::SensorKind kind = sensorKindByName(d.str("kind"));
  sta::StaReport sta;
  sta.thresholdPs = d.f64("sta.thresholdPs");
  sta.clockPeriodPs = d.f64("sta.clockPeriodPs");
  sta.criticalCount = static_cast<int>(d.i64("sta.criticalCount"));
  sta.minSlackPs = d.f64("sta.minSlackPs");
  sta.paths.resize(d.beginList("sta.paths"));
  for (auto& p : sta.paths) {
    p.endpoint = static_cast<ir::SymbolId>(d.i64("path.endpoint"));
    p.endpointName = d.str("path.endpointName");
    p.startpoint = static_cast<ir::SymbolId>(d.i64("path.startpoint"));
    p.startpointName = d.str("path.startpointName");
    p.arrivalPs = d.f64("path.arrivalPs");
    p.slackPs = d.f64("path.slackPs");
    p.logicLevels = d.f64("path.logicLevels");
    p.critical = d.boolean("path.critical");
  }
  std::vector<insertion::InsertedSensor> storedSensors(d.beginList("sensors"));
  for (auto& s : storedSensors) s = getSensor(d);
  d.finish();

  if (ip != cs.name || kind != opts.sensorKind) {
    throw DecodeError("flow-prefix artifact was recorded for " + ip + "/" +
                      sensorKindName(kind) + ", requested " + cs.name + "/" +
                      sensorKindName(opts.sensorKind));
  }
  // Re-derive the designs deterministically from the stored STA report,
  // then cross-check the rebuilt sensor list against the stored one: a
  // mismatch means the artifact predates a code or model change (the key
  // failed to capture it) and must be rebuilt from scratch, never trusted.
  core::FlowPrefix prefix = core::rebuildFlowPrefix(cs, opts, sta);
  const auto& rebuilt = prefix.report.sensors;
  bool consistent = rebuilt.size() == storedSensors.size();
  for (std::size_t i = 0; consistent && i < rebuilt.size(); ++i) {
    consistent = rebuilt[i].endpointName == storedSensors[i].endpointName &&
                 rebuilt[i].instanceName == storedSensors[i].instanceName &&
                 rebuilt[i].endpointArrivalPs == storedSensors[i].endpointArrivalPs;
  }
  if (!consistent) {
    throw DecodeError("flow-prefix artifact for " + cs.name +
                      " disagrees with the rebuilt insertion (stale artifact)");
  }
  return prefix;
}

// --- shard plan and output (shard.h) ---------------------------------------

std::string encodeShardPlan(const ShardPlan& plan) {
  Encoder e(kPlanTag, kCampaignCodecVersion);
  e.u64("specFnv", plan.specFnv);
  e.u64("specItems", plan.specItems);
  e.beginList("shards", plan.shards.size());
  for (const auto& shard : plan.shards) {
    e.beginList("units", shard.size());
    for (const auto& u : shard) putUnit(e, u);
  }
  return e.take();
}

ShardPlan decodeShardPlan(std::string_view data) {
  Decoder d(data, kPlanTag, kCampaignCodecVersion);
  ShardPlan plan;
  plan.specFnv = d.u64("specFnv");
  plan.specItems = static_cast<std::size_t>(d.u64("specItems"));
  plan.shards.resize(d.beginList("shards"));
  for (auto& shard : plan.shards) {
    shard.resize(d.beginList("units"));
    for (auto& u : shard) u = getUnit(d);
  }
  d.finish();
  return plan;
}

std::string encodeShardOutput(const ShardOutput& output) {
  Encoder e(kOutputTag, kCampaignCodecVersion);
  e.u64("specFnv", output.specFnv);
  e.i64("shardIndex", output.shardIndex);
  e.i64("shardCount", output.shardCount);
  e.beginList("units", output.units.size());
  for (const auto& u : output.units) putUnit(e, u);
  // The result travels as a nested campaign-result document; its own header
  // keeps the two schema versions independently checkable.
  e.str("result", encodeCampaignResult(output.result));
  return e.take();
}

ShardOutput decodeShardOutput(std::string_view data) {
  Decoder d(data, kOutputTag, kCampaignCodecVersion);
  ShardOutput output;
  output.specFnv = d.u64("specFnv");
  output.shardIndex = static_cast<int>(d.i64("shardIndex"));
  output.shardCount = static_cast<int>(d.i64("shardCount"));
  output.units.resize(d.beginList("units"));
  for (auto& u : output.units) u = getUnit(d);
  output.result = decodeCampaignResult(d.str("result"));
  d.finish();
  return output;
}

// --- worker-pool wire frames -------------------------------------------------

const char* const kSubmitFrameTag = "dispatch-submit";
const char* const kStatusFrameTag = "dispatch-status";
const char* const kHeartbeatFrameTag = "dispatch-heartbeat";
const char* const kResultFrameTag = "dispatch-result";
const char* const kClientSubmitFrameTag = "client-submit";
const char* const kAcceptFrameTag = "dispatch-accept";
const char* const kRejectFrameTag = "dispatch-reject";
const char* const kItemResultFrameTag = "dispatch-item-result";
const char* const kCampaignDoneFrameTag = "dispatch-done";

bool ResultFrame::operator==(const ResultFrame& other) const {
  // ShardOutput carries a nested CampaignResult with no memberwise
  // equality; the byte-stable canonical encoding IS its identity.
  return seq == other.seq && taskIndex == other.taskIndex && attempt == other.attempt &&
         encodeShardOutput(output) == encodeShardOutput(other.output);
}

std::string encodeSubmitFrame(const SubmitFrame& f) {
  Encoder e(kSubmitFrameTag, kCampaignCodecVersion);
  e.u64("specFnv", f.specFnv);
  e.u64("campaignId", f.campaignId);
  e.u64("seq", f.seq);
  e.u64("taskIndex", f.taskIndex);
  e.u64("taskCount", f.taskCount);
  e.u64("attempt", f.attempt);
  putUnit(e, f.unit);
  e.str("specPath", f.specPath);
  e.boolean("shutdown", f.shutdown);
  return e.take();
}

SubmitFrame decodeSubmitFrame(std::string_view data) {
  Decoder d(data, kSubmitFrameTag, kCampaignCodecVersion);
  SubmitFrame f;
  f.specFnv = d.u64("specFnv");
  f.campaignId = d.u64("campaignId");
  f.seq = d.u64("seq");
  f.taskIndex = d.u64("taskIndex");
  f.taskCount = d.u64("taskCount");
  f.attempt = d.u64("attempt");
  f.unit = getUnit(d);
  f.specPath = d.str("specPath");
  f.shutdown = d.boolean("shutdown");
  d.finish();
  return f;
}

std::string encodeStatusFrame(const StatusFrame& f) {
  Encoder e(kStatusFrameTag, kCampaignCodecVersion);
  e.u64("workerIndex", f.workerIndex);
  e.u64("generation", f.generation);
  e.u64("itemsDone", f.itemsDone);
  e.str("state", f.state);
  return e.take();
}

StatusFrame decodeStatusFrame(std::string_view data) {
  Decoder d(data, kStatusFrameTag, kCampaignCodecVersion);
  StatusFrame f;
  f.workerIndex = d.u64("workerIndex");
  f.generation = d.u64("generation");
  f.itemsDone = d.u64("itemsDone");
  f.state = d.str("state");
  if (f.state != "ready" && f.state != "working") {
    throw DecodeError("status frame: unknown state '" + f.state + "'");
  }
  d.finish();
  return f;
}

std::string encodeHeartbeatFrame(const HeartbeatFrame& f) {
  Encoder e(kHeartbeatFrameTag, kCampaignCodecVersion);
  e.u64("workerIndex", f.workerIndex);
  e.u64("generation", f.generation);
  e.u64("seq", f.seq);
  e.u64("itemsDone", f.itemsDone);
  return e.take();
}

HeartbeatFrame decodeHeartbeatFrame(std::string_view data) {
  Decoder d(data, kHeartbeatFrameTag, kCampaignCodecVersion);
  HeartbeatFrame f;
  f.workerIndex = d.u64("workerIndex");
  f.generation = d.u64("generation");
  f.seq = d.u64("seq");
  f.itemsDone = d.u64("itemsDone");
  d.finish();
  return f;
}

std::string encodeResultFrame(const ResultFrame& f) {
  Encoder e(kResultFrameTag, kCampaignCodecVersion);
  e.u64("campaignId", f.campaignId);
  e.u64("seq", f.seq);
  e.u64("taskIndex", f.taskIndex);
  e.u64("attempt", f.attempt);
  // The output travels as a nested shard-output document: its own header
  // keeps the schema independently checkable, exactly like the result
  // nested inside encodeShardOutput itself.
  e.str("output", encodeShardOutput(f.output));
  return e.take();
}

ResultFrame decodeResultFrame(std::string_view data) {
  Decoder d(data, kResultFrameTag, kCampaignCodecVersion);
  ResultFrame f;
  f.campaignId = d.u64("campaignId");
  f.seq = d.u64("seq");
  f.taskIndex = d.u64("taskIndex");
  f.attempt = d.u64("attempt");
  f.output = decodeShardOutput(d.str("output"));
  d.finish();
  return f;
}

// --- socket-service client frames --------------------------------------------

bool ItemResultFrame::operator==(const ItemResultFrame& other) const {
  // Same rationale as ResultFrame: the canonical encoding is the nested
  // ShardOutput's identity.
  return campaignId == other.campaignId && taskIndex == other.taskIndex &&
         taskCount == other.taskCount &&
         encodeShardOutput(output) == encodeShardOutput(other.output);
}

std::string encodeClientSubmitFrame(const ClientSubmitFrame& f) {
  Encoder e(kClientSubmitFrameTag, kCampaignCodecVersion);
  e.str("clientName", f.clientName);
  e.str("spec", f.spec);
  e.u64("maxFragmentMutants", f.maxFragmentMutants);
  e.u64("deadlineMs", f.deadlineMs);
  return e.take();
}

ClientSubmitFrame decodeClientSubmitFrame(std::string_view data) {
  Decoder d(data, kClientSubmitFrameTag, kCampaignCodecVersion);
  ClientSubmitFrame f;
  f.clientName = d.str("clientName");
  f.spec = d.str("spec");
  f.maxFragmentMutants = d.u64("maxFragmentMutants");
  f.deadlineMs = d.u64("deadlineMs");
  d.finish();
  return f;
}

std::string encodeAcceptFrame(const AcceptFrame& f) {
  Encoder e(kAcceptFrameTag, kCampaignCodecVersion);
  e.u64("campaignId", f.campaignId);
  e.u64("specFnv", f.specFnv);
  e.u64("unitCount", f.unitCount);
  return e.take();
}

AcceptFrame decodeAcceptFrame(std::string_view data) {
  Decoder d(data, kAcceptFrameTag, kCampaignCodecVersion);
  AcceptFrame f;
  f.campaignId = d.u64("campaignId");
  f.specFnv = d.u64("specFnv");
  f.unitCount = d.u64("unitCount");
  if (f.campaignId == 0) throw DecodeError("accept frame: campaignId must be nonzero");
  d.finish();
  return f;
}

std::string encodeRejectFrame(const RejectFrame& f) {
  Encoder e(kRejectFrameTag, kCampaignCodecVersion);
  e.str("reason", f.reason);
  e.u64("retryAfterMs", f.retryAfterMs);
  return e.take();
}

RejectFrame decodeRejectFrame(std::string_view data) {
  Decoder d(data, kRejectFrameTag, kCampaignCodecVersion);
  RejectFrame f;
  f.reason = d.str("reason");
  f.retryAfterMs = d.u64("retryAfterMs");
  d.finish();
  return f;
}

std::string encodeItemResultFrame(const ItemResultFrame& f) {
  Encoder e(kItemResultFrameTag, kCampaignCodecVersion);
  e.u64("campaignId", f.campaignId);
  e.u64("taskIndex", f.taskIndex);
  e.u64("taskCount", f.taskCount);
  e.str("output", encodeShardOutput(f.output));
  return e.take();
}

ItemResultFrame decodeItemResultFrame(std::string_view data) {
  Decoder d(data, kItemResultFrameTag, kCampaignCodecVersion);
  ItemResultFrame f;
  f.campaignId = d.u64("campaignId");
  f.taskIndex = d.u64("taskIndex");
  f.taskCount = d.u64("taskCount");
  f.output = decodeShardOutput(d.str("output"));
  d.finish();
  return f;
}

std::string encodeCampaignDoneFrame(const CampaignDoneFrame& f) {
  Encoder e(kCampaignDoneFrameTag, kCampaignCodecVersion);
  e.u64("campaignId", f.campaignId);
  e.u64("unitsTotal", f.unitsTotal);
  e.u64("unitsCompleted", f.unitsCompleted);
  e.u64("requeues", f.requeues);
  e.boolean("cancelled", f.cancelled);
  e.str("error", f.error);
  e.beginList("quarantined", f.quarantined.size());
  for (const std::uint64_t q : f.quarantined) e.u64("q", q);
  return e.take();
}

CampaignDoneFrame decodeCampaignDoneFrame(std::string_view data) {
  Decoder d(data, kCampaignDoneFrameTag, kCampaignCodecVersion);
  CampaignDoneFrame f;
  f.campaignId = d.u64("campaignId");
  f.unitsTotal = d.u64("unitsTotal");
  f.unitsCompleted = d.u64("unitsCompleted");
  f.requeues = d.u64("requeues");
  f.cancelled = d.boolean("cancelled");
  f.error = d.str("error");
  f.quarantined.resize(d.beginList("quarantined"));
  for (std::uint64_t& q : f.quarantined) q = d.u64("q");
  d.finish();
  return f;
}

}  // namespace xlv::campaign

// The worker loop's spec cache (campaign/dispatch.h runDispatchWorker),
// driven in-process over pipes: the server side of the frame protocol is
// played by the test thread, the worker runs on a second thread.
//
// A long-lived worker serves one campaign after another; each campaign's
// spec arrives as a handoff file the server removes when the campaign
// finishes. The cache must forget a finished campaign's spec — otherwise it
// grows with every campaign served, and a later campaign whose handoff file
// lands on a re-used path hits the stale entry and is refused (exit 8).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "campaign/dispatch.h"
#include "campaign/serialize.h"
#include "campaign/shard.h"
#include "util/codec.h"

namespace xlv::campaign {
namespace {

/// A one-item campaign; `name` makes each spec's fingerprint distinct.
CampaignSpec namedSpec(const std::string& name) {
  CampaignSpec spec = builtinCampaignSpec("smoke");
  spec.items.resize(1);
  spec.name = name;
  return spec;
}

void writeSpec(const std::string& path, const CampaignSpec& spec) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << encodeCampaignSpec(spec);
  ASSERT_TRUE(out.good()) << path;
}

/// The worker on a thread, with the test holding the server ends of its
/// stdin/stdout pipes.
class InProcessWorker {
 public:
  InProcessWorker() {
    int in[2], out[2];
    EXPECT_EQ(::pipe(in), 0);
    EXPECT_EQ(::pipe(out), 0);
    toWorker_ = in[1];
    fromWorker_ = out[0];
    thread_ = std::thread([this, rd = in[0], wr = out[1]] {
      DispatchWorkerOptions opt;
      opt.inFd = rd;
      opt.outFd = wr;
      exitCode_ = runDispatchWorker(opt);
      // Closing the worker's ends turns a refusal into EOF on the test side.
      ::close(rd);
      ::close(wr);
    });
  }

  ~InProcessWorker() {
    closeInput();
    if (thread_.joinable()) thread_.join();
    ::close(fromWorker_);
  }
  // The worker thread holds `this`.
  InProcessWorker(const InProcessWorker&) = delete;
  InProcessWorker& operator=(const InProcessWorker&) = delete;

  /// Submit one unit of the spec at `path` (fingerprinted as `spec`) and
  /// wait for its result. False when the worker quit instead.
  bool run(const std::string& path, const CampaignSpec& spec, std::uint64_t seq) {
    SubmitFrame submit;
    submit.specFnv = campaignSpecFnv(spec);
    submit.campaignId = seq;
    submit.seq = seq;
    submit.taskIndex = 0;
    submit.taskCount = 1;
    submit.unit = ShardUnit{0, 0, 1};
    submit.specPath = path;
    if (!writeFdAll(toWorker_, frameWire(encodeSubmitFrame(submit)))) return false;
    std::string doc;
    while (readFrameBlocking(fromWorker_, reader_, doc) == FrameRead::Frame) {
      if (util::peekDocumentTag(doc) != kResultFrameTag) continue;
      const ResultFrame result = decodeResultFrame(doc);
      return result.seq == seq && result.output.specFnv == submit.specFnv;
    }
    return false;
  }

  int finish() {
    closeInput();
    thread_.join();
    return exitCode_;
  }

 private:
  void closeInput() {
    if (toWorker_ >= 0) ::close(toWorker_);
    toWorker_ = -1;
  }

  int toWorker_ = -1;
  int fromWorker_ = -1;
  FrameReader reader_;
  int exitCode_ = -1;
  std::thread thread_;
};

TEST(DispatchWorker, SpecCacheForgetsFinishedCampaigns) {
  const std::string base = ::testing::TempDir() + "xlv-spec-cache-" +
                           std::to_string(::getpid());
  const std::string p1 = base + "-1.xlv";
  const std::string p2 = base + "-2.xlv";
  const CampaignSpec a = namedSpec("cache-A");
  const CampaignSpec b = namedSpec("cache-B");
  const CampaignSpec c = namedSpec("cache-C");
  ASSERT_NE(campaignSpecFnv(a), campaignSpecFnv(c));

  InProcessWorker worker;
  writeSpec(p1, a);
  ASSERT_TRUE(worker.run(p1, a, 1)) << "campaign A";
  // Campaign A finished: its handoff file is gone.
  std::remove(p1.c_str());
  writeSpec(p2, b);
  ASSERT_TRUE(worker.run(p2, b, 2)) << "campaign B";
  // Campaign C's handoff file lands on A's old path. A stale cache entry
  // would serve A's spec here, and the fingerprint check would refuse C.
  writeSpec(p1, c);
  EXPECT_TRUE(worker.run(p1, c, 3)) << "campaign C hit the finished campaign's spec";
  EXPECT_EQ(worker.finish(), 0);
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(DispatchWorker, SubmitWithoutSpecPathIsRefused) {
  InProcessWorker worker;
  EXPECT_FALSE(worker.run("", namedSpec("no-path"), 1));
  EXPECT_EQ(worker.finish(), 8);
}

}  // namespace
}  // namespace xlv::campaign

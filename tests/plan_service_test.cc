// Tests for the concurrent plan service (service/plan_service.h).

#include "service/plan_service.h"

#include <string>
#include <vector>

#include "core/tpp.h"
#include "graph/datasets.h"
#include "gtest/gtest.h"

namespace tpp::service {
namespace {

using core::SolverSpec;
using graph::Edge;
using graph::Graph;

const Graph& ArenasBase() {
  static const Graph g = *graph::MakeArenasEmailLike(1);
  return g;
}

// A 16-request mixed-solver batch: all greedy families, both random
// baselines, an explicit-target request, and varying seeds, samples,
// motifs, and budgets.
std::vector<PlanRequest> MixedBatch() {
  const char* algorithms[] = {"sgb",    "ct-tbd", "ct-dbd", "wt-tbd",
                              "wt-dbd", "rd",     "rdt",    "full"};
  std::vector<PlanRequest> requests;
  for (size_t i = 0; i < 16; ++i) {
    PlanRequest request;
    request.name = "req" + std::to_string(i);
    request.sample = 5 + i % 4;
    request.motif = i % 5 == 4 ? motif::MotifKind::kRectangle
                               : motif::MotifKind::kTriangle;
    request.spec.algorithm = algorithms[i % 8];
    request.spec.budget = i % 8 == 7 ? SolverSpec::kFullProtection
                                     : 4 + i % 3;
    request.seed = 100 + i;
    // Carry the released graph so the bit-identity checks below compare
    // it too (batches leave this off by default).
    request.want_released = true;
    requests.push_back(std::move(request));
  }
  // One request with explicit targets instead of sampling.
  requests[3].targets = {ArenasBase().Edges()[0],
                         ArenasBase().Edges()[42]};
  return requests;
}

TEST(PlanServiceTest, BatchIsBitIdenticalToSequentialRuns) {
  PlanService plan_service(ArenasBase());
  std::vector<PlanRequest> requests = MixedBatch();

  // The reference: one request at a time, exactly what 16 standalone
  // `tpp protect` invocations would compute.
  std::vector<PlanResponse> sequential;
  for (const PlanRequest& request : requests) {
    sequential.push_back(plan_service.RunOne(request));
  }
  for (const PlanResponse& response : sequential) {
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  }

  for (int workers : {1, 4}) {
    std::vector<PlanResponse> batch =
        plan_service.RunBatch(requests, workers);
    ASSERT_EQ(batch.size(), sequential.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      SCOPED_TRACE(requests[i].name + " workers=" +
                   std::to_string(workers));
      ASSERT_TRUE(batch[i].status.ok());
      EXPECT_EQ(batch[i].targets, sequential[i].targets);
      EXPECT_EQ(batch[i].result.protectors,
                sequential[i].result.protectors);
      EXPECT_EQ(batch[i].plan_text, sequential[i].plan_text);
      EXPECT_TRUE(batch[i].released == sequential[i].released);
    }
  }
}

TEST(PlanServiceTest, SameSeedIdenticalDifferentSeedsIndependent) {
  PlanService plan_service(ArenasBase());
  PlanRequest a;
  a.sample = 10;
  a.seed = 7;
  a.spec.algorithm = "rdt";
  a.spec.budget = 6;
  PlanRequest b = a;          // same seed, same everything
  PlanRequest c = a;
  c.seed = 8;                 // adjacent seed

  // Duplicate requests in one batch must not perturb each other: the RNG
  // stream is a pure function of the request seed, never of batch
  // position or execution order.
  std::vector<PlanRequest> requests = {a, b, c};
  std::vector<PlanResponse> responses =
      plan_service.RunBatch(requests, /*max_workers=*/3);
  ASSERT_TRUE(responses[0].status.ok());
  EXPECT_EQ(responses[0].targets, responses[1].targets);
  EXPECT_EQ(responses[0].plan_text, responses[1].plan_text);
  // Adjacent seeds are splitmixed apart: different targets (and plans).
  EXPECT_NE(responses[0].targets, responses[2].targets);

  // And the derivation matches a standalone run.
  PlanResponse solo = plan_service.RunOne(a);
  EXPECT_EQ(solo.plan_text, responses[0].plan_text);
}

TEST(PlanServiceTest, SampledTargetsComeFromSplitmixStream) {
  // The documented contract: targets of a sampling request are exactly
  // SampleTargets drawn from Rng(SplitMix64(seed)).
  PlanService plan_service(ArenasBase());
  PlanRequest request;
  request.sample = 12;
  request.seed = 31337;
  PlanResponse response = plan_service.RunOne(request);
  ASSERT_TRUE(response.status.ok());
  Rng rng = RequestRng(31337);
  std::vector<Edge> expected =
      *core::SampleTargets(ArenasBase(), 12, rng);
  EXPECT_EQ(response.targets, expected);
}

TEST(PlanServiceTest, FailuresAreIsolatedPerRequest) {
  PlanService plan_service(ArenasBase());
  PlanRequest good;
  good.sample = 5;
  good.spec.budget = 3;
  PlanRequest bad = good;
  bad.sample = ArenasBase().NumEdges() + 1;  // more targets than edges
  std::vector<PlanRequest> requests = {good, bad, good};
  std::vector<PlanResponse> responses =
      plan_service.RunBatch(requests, 2);
  EXPECT_TRUE(responses[0].status.ok());
  EXPECT_FALSE(responses[1].status.ok());
  EXPECT_TRUE(responses[2].status.ok());
  EXPECT_EQ(responses[0].plan_text, responses[2].plan_text);
}

TEST(PlanServiceTest, ParsesRequestFile) {
  const std::string text =
      "# tpp batch request file v1\n"
      "\n"
      "name=alpha algorithm=sgb motif=Rectangle sample=20 seed=5 "
      "budget=10\n"
      "links=3-14;15-92 algorithm=ct-tbd budget=full scope=all\n"
      "algorithm=katz\n";
  Result<std::vector<PlanRequest>> requests = ParsePlanRequests(text);
  ASSERT_TRUE(requests.ok()) << requests.status().ToString();
  ASSERT_EQ(requests->size(), 3u);

  const PlanRequest& alpha = (*requests)[0];
  EXPECT_EQ(alpha.name, "alpha");
  EXPECT_EQ(alpha.spec.algorithm, "sgb");
  EXPECT_EQ(alpha.motif, motif::MotifKind::kRectangle);
  EXPECT_EQ(alpha.sample, 20u);
  EXPECT_EQ(alpha.seed, 5u);
  EXPECT_EQ(alpha.spec.budget, 10u);

  const PlanRequest& second = (*requests)[1];
  EXPECT_EQ(second.name, "r1");  // defaulted from line index
  ASSERT_EQ(second.targets.size(), 2u);
  EXPECT_EQ(second.targets[0], Edge(3, 14));
  EXPECT_EQ(second.targets[1], Edge(15, 92));
  EXPECT_EQ(second.spec.budget, SolverSpec::kFullProtection);
  EXPECT_EQ(second.spec.scope, core::CandidateScope::kAllEdges);

  EXPECT_EQ((*requests)[2].spec.algorithm, "katz");
}

// Every bad token fails at parse time with the line prefix, whichever
// parser rejected it; `want` is a substring of the message.
TEST(PlanServiceTest, ParseErrorsNameTheLine) {
  const struct {
    const char* token;
    const char* want;
  } cases[] = {
      {"frobnicate=1", "unknown key 'frobnicate'"},
      {"algorithm=not-a-solver", "unknown solver"},
      {"motif=Foo", "unknown motif: Foo"},
      {"seed=x", "not an integer"},
      {"budget=y", "not an integer"},
      {"sample=z", "not an integer"},
      {"sample=-1", "sample=-1 is negative"},
      {"released=yes", "released 'yes'"},
      {"released=TRUE", "released 'TRUE'"},
      {"released=", "released ''"},
      {"scope=sideways", "scope 'sideways'"},
      {"links=1-2;3", "not of the form u-v"},
      // Names become plan-file paths; separators must not escape
      // --plan-dir.
      {"name=../evil", "outside [A-Za-z0-9._-]"},
      {"name=a/b", "outside [A-Za-z0-9._-]"},
      {"name=..", "reserved"},
      // The greedy loop-selection knobs are gone: their keys are unknown.
      {"lazy=1", "unknown key 'lazy'"},
      {"rounds=heap", "unknown key 'rounds'"},
      {"celf=classic", "unknown key 'celf'"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.token);
    Result<std::vector<PlanRequest>> parsed = ParsePlanRequests(
        std::string("# header\nalgorithm=sgb ") + c.token + "\n");
    ASSERT_FALSE(parsed.ok());
    const std::string message = parsed.status().message();
    EXPECT_EQ(message.rfind("line 2: ", 0), 0u) << message;
    EXPECT_NE(message.find(c.want), std::string::npos) << message;
  }
}

TEST(PlanServiceTest, ParseLinkListRoundTrip) {
  Result<std::vector<Edge>> links = ParseLinkList("1-2;10-20;5-3");
  ASSERT_TRUE(links.ok());
  ASSERT_EQ(links->size(), 3u);
  EXPECT_EQ((*links)[2], Edge(5, 3));
  EXPECT_FALSE(ParseLinkList("1-2;x-y").ok());
}

TEST(PlanServiceTest, ParseLinkListRejectsMalformedAndDegenerateLinks) {
  // Malformed u-v tokens.
  EXPECT_FALSE(ParseLinkList("1-2;3").ok());
  EXPECT_FALSE(ParseLinkList("1-2-3").ok());
  EXPECT_FALSE(ParseLinkList("-1-2").ok());
  // Node ids must fit the 32-bit NodeId space; silently truncating a
  // too-large id would target a different user's link.
  EXPECT_FALSE(ParseLinkList("1-99999999999").ok());
  EXPECT_FALSE(ParseLinkList("4294967296-2").ok());
  EXPECT_TRUE(ParseLinkList("4294967295-2").ok());  // max NodeId is fine
  // Self-loops are not representable links.
  EXPECT_FALSE(ParseLinkList("5-5").ok());
  // Duplicate links, including reversed duplicates: an undirected link
  // listed twice is a request-file mistake, not two targets.
  EXPECT_FALSE(ParseLinkList("1-2;1-2").ok());
  EXPECT_FALSE(ParseLinkList("1-2;3-4;2-1").ok());
}

TEST(PlanServiceTest, ParseRequestLineEdgeCases) {
  // Duplicate/degenerate links= values fail at parse time, naming the
  // line.
  Result<std::vector<PlanRequest>> dup =
      ParsePlanRequests("# header\nalgorithm=sgb links=1-2;2-1\n");
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(dup.status().ToString().find("line 2"), std::string::npos);
  EXPECT_FALSE(ParsePlanRequests("links=7-7\n").ok());
  EXPECT_FALSE(ParsePlanRequests("links=1-99999999999\n").ok());

  // released= toggles the want_released payload flag (off by default)
  // and takes 0|1|true|false; sample=0 is a legal (empty) sample.
  Result<std::vector<PlanRequest>> parsed = ParsePlanRequests(
      "algorithm=sgb sample=5\n"
      "algorithm=sgb sample=5 released=1\n"
      "algorithm=sgb sample=5 released=0\n"
      "algorithm=sgb sample=5 released=true\n"
      "algorithm=sgb sample=0 released=false\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_FALSE((*parsed)[0].want_released);
  EXPECT_TRUE((*parsed)[1].want_released);
  EXPECT_FALSE((*parsed)[2].want_released);
  EXPECT_TRUE((*parsed)[3].want_released);
  EXPECT_FALSE((*parsed)[4].want_released);
  EXPECT_EQ((*parsed)[4].sample, 0u);
}

TEST(PlanServiceTest, OutOfRangeNodeIdsFailPerRequestNotPerBatch) {
  // Ids that parse but exceed the base graph are a runtime failure of
  // that request alone; the batch proceeds.
  PlanService plan_service(ArenasBase());
  PlanRequest good;
  good.sample = 5;
  good.spec.budget = 3;
  PlanRequest out_of_range = good;
  out_of_range.targets = {Edge(3000000, 3000001)};
  std::vector<PlanRequest> requests = {good, out_of_range};
  std::vector<PlanResponse> responses = plan_service.RunBatch(requests, 2);
  EXPECT_TRUE(responses[0].status.ok());
  EXPECT_FALSE(responses[1].status.ok());
}

}  // namespace
}  // namespace tpp::service

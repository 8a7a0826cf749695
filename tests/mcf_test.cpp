#include <gtest/gtest.h>

#include <map>

#include "mcf/generator.hpp"
#include "mcf/ssp.hpp"

namespace dsprof::mcf {
namespace {

TEST(Layout, NodeMatchesPaperFigure7) {
  EXPECT_EQ(sizeof(Node), 120u);
  EXPECT_EQ(offsetof(Node, number), 0u);
  EXPECT_EQ(offsetof(Node, ident), 8u);
  EXPECT_EQ(offsetof(Node, pred), 16u);
  EXPECT_EQ(offsetof(Node, child), 24u);
  EXPECT_EQ(offsetof(Node, sibling), 32u);
  EXPECT_EQ(offsetof(Node, sibling_prev), 40u);
  EXPECT_EQ(offsetof(Node, depth), 48u);
  EXPECT_EQ(offsetof(Node, orientation), 56u);
  EXPECT_EQ(offsetof(Node, basic_arc), 64u);
  EXPECT_EQ(offsetof(Node, firstout), 72u);
  EXPECT_EQ(offsetof(Node, firstin), 80u);
  EXPECT_EQ(offsetof(Node, potential), 88u);
  EXPECT_EQ(offsetof(Node, flow), 96u);
  EXPECT_EQ(offsetof(Node, mark), 104u);
  EXPECT_EQ(offsetof(Node, time), 112u);
}

TEST(Layout, ArcCostAtPaperOffset) {
  EXPECT_EQ(sizeof(Arc), 64u);
  EXPECT_EQ(offsetof(Arc, cost), 32u);
  EXPECT_EQ(offsetof(Arc, ident), 16u);
  EXPECT_EQ(offsetof(Arc, flow), 24u);
}

Network tiny_network() {
  // 4 nodes: 1 supplies 2 units, 4 demands 2; arcs form two paths.
  Network net;
  net.n = 4;
  net.supply = {0, 2, 0, 0, -2};
  net.cands.push_back({1, 2, 1, 2});  // cheap path 1-2-4
  net.cands.push_back({2, 4, 1, 2});
  net.cands.push_back({1, 3, 5, 2});  // expensive path 1-3-4
  net.cands.push_back({3, 4, 5, 2});
  net.arcs.assign(net.cands.size(), Arc{});
  return net;
}

TEST(Simplex, TinyInstanceOptimal) {
  Network net = tiny_network();
  SimplexParams p;
  const cost_t cost = solve(net, p, 1.0);
  EXPECT_EQ(cost, 4);  // 2 units over the cheap path, cost (1+1)*2
  EXPECT_TRUE(primal_feasible(net));
  EXPECT_EQ(dual_feasible(net), 0);
}

TEST(Simplex, CapacityForcesSplit) {
  // Cheap path capacity 1: second unit must use the expensive path.
  Network net = tiny_network();
  net.cands[0].cap = 1;
  net.cands[1].cap = 1;
  SimplexParams p;
  const cost_t cost = solve(net, p, 1.0);
  EXPECT_EQ(cost, 2 + 10);
  EXPECT_TRUE(primal_feasible(net));
  EXPECT_EQ(dual_feasible(net), 0);
}

TEST(Simplex, RefreshPotentialMatchesIncrementalPotentials) {
  GeneratorParams gp;
  gp.seed = 5;
  gp.nodes = 200;
  gp.arcs = 1200;
  Network net = generate_instance(gp);
  primal_start_artificial(net);
  activate_arcs(net, 600);
  SimplexParams p;
  p.refresh_gap = 1000000;  // no refresh during the run
  primal_net_simplex(net, p);
  // Record potentials maintained incrementally by update_tree...
  std::vector<cost_t> incremental;
  for (const auto& nd : net.nodes) incremental.push_back(nd.potential);
  // ...then recompute from scratch; they must agree.
  refresh_potential(net);
  for (size_t i = 0; i < net.nodes.size(); ++i) {
    EXPECT_EQ(net.nodes[i].potential, incremental[i]) << "node " << i;
  }
}

TEST(Simplex, RefreshPotentialCountsDownNodes) {
  GeneratorParams gp;
  gp.nodes = 50;
  gp.arcs = 200;
  Network net = generate_instance(gp);
  primal_start_artificial(net);
  i64 down = 0;
  for (i64 i = 1; i <= net.n; ++i) {
    if (net.nodes[static_cast<size_t>(i)].orientation == kDown) ++down;
  }
  EXPECT_EQ(refresh_potential(net), down);
}

void check_tree_invariants(Network& net) {
  // Every node except the root has a basic arc connecting it to its pred,
  // depth is pred's +1, and the child/sibling lists are consistent.
  i64 reachable = 0;
  for (i64 i = 1; i <= net.n; ++i) {
    Node* v = &net.nodes[static_cast<size_t>(i)];
    ASSERT_NE(v->pred, nullptr) << "node " << i;
    ASSERT_NE(v->basic_arc, nullptr);
    EXPECT_EQ(v->depth, v->pred->depth + 1);
    EXPECT_EQ(v->basic_arc->ident, kBasic);
    const bool connects = (v->basic_arc->tail == v && v->basic_arc->head == v->pred) ||
                          (v->basic_arc->head == v && v->basic_arc->tail == v->pred);
    EXPECT_TRUE(connects) << "basic arc of node " << i << " does not connect to pred";
    EXPECT_EQ(v->orientation == kUp, v->basic_arc->tail == v);
    // v must be in pred's child list exactly once.
    int count = 0;
    for (Node* c = v->pred->child; c; c = c->sibling) {
      if (c == v) ++count;
      if (c->sibling) {
        EXPECT_EQ(c->sibling->sibling_prev, c);
      }
    }
    EXPECT_EQ(count, 1) << "node " << i << " not in its parent's child list once";
    ++reachable;
  }
  EXPECT_EQ(reachable, net.n);
}

void check_flow_conservation(Network& net) {
  std::map<const Node*, flow_t> balance;
  auto apply = [&](const Arc& a) {
    balance[a.tail] -= a.flow;
    balance[a.head] += a.flow;
    EXPECT_GE(a.flow, 0);
    EXPECT_LE(a.flow, a.cap);
  };
  for (i64 i = 0; i < net.m; ++i) apply(net.arcs[static_cast<size_t>(i)]);
  for (const Arc& a : net.dummy_arcs) apply(a);
  for (i64 i = 1; i <= net.n; ++i) {
    const Node* v = &net.nodes[static_cast<size_t>(i)];
    EXPECT_EQ(balance[v], -net.supply[static_cast<size_t>(i)]) << "node " << i;
  }
}

class SimplexVsSsp : public ::testing::TestWithParam<u64> {};

TEST_P(SimplexVsSsp, ObjectivesMatchAndInvariantsHold) {
  GeneratorParams gp;
  gp.seed = GetParam();
  gp.nodes = 120;
  gp.arcs = 700;
  gp.sources = 4;
  gp.units = 3;
  gp.window = 24;
  Network net = generate_instance(gp);
  SimplexParams p;
  const cost_t simplex_cost = solve(net, p, 0.3);
  EXPECT_TRUE(primal_feasible(net));
  EXPECT_EQ(dual_feasible(net), 0);
  check_tree_invariants(net);
  check_flow_conservation(net);

  Network ref = generate_instance(gp);
  const SspResult oracle = ssp_solve(ref.n, ref.supply, ref.cands);
  ASSERT_TRUE(oracle.feasible);
  EXPECT_EQ(simplex_cost, oracle.cost) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexVsSsp, ::testing::Range<u64>(1, 13));

TEST(Simplex, LargerInstanceSolves) {
  GeneratorParams gp;
  gp.seed = 99;
  gp.nodes = 2000;
  gp.arcs = 12000;
  Network net = generate_instance(gp);
  SimplexParams p;
  const cost_t cost = solve(net, p);
  EXPECT_GT(cost, 0);
  EXPECT_TRUE(primal_feasible(net));
  EXPECT_EQ(dual_feasible(net), 0);
  EXPECT_GT(net.iterations, 100u);
  EXPECT_GT(net.refreshes, 10u);
}

TEST(Simplex, DeterministicAcrossRuns) {
  GeneratorParams gp;
  gp.seed = 7;
  gp.nodes = 300;
  gp.arcs = 1500;
  Network a = generate_instance(gp);
  Network b = generate_instance(gp);
  SimplexParams p;
  EXPECT_EQ(solve(a, p), solve(b, p));
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(Simplex, WriteCirculationsListsPositiveFlows) {
  Network net = tiny_network();
  SimplexParams p;
  solve(net, p, 1.0);
  const std::string out = write_circulations(net);
  EXPECT_NE(out.find("1 -> 2 flow 2"), std::string::npos);
}

TEST(Generator, FeasibilityChainPresent) {
  GeneratorParams gp;
  gp.nodes = 50;
  gp.arcs = 100;
  Network net = generate_instance(gp);
  // First n-1 candidates are the chain i -> i+1.
  for (i64 i = 0; i < gp.nodes - 1; ++i) {
    EXPECT_EQ(net.cands[static_cast<size_t>(i)].tail, i + 1);
    EXPECT_EQ(net.cands[static_cast<size_t>(i)].head, i + 2);
  }
  // All arcs point forward in time (DAG).
  for (const auto& c : net.cands) {
    EXPECT_LT(c.tail, c.head);
    EXPECT_GE(c.cost, 0);
    EXPECT_GT(c.cap, 0);
  }
}

TEST(Generator, SupplyBalances) {
  GeneratorParams gp;
  gp.nodes = 100;
  gp.sources = 5;
  gp.units = 7;
  Network net = generate_instance(gp);
  flow_t total = 0;
  for (flow_t s : net.supply) total += s;
  EXPECT_EQ(total, 0);
}

TEST(PriceOut, ActivatesOnlyNegativeReducedCost) {
  GeneratorParams gp;
  gp.seed = 3;
  gp.nodes = 80;
  gp.arcs = 400;
  Network net = generate_instance(gp);
  primal_start_artificial(net);
  activate_arcs(net, 100);
  SimplexParams p;
  primal_net_simplex(net, p);
  const i64 m_before = net.m;
  const i64 added = price_out_impl(net, 1000000);
  EXPECT_EQ(net.m, m_before + added);
  // Newly added arcs must have had negative reduced cost at entry.
  for (i64 i = m_before; i < net.m; ++i) {
    const Arc& a = net.arcs[static_cast<size_t>(i)];
    EXPECT_EQ(a.ident, kAtLower);
    EXPECT_EQ(a.flow, 0);
  }
}

TEST(Suspend, ObjectiveUnchangedAndArcsLeaveTheActiveSet) {
  GeneratorParams gp;
  gp.seed = 12;
  gp.nodes = 200;
  gp.arcs = 1500;
  SimplexParams plain;
  Network a = generate_instance(gp);
  const cost_t base = solve(a, plain, 0.5);

  SimplexParams with_suspend = plain;
  with_suspend.suspend_threshold = gp.max_cost;
  Network b = generate_instance(gp);
  const cost_t suspended = solve(b, with_suspend, 0.5);

  EXPECT_EQ(base, suspended);
  EXPECT_TRUE(primal_feasible(b));
  EXPECT_EQ(dual_feasible(b), 0);
  // suspend_impl actually shrank the active set below the no-suspend run's.
  EXPECT_LT(b.m, a.m);
  // The suspended region is exactly the complement of the active prefix.
  for (i64 i = 0; i < b.total_arcs; ++i) {
    const Arc& arc = b.arcs[static_cast<size_t>(i)];
    if (i < b.m) {
      EXPECT_NE(arc.ident, kSuspended) << i;
    } else {
      EXPECT_EQ(arc.ident, kSuspended) << i;
      EXPECT_EQ(arc.flow, 0) << i;
    }
  }
}

TEST(Suspend, BasicArcPointersSurviveTheSwaps) {
  GeneratorParams gp;
  gp.seed = 9;
  gp.nodes = 120;
  gp.arcs = 800;
  Network net = generate_instance(gp);
  primal_start_artificial(net);
  activate_arcs(net, 500);
  SimplexParams p;
  primal_net_simplex(net, p);
  // Suspend aggressively, then verify every node's basic arc still connects
  // the node to its parent.
  suspend_impl(net, 0);
  for (i64 i = 1; i <= net.n; ++i) {
    const Node* v = &net.nodes[static_cast<size_t>(i)];
    ASSERT_NE(v->basic_arc, nullptr);
    EXPECT_EQ(v->basic_arc->ident, kBasic) << "node " << i;
    const bool connects = (v->basic_arc->tail == v && v->basic_arc->head == v->pred) ||
                          (v->basic_arc->head == v && v->basic_arc->tail == v->pred);
    EXPECT_TRUE(connects) << "node " << i;
  }
  // And the network still re-optimizes to the true optimum afterwards.
  const cost_t cost = global_opt(net, p);
  Network ref = generate_instance(gp);
  const SspResult oracle = ssp_solve(ref.n, ref.supply, ref.cands);
  ASSERT_TRUE(oracle.feasible);
  EXPECT_EQ(cost, oracle.cost);
}

TEST(Ssp, OracleSolvesTiny) {
  Network net = tiny_network();
  const SspResult r = ssp_solve(net.n, net.supply, net.cands);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.cost, 4);
}

TEST(Ssp, DetectsInfeasible) {
  std::vector<flow_t> supply = {0, 1, -1};
  std::vector<CandArc> cands;  // no arcs at all
  const SspResult r = ssp_solve(2, supply, cands);
  EXPECT_FALSE(r.feasible);
}

}  // namespace
}  // namespace dsprof::mcf

#include "core/backup_store.hpp"

#include <gtest/gtest.h>

#include "sim/dist_matrix.hpp"
#include "sparse/generators.hpp"
#include "test_util.hpp"

namespace rpcg {
namespace {

struct Fixture {
  CsrMatrix a = circuit_like(8, 8, 0.05, 4);
  Partition part = Partition::block_rows(a.rows(), 4);
  Cluster cluster{part, CommParams{}};
  DistMatrix dist = DistMatrix::distribute(a, part);
  RedundancyScheme scheme = RedundancyScheme::build(
      dist.scatter_plan(), part, 2, BackupStrategy::kPaperAlternating);
  BackupStore store;
  DistVector p{part};

  Fixture() { store.configure(dist.scatter_plan(), scheme, part); }

  void fill_and_record(double offset) {
    std::vector<double> g(static_cast<std::size_t>(a.rows()));
    for (Index i = 0; i < a.rows(); ++i)
      g[static_cast<std::size_t>(i)] = offset + static_cast<double>(i);
    p.set_global(g);
    store.record(p);
  }
};

TEST(BackupStore, LookupFindsBothGenerations) {
  Fixture f;
  f.fill_and_record(100.0);  // becomes prev after the second record
  f.fill_and_record(500.0);  // current
  for (Index s = 0; s < f.a.rows(); ++s) {
    const NodeId owner = f.part.owner(s);
    const auto cur = f.store.lookup(f.cluster, owner, s, 0);
    const auto prev = f.store.lookup(f.cluster, owner, s, 1);
    ASSERT_TRUE(cur.has_value()) << "element " << s;
    ASSERT_TRUE(prev.has_value()) << "element " << s;
    EXPECT_DOUBLE_EQ(cur->value, 500.0 + static_cast<double>(s));
    EXPECT_DOUBLE_EQ(prev->value, 100.0 + static_cast<double>(s));
    EXPECT_NE(cur->holder, owner);  // copies live on *other* nodes
  }
}

TEST(BackupStore, GatherLostReturnsExactValues) {
  Fixture f;
  f.fill_and_record(100.0);
  f.fill_and_record(500.0);
  const std::vector<NodeId> failed{1};
  const auto rows = f.part.rows_of_set(failed);
  f.store.invalidate_node(1);
  f.cluster.fail_node(1);
  const auto got = f.store.gather_lost(f.cluster, rows);
  for (std::size_t k = 0; k < rows.size(); ++k) {
    EXPECT_DOUBLE_EQ(got.gens[0][k], 500.0 + static_cast<double>(rows[k]));
    EXPECT_DOUBLE_EQ(got.gens[1][k], 100.0 + static_cast<double>(rows[k]));
  }
  EXPECT_EQ(got.elements_transferred, 2 * static_cast<Index>(rows.size()));
  EXPECT_GT(f.cluster.clock().in_phase(Phase::kRecovery), 0.0);
}

TEST(BackupStore, SurvivesPhiFailures) {
  // phi = 2: any 2 simultaneous failures leave a copy of everything.
  for (NodeId f1 = 0; f1 < 4; ++f1) {
    for (NodeId f2 = 0; f2 < 4; ++f2) {
      if (f1 == f2) continue;
      Fixture f;
      f.fill_and_record(1.0);
      f.fill_and_record(2.0);
      f.store.invalidate_node(f1);
      f.store.invalidate_node(f2);
      f.cluster.fail_node(f1);
      f.cluster.fail_node(f2);
      const auto rows = f.part.rows_of_set(std::vector<NodeId>{f1, f2});
      EXPECT_NO_THROW((void)f.store.gather_lost(f.cluster, rows))
          << "failed pair " << f1 << "," << f2;
    }
  }
}

TEST(BackupStore, ThrowsWhenNothingSurvives) {
  // Diagonal matrix, phi = 1: killing a node and its only designated backup
  // (the +1 neighbour) makes elements unrecoverable.
  const CsrMatrix a = CsrMatrix::identity(16);
  const Partition part = Partition::block_rows(16, 4);
  Cluster cluster(part, CommParams{});
  const DistMatrix dist = DistMatrix::distribute(a, part);
  const auto scheme = RedundancyScheme::build(dist.scatter_plan(), part, 1,
                                              BackupStrategy::kPaperAlternating);
  BackupStore store;
  store.configure(dist.scatter_plan(), scheme, part);
  DistVector p(part);
  store.record(p);
  store.invalidate_node(1);
  store.invalidate_node(2);
  cluster.fail_node(1);
  cluster.fail_node(2);
  const auto rows = part.rows_of(1);  // node 1's backup was on node 2
  EXPECT_THROW((void)store.gather_lost(cluster, rows), UnrecoverableFailure);
}

TEST(BackupStore, ReArmRestoresReplacementHostedCopies) {
  Fixture f;
  f.fill_and_record(10.0);
  f.fill_and_record(20.0);
  DistVector p_prev(f.part);
  {
    std::vector<double> g(static_cast<std::size_t>(f.a.rows()));
    for (Index i = 0; i < f.a.rows(); ++i)
      g[static_cast<std::size_t>(i)] = 10.0 + static_cast<double>(i);
    p_prev.set_global(g);
  }
  f.store.invalidate_node(2);
  f.cluster.fail_node(2);
  f.cluster.replace_node(2);
  const std::vector<NodeId> repl{2};
  f.store.re_arm(f.cluster, repl, f.p, p_prev);
  // Copies hosted on node 2 are valid again: lose another node whose backup
  // lived on 2 and the data must still be recoverable from node 2.
  const Index retained = f.store.retained_elements_on(2);
  EXPECT_GT(retained, 0);
  // Every element must again have both generations available even if we now
  // exclude all holders except node 2... (weaker check: global lookups work).
  for (Index s = 0; s < f.a.rows(); ++s) {
    const NodeId owner = f.part.owner(s);
    if (owner == 2) continue;
    EXPECT_TRUE(f.store.lookup(f.cluster, owner, s, 0).has_value());
    EXPECT_TRUE(f.store.lookup(f.cluster, owner, s, 1).has_value());
  }
}

TEST(BackupStore, NGenerationRingRoundTrips) {
  // The depth-l pipelined solver backs up depth+1 generations of u. Four
  // recorded snapshots must come back newest-first through both lookup and
  // gather_lost, and a fifth record must evict exactly the oldest.
  Fixture f;
  f.store.configure(f.dist.scatter_plan(), f.scheme, f.part, 4);
  for (const double offset : {1000.0, 2000.0, 3000.0, 4000.0})
    f.fill_and_record(offset);
  for (Index s = 0; s < f.a.rows(); ++s) {
    const NodeId owner = f.part.owner(s);
    for (int g = 0; g < 4; ++g) {
      const auto got = f.store.lookup(f.cluster, owner, s, g);
      ASSERT_TRUE(got.has_value()) << "element " << s << " gen " << g;
      EXPECT_DOUBLE_EQ(got->value,
                       1000.0 * static_cast<double>(4 - g) +
                           static_cast<double>(s));
    }
  }
  f.fill_and_record(5000.0);  // evicts the 1000.0 snapshot
  f.store.invalidate_node(1);
  f.cluster.fail_node(1);
  const auto rows = f.part.rows_of_set(std::vector<NodeId>{1});
  const auto got = f.store.gather_lost(f.cluster, rows);
  ASSERT_EQ(got.gens.size(), 4u);
  for (std::size_t k = 0; k < rows.size(); ++k) {
    for (int g = 0; g < 4; ++g) {
      EXPECT_DOUBLE_EQ(got.gens[static_cast<std::size_t>(g)][k],
                       1000.0 * static_cast<double>(5 - g) +
                           static_cast<double>(rows[k]));
    }
  }
  EXPECT_EQ(got.elements_transferred, 4 * static_cast<Index>(rows.size()));
}

TEST(BackupStore, ConfigureRejectsZeroGenerations) {
  Fixture f;
  EXPECT_THROW(
      f.store.configure(f.dist.scatter_plan(), f.scheme, f.part, 0),
      std::logic_error);
}

// One generation: the stationary engine's store of its iterate.
TEST(BackupStore, SingleGenerationRecordOverwrites) {
  Fixture f;
  f.store.configure(f.dist.scatter_plan(), f.scheme, f.part, 1);
  ASSERT_EQ(f.store.generations(), 1);
  f.fill_and_record(100.0);
  f.fill_and_record(500.0);  // replaces the 100.0 snapshot
  for (Index s = 0; s < f.a.rows(); ++s) {
    const auto got = f.store.lookup(f.cluster, f.part.owner(s), s, 0);
    ASSERT_TRUE(got.has_value()) << "element " << s;
    EXPECT_DOUBLE_EQ(got->value, 500.0 + static_cast<double>(s));
  }
  EXPECT_THROW((void)f.store.lookup(f.cluster, 0, 0, 1), std::logic_error);
}

TEST(BackupStore, SingleGenerationGatherReturnsOneGeneration) {
  Fixture f;
  f.store.configure(f.dist.scatter_plan(), f.scheme, f.part, 1);
  f.fill_and_record(7.0);
  const std::vector<NodeId> failed{1, 2};
  for (const NodeId d : failed) {
    f.store.invalidate_node(d);
    f.cluster.fail_node(d);
  }
  const auto rows = f.part.rows_of_set(failed);
  const auto got = f.store.gather_lost(f.cluster, rows);
  ASSERT_EQ(got.gens.size(), 1u);
  for (std::size_t k = 0; k < rows.size(); ++k)
    EXPECT_DOUBLE_EQ(got.gens[0][k], 7.0 + static_cast<double>(rows[k]));
  EXPECT_EQ(got.elements_transferred, static_cast<Index>(rows.size()));
}

TEST(BackupStore, SingleGenerationReArmChargesOneMessagePerSource) {
  // Diagonal matrix, phi = 1: no halo traffic, so node 2 hosts exactly one
  // retained block — node 1's designated copy — and re-arming it is one
  // message of that block's indices from node 1.
  const CsrMatrix a = CsrMatrix::identity(16);
  const Partition part = Partition::block_rows(16, 4);
  Cluster cluster(part, CommParams{});
  const DistMatrix dist = DistMatrix::distribute(a, part);
  const auto scheme = RedundancyScheme::build(dist.scatter_plan(), part, 1,
                                              BackupStrategy::kPaperAlternating);
  BackupStore store;
  store.configure(dist.scatter_plan(), scheme, part, 1);
  DistVector x(part);
  x.set_global(std::vector<double>(16, 3.0));
  store.record(x);
  const Index hosted = store.retained_elements_on(2);
  ASSERT_EQ(hosted, part.size(1));

  store.invalidate_node(2);
  cluster.fail_node(2);
  cluster.replace_node(2);
  const std::vector<NodeId> repl{2};
  const DistVector* gens[] = {&x};
  store.re_arm(cluster, repl, gens);
  EXPECT_DOUBLE_EQ(cluster.clock().in_phase(Phase::kRecovery),
                   cluster.comm().message_cost(hosted));
  // The re-armed copy serves node 1's elements again.
  for (Index s = part.begin(1); s < part.end(1); ++s) {
    const auto got = store.lookup(cluster, 1, s, 0);
    ASSERT_TRUE(got.has_value()) << "element " << s;
    EXPECT_EQ(got->holder, 2);
    EXPECT_DOUBLE_EQ(got->value, 3.0);
  }
}

TEST(BackupStore, ReArmSpanMustMatchGenerationCount) {
  Fixture f;  // configured with the default 2 generations
  f.fill_and_record(1.0);
  f.fill_and_record(2.0);
  f.store.invalidate_node(2);
  f.cluster.fail_node(2);
  f.cluster.replace_node(2);
  const std::vector<NodeId> repl{2};
  const DistVector only_current(f.part);
  const std::vector<const DistVector*> too_few{&only_current};
  EXPECT_THROW(
      f.store.re_arm(f.cluster, repl, too_few),
      std::logic_error);
}

TEST(BackupStore, MemoryOverheadIsModest) {
  // The paper: local memory overhead is ~2 (phi) block copies per node. With
  // phi = 2 and N = 4 each node retains at most ~2 * 2 * (n/N) elements
  // (both generations of two designated blocks) plus halo retention.
  Fixture f;
  const Index block = f.part.max_block_size();
  for (NodeId d = 0; d < 4; ++d)
    EXPECT_LE(f.store.retained_elements_on(d), 2 * 3 * block);
}

}  // namespace
}  // namespace rpcg

// When a served database moves to a new version (its epoch, in these
// suites' names): Relation's Insert/Retract report whether the tuple set
// changed, Database::ApplyValidated's WriteResult counts the relations a
// batch changed on net, and a VersionChain publishes exactly when that
// count is non-zero — never for duplicate inserts, absent retracts,
// clears of empty relations, reads, or batches whose changes cancel out,
// and once for a batch however many ops it holds.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ast/parser.h"
#include "storage/database.h"
#include "storage/db_version.h"
#include "storage/relation.h"
#include "storage/write_batch.h"

namespace magic {
namespace {

// par/2 holding c0 -> c1 -> c2 and an empty 0-ary flag/0, served through
// a VersionChain the way QueryService::ApplyWrites serves a Database.
class ServedEdbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto parsed = ParseUnit(
        "anc(X,Y) :- par(X,Y). go :- flag. par(c0, c1). par(c1, c2).");
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    universe_ = parsed->program.universe();
    facts_ = parsed->facts;
    par_ = Pred("par", 2);
    anc_ = Pred("anc", 2);
    flag_ = Pred("flag", 0);
    db_ = std::make_unique<Database>(universe_);
    for (const Fact& fact : facts_) ASSERT_TRUE(db_->AddFact(fact).ok());
    chain_ = std::make_unique<VersionChain>(*db_);
  }

  PredId Pred(const char* name, uint32_t arity) const {
    return *universe_->predicates().Find(*universe_->symbols().Find(name),
                                         arity);
  }
  TermId C(const char* name) const { return universe_->Constant(name); }

  WriteResult Commit(const WriteBatch& batch) {
    EXPECT_TRUE(batch.Validate(*universe_).ok());
    return chain_->Commit(*db_, batch);
  }
  uint64_t Published() const { return chain_->versions_published(); }

  std::shared_ptr<Universe> universe_;
  std::vector<Fact> facts_;
  PredId par_ = 0;
  PredId anc_ = 0;
  PredId flag_ = 0;
  std::unique_ptr<Database> db_;
  std::unique_ptr<VersionChain> chain_;
};

class RelationEpochTest : public ServedEdbTest {};
class DatabaseEpochTest : public ServedEdbTest {};

TEST_F(RelationEpochTest, BumpsOnNewInsertOnly) {
  Relation rel(2);
  std::vector<TermId> t1 = {1, 2};
  EXPECT_TRUE(rel.Insert(t1));
  EXPECT_FALSE(rel.Insert(t1));  // duplicate: tuple set unchanged
  EXPECT_TRUE(rel.Insert(std::vector<TermId>{1, 3}));
  EXPECT_EQ(rel.size(), 2u);

  // Served: a new tuple publishes a version, its duplicate does not.
  WriteBatch fresh;
  fresh.Insert(par_, {C("c2"), C("c3")});
  WriteResult result = Commit(fresh);
  EXPECT_EQ(result.inserted, 1u);
  EXPECT_EQ(result.relations_mutated, 1u);
  EXPECT_EQ(Published(), 2u);
  result = Commit(fresh);
  EXPECT_EQ(result.inserted, 0u);
  EXPECT_EQ(result.relations_mutated, 0u);
  EXPECT_EQ(Published(), 2u);
}

TEST_F(RelationEpochTest, StableAcrossReads) {
  auto pinned = chain_->Pin();
  const Relation& rel = *pinned->db().Find(par_);
  const std::vector<TermId> t1 = {C("c0"), C("c1")};
  EXPECT_TRUE(rel.Contains(t1));
  EXPECT_TRUE(rel.FindRow(t1).has_value());
  std::vector<uint32_t> rows;
  const std::vector<TermId> key = {C("c0")};
  rel.Probe(/*mask=*/0b01, key, 0, rel.size(), &rows);  // builds an index
  EXPECT_EQ(rows.size(), 1u);
  rel.Probe(0b01, key, 0, rel.size(), &rows);  // indexed fast path
  EXPECT_EQ(rel.size(), 2u);

  // Reads publish nothing, and re-inserting what they read is a no-op.
  EXPECT_EQ(Published(), 1u);
  EXPECT_EQ(chain_->Pin(), pinned);
  WriteBatch again;
  again.Insert(par_, t1);
  EXPECT_EQ(Commit(again).relations_mutated, 0u);
  EXPECT_EQ(Published(), 1u);
}

TEST_F(RelationEpochTest, ClearOnEmptyRelationIsANoOp) {
  Relation rel(1);
  rel.Clear();
  EXPECT_EQ(rel.size(), 0u);
  std::vector<TermId> t = {7};
  ASSERT_TRUE(rel.Insert(t));
  rel.Clear();
  rel.Clear();  // repeat clear: still empty
  EXPECT_EQ(rel.size(), 0u);
  EXPECT_TRUE(rel.Insert(t));  // the tuple really went

  // Served: clearing an empty relation changes nothing and publishes
  // nothing, whether it was never created or was emptied earlier.
  WriteBatch wipe_flag;
  wipe_flag.Clear(flag_);
  WriteResult result = Commit(wipe_flag);
  EXPECT_EQ(result.cleared, 0u);
  EXPECT_EQ(result.relations_mutated, 0u);
  EXPECT_EQ(Published(), 1u);
  WriteBatch wipe;
  wipe.Clear(par_);
  EXPECT_EQ(Commit(wipe).cleared, 1u);
  EXPECT_EQ(Published(), 2u);
  result = Commit(wipe);
  EXPECT_EQ(result.cleared, 0u);
  EXPECT_EQ(result.relations_mutated, 0u);
  EXPECT_EQ(Published(), 2u);
}

TEST_F(RelationEpochTest, ClearResetsRowsAndIndices) {
  Relation rel(1);
  std::vector<TermId> t = {7};
  ASSERT_TRUE(rel.Insert(t));
  std::vector<uint32_t> rows;
  rel.Probe(0b1, t, 0, rel.size(), &rows);
  ASSERT_EQ(rows.size(), 1u);

  rel.Clear();
  EXPECT_EQ(rel.size(), 0u);
  EXPECT_FALSE(rel.Contains(t));

  // Post-clear state is fully usable: re-insert and probe again (the
  // cleared indices rebuild from scratch).
  EXPECT_TRUE(rel.Insert(t));
  rows.clear();
  rel.Probe(0b1, t, 0, rel.size(), &rows);
  EXPECT_EQ(rows.size(), 1u);
}

TEST_F(RelationEpochTest, RetractBumpsOnPresentTupleOnly) {
  Relation rel(2);
  std::vector<TermId> t1 = {1, 2};
  std::vector<TermId> t2 = {3, 4};
  ASSERT_TRUE(rel.Insert(t1));
  ASSERT_TRUE(rel.Insert(t2));
  EXPECT_FALSE(rel.Retract(std::vector<TermId>{9, 9}));  // absent: no-op
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_TRUE(rel.Retract(t1));
  EXPECT_FALSE(rel.Contains(t1));
  EXPECT_TRUE(rel.Contains(t2));
  EXPECT_FALSE(rel.Retract(t1));  // already gone
  EXPECT_EQ(rel.size(), 1u);

  // Served: an absent retract publishes nothing, a present one a version.
  WriteBatch absent;
  absent.Retract(par_, {C("c9"), C("c9")});
  WriteResult result = Commit(absent);
  EXPECT_EQ(result.retracted, 0u);
  EXPECT_EQ(result.relations_mutated, 0u);
  EXPECT_EQ(Published(), 1u);
  WriteBatch present;
  present.Retract(par_, {C("c0"), C("c1")});
  result = Commit(present);
  EXPECT_EQ(result.retracted, 1u);
  EXPECT_EQ(result.relations_mutated, 1u);
  EXPECT_EQ(Published(), 2u);
  EXPECT_EQ(Commit(present).relations_mutated, 0u);  // already gone
  EXPECT_EQ(Published(), 2u);
}

TEST_F(DatabaseEpochTest, ManyOpBatchBumpsOnce) {
  // Five inserts and a retract on one relation: one mutated relation and
  // one published version for the whole batch.
  WriteBatch batch;
  for (const char* node : {"c3", "c4", "c5", "c6", "c7"}) {
    batch.Insert(par_, {C("c2"), C(node)});
  }
  batch.Retract(par_, {C("c0"), C("c1")});
  WriteResult result = Commit(batch);
  EXPECT_EQ(result.inserted, 5u);
  EXPECT_EQ(result.retracted, 1u);
  EXPECT_EQ(result.relations_mutated, 1u);
  EXPECT_EQ(Published(), 2u);
  EXPECT_EQ(chain_->Pin()->db().FactCount(par_), 6u);

  WriteBatch noop;
  noop.Insert(par_, {C("c2"), C("c3")});
  EXPECT_EQ(Commit(noop).relations_mutated, 0u);  // nothing changed
  EXPECT_EQ(Published(), 2u);

  // Each later batch publishes on its own.
  WriteBatch more;
  more.Insert(par_, {C("c7"), C("c8")});
  EXPECT_EQ(Commit(more).relations_mutated, 1u);
  EXPECT_EQ(Published(), 3u);
}

TEST_F(RelationEpochTest, ZeroAryRelationBumpsOnce) {
  Relation rel(0);
  std::vector<TermId> empty;
  EXPECT_TRUE(rel.Insert(empty));
  EXPECT_FALSE(rel.Insert(empty));  // at most one 0-ary tuple
  EXPECT_EQ(rel.size(), 1u);

  // Served: the fact's first insert publishes, a repeat does not, and its
  // retract publishes again.
  WriteBatch set;
  set.Insert(flag_, {});
  set.Insert(flag_, {});
  WriteResult result = Commit(set);
  EXPECT_EQ(result.inserted, 1u);
  EXPECT_EQ(result.relations_mutated, 1u);
  EXPECT_EQ(Published(), 2u);
  EXPECT_EQ(Commit(set).relations_mutated, 0u);
  EXPECT_EQ(Published(), 2u);
  WriteBatch unset;
  unset.Retract(flag_, {});
  EXPECT_EQ(Commit(unset).retracted, 1u);
  EXPECT_EQ(Published(), 3u);
}

TEST_F(DatabaseEpochTest, AddFactBumpsDuplicateDoesNot) {
  Database db(universe_);
  ASSERT_TRUE(db.AddFact(facts_[0]).ok());
  ASSERT_TRUE(db.AddFact(facts_[1]).ok());
  EXPECT_EQ(db.FactCount(par_), 2u);

  // Idempotent duplicate: OK status, tuple set unchanged.
  ASSERT_TRUE(db.AddFact(facts_[0]).ok());
  EXPECT_EQ(db.FactCount(par_), 2u);

  // A rejected fact (wrong arity) mutates nothing.
  Fact bad{par_, {C("c0")}};
  EXPECT_FALSE(db.AddFact(bad).ok());
  EXPECT_EQ(db.FactCount(par_), 2u);

  // Served: the same duplicate publishes nothing, a new fact one version.
  WriteBatch duplicate;
  duplicate.Insert(par_, facts_[0].args);
  EXPECT_EQ(Commit(duplicate).relations_mutated, 0u);
  EXPECT_EQ(Published(), 1u);
  WriteBatch fresh;
  fresh.Insert(par_, {C("c5"), C("c6")});
  EXPECT_EQ(Commit(fresh).relations_mutated, 1u);
  EXPECT_EQ(Published(), 2u);
}

TEST_F(DatabaseEpochTest, StableAcrossReads) {
  auto pinned = chain_->Pin();
  EXPECT_NE(db_->Find(par_), nullptr);
  EXPECT_EQ(db_->FactCount(par_), 2u);
  EXPECT_EQ(db_->TotalFacts(), 2u);
  (void)db_->relations();
  EXPECT_EQ(pinned->db().TotalFacts(), 2u);

  EXPECT_EQ(chain_->current_version(), 1u);
  EXPECT_EQ(Published(), 1u);
  EXPECT_EQ(chain_->Pin(), pinned);
}

TEST_F(DatabaseEpochTest, ClearBumpsAndDirectRelationWritesAreObserved) {
  // Before a chain serves it, a Database changes through Clear and
  // through GetOrCreate references alike, and the first version a chain
  // publishes holds exactly what those writes left.
  Database db(universe_);
  for (const Fact& fact : facts_) ASSERT_TRUE(db.AddFact(fact).ok());
  db.Clear(par_);
  EXPECT_EQ(db.FactCount(par_), 0u);
  std::vector<TermId> tuple = {C("c5"), C("c6")};
  EXPECT_TRUE(db.GetOrCreate(par_).Insert(tuple));
  EXPECT_EQ(db.FactCount(par_), 1u);
  db.Clear(anc_);  // never created: absent == empty, a no-op
  EXPECT_EQ(db.Find(anc_), nullptr);

  VersionChain chain(db);
  EXPECT_TRUE(chain.Pin()->db().Find(par_)->Contains(tuple));
  EXPECT_EQ(chain.Pin()->db().FactCount(par_), 1u);

  // Served: a clear publishes once; clearing the emptied relation again
  // publishes nothing.
  WriteBatch wipe;
  wipe.Clear(par_);
  WriteResult result = chain.Commit(db, wipe);
  EXPECT_EQ(result.cleared, 1u);
  EXPECT_EQ(result.relations_mutated, 1u);
  EXPECT_EQ(chain.versions_published(), 2u);
  result = chain.Commit(db, wipe);
  EXPECT_EQ(result.relations_mutated, 0u);
  EXPECT_EQ(chain.versions_published(), 2u);
}

TEST_F(DatabaseEpochTest, ClearThenIdenticalReinsertIsNetZero) {
  // A batch that clears a relation and reinserts exactly the tuples it
  // held is net-zero: its final content equals the pre-batch content, so
  // it publishes nothing and warm answers stay live.
  auto pinned = chain_->Pin();
  WriteBatch same;
  same.Clear(par_);
  same.Insert(par_, facts_[0].args);
  same.Insert(par_, facts_[1].args);
  WriteResult result = Commit(same);
  EXPECT_EQ(result.cleared, 1u);  // the clear did run on a non-empty rel
  EXPECT_EQ(result.inserted, 2u);
  EXPECT_EQ(result.relations_mutated, 0u);  // ...but the net effect is nil
  EXPECT_EQ(Published(), 1u);
  EXPECT_EQ(chain_->Pin(), pinned);
  EXPECT_EQ(db_->FactCount(par_), 2u);

  // Same-size but different content after the clear: a real mutation.
  WriteBatch different;
  different.Clear(par_);
  different.Insert(par_, facts_[0].args);
  different.Insert(par_, {C("c8"), C("c9")});
  result = Commit(different);
  EXPECT_EQ(result.relations_mutated, 1u);
  EXPECT_EQ(Published(), 2u);
  EXPECT_EQ(db_->FactCount(par_), 2u);
}

}  // namespace
}  // namespace magic

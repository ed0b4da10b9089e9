#include "storage/relation.h"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "storage/database.h"

namespace magic {
namespace {

TEST(RelationTest, InsertDeduplicates) {
  Relation rel(2);
  std::vector<TermId> t1 = {1, 2};
  std::vector<TermId> t2 = {1, 3};
  EXPECT_TRUE(rel.Insert(t1));
  EXPECT_FALSE(rel.Insert(t1));
  EXPECT_TRUE(rel.Insert(t2));
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_TRUE(rel.Contains(t1));
  EXPECT_FALSE(rel.Contains(std::vector<TermId>{2, 1}));
}

TEST(RelationTest, RowAccess) {
  Relation rel(3);
  rel.Insert(std::vector<TermId>{7, 8, 9});
  auto row = rel.Row(0);
  EXPECT_EQ(row[0], 7u);
  EXPECT_EQ(row[2], 9u);
}

TEST(RelationTest, ProbeByMask) {
  Relation rel(2);
  rel.Insert(std::vector<TermId>{1, 10});
  rel.Insert(std::vector<TermId>{1, 11});
  rel.Insert(std::vector<TermId>{2, 12});
  std::vector<uint32_t> rows;
  std::vector<TermId> key = {1};
  rel.Probe(0b01, key, 0, rel.size(), &rows);
  EXPECT_EQ(rows.size(), 2u);
  rows.clear();
  key = {12};
  rel.Probe(0b10, key, 0, rel.size(), &rows);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], 2u);
}

TEST(RelationTest, ProbeRespectsRowRanges) {
  Relation rel(2);
  rel.Insert(std::vector<TermId>{1, 10});
  rel.Insert(std::vector<TermId>{1, 11});
  rel.Insert(std::vector<TermId>{1, 12});
  std::vector<uint32_t> rows;
  std::vector<TermId> key = {1};
  rel.Probe(0b01, key, 1, 2, &rows);  // semi-naive delta window
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], 1u);
}

TEST(RelationTest, IndexExtendsAfterInserts) {
  Relation rel(2);
  rel.Insert(std::vector<TermId>{1, 10});
  std::vector<uint32_t> rows;
  std::vector<TermId> key = {1};
  rel.Probe(0b01, key, 0, rel.size(), &rows);  // builds the index
  EXPECT_EQ(rows.size(), 1u);
  rel.Insert(std::vector<TermId>{1, 11});
  rows.clear();
  rel.Probe(0b01, key, 0, rel.size(), &rows);  // must see the new row
  EXPECT_EQ(rows.size(), 2u);
}

TEST(RelationTest, RetractRemovesTupleAndCompactsRows) {
  Relation rel(2);
  rel.Insert(std::vector<TermId>{1, 10});
  rel.Insert(std::vector<TermId>{2, 20});
  rel.Insert(std::vector<TermId>{3, 30});

  EXPECT_TRUE(rel.Retract(std::vector<TermId>{2, 20}));
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_FALSE(rel.Contains(std::vector<TermId>{2, 20}));
  EXPECT_TRUE(rel.Contains(std::vector<TermId>{1, 10}));
  EXPECT_TRUE(rel.Contains(std::vector<TermId>{3, 30}));
  // Rows compact: the survivor behind the hole shifted down and the
  // dedup map knows its new id.
  EXPECT_EQ(rel.FindRow(std::vector<TermId>{3, 30}), 1u);
  EXPECT_FALSE(rel.Retract(std::vector<TermId>{2, 20}));  // already gone

  // Re-inserting a retracted tuple works (no dedup ghost).
  EXPECT_TRUE(rel.Insert(std::vector<TermId>{2, 20}));
  EXPECT_EQ(rel.size(), 3u);
}

TEST(RelationTest, RetractPatchesBuiltIndexes) {
  Relation rel(2);
  rel.Insert(std::vector<TermId>{1, 10});
  rel.Insert(std::vector<TermId>{1, 11});
  rel.Insert(std::vector<TermId>{2, 12});
  std::vector<uint32_t> rows;
  std::vector<TermId> key = {1};
  rel.Probe(0b01, key, 0, rel.size(), &rows);  // builds the index
  ASSERT_EQ(rows.size(), 2u);

  // Row 0 goes; row 2 ({2, 12}) moves into its slot. The built index is
  // patched in place and must serve neither the removed id nor the
  // moved row's old id.
  ASSERT_TRUE(rel.Retract(std::vector<TermId>{1, 10}));
  rows.clear();
  rel.Probe(0b01, key, 0, rel.size(), &rows);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rel.Row(rows[0])[1], 11u);
  rows.clear();
  std::vector<TermId> moved_key = {2};
  rel.Probe(0b01, moved_key, 0, rel.size(), &rows);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], 0u);
  EXPECT_EQ(rel.FindRow(std::vector<TermId>{2, 12}), 0u);

  ASSERT_TRUE(rel.Retract(std::vector<TermId>{2, 12}));
  rows.clear();
  rel.Probe(0b01, key, 0, rel.size(), &rows);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rel.Row(rows[0])[1], 11u);

  // Retracting the last row leaves a usable empty relation.
  ASSERT_TRUE(rel.Retract(std::vector<TermId>{1, 11}));
  rows.clear();
  rel.Probe(0b01, key, 0, rel.size(), &rows);
  EXPECT_TRUE(rows.empty());
  EXPECT_TRUE(rel.Insert(std::vector<TermId>{1, 13}));
  rel.Probe(0b01, key, 0, rel.size(), &rows);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], 0u);
}

TEST(RelationTest, RetractZeroAry) {
  Relation rel(0);
  EXPECT_FALSE(rel.Retract(std::vector<TermId>{}));
  ASSERT_TRUE(rel.Insert(std::vector<TermId>{}));
  EXPECT_TRUE(rel.Retract(std::vector<TermId>{}));
  EXPECT_EQ(rel.size(), 0u);
  EXPECT_FALSE(rel.Retract(std::vector<TermId>{}));
}

TEST(RelationTest, FullScanWithZeroMask) {
  Relation rel(1);
  rel.Insert(std::vector<TermId>{5});
  rel.Insert(std::vector<TermId>{6});
  std::vector<uint32_t> rows;
  rel.Probe(Relation::kNoMask, {}, 0, rel.size(), &rows);
  EXPECT_EQ(rows.size(), 2u);
}

TEST(RelationTest, ZeroAryRelation) {
  Relation rel(0);
  EXPECT_EQ(rel.size(), 0u);
  EXPECT_TRUE(rel.Insert(std::vector<TermId>{}));
  EXPECT_FALSE(rel.Insert(std::vector<TermId>{}));
  EXPECT_EQ(rel.size(), 1u);
  EXPECT_TRUE(rel.Contains(std::vector<TermId>{}));
  EXPECT_TRUE(rel.Row(0).empty());  // the top-down engine reads it
}

// Differential property test for the persistent, structurally shared
// Relation. A writer applies a seeded random stream of insert / retract /
// clear batches the way Database does — clone the head, mutate the clone,
// make it the new head — and keeps snapshots of old heads at random
// points. After every batch, a reader thread checks every live snapshot
// against a Relation rebuilt from scratch on the snapshot's tuple set:
// its rows, its Probe and OpenProbe results for masks {1, 2, 3} (mask 3
// is the dedup index), and ascending bucket order, including inside a
// semi-naive-style row window. The check runs while the writer already
// works on the next batch, so copy-on-write of shared pages and shards
// races real readers (this suite runs under TSan).
using Tuple = std::vector<TermId>;

constexpr TermId kDomain = 48;  // columns drawn from [1, kDomain]
constexpr uint64_t kMasks[] = {0b01, 0b10, 0b11};

std::set<Tuple> TuplesOf(const Relation& rel,
                         const std::vector<uint32_t>& rows) {
  std::set<Tuple> tuples;
  for (uint32_t row : rows) {
    tuples.emplace(rel.Row(row).begin(), rel.Row(row).end());
  }
  return tuples;
}

/// Empty when `rel` matches a from-scratch rebuild of `model`, else the
/// first mismatch.
std::string CheckAgainstRebuild(const Relation& rel,
                                const std::set<Tuple>& model,
                                uint32_t seed) {
  Relation fresh(2);
  for (const Tuple& t : model) fresh.Insert(t);
  if (rel.size() != model.size()) return "size differs from the model";
  std::vector<uint32_t> all(rel.size());
  std::iota(all.begin(), all.end(), 0u);
  if (TuplesOf(rel, all) != model) return "rows differ from the model";

  std::mt19937 rng(seed);
  const size_t size = rel.size();
  for (uint64_t mask : kMasks) {
    std::vector<Tuple> keys;
    keys.reserve(model.size() + kDomain + 1);
    if (mask == 0b11) {
      // Every present tuple is too many to probe per snapshot per batch;
      // a sample of present ones plus absent ones covers the dedup index.
      for (const Tuple& t : model) {
        if (rng() % 16 == 0) keys.push_back(t);
      }
      for (TermId v = 1; v <= 8; ++v) keys.push_back({kDomain + 1, v});
    } else {
      for (TermId v = 1; v <= kDomain + 1; ++v) keys.push_back({v});
    }
    for (const Tuple& key : keys) {
      std::vector<uint32_t> got;
      rel.Probe(mask, key, 0, size, &got);
      for (size_t i = 1; i < got.size(); ++i) {
        if (got[i - 1] >= got[i]) return "probe rows not ascending";
      }
      std::vector<uint32_t> want;
      fresh.Probe(mask, key, 0, fresh.size(), &want);
      if (TuplesOf(rel, got) != TuplesOf(fresh, want)) {
        return "probe of mask " + std::to_string(mask) + " differs";
      }
      std::vector<uint32_t> cursor_rows;
      Relation::Cursor cursor = rel.OpenProbe(mask, key, 0, size);
      for (uint32_t row = cursor.Next(); row != Relation::Cursor::kDone;
           row = cursor.Next()) {
        cursor_rows.push_back(row);
      }
      if (cursor_rows != got) return "cursor differs from probe";
      // A row window sees exactly the window's slice of the full answer:
      // the cursor's lower_bound start and early-out both rely on order.
      const size_t from = size == 0 ? 0 : rng() % (size + 1);
      const size_t to = from + (size == from ? 0 : rng() % (size - from + 1));
      std::vector<uint32_t> slice;
      for (uint32_t row : got) {
        if (row >= from && row < to) slice.push_back(row);
      }
      std::vector<uint32_t> windowed;
      rel.Probe(mask, key, from, to, &windowed);
      if (windowed != slice) return "windowed probe differs";
      cursor_rows.clear();
      cursor = rel.OpenProbe(mask, key, from, to);
      for (uint32_t row = cursor.Next(); row != Relation::Cursor::kDone;
           row = cursor.Next()) {
        cursor_rows.push_back(row);
      }
      if (cursor_rows != slice) return "windowed cursor differs";
    }
  }
  return "";
}

TEST(RelationPropertyTest, SnapshotsMatchAFromScratchRebuildUnderRandomBatches) {
  struct Snapshot {
    std::shared_ptr<const Relation> rel;
    std::set<Tuple> model;
  };
  std::mt19937 rng(20240613);
  auto random_tuple = [&] {
    return Tuple{static_cast<TermId>(1 + rng() % kDomain),
                 static_cast<TermId>(1 + rng() % kDomain)};
  };

  auto head = std::make_shared<Relation>(2, Relation::Sharding::kSplit);
  std::set<Tuple> model;
  for (uint64_t mask : kMasks) {  // build every mask before sharing
    std::vector<uint32_t> rows;
    head->Probe(mask, std::vector<TermId>(mask == 0b11 ? 2 : 1, 1), 0, 0,
                &rows);
  }
  std::vector<Snapshot> live;
  std::thread checker;
  std::string failure;
  constexpr int kBatches = 120;
  for (int b = 0; b < kBatches && failure.empty(); ++b) {
    auto next = std::make_shared<Relation>(*head);
    // Early batches grow the relation past one page and several shard
    // splits; later ones churn it; one mid-stream batch starts with a
    // clear and the stream regrows it.
    const bool growing = b < 20 || (b > 70 && b < 85);
    const int ops = growing ? 80 : 1 + static_cast<int>(rng() % 40);
    if (b == 70 || rng() % 60 == 0) {
      next->Clear();
      model.clear();
    }
    for (int i = 0; i < ops; ++i) {
      const unsigned roll = rng() % 100;
      if (growing || roll < 55) {
        Tuple t = random_tuple();
        EXPECT_EQ(next->Insert(t), model.insert(t).second);
      } else if (roll < 95 && !model.empty()) {
        // Retract a present tuple: pick one by rank.
        auto it = model.begin();
        std::advance(it, rng() % model.size());
        Tuple t = *it;
        EXPECT_TRUE(next->Retract(t));
        model.erase(t);
      } else {
        Tuple t = random_tuple();
        EXPECT_EQ(next->Retract(t), model.erase(t) == 1);
      }
    }
    if (checker.joinable()) checker.join();
    head = next;
    if (rng() % 10 < 3) live.push_back({head, model});
    if (!live.empty() && rng() % 4 == 0) {
      live.erase(live.begin() + static_cast<ptrdiff_t>(rng() % live.size()));
    }
    if (live.size() > 5) live.erase(live.begin());
    // Check the head and every live snapshot while the next iteration
    // already clones and mutates.
    std::vector<Snapshot> to_check = live;
    to_check.push_back({head, model});
    const uint32_t check_seed = static_cast<uint32_t>(rng());
    checker = std::thread([to_check = std::move(to_check), check_seed,
                           b, &failure] {
      for (const Snapshot& snapshot : to_check) {
        std::string error =
            CheckAgainstRebuild(*snapshot.rel, snapshot.model, check_seed);
        if (!error.empty()) {
          failure = "after batch " + std::to_string(b) + ": " + error;
          return;
        }
      }
    });
  }
  if (checker.joinable()) checker.join();
  EXPECT_EQ(failure, "");
  EXPECT_GT(head->size(), Relation::kPageRows / 2);
}

TEST(DatabaseTest, AddFactValidates) {
  auto universe = std::make_shared<Universe>();
  Universe& u = *universe;
  PredId par = u.predicates().Declare(u.Sym("par"), 2, PredKind::kBase);
  Database db(universe);
  EXPECT_TRUE(db.AddFact(par, {u.Constant("a"), u.Constant("b")}).ok());
  // Wrong arity.
  EXPECT_FALSE(db.AddFact(par, {u.Constant("a")}).ok());
  // Non-ground.
  EXPECT_FALSE(db.AddFact(par, {u.Constant("a"), u.Variable("X")}).ok());
  EXPECT_EQ(db.FactCount(par), 1u);
  EXPECT_EQ(db.TotalFacts(), 1u);
}

TEST(DatabaseTest, DuplicateFactsAreIdempotent) {
  auto universe = std::make_shared<Universe>();
  Universe& u = *universe;
  PredId par = u.predicates().Declare(u.Sym("par"), 2, PredKind::kBase);
  Database db(universe);
  ASSERT_TRUE(db.AddFact(par, {u.Constant("a"), u.Constant("b")}).ok());
  ASSERT_TRUE(db.AddFact(par, {u.Constant("a"), u.Constant("b")}).ok());
  EXPECT_EQ(db.FactCount(par), 1u);
}

}  // namespace
}  // namespace magic

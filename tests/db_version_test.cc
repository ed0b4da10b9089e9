// The MVCC spine (storage/db_version.h): pinned snapshots are immutable under
// commits (copy-on-write isolates them), no-op commits publish nothing,
// versions retire when their last pin drops, and — the property the whole
// design exists for — concurrent readers pinned mid-write see exactly version N
// or N+1, never a torn mix. Run under TSan/ASan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/query_service.h"
#include "storage/db_version.h"
#include "storage/write_batch.h"
#include "workload/generators.h"

namespace magic {
namespace {

PredId ParPred(const Workload& w) {
  Universe& u = *w.universe;
  return *u.predicates().Find(*u.symbols().Find("par"), 2);
}

TEST(DbVersionTest, PinReturnsStableSnapshotAcrossCommits) {
  Workload w = MakeAncestorChain(4);  // par: c0->c1->c2->c3 (3 tuples)
  Universe& u = *w.universe;
  PredId par = ParPred(w);
  VersionChain chain(w.db);

  auto pinned = chain.Pin();
  EXPECT_EQ(pinned->version(), 1u);
  ASSERT_NE(pinned->db().Find(par), nullptr);
  EXPECT_EQ(pinned->db().Find(par)->size(), 3u);

  WriteBatch batch;
  batch.Insert(par, {u.Constant("c3"), u.Constant("c4")});
  WriteResult result = chain.Commit(w.db, batch);
  EXPECT_EQ(result.inserted, 1u);

  // The pin still reads the exact pre-commit tuple set (the base
  // copy-on-wrote the shared relation instead of mutating it), while a
  // fresh pin sees the published version 2.
  EXPECT_EQ(pinned->db().Find(par)->size(), 3u);
  auto head = chain.Pin();
  EXPECT_EQ(head->version(), 2u);
  EXPECT_EQ(head->db().Find(par)->size(), 4u);
  EXPECT_EQ(chain.current_version(), 2u);
  EXPECT_EQ(chain.versions_published(), 2u);
}

TEST(DbVersionTest, NoOpCommitPublishesNothing) {
  Workload w = MakeAncestorChain(4);
  Universe& u = *w.universe;
  PredId par = ParPred(w);
  VersionChain chain(w.db);

  WriteBatch noop;
  noop.Insert(par, {u.Constant("c0"), u.Constant("c1")});   // duplicate
  noop.Retract(par, {u.Constant("c9"), u.Constant("c0")});  // absent
  WriteResult result = chain.Commit(w.db, noop);
  EXPECT_EQ(result.relations_mutated, 0u);
  EXPECT_EQ(chain.versions_published(), 1u);
  EXPECT_EQ(chain.Pin()->version(), 1u);
  EXPECT_EQ(chain.current_version(), 1u);
}

TEST(DbVersionTest, VersionsRetireWhenTheLastPinDrops) {
  Workload w = MakeAncestorChain(4);
  Universe& u = *w.universe;
  PredId par = ParPred(w);
  VersionChain chain(w.db);

  auto old_pin = chain.Pin();
  WriteBatch batch;
  batch.Insert(par, {u.Constant("c3"), u.Constant("c4")});
  (void)chain.Commit(w.db, batch);

  // Version 1 is alive only through old_pin; version 2 is the head.
  EXPECT_EQ(chain.versions_published(), 2u);
  EXPECT_EQ(chain.versions_retired(), 0u);
  EXPECT_EQ(chain.versions_live(), 2u);

  old_pin.reset();
  EXPECT_EQ(chain.versions_retired(), 1u);
  EXPECT_EQ(chain.versions_live(), 1u);
}

TEST(DbVersionTest, CopyOnWriteSharesUntouchedRelations) {
  Workload w = MakeSameGenNonlinear(3, 2);  // base preds up/flat/down
  Universe& u = *w.universe;
  PredId up = *u.predicates().Find(*u.symbols().Find("up"), 2);
  PredId flat = *u.predicates().Find(*u.symbols().Find("flat"), 2);
  VersionChain chain(w.db);

  auto pinned = chain.Pin();
  const Relation* pinned_up = pinned->db().Find(up);
  const Relation* pinned_flat = pinned->db().Find(flat);
  ASSERT_NE(pinned_up, nullptr);
  ASSERT_NE(pinned_flat, nullptr);

  WriteBatch batch;
  batch.Insert(up, {u.Constant("cw_a"), u.Constant("cw_b")});
  (void)chain.Commit(w.db, batch);

  // The untouched relation is structurally shared (same object); the
  // mutated one was cloned, so the base now holds a different object and
  // the pinned snapshot's tuple set is unchanged.
  EXPECT_EQ(pinned->db().Find(flat), pinned_flat);
  EXPECT_EQ(w.db.Find(flat), pinned_flat);
  EXPECT_NE(w.db.Find(up), pinned_up);
  EXPECT_FALSE(pinned_up->Contains(
      std::vector<TermId>{u.Constant("cw_a"), u.Constant("cw_b")}));
}

// Copy-on-write must copy O(delta), not O(relation): a one-tuple write
// into a 10^5-fact relation with two built masks (plus the dedup index)
// copies a page and a few index shards, read from the service's
// magicdb_write_bytes_copied instrument. A whole-relation copy (the old
// clone, or an accidental deep copy of pages or shards) reports megabytes
// and fails here, independent of any timing.
TEST(DbVersionTest, OneTupleWriteCopiesOnlyTheTouchedPagesAndShards) {
  constexpr size_t kBound = 128 * 1024;
  Workload w = MakeAncestorLargeDag(/*nodes=*/12500, /*edges=*/100000,
                                    /*span=*/16, /*seed=*/7);
  Universe& u = *w.universe;
  PredId par = ParPred(w);
  // Held so the pre-write object outlives the versions that share it.
  const std::shared_ptr<Relation> original = w.db.relations().at(par);
  const Relation* rel = original.get();
  ASSERT_GE(rel->size(), 90000u);
  std::vector<uint32_t> rows;
  const std::vector<TermId> key = {u.Constant("c1")};
  rel->Probe(0b01, key, 0, rel->size(), &rows);  // builds mask {1}
  rel->Probe(0b10, key, 0, rel->size(), &rows);  // builds mask {2}
  const size_t whole = rel->BytesNotSharedWith(nullptr);
  ASSERT_GT(whole, 50 * kBound);  // the bound is far below a full copy
  const std::vector<TermId> first(rel->Row(0).begin(), rel->Row(0).end());
  const TermId fresh_a = u.Constant("sharing_a");
  const TermId fresh_b = u.Constant("sharing_b");

  QueryService service(w.program, w.db, QueryServiceOptions{});
  auto copied_by = [&](const WriteBatch& batch) {
    const uint64_t before = service.stats().write_bytes_copied.sum;
    auto applied = service.ApplyWrites(batch);
    EXPECT_TRUE(applied.ok());
    EXPECT_EQ(applied->relations_mutated, 1u);
    const uint64_t copied = service.stats().write_bytes_copied.sum - before;
    EXPECT_EQ(copied, applied->bytes_copied);
    return copied;
  };

  // Insert: the last page, one dedup shard, one shard per mask.
  WriteBatch insert;
  insert.Insert(par, {fresh_a, fresh_b});
  const uint64_t insert_bytes = copied_by(insert);
  EXPECT_GT(insert_bytes, 0u);
  EXPECT_LE(insert_bytes, kBound);

  // Retract row 0: the last row moves into its slot, so two pages and up
  // to two shards per index are patched.
  WriteBatch retract;
  retract.Retract(par, first);
  const uint64_t retract_bytes = copied_by(retract);
  EXPECT_GT(retract_bytes, 0u);
  EXPECT_LE(retract_bytes, kBound);
  EXPECT_EQ(service.stats().write_bytes_copied.count, 2u);

  // Copy-on-write left the pre-write object untouched; the base's new
  // relation carries both writes.
  EXPECT_TRUE(rel->Contains(first));
  EXPECT_FALSE(rel->Contains(std::vector<TermId>{fresh_a, fresh_b}));
  EXPECT_FALSE(w.db.Find(par)->Contains(first));
  EXPECT_TRUE(
      w.db.Find(par)->Contains(std::vector<TermId>{fresh_a, fresh_b}));
}

TEST(DbVersionTest, ReadersPinnedMidWriteSeeWholeVersionsOnly) {
  // The versioned-read property test: 8 reader threads pin and evaluate
  // through a live QueryService while a writer walks a single fact
  // through a sequence of states, each batch retracting state i-1 and
  // inserting state i. Every answer must be exactly one of the published
  // states (one row, never zero or two — a torn pin would see the
  // mid-batch emptiness or both rows), and the observed state index must
  // be non-decreasing per thread once writes are ordered (each read sees
  // version N or N+1, never an older one after a newer one).
  constexpr int kStates = 64;
  Workload w = MakeAncestorChain(2);  // par: the single edge c0 -> c1
  Universe& u = *w.universe;
  PredId par = ParPred(w);
  TermId c0 = u.Constant("c0");
  std::vector<TermId> states;
  states.reserve(kStates);
  for (int i = 0; i < kStates; ++i) {
    states.push_back(u.Constant("s" + std::to_string(i)));
  }
  // Start in state 0: replace the seed edge with c0 -> s0.
  {
    WriteBatch setup;
    setup.Retract(par, {c0, u.Constant("c1")});
    setup.Insert(par, {c0, states[0]});
    ASSERT_TRUE(w.db.Apply(setup).ok());
  }

  QueryServiceOptions options;
  options.num_threads = 8;
  QueryService service(w.program, w.db, options);
  QueryRequest exemplar;
  exemplar.query = w.query;
  auto prepared = service.Prepare(exemplar);
  ASSERT_TRUE(prepared.ok());
  QueryService::FormHandle handle = *prepared;
  const std::vector<TermId> seed = {c0};
  ASSERT_EQ(service.Answer(handle, seed).tuples.size(), 1u);

  std::atomic<bool> writer_done{false};
  std::atomic<int> violations{0};
  std::thread writer([&] {
    for (int i = 1; i < kStates; ++i) {
      WriteBatch batch;
      batch.Retract(par, {c0, states[i - 1]});
      batch.Insert(par, {c0, states[i]});
      auto applied = service.ApplyWrites(batch);
      if (!applied.ok() || applied->relations_mutated != 1) {
        violations.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    writer_done.store(true, std::memory_order_seq_cst);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&] {
      int last_seen = 0;
      while (!writer_done.load(std::memory_order_seq_cst)) {
        QueryAnswer answer = service.Answer(handle, seed);
        if (!answer.status.ok() || answer.tuples.size() != 1 ||
            answer.tuples[0].size() != 1) {
          // Zero rows = a pin caught the mid-batch gap; two = both states.
          violations.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const TermId value = answer.tuples[0][0];
        int index = -1;
        for (int i = 0; i < kStates; ++i) {
          if (states[i] == value) {
            index = i;
            break;
          }
        }
        if (index < last_seen) {
          // Went back in time: served a version older than one already
          // observed on this thread.
          violations.fetch_add(1, std::memory_order_relaxed);
        }
        last_seen = index;
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(violations.load(), 0);

  // Settled: everyone sees the final state, and the chain retires old
  // versions as the last pins drop (only the head stays live).
  QueryAnswer final_read = service.Answer(handle, seed);
  ASSERT_EQ(final_read.tuples.size(), 1u);
  EXPECT_EQ(final_read.tuples[0][0], states[kStates - 1]);
  QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.versions_published - stats.versions_retired, 1u);
}

}  // namespace
}  // namespace magic

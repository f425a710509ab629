#include <gtest/gtest.h>

#include "storage/checkpoint_store.h"
#include "storage/group_store.h"
#include "storage/stable_log.h"
#include "util/bytes.h"

namespace corona {
namespace {

TEST(StableLog, AppendVisibleBeforeFlush) {
  StableLog log;
  log.append(to_bytes("a"));
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.durable_size(), 0u);
  EXPECT_EQ(log.unflushed(), 1u);
}

TEST(StableLog, FlushMakesDurable) {
  StableLog log;
  log.append(to_bytes("a"));
  log.append(to_bytes("bb"));
  log.flush();
  EXPECT_EQ(log.durable_size(), 2u);
  EXPECT_EQ(log.bytes_flushed(), 3u);
}

TEST(StableLog, CrashDropsUnflushedTail) {
  StableLog log;
  log.append(to_bytes("a"));
  log.flush();
  log.append(to_bytes("b"));
  log.append(to_bytes("c"));
  log.crash();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(to_string(log.record(0)), "a");
}

TEST(StableLog, CrashOnEmptyLogIsSafe) {
  StableLog log;
  log.crash();
  EXPECT_EQ(log.size(), 0u);
}

TEST(StableLog, DropPrefixShrinksBothViews) {
  StableLog log;
  for (int i = 0; i < 5; ++i) log.append(to_bytes(std::to_string(i)));
  log.flush();
  log.append(to_bytes("5"));
  log.drop_prefix(3);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.durable_size(), 2u);
  EXPECT_EQ(to_string(log.record(0)), "3");
}

TEST(StableLog, PendingBytesTracksUnflushed) {
  StableLog log;
  log.append(filler_bytes(10));
  log.append(filler_bytes(20));
  EXPECT_EQ(log.pending_bytes(), 30u);
  log.flush();
  EXPECT_EQ(log.pending_bytes(), 0u);
}

TEST(CheckpointStore, PutVisibleLiveDurableAfterFlush) {
  CheckpointStore cs;
  cs.put("k", to_bytes("v1"));
  EXPECT_TRUE(cs.get("k").has_value());
  EXPECT_FALSE(cs.get_durable("k").has_value());
  cs.flush();
  EXPECT_EQ(to_string(*cs.get_durable("k")), "v1");
}

TEST(CheckpointStore, CrashRevertsStagedPut) {
  CheckpointStore cs;
  cs.put("k", to_bytes("v1"));
  cs.flush();
  cs.put("k", to_bytes("v2"));
  cs.crash();
  EXPECT_EQ(to_string(*cs.get("k")), "v1");
  EXPECT_EQ(to_string(*cs.get_durable("k")), "v1");
}

TEST(CheckpointStore, EraseIsStagedToo) {
  CheckpointStore cs;
  cs.put("k", to_bytes("v"));
  cs.flush();
  cs.erase("k");
  EXPECT_FALSE(cs.get("k").has_value());
  EXPECT_TRUE(cs.get_durable("k").has_value());
  cs.flush();
  EXPECT_FALSE(cs.get_durable("k").has_value());
}

TEST(CheckpointStore, DurableKeysSorted) {
  CheckpointStore cs;
  cs.put("b", {});
  cs.put("a", {});
  cs.flush();
  EXPECT_EQ(cs.durable_keys(), (std::vector<std::string>{"a", "b"}));
}

UpdateRecord mk_update(SeqNo seq, ObjectId obj, const char* data,
                       NodeId sender = NodeId{100}) {
  UpdateRecord u;
  u.seq = seq;
  u.kind = PayloadKind::kUpdate;
  u.object = obj;
  u.data = to_bytes(data);
  u.sender = sender;
  u.request_id = seq;
  return u;
}

TEST(GroupStore, CreateFlushRecover) {
  GroupStore gs;
  gs.create_group(GroupMeta{GroupId{1}, "g1", true},
                  {StateEntry{ObjectId{1}, to_bytes("init")}});
  gs.append_update(GroupId{1}, mk_update(1, ObjectId{1}, "u1"));
  gs.append_update(GroupId{1}, mk_update(2, ObjectId{1}, "u2"));
  (void)gs.flush();

  auto recovered = gs.recover();
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].meta.name, "g1");
  EXPECT_TRUE(recovered[0].meta.persistent);
  EXPECT_EQ(recovered[0].base_seq, 0u);
  ASSERT_EQ(recovered[0].snapshot.size(), 1u);
  EXPECT_EQ(to_string(recovered[0].snapshot[0].data), "init");
  ASSERT_EQ(recovered[0].updates.size(), 2u);
  EXPECT_EQ(recovered[0].updates[1].seq, 2u);
}

TEST(GroupStore, CrashLosesUnflushedUpdates) {
  GroupStore gs;
  gs.create_group(GroupMeta{GroupId{1}, "g", true}, {});
  gs.append_update(GroupId{1}, mk_update(1, ObjectId{1}, "durable"));
  (void)gs.flush();
  gs.append_update(GroupId{1}, mk_update(2, ObjectId{1}, "lost"));
  gs.crash();
  auto recovered = gs.recover();
  ASSERT_EQ(recovered.size(), 1u);
  ASSERT_EQ(recovered[0].updates.size(), 1u);
  EXPECT_EQ(to_string(recovered[0].updates[0].data), "durable");
}

TEST(GroupStore, CrashBeforeFirstFlushLosesGroup) {
  GroupStore gs;
  gs.create_group(GroupMeta{GroupId{1}, "g", true}, {});
  gs.crash();
  EXPECT_TRUE(gs.recover().empty());
  EXPECT_FALSE(gs.has_group(GroupId{1}));
}

TEST(GroupStore, CheckpointDropsCoveredLogRecords) {
  GroupStore gs;
  gs.create_group(GroupMeta{GroupId{1}, "g", true}, {});
  for (SeqNo s = 1; s <= 5; ++s) {
    gs.append_update(GroupId{1}, mk_update(s, ObjectId{1}, "x"));
  }
  gs.install_checkpoint(GroupId{1}, 3,
                        {StateEntry{ObjectId{1}, to_bytes("xxx")}});
  (void)gs.flush();
  auto recovered = gs.recover();
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].base_seq, 3u);
  ASSERT_EQ(recovered[0].updates.size(), 2u);
  EXPECT_EQ(recovered[0].updates[0].seq, 4u);
  EXPECT_EQ(to_string(recovered[0].snapshot[0].data), "xxx");
}

TEST(GroupStore, RemoveGroupErasesEverything) {
  GroupStore gs;
  gs.create_group(GroupMeta{GroupId{1}, "g", true}, {});
  gs.append_update(GroupId{1}, mk_update(1, ObjectId{1}, "x"));
  (void)gs.flush();
  gs.remove_group(GroupId{1});
  (void)gs.flush();
  EXPECT_TRUE(gs.recover().empty());
}

TEST(GroupStore, RecoveryOfMultipleGroupsSortedById) {
  GroupStore gs;
  gs.create_group(GroupMeta{GroupId{7}, "late", true}, {});
  gs.create_group(GroupMeta{GroupId{3}, "early", true}, {});
  (void)gs.flush();
  auto recovered = gs.recover();
  ASSERT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered[0].meta.id, GroupId{3});
  EXPECT_EQ(recovered[1].meta.id, GroupId{7});
}

TEST(GroupStore, TransientGroupsAlsoPersistUntilRemoved) {
  // Persistence of the *store* is orthogonal to group persistence; the
  // server decides what to remove at null membership.
  GroupStore gs;
  gs.create_group(GroupMeta{GroupId{1}, "t", false}, {});
  (void)gs.flush();
  auto recovered = gs.recover();
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_FALSE(recovered[0].meta.persistent);
}

TEST(GroupStore, CommitJobTakesEverythingStagedAndLaterJobsSyncNothing) {
  GroupStore gs;
  gs.create_group(GroupMeta{GroupId{1}, "a", true}, {}, /*durable=*/true);
  gs.create_group(GroupMeta{GroupId{2}, "b", true}, {}, /*durable=*/true);
  gs.append_update(GroupId{1}, mk_update(1, ObjectId{1}, "a1"));
  const CommitJob first = gs.commit_job();
  gs.append_update(GroupId{2}, mk_update(1, ObjectId{1}, "b1"));
  const CommitJob second = gs.commit_job();
  // The first job to run takes both records, staged before it started...
  const CommitResult r = first();
  EXPECT_EQ(r.records, 2u);
  EXPECT_GT(r.bytes, 0u);
  // ...so the second, whose record it covered, completes without a sync.
  const CommitResult again = second();
  EXPECT_EQ(again.records, 0u);
  EXPECT_EQ(again.bytes, 0u);
  const auto recovered = gs.recover();
  ASSERT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered[0].updates.size(), 1u);
  EXPECT_EQ(recovered[1].updates.size(), 1u);
  EXPECT_EQ(gs.durable_head(GroupId{1}), 1u);
}

TEST(GroupStore, ControlPlaneDrainsStagedRecordsBeforeCheckpointing) {
  GroupStore gs;
  gs.create_group(GroupMeta{GroupId{1}, "g", true}, {});
  const CommitJob job = gs.commit_job();  // covers the staged checkpoint
  for (SeqNo s = 1; s <= 4; ++s) {
    gs.append_update(GroupId{1}, mk_update(s, ObjectId{1}, "x"));
  }
  // The checkpoint install sees the staged records in the log and drops
  // the covered prefix; the pending commit still syncs the rest.
  gs.install_checkpoint(GroupId{1}, 2,
                        {StateEntry{ObjectId{1}, to_bytes("xx")}});
  EXPECT_EQ(gs.durable_head(GroupId{1}), 2u);
  EXPECT_EQ(job().records, 2u);
  EXPECT_EQ(gs.durable_head(GroupId{1}), 4u);
  const auto recovered = gs.recover();
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].base_seq, 2u);
  ASSERT_EQ(recovered[0].updates.size(), 2u);
  EXPECT_EQ(recovered[0].updates[0].seq, 3u);
}

TEST(GroupStore, PendingBytesAggregatesAcrossGroups) {
  GroupStore gs;
  gs.create_group(GroupMeta{GroupId{1}, "a", true}, {});
  gs.create_group(GroupMeta{GroupId{2}, "b", true}, {});
  gs.append_update(GroupId{1}, mk_update(1, ObjectId{1}, "aaaa"));
  gs.append_update(GroupId{2}, mk_update(1, ObjectId{1}, "bb"));
  EXPECT_GT(gs.pending_bytes(), 0u);
  (void)gs.flush();
  EXPECT_EQ(gs.pending_bytes(), 0u);
}

}  // namespace
}  // namespace corona

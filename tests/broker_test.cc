#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "common/logging.h"

#include "broker/cluster.h"
#include "broker/consumer.h"
#include "broker/partition.h"
#include "broker/producer.h"
#include "core/experiment.h"
#include "obs/registry.h"
#include "obs/timeline.h"
#include "sim/network.h"
#include "sim/simulation.h"

namespace crayfish::broker {
namespace {

Record MakeRecord(uint64_t id, double create_time = 0.0,
                  uint64_t wire = 1000) {
  Record r;
  r.batch_id = id;
  r.create_time = create_time;
  r.wire_size = wire;
  return r;
}

// ------------------------------------------------------------- partition --

TEST(PartitionTest, AppendAssignsOffsetsAndLogAppendTime) {
  Partition p;
  EXPECT_EQ(p.Append(MakeRecord(1), 1.5), 0);
  EXPECT_EQ(p.Append(MakeRecord(2), 2.5), 1);
  EXPECT_EQ(p.end_offset(), 2);
  std::vector<Record> out;
  ASSERT_TRUE(p.Fetch(0, 10, 1 << 20, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0].log_append_time, 1.5);
  EXPECT_DOUBLE_EQ(out[1].log_append_time, 2.5);
  EXPECT_EQ(out[1].batch_id, 2u);
}

TEST(PartitionTest, FetchRespectsMaxRecordsAndBytes) {
  Partition p;
  for (int i = 0; i < 10; ++i) p.Append(MakeRecord(i, 0, 100), 0.0);
  std::vector<Record> out;
  ASSERT_TRUE(p.Fetch(0, 3, 1 << 20, &out).ok());
  EXPECT_EQ(out.size(), 3u);
  out.clear();
  ASSERT_TRUE(p.Fetch(0, 100, 250, &out).ok());
  EXPECT_EQ(out.size(), 2u);  // 100 + 100, third would exceed 250
}

TEST(PartitionTest, FetchAlwaysReturnsAtLeastOneRecord) {
  Partition p;
  p.Append(MakeRecord(1, 0, 5000), 0.0);
  std::vector<Record> out;
  ASSERT_TRUE(p.Fetch(0, 10, 100, &out).ok());  // record bigger than budget
  EXPECT_EQ(out.size(), 1u);
}

TEST(PartitionTest, FetchBelowLogStartIsOutOfRange) {
  Partition p;
  for (int i = 0; i < 5; ++i) p.Append(MakeRecord(i), 0.0);
  p.TrimTo(3);
  EXPECT_EQ(p.log_start_offset(), 3);
  EXPECT_EQ(p.end_offset(), 5);
  std::vector<Record> out;
  EXPECT_EQ(p.Fetch(2, 10, 1 << 20, &out).code(),
            crayfish::StatusCode::kOutOfRange);
}

TEST(PartitionTest, RetentionEvictsOldest) {
  Partition p;
  p.SetRetentionRecords(3);
  for (int i = 0; i < 10; ++i) p.Append(MakeRecord(i), 0.0);
  EXPECT_EQ(p.log_start_offset(), 7);
  EXPECT_EQ(p.end_offset(), 10);
  EXPECT_EQ(p.total_appended(), 10u);
}

// --------------------------------------------------------------- cluster --

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() : sim_(1), network_(&sim_), cluster_(&sim_, &network_, {}) {
    CRAYFISH_CHECK_OK(
        network_.AddHost(sim::Host{"client", 4, 1ULL << 30, false}));
    CRAYFISH_CHECK_OK(cluster_.CreateTopic("t", 4));
  }
  sim::Simulation sim_;
  sim::Network network_;
  KafkaCluster cluster_;
};

TEST_F(ClusterTest, TopicManagement) {
  EXPECT_TRUE(cluster_.HasTopic("t"));
  EXPECT_FALSE(cluster_.HasTopic("x"));
  EXPECT_EQ(*cluster_.NumPartitions("t"), 4);
  EXPECT_EQ(cluster_.CreateTopic("t", 2).code(),
            crayfish::StatusCode::kAlreadyExists);
  EXPECT_FALSE(cluster_.CreateTopic("bad", 0).ok());
  EXPECT_FALSE(cluster_.NumPartitions("x").ok());
}

TEST_F(ClusterTest, LeadershipSpreadsAcrossBrokers) {
  std::set<std::string> leaders;
  for (int p = 0; p < 4; ++p) {
    leaders.insert(cluster_.LeaderHost(TopicPartition{"t", p}));
  }
  EXPECT_EQ(leaders.size(), 4u);
}

TEST_F(ClusterTest, ProduceStampsLogAppendTimeAtBroker) {
  bool acked = false;
  cluster_.Produce("client", TopicPartition{"t", 0}, {MakeRecord(7, 0.0)},
                   [&](crayfish::Status s) {
                     EXPECT_TRUE(s.ok());
                     acked = true;
                   });
  sim_.RunUntilIdle();
  EXPECT_TRUE(acked);
  Partition* p = *cluster_.GetPartition(TopicPartition{"t", 0});
  EXPECT_EQ(p->end_offset(), 1);
  std::vector<Record> out;
  ASSERT_TRUE(p->Fetch(0, 1, 1 << 20, &out).ok());
  // Append happened after network + broker processing: strictly positive.
  EXPECT_GT(out[0].log_append_time, 0.0);
}

TEST_F(ClusterTest, ProduceOverMaxRequestSizeFails) {
  Record big = MakeRecord(1, 0.0, 60ULL * 1024 * 1024);
  crayfish::Status got;
  cluster_.Produce("client", TopicPartition{"t", 0}, {big},
                   [&](crayfish::Status s) { got = s; });
  sim_.RunUntilIdle();
  EXPECT_TRUE(got.IsInvalidArgument());
}

TEST_F(ClusterTest, ProduceToUnknownTopicReportsNotFound) {
  crayfish::Status got;
  cluster_.Produce("client", TopicPartition{"nope", 0}, {MakeRecord(1)},
                   [&](crayfish::Status s) { got = s; });
  sim_.RunUntilIdle();
  EXPECT_TRUE(got.IsNotFound());
}

TEST_F(ClusterTest, FetchReturnsAppendedRecords) {
  cluster_.Produce("client", TopicPartition{"t", 1},
                   {MakeRecord(1), MakeRecord(2)}, nullptr);
  std::vector<Record> got;
  sim_.Schedule(0.5, [&] {
    cluster_.Fetch("client", TopicPartition{"t", 1}, 0, 10, 1 << 20, 0.5,
                   [&](std::vector<Record> records) { got = records; });
  });
  sim_.RunUntilIdle();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].offset, 0);
  EXPECT_EQ(got[1].offset, 1);
}

TEST_F(ClusterTest, LongPollWakesOnAppend) {
  std::vector<Record> got;
  double got_at = -1.0;
  cluster_.Fetch("client", TopicPartition{"t", 0}, 0, 10, 1 << 20,
                 /*max_wait=*/10.0, [&](std::vector<Record> records) {
                   got = records;
                   got_at = sim_.Now();
                 });
  // Append arrives at t=1: the parked fetch must answer promptly, far
  // before the 10 s timeout.
  sim_.Schedule(1.0, [&] {
    cluster_.Produce("client", TopicPartition{"t", 0}, {MakeRecord(5)},
                     nullptr);
  });
  sim_.RunUntilIdle();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_GT(got_at, 1.0);
  EXPECT_LT(got_at, 1.1);
}

TEST_F(ClusterTest, LongPollTimesOutEmpty) {
  bool answered = false;
  size_t n = 99;
  cluster_.Fetch("client", TopicPartition{"t", 0}, 0, 10, 1 << 20, 0.2,
                 [&](std::vector<Record> records) {
                   answered = true;
                   n = records.size();
                 });
  sim_.RunUntilIdle();
  EXPECT_TRUE(answered);
  EXPECT_EQ(n, 0u);
}

// A long-poll woken by an append cancels its timeout: once the answer is
// delivered, nothing of the fetch is left in the event queue.
TEST_F(ClusterTest, LongPollWokenByAppendLeavesNoTimer) {
  const size_t before = sim_.pending_events();
  bool answered = false;
  cluster_.Fetch("client", TopicPartition{"t", 0}, 0, 10, 1 << 20,
                 /*max_wait=*/10.0,
                 [&](std::vector<Record>) { answered = true; });
  sim_.Run(0.5);
  EXPECT_EQ(sim_.pending_events(), before + 1);  // the parked timeout
  cluster_.Produce("client", TopicPartition{"t", 0}, {MakeRecord(5)},
                   nullptr);
  sim_.Run(2.0);
  EXPECT_TRUE(answered);
  EXPECT_EQ(sim_.pending_events(), before);
}

// An unanswered long-poll still times out at the instant it always did.
TEST_F(ClusterTest, UnansweredLongPollFiresAtTheSameInstant) {
  double answered_at = -1.0;
  cluster_.Fetch("client", TopicPartition{"t", 0}, 0, 10, 1 << 20, 0.2,
                 [&](std::vector<Record> records) {
                   EXPECT_TRUE(records.empty());
                   answered_at = sim_.Now();
                 });
  sim_.RunUntilIdle();
  EXPECT_DOUBLE_EQ(answered_at, 0.20094192742598688);
}

TEST_F(ClusterTest, FetchBelowRetentionAutoResets) {
  ASSERT_TRUE(cluster_.SetTopicRetention("t", 2).ok());
  for (int i = 0; i < 5; ++i) {
    cluster_.Produce("client", TopicPartition{"t", 0}, {MakeRecord(i)},
                     nullptr);
  }
  std::vector<Record> got;
  sim_.Schedule(1.0, [&] {
    cluster_.Fetch("client", TopicPartition{"t", 0}, 0, 10, 1 << 20, 0.1,
                   [&](std::vector<Record> records) { got = records; });
  });
  sim_.RunUntilIdle();
  ASSERT_EQ(got.size(), 2u);  // only the retained tail
  EXPECT_EQ(got[0].offset, 3);
}

TEST_F(ClusterTest, OffsetCommitStore) {
  TopicPartition tp{"t", 2};
  EXPECT_EQ(cluster_.CommittedOffset("g", tp), 0);
  cluster_.CommitOffset("g", tp, 41);
  EXPECT_EQ(cluster_.CommittedOffset("g", tp), 41);
  EXPECT_EQ(cluster_.CommittedOffset("other", tp), 0);
}

struct TrafficSums {
  double bytes_in = 0, records_in = 0, bytes_out = 0, records_out = 0;
};

// Produces `records` x 1000 B to partition `p` and fetches them back;
// adds the request and response sizes to `sums`.
void ProduceAndFetch(sim::Simulation* sim, KafkaCluster* cluster, int p,
                     int records, TrafficSums* sums) {
  const TopicPartition tp{"t", p};
  const int64_t start = (*cluster->GetPartition(tp))->end_offset();
  std::vector<Record> batch;
  for (int i = 0; i < records; ++i) batch.push_back(MakeRecord(i));
  sums->bytes_in += records * (1000.0 + kRecordEnvelopeBytes);
  sums->records_in += records;
  cluster->Produce("client", tp, std::move(batch),
                   [](crayfish::Status s) { CRAYFISH_CHECK_OK(s); });
  sim->RunUntilIdle();
  cluster->Fetch("client", tp, start, 100, 1 << 20, 0.1,
                 [sums](std::vector<Record> got) {
                   // A fetch response is a 256-byte header plus records.
                   sums->bytes_out += 256.0;
                   for (const Record& r : got) {
                     sums->bytes_out += static_cast<double>(
                         r.wire_size + kRecordEnvelopeBytes);
                   }
                   sums->records_out += static_cast<double>(got.size());
                 });
  sim->RunUntilIdle();
}

void ExpectBrokerCounters(obs::MetricsRegistry& reg, const std::string& host,
                          const TrafficSums& sums) {
  auto value = [&](const char* name) {
    return reg.Counter(name, {{"broker", host}})->value();
  };
  EXPECT_EQ(value("broker_bytes_in"), sums.bytes_in) << host;
  EXPECT_EQ(value("broker_records_in"), sums.records_in) << host;
  EXPECT_EQ(value("broker_bytes_out"), sums.bytes_out) << host;
  EXPECT_EQ(value("broker_records_out"), sums.records_out) << host;
}

TEST_F(ClusterTest, BrokerTrafficCountersPerBrokerAndPerRegistry) {
  obs::MetricsRegistry first;
  sim_.AttachObservability(nullptr, &first);
  TrafficSums k0, k1;
  ProduceAndFetch(&sim_, &cluster_, 0, 3, &k0);
  ProduceAndFetch(&sim_, &cluster_, 1, 2, &k1);
  ProduceAndFetch(&sim_, &cluster_, 0, 4, &k0);
  // Four counters for each of the two brokers that saw traffic, none for
  // kafka-2 or kafka-3.
  EXPECT_EQ(first.size(), 8u);
  EXPECT_EQ(first.SnapshotJson().find("kafka-2"), std::string::npos);
  EXPECT_EQ(first.SnapshotJson().find("kafka-3"), std::string::npos);
  ExpectBrokerCounters(first, "kafka-0", k0);
  ExpectBrokerCounters(first, "kafka-1", k1);

  // A registry attached mid-run counts only what happens after it.
  obs::MetricsRegistry second;
  sim_.AttachObservability(nullptr, &second);
  TrafficSums later;
  ProduceAndFetch(&sim_, &cluster_, 1, 5, &later);
  EXPECT_EQ(second.size(), 4u);
  ExpectBrokerCounters(second, "kafka-1", later);
  EXPECT_EQ(first.size(), 8u);
  ExpectBrokerCounters(first, "kafka-1", k1);
  sim_.AttachObservability(nullptr, nullptr);
}

TEST(RangeAssignTest, CoversAllPartitionsDisjointly) {
  std::vector<int> seen(32, 0);
  for (int m = 0; m < 5; ++m) {
    for (int p : KafkaCluster::RangeAssign(32, 5, m)) {
      ++seen[static_cast<size_t>(p)];
    }
  }
  for (int c : seen) EXPECT_EQ(c, 1);
}

// ---------------------------------------------------------------- clients --

class ClientTest : public ClusterTest {};

TEST_F(ClientTest, ProducerRoundRobinsPartitions) {
  KafkaProducer producer(&cluster_, "client");
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(producer.Send("t", MakeRecord(i)).ok());
  }
  producer.Flush();
  sim_.RunUntilIdle();
  for (int p = 0; p < 4; ++p) {
    Partition* part = *cluster_.GetPartition(TopicPartition{"t", p});
    EXPECT_EQ(part->end_offset(), 2) << "partition " << p;
  }
  EXPECT_EQ(producer.records_sent(), 8u);
}

TEST_F(ClientTest, ProducerBatchesSameInstantSends) {
  KafkaProducer producer(&cluster_, "client");
  int acks = 0;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(producer
                    .SendToPartition(TopicPartition{"t", 0}, MakeRecord(i),
                                     [&](crayfish::Status s) {
                                       EXPECT_TRUE(s.ok());
                                       ++acks;
                                     })
                    .ok());
  }
  sim_.RunUntilIdle();
  EXPECT_EQ(acks, 4);
  // 4 records x (1000 + envelope) bytes < 16 KB batch: one request.
  EXPECT_EQ(producer.batches_sent(), 1u);
}

TEST_F(ClientTest, ProducerRejectsOversizeRecord) {
  KafkaProducer producer(&cluster_, "client");
  EXPECT_FALSE(
      producer.Send("t", MakeRecord(1, 0.0, 60ULL * 1024 * 1024)).ok());
}

TEST_F(ClientTest, ProducerRejectsUnknownTopicAndPartition) {
  KafkaProducer producer(&cluster_, "client");
  EXPECT_FALSE(producer.Send("ghost", MakeRecord(1)).ok());
  EXPECT_FALSE(
      producer.SendToPartition(TopicPartition{"t", 9}, MakeRecord(1)).ok());
}

TEST_F(ClientTest, ConsumerReceivesProducedRecords) {
  KafkaProducer producer(&cluster_, "client");
  KafkaConsumer consumer(&cluster_, "client", "g");
  ASSERT_TRUE(consumer.Assign("t", {0, 1, 2, 3}).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(producer.Send("t", MakeRecord(i)).ok());
  }
  producer.Flush();
  std::vector<Record> got;
  std::function<void()> poll = [&]() {
    consumer.Poll(0.5, [&](std::vector<Record> records) {
      for (auto& r : records) got.push_back(std::move(r));
      if (got.size() < 10) poll();
    });
  };
  poll();
  sim_.Run(5.0);
  EXPECT_EQ(got.size(), 10u);
  EXPECT_EQ(consumer.records_consumed(), 10u);
}

TEST_F(ClientTest, ConsumerPollTimesOutEmptyTopic) {
  KafkaConsumer consumer(&cluster_, "client", "g");
  ASSERT_TRUE(consumer.Assign("t", {0}).ok());
  bool got = false;
  size_t n = 99;
  consumer.Poll(0.3, [&](std::vector<Record> records) {
    got = true;
    n = records.size();
  });
  sim_.Run(2.0);
  EXPECT_TRUE(got);
  EXPECT_EQ(n, 0u);
}

TEST_F(ClientTest, ConsumerHistogramsFollowTheAttachedRegistry) {
  KafkaProducer producer(&cluster_, "client");
  KafkaConsumer consumer(&cluster_, "client", "g");
  ASSERT_TRUE(consumer.Assign("t", {0}).ok());
  // Arms a poll on an empty buffer, then produces one record into it, so
  // the delivery observes a poll wait.
  const auto wait_for_one_record = [&](int value) {
    bool delivered = false;
    consumer.Poll(1.0, [&delivered](std::vector<Record> records) {
      delivered = !records.empty();
    });
    sim_.Run(sim_.Now() + 0.1);
    ASSERT_TRUE(
        producer.SendToPartition(TopicPartition{"t", 0}, MakeRecord(value))
            .ok());
    producer.Flush();
    sim_.Run(sim_.Now() + 2.0);
    EXPECT_TRUE(delivered);
  };
  const auto poll_waits = [](obs::MetricsRegistry* reg) {
    return reg->Histogram("consumer_poll_wait_s", {{"group", "g"}})->count();
  };
  auto first = std::make_unique<obs::MetricsRegistry>();
  sim_.AttachObservability(nullptr, first.get());
  wait_for_one_record(1);
  EXPECT_EQ(poll_waits(first.get()), 1u);

  // Observations after the switch go to the registry attached now; the
  // first one is gone, so a stale handle would write freed memory (ASan).
  obs::MetricsRegistry second;
  first.reset();
  sim_.AttachObservability(nullptr, &second);
  wait_for_one_record(2);
  wait_for_one_record(3);
  EXPECT_EQ(poll_waits(&second), 2u);
  EXPECT_EQ(
      second.Histogram("consumer_buffer_depth", {{"group", "g"}})->count(),
      2u);
  sim_.AttachObservability(nullptr, nullptr);
}

// A Poll answered by data cancels its timeout, and the long-poll the data
// woke cancels its own: after delivery the queue holds exactly what it
// held before the Poll (the fetch loop's re-parked long-poll).
TEST_F(ClientTest, PollAnsweredByDataLeavesNoTimer) {
  ConsumerConfig cc;
  cc.fetch_max_wait_s = 5.0;
  KafkaConsumer consumer(&cluster_, "client", "g", cc);
  ASSERT_TRUE(consumer.Assign("t", {0}).ok());
  sim_.Run(1.0);  // the fetch loop's long-poll is parked at the broker
  const size_t before = sim_.pending_events();
  size_t delivered = 0;
  consumer.Poll(10.0, [&](std::vector<Record> records) {
    delivered = records.size();
  });
  EXPECT_EQ(sim_.pending_events(), before + 1);  // the poll timeout
  cluster_.Produce("client", TopicPartition{"t", 0}, {MakeRecord(1)},
                   nullptr);
  sim_.Run(2.0);
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(sim_.pending_events(), before);
}

// An unanswered Poll still completes empty exactly at its timeout.
TEST_F(ClientTest, UnansweredPollFiresAtTheSameInstant) {
  KafkaConsumer consumer(&cluster_, "client", "g");
  ASSERT_TRUE(consumer.Assign("t", {0}).ok());
  sim_.Run(1.0);
  double answered_at = -1.0;
  consumer.Poll(0.3, [&](std::vector<Record> records) {
    EXPECT_TRUE(records.empty());
    answered_at = sim_.Now();
  });
  sim_.Run(2.0);
  EXPECT_EQ(answered_at, 1.0 + 0.3);
}

TEST_F(ClientTest, SubscribeRangeAssignsAmongMembers) {
  KafkaConsumer a(&cluster_, "client", "g");
  KafkaConsumer b(&cluster_, "client", "g");
  ASSERT_TRUE(a.Subscribe("t", 2, 0).ok());
  ASSERT_TRUE(b.Subscribe("t", 2, 1).ok());
  EXPECT_EQ(a.assignment().size(), 2u);
  EXPECT_EQ(b.assignment().size(), 2u);
  std::set<int> all;
  for (const auto& tp : a.assignment()) all.insert(tp.partition);
  for (const auto& tp : b.assignment()) all.insert(tp.partition);
  EXPECT_EQ(all.size(), 4u);
}

TEST_F(ClientTest, ConsumerPositionAdvancesAndCommits) {
  KafkaProducer producer(&cluster_, "client");
  KafkaConsumer consumer(&cluster_, "client", "g");
  ASSERT_TRUE(consumer.Assign("t", {0}).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        producer.SendToPartition(TopicPartition{"t", 0}, MakeRecord(i))
            .ok());
  }
  producer.Flush();
  consumer.Poll(1.0, [&](std::vector<Record>) {});
  sim_.Run(3.0);
  TopicPartition tp{"t", 0};
  EXPECT_EQ(consumer.position(tp), 3);
  consumer.CommitPositions();
  EXPECT_EQ(cluster_.CommittedOffset("g", tp), 3);

  // A new consumer in the same group resumes at the committed offset.
  KafkaConsumer resumed(&cluster_, "client", "g");
  ASSERT_TRUE(resumed.Assign("t", {0}).ok());
  EXPECT_EQ(resumed.position(tp), 3);
}

TEST_F(ClientTest, CloseStopsDelivery) {
  KafkaProducer producer(&cluster_, "client");
  KafkaConsumer consumer(&cluster_, "client", "g");
  ASSERT_TRUE(consumer.Assign("t", {0}).ok());
  consumer.Close();
  ASSERT_TRUE(
      producer.SendToPartition(TopicPartition{"t", 0}, MakeRecord(1)).ok());
  producer.Flush();
  sim_.Run(2.0);
  EXPECT_EQ(consumer.buffered(), 0u);
}

TEST_F(ClientTest, BufferBoundPausesFetching) {
  ConsumerConfig cc;
  cc.max_buffered_records = 5;
  cc.fetch_max_records = 5;
  KafkaProducer producer(&cluster_, "client");
  KafkaConsumer consumer(&cluster_, "client", "g", cc);
  ASSERT_TRUE(consumer.Assign("t", {0}).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        producer.SendToPartition(TopicPartition{"t", 0}, MakeRecord(i))
            .ok());
  }
  producer.Flush();
  sim_.Run(3.0);
  // Without a Poll, the client buffer must stay bounded (prefetch pauses).
  EXPECT_LE(consumer.buffered(), 10u);
}

TEST_F(ClientTest, AssignValidatesPartitions) {
  KafkaConsumer consumer(&cluster_, "client", "g");
  EXPECT_FALSE(consumer.Assign("t", {7}).ok());
  EXPECT_FALSE(consumer.Assign("ghost", {0}).ok());
}

TEST_F(ClientTest, AssignRejectsDuplicatePartitions) {
  KafkaProducer producer(&cluster_, "client");
  KafkaConsumer consumer(&cluster_, "client", "g");
  crayfish::Status s = consumer.Assign("t", {0, 0});
  EXPECT_EQ(s.code(), crayfish::StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find("t-0"), std::string::npos) << s.ToString();
  EXPECT_TRUE(consumer.assignment().empty());

  ASSERT_TRUE(consumer.Assign("t", {0}).ok());
  s = consumer.Assign("t", {1, 0});
  EXPECT_EQ(s.code(), crayfish::StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find("t-0"), std::string::npos) << s.ToString();
  ASSERT_EQ(consumer.assignment().size(), 1u);
  EXPECT_EQ(consumer.position(TopicPartition{"t", 1}), -1);

  // One fetch loop per partition: every record is delivered exactly once.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        producer.SendToPartition(TopicPartition{"t", 0}, MakeRecord(i))
            .ok());
  }
  producer.Flush();
  size_t got = 0;
  std::function<void()> poll = [&]() {
    consumer.Poll(0.5, [&](std::vector<Record> records) {
      got += records.size();
      poll();
    });
  };
  poll();
  sim_.Run(3.0);
  EXPECT_EQ(got, 10u);
  EXPECT_EQ(consumer.records_consumed(), 10u);
}

TEST_F(ClientTest, AssignErrorLeavesNoPartialAssignment) {
  KafkaProducer producer(&cluster_, "client");
  KafkaConsumer consumer(&cluster_, "client", "g");
  crayfish::Status s = consumer.Assign("t", {1, 9});
  EXPECT_EQ(s.code(), crayfish::StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find("t-9"), std::string::npos) << s.ToString();
  EXPECT_TRUE(consumer.assignment().empty());
  EXPECT_EQ(consumer.position(TopicPartition{"t", 1}), -1);

  // No fetch loop was left running on partition 1, and the queries on an
  // unassigned partition report "not assigned" although its log has data.
  const TopicPartition tp{"t", 1};
  ASSERT_TRUE(producer.SendToPartition(tp, MakeRecord(1)).ok());
  producer.Flush();
  sim_.Run(2.0);
  ASSERT_EQ((*cluster_.GetPartition(tp))->end_offset(), 1);
  EXPECT_EQ(consumer.buffered(), 0u);
  EXPECT_EQ(consumer.position(tp), -1);
  EXPECT_EQ(consumer.delivered_position(tp), -1);
  EXPECT_EQ(consumer.PartitionLag(tp), 0);
  EXPECT_EQ(consumer.TotalLag(), 0);
}

// Per-partition client state is indexed by assignment slot. A rebalance
// can put a different partition into a slot while a fetch issued for the
// old occupant is still parked at the broker; its response must not move
// the new occupant's cursor.
TEST_F(ClientTest, StaleFetchAfterReassignLeavesReusedSlotAlone) {
  obs::MetricsRegistry reg;
  sim_.AttachObservability(nullptr, &reg);
  KafkaProducer producer(&cluster_, "client");
  KafkaConsumer a(&cluster_, "client", "dyn");
  ASSERT_TRUE(a.SubscribeDynamic("t").ok());
  sim_.Run(0.75);
  ASSERT_EQ(a.assignment().size(), 4u);
  ASSERT_EQ(a.assignment()[1].partition, 1);

  // The join rebalances at +50 ms: `a` keeps {0, 2}, so t-2 moves into
  // slot 1, while a's long-poll on t-1 stays parked (it expires ~1.05 s).
  KafkaConsumer b(&cluster_, "client", "dyn");
  ASSERT_TRUE(b.SubscribeDynamic("t").ok());
  sim_.Schedule(0.06, [&]() {
    ASSERT_EQ(a.assignment().size(), 2u);
    ASSERT_EQ(a.assignment()[1].partition, 2);
    for (int i = 0; i < 5; ++i) {
      CRAYFISH_CHECK_OK(producer.SendToPartition(TopicPartition{"t", 1},
                                                 MakeRecord(i)));
    }
    producer.Flush();
  });
  sim_.Run(1.0);

  // The append woke both b's fetch and a's stale one: 5 records each.
  EXPECT_EQ(reg.Counter("broker_records_out", {{"broker", "kafka-1"}})
                ->value(),
            10.0);
  EXPECT_EQ(b.position(TopicPartition{"t", 1}), 5);
  EXPECT_EQ(a.position(TopicPartition{"t", 2}), 0);
  EXPECT_EQ(a.delivered_position(TopicPartition{"t", 2}), 0);
  EXPECT_EQ(a.buffered(), 0u);
  EXPECT_EQ(a.position(TopicPartition{"t", 1}), -1);
  EXPECT_EQ(a.delivered_position(TopicPartition{"t", 1}), -1);
  EXPECT_EQ(a.PartitionLag(TopicPartition{"t", 1}), 0);
  EXPECT_EQ(a.TotalLag(), 0);
  sim_.AttachObservability(nullptr, nullptr);
}

TEST_F(ClientTest, StaleFetchAfterRestartLeavesReusedSlotAlone) {
  // Restart re-assigns topic by topic in name order, so "u" (slot 0 before
  // the crash) and "t" (slot 1) swap slots.
  ASSERT_TRUE(cluster_.CreateTopic("u", 1).ok());
  obs::MetricsRegistry reg;
  sim_.AttachObservability(nullptr, &reg);
  KafkaProducer producer(&cluster_, "client");
  KafkaConsumer consumer(&cluster_, "client", "g");
  ASSERT_TRUE(consumer.Assign("u", {0}).ok());
  ASSERT_TRUE(consumer.Assign("t", {0}).ok());
  sim_.Run(0.75);
  // Long-polls re-parked at ~0.5 s stay parked until ~1.0 s.
  consumer.FailAndRestart(/*restart_delay_s=*/0.0);
  sim_.Schedule(0.01, [&]() {
    ASSERT_EQ(consumer.assignment().size(), 2u);
    ASSERT_EQ(consumer.assignment()[0].topic, "t");
    for (int i = 0; i < 5; ++i) {
      CRAYFISH_CHECK_OK(producer.SendToPartition(TopicPartition{"u", 0},
                                                 MakeRecord(i)));
    }
    producer.Flush();
  });
  size_t got = 0;
  std::function<void()> poll = [&]() {
    consumer.Poll(0.5, [&](std::vector<Record> records) {
      got += records.size();
      poll();
    });
  };
  sim_.Schedule(0.02, [&]() { poll(); });
  sim_.Run(2.0);

  // Both the stale and the restarted fetch on u-0 were answered with data.
  EXPECT_EQ(reg.Counter("broker_records_out", {{"broker", "kafka-0"}})
                ->value(),
            10.0);
  EXPECT_EQ(got, 5u);
  EXPECT_EQ(consumer.position(TopicPartition{"u", 0}), 5);
  EXPECT_EQ(consumer.delivered_position(TopicPartition{"u", 0}), 5);
  EXPECT_EQ(consumer.position(TopicPartition{"t", 0}), 0);
  EXPECT_EQ(consumer.delivered_position(TopicPartition{"t", 0}), 0);
  EXPECT_EQ(consumer.TotalLag(), 0);
  consumer.Close();
  sim_.AttachObservability(nullptr, nullptr);
}

TEST_F(ClientTest, EndToEndLatencyIsCreateToAppend) {
  // Mirrors §3.3: start time at the producer, end time = LogAppendTime.
  KafkaProducer producer(&cluster_, "client");
  Record r = MakeRecord(1, /*create_time=*/0.0);
  ASSERT_TRUE(producer.SendToPartition(TopicPartition{"t", 0}, r).ok());
  producer.Flush();
  sim_.RunUntilIdle();
  std::vector<Record> out;
  ASSERT_TRUE((*cluster_.GetPartition(TopicPartition{"t", 0}))
                  ->Fetch(0, 1, 1 << 20, &out)
                  .ok());
  ASSERT_EQ(out.size(), 1u);
  const double latency = out[0].log_append_time - out[0].create_time;
  // One network hop + broker processing: sub-millisecond but positive.
  EXPECT_GT(latency, 0.0);
  EXPECT_LT(latency, 0.01);
}


// ---------------------------------------------------- group coordinator --

TEST_F(ClientTest, JoinGroupAssignsAllPartitionsToSoleMember) {
  KafkaConsumer consumer(&cluster_, "client", "dyn");
  ASSERT_TRUE(consumer.SubscribeDynamic("t").ok());
  sim_.Run(1.0);
  EXPECT_EQ(consumer.assignment().size(), 4u);
  EXPECT_EQ(consumer.rebalances_seen(), 1u);
  EXPECT_EQ(cluster_.GroupSize("dyn", "t"), 1);
}

TEST_F(ClientTest, SecondMemberTriggersRebalanceSplit) {
  KafkaConsumer a(&cluster_, "client", "dyn");
  ASSERT_TRUE(a.SubscribeDynamic("t").ok());
  sim_.Run(1.0);
  KafkaConsumer b(&cluster_, "client", "dyn");
  ASSERT_TRUE(b.SubscribeDynamic("t").ok());
  sim_.Run(2.0);
  EXPECT_EQ(a.assignment().size(), 2u);
  EXPECT_EQ(b.assignment().size(), 2u);
  EXPECT_EQ(a.rebalances_seen(), 2u);
  std::set<int> all;
  for (const auto& tp : a.assignment()) all.insert(tp.partition);
  for (const auto& tp : b.assignment()) all.insert(tp.partition);
  EXPECT_EQ(all.size(), 4u);
}

TEST_F(ClientTest, LeaveGroupHandsPartitionsToSurvivor) {
  KafkaConsumer a(&cluster_, "client", "dyn");
  auto b = std::make_unique<KafkaConsumer>(&cluster_, "client", "dyn");
  ASSERT_TRUE(a.SubscribeDynamic("t").ok());
  ASSERT_TRUE(b->SubscribeDynamic("t").ok());
  sim_.Run(1.0);
  EXPECT_EQ(a.assignment().size(), 2u);
  b->Close();  // leaves the group
  sim_.Run(2.0);
  EXPECT_EQ(cluster_.GroupSize("dyn", "t"), 1);
  EXPECT_EQ(a.assignment().size(), 4u);
}

TEST_F(ClientTest, RebalanceResumesFromCommittedOffsetsAtLeastOnce) {
  KafkaProducer producer(&cluster_, "client");
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(producer.Send("t", MakeRecord(i)).ok());
  }
  producer.Flush();

  KafkaConsumer a(&cluster_, "client", "dyn");
  ASSERT_TRUE(a.SubscribeDynamic("t").ok());
  std::multiset<uint64_t> seen;
  std::function<void(KafkaConsumer*)> drain = [&](KafkaConsumer* c) {
    c->Poll(0.3, [&, c](std::vector<Record> records) {
      for (const Record& r : records) seen.insert(r.batch_id);
      c->CommitPositions();
      if (!c->assignment().empty()) drain(c);
    });
  };
  drain(&a);
  sim_.Run(2.0);
  const size_t before = seen.size();
  EXPECT_GT(before, 0u);

  // A second member joins mid-stream; produce more records afterwards.
  KafkaConsumer b(&cluster_, "client", "dyn");
  ASSERT_TRUE(b.SubscribeDynamic("t").ok());
  sim_.Schedule(0.5, [&]() { drain(&b); });
  sim_.Schedule(1.0, [&]() {
    for (int i = 40; i < 80; ++i) {
      CRAYFISH_CHECK_OK(producer.Send("t", MakeRecord(i)));
    }
    producer.Flush();
  });
  sim_.Run(10.0);
  // Every record id 0..79 delivered at least once.
  for (uint64_t id = 0; id < 80; ++id) {
    EXPECT_GE(seen.count(id), 1u) << "record " << id << " lost";
  }
}

TEST_F(ClientTest, CrashTriggeredRebalanceIsAtLeastOnce) {
  // Crash the group's coordinator broker mid-stream: the dynamic group
  // rebalances, the eager-rebalance offset commit is lost with the
  // coordinator, the crashed broker's partition rejects fetches until
  // restart, and the producer keeps retrying sends into it. At-least-once
  // = every record delivered >= 1 time; the post-crash rewind surfaces as
  // counted duplicates.
  crayfish::RetryPolicy retry;
  retry.max_retries = 8;
  retry.timeout_s = 0.5;
  cluster_.SetClientDefaults(retry, /*auto_commit_interval_s=*/0.0);

  KafkaProducer producer(&cluster_, "client");
  KafkaConsumer consumer(&cluster_, "client", "dyn");
  ASSERT_TRUE(consumer.SubscribeDynamic("t").ok());

  std::multiset<uint64_t> seen;
  std::function<void()> drain = [&]() {
    // Deliberately never commits: with the coordinator down during the
    // crash-triggered rebalance, the eager commit is lost too, so the
    // survivor rewinds to the last durable offsets (none -> earliest).
    consumer.Poll(0.3, [&](std::vector<Record> records) {
      for (const Record& r : records) seen.insert(r.batch_id);
      if (!consumer.assignment().empty()) drain();
    });
  };

  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(producer.Send("t", MakeRecord(i)).ok());
  }
  producer.Flush();
  drain();

  const int coord = cluster_.CoordinatorBroker("dyn");
  sim_.Schedule(2.0, [&]() { cluster_.CrashBroker(coord); });
  sim_.Schedule(3.0, [&]() {
    // Produced mid-outage: sends to the dead broker's partition retry
    // with backoff until the leader is back.
    for (int i = 40; i < 80; ++i) {
      CRAYFISH_CHECK_OK(producer.Send("t", MakeRecord(i)));
    }
    producer.Flush();
  });
  sim_.Schedule(6.0, [&]() { cluster_.RestartBroker(coord); });
  sim_.Run(25.0);

  for (uint64_t id = 0; id < 80; ++id) {
    EXPECT_GE(seen.count(id), 1u) << "record " << id << " lost";
  }
  std::set<uint64_t> unique(seen.begin(), seen.end());
  EXPECT_EQ(unique.size(), 80u);
  EXPECT_GT(seen.size(), unique.size()) << "rebalance produced no re-reads";
  EXPECT_GE(consumer.rebalances_seen(), 2u);  // join + crash-triggered
  EXPECT_GT(producer.retries() + consumer.retries(), 0u);
  EXPECT_TRUE(cluster_.IsBrokerUp(coord));  // restarted
}

TEST_F(ClientTest, RebalanceDuringRestartWindowWinsOverRestore) {
  KafkaConsumer a(&cluster_, "client", "dyn");
  ASSERT_TRUE(a.SubscribeDynamic("t").ok());
  sim_.Run(1.0);
  ASSERT_EQ(a.assignment().size(), 4u);
  // `a` is down for 1 s; b's join rebalances the group at +50 ms, inside
  // that window. The restart must not re-add a's old partitions on top.
  a.FailAndRestart(/*restart_delay_s=*/1.0);
  KafkaConsumer b(&cluster_, "client", "dyn");
  ASSERT_TRUE(b.SubscribeDynamic("t").ok());
  sim_.Run(3.0);
  EXPECT_EQ(a.assignment().size(), 2u);
  EXPECT_EQ(b.assignment().size(), 2u);
  std::set<int> all;
  for (const auto& tp : a.assignment()) all.insert(tp.partition);
  for (const auto& tp : b.assignment()) all.insert(tp.partition);
  EXPECT_EQ(all.size(), 4u);
}

TEST_F(ClientTest, JoinUnknownTopicFails) {
  KafkaConsumer consumer(&cluster_, "client", "dyn");
  EXPECT_TRUE(consumer.SubscribeDynamic("ghost").IsNotFound());
  EXPECT_TRUE(consumer.SubscribeDynamic("t").ok());
  EXPECT_EQ(consumer.SubscribeDynamic("t").code(),
            crayfish::StatusCode::kFailedPrecondition);
}

// Counter gate on the DES heap: in a below-capacity flink + tf-serving run
// every poll and long-poll is answered by data long before its timeout,
// and each timeout leaves the queue when it is answered. So the queue
// holds only live events: about 67 per window, against about 800 when
// answered timeouts stayed parked until they expired.
TEST(TimerCancelGateTest, SustainedRpcQueueHoldsOnlyLiveEvents) {
  core::ExperimentConfig cfg;
  cfg.engine = "flink";
  cfg.serving = "tf-serving";
  cfg.model = "ffnn";
  cfg.batch_size = 1;
  cfg.input_rate = 500.0;
  cfg.parallelism = 1;
  cfg.duration_s = 10.0;
  cfg.drain_s = 2.0;
  cfg.timeline_interval_s = 1.0;
  auto result = core::RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->timeline, nullptr);
  const auto& windows = result->timeline->windows();
  ASSERT_GE(windows.size(), 10u);
  for (size_t k = 0; k < windows.size(); ++k) {
    EXPECT_LE(windows[k].gauges.at("sim_event_queue"), 150.0)
        << "window " << k;
  }
}

}  // namespace
}  // namespace crayfish::broker

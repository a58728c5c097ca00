#include "prof/quad.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace hybridic::prof {
namespace {

TEST(QuadProfiler, DeclareAssignsSequentialIds) {
  QuadProfiler q;
  EXPECT_EQ(q.declare("a"), 0U);
  EXPECT_EQ(q.declare("b"), 1U);
  EXPECT_EQ(q.graph().function_count(), 2U);
}

TEST(QuadProfiler, ProducerConsumerAttribution) {
  QuadProfiler q;
  const FunctionId producer = q.declare("producer");
  const FunctionId consumer = q.declare("consumer");
  const std::uint64_t addr = q.allocate(64);

  q.enter(producer);
  q.record_write(addr, 64);
  q.leave();

  q.enter(consumer);
  q.record_read(addr, 64);
  q.leave();

  const CommGraph& graph = q.graph();
  EXPECT_EQ(graph.bytes_between(producer, consumer).count(), 64U);
  const auto edges = graph.edges();
  ASSERT_EQ(edges.size(), 1U);
  EXPECT_EQ(edges[0].unique_addresses, 64U);
}

TEST(QuadProfiler, RepeatedReadsCountBytesOnceForUma) {
  QuadProfiler q;
  const FunctionId p = q.declare("p");
  const FunctionId c = q.declare("c");
  const std::uint64_t addr = q.allocate(16);
  q.enter(p);
  q.record_write(addr, 16);
  q.leave();
  q.enter(c);
  q.record_read(addr, 16);
  q.record_read(addr, 16);
  q.record_read(addr, 8);
  q.leave();
  const auto edges = q.graph().edges();
  ASSERT_EQ(edges.size(), 1U);
  EXPECT_EQ(edges[0].bytes.count(), 40U);          // every access counted
  EXPECT_EQ(edges[0].unique_addresses, 16U);       // but 16 unique bytes
}

TEST(QuadProfiler, ReadOfUnwrittenMemoryCreatesNoEdge) {
  QuadProfiler q;
  const FunctionId f = q.declare("f");
  const std::uint64_t addr = q.allocate(32);
  q.enter(f);
  q.record_read(addr, 32);
  q.leave();
  EXPECT_TRUE(q.graph().edges().empty());
  EXPECT_EQ(q.graph().function(f).reads, 32U);
}

TEST(QuadProfiler, SelfCommunicationRecorded) {
  QuadProfiler q;
  const FunctionId f = q.declare("f");
  const std::uint64_t addr = q.allocate(8);
  q.enter(f);
  q.record_write(addr, 8);
  q.record_read(addr, 8);
  q.leave();
  EXPECT_EQ(q.graph().bytes_between(f, f).count(), 8U);
}

TEST(QuadProfiler, PartialOverwriteSplitsAttribution) {
  QuadProfiler q;
  const FunctionId a = q.declare("a");
  const FunctionId b = q.declare("b");
  const FunctionId c = q.declare("c");
  const std::uint64_t addr = q.allocate(16);
  q.enter(a);
  q.record_write(addr, 16);
  q.leave();
  q.enter(b);
  q.record_write(addr + 8, 8);
  q.leave();
  q.enter(c);
  q.record_read(addr, 16);
  q.leave();
  EXPECT_EQ(q.graph().bytes_between(a, c).count(), 8U);
  EXPECT_EQ(q.graph().bytes_between(b, c).count(), 8U);
}

TEST(QuadProfiler, NestedScopesAttributeToInnermost) {
  QuadProfiler q;
  const FunctionId outer = q.declare("outer");
  const FunctionId inner = q.declare("inner");
  const FunctionId reader = q.declare("reader");
  const std::uint64_t addr = q.allocate(4);
  q.enter(outer);
  q.enter(inner);
  q.record_write(addr, 4);
  q.leave();
  EXPECT_EQ(q.current(), outer);
  q.leave();
  q.enter(reader);
  q.record_read(addr, 4);
  q.leave();
  EXPECT_EQ(q.graph().bytes_between(inner, reader).count(), 4U);
  EXPECT_EQ(q.graph().bytes_between(outer, reader).count(), 0U);
}

TEST(QuadProfiler, CallCountsTracked) {
  QuadProfiler q;
  const FunctionId f = q.declare("f");
  for (int i = 0; i < 3; ++i) {
    q.enter(f);
    q.leave();
  }
  EXPECT_EQ(q.graph().function(f).calls, 3U);
}

TEST(QuadProfiler, WorkUnitsAccumulate) {
  QuadProfiler q;
  const FunctionId f = q.declare("f");
  q.enter(f);
  q.add_work(10);
  q.add_work(5);
  q.leave();
  EXPECT_EQ(q.graph().function(f).work_units, 15U);
}

TEST(QuadProfiler, AccessOutsideScopeThrows) {
  QuadProfiler q;
  (void)q.declare("f");
  EXPECT_THROW(q.record_write(0x1000, 4), ConfigError);
  EXPECT_THROW(q.record_read(0x1000, 4), ConfigError);
  EXPECT_THROW(q.add_work(1), ConfigError);
  EXPECT_THROW(q.leave(), ConfigError);
  EXPECT_THROW((void)q.current(), ConfigError);
}

TEST(QuadProfiler, EnterUndeclaredThrows) {
  QuadProfiler q;
  EXPECT_THROW(q.enter(4), ConfigError);
}

TEST(QuadProfiler, AllocationsDoNotOverlap) {
  QuadProfiler q;
  const std::uint64_t a = q.allocate(100);
  const std::uint64_t b = q.allocate(100);
  EXPECT_GE(b, a + 100);
  const std::uint64_t c = q.allocate(0);
  const std::uint64_t d = q.allocate(8);
  EXPECT_GT(d, c);
}

TEST(QuadProfiler, AllocationAlignment) {
  QuadProfiler q;
  (void)q.allocate(3, 1);
  const std::uint64_t aligned = q.allocate(16, 64);
  EXPECT_EQ(aligned % 64, 0U);
}

// ---------------------------------------------------------------------------
// Reference oracle: eager attribution must match a naive per-byte QUAD.
// ---------------------------------------------------------------------------

/// Mirrors every call into the profiler under test and attributes it on its
/// own, one byte at a time: a map from address to last writer and a
/// std::set per edge for UMA. Slow and obviously right.
class ReferenceOracle {
public:
  explicit ReferenceOracle(QuadProfiler& q) : q_(&q) {}

  FunctionId declare(const char* name) {
    const FunctionId id = q_->declare(name);
    functions_.resize(id + 1);
    return id;
  }
  void enter(FunctionId f) {
    q_->enter(f);
    stack_.push_back(f);
    if (functions_[f].calls++ == 0) {
      call_order_.push_back(f);
    }
  }
  void leave() {
    q_->leave();
    stack_.pop_back();
  }
  std::uint64_t allocate(std::uint64_t bytes) { return q_->allocate(bytes); }
  void add_work(std::uint64_t units) { q_->add_work(units); }

  void record_write(std::uint64_t addr, std::uint64_t size) {
    q_->record_write(addr, size);
    Function& fn = functions_[stack_.back()];
    fn.writes += size;
    for (std::uint64_t byte = addr; byte < addr + size; ++byte) {
      last_writer_[byte] = stack_.back();
      fn.written.insert(byte);
    }
  }
  void record_read(std::uint64_t addr, std::uint64_t size) {
    q_->record_read(addr, size);
    const FunctionId consumer = stack_.back();
    Function& fn = functions_[consumer];
    fn.reads += size;
    for (std::uint64_t byte = addr; byte < addr + size; ++byte) {
      fn.read.insert(byte);
      const auto it = last_writer_.find(byte);
      if (it != last_writer_.end()) {
        Edge& edge = edges_[{it->second, consumer}];
        ++edge.bytes;
        edge.uma.insert(byte);
      }
    }
  }

  /// Every downstream-visible figure of `q_` equals the reference's.
  void expect_matches() const {
    const auto edges = q_->graph().edges();
    ASSERT_EQ(edges.size(), edges_.size());
    auto ref = edges_.begin();
    for (const CommEdge& edge : edges) {
      EXPECT_EQ(edge.producer, ref->first.first);
      EXPECT_EQ(edge.consumer, ref->first.second);
      EXPECT_EQ(edge.bytes.count(), ref->second.bytes);
      EXPECT_EQ(edge.unique_addresses, ref->second.uma.size());
      ++ref;
    }
    ASSERT_EQ(q_->graph().function_count(), functions_.size());
    for (FunctionId f = 0; f < functions_.size(); ++f) {
      const FunctionProfile& fn = q_->graph().function(f);
      EXPECT_EQ(fn.reads, functions_[f].reads) << f;
      EXPECT_EQ(fn.writes, functions_[f].writes) << f;
      EXPECT_EQ(fn.calls, functions_[f].calls) << f;
      EXPECT_EQ(q_->unique_bytes_read(f), functions_[f].read.size()) << f;
      EXPECT_EQ(q_->unique_bytes_written(f), functions_[f].written.size())
          << f;
    }
    EXPECT_EQ(q_->call_order(), call_order_);
  }

private:
  struct Function {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t calls = 0;
    std::set<std::uint64_t> read;
    std::set<std::uint64_t> written;
  };
  struct Edge {
    std::uint64_t bytes = 0;
    std::set<std::uint64_t> uma;
  };

  QuadProfiler* q_;
  std::vector<FunctionId> stack_;
  std::vector<Function> functions_;
  std::vector<FunctionId> call_order_;
  std::map<std::uint64_t, FunctionId> last_writer_;
  std::map<std::pair<FunctionId, FunctionId>, Edge> edges_;
};

/// A deterministic workload with page-crossing accesses, overwrites,
/// repeated reads and nested scopes. Runs on a QuadProfiler or, through a
/// ReferenceOracle, on both at once.
template <typename Profiler>
void run_workload(Profiler& q) {
  const FunctionId a = q.declare("a");
  const FunctionId b = q.declare("b");
  const FunctionId c = q.declare("c");
  const std::uint64_t buf = q.allocate(256 * 1024);
  q.enter(a);
  q.add_work(1000);
  for (std::uint64_t i = 0; i < 3000; ++i) {
    q.record_write(buf + i * 37 % (256 * 1024 - 64), 48 + i % 16);
  }
  q.leave();
  q.enter(b);
  for (std::uint64_t i = 0; i < 2000; ++i) {
    q.record_write(buf + (i * 97 + 13) % (256 * 1024 - 64), 32);
  }
  q.enter(c);  // Nested: reads attribute to c, not b.
  for (std::uint64_t i = 0; i < 4000; ++i) {
    q.record_read(buf + i * 61 % (256 * 1024 - 64), 40 + i % 24);
  }
  q.leave();
  q.leave();
  q.enter(c);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    q.record_read(buf + i * 4093 % (256 * 1024 - 64), 64);
  }
  q.leave();
}

void expect_same_profile(const QuadProfiler& x, const QuadProfiler& y) {
  const auto ex = x.graph().edges();
  const auto ey = y.graph().edges();
  ASSERT_EQ(ex.size(), ey.size());
  for (std::size_t i = 0; i < ex.size(); ++i) {
    EXPECT_EQ(ex[i].producer, ey[i].producer);
    EXPECT_EQ(ex[i].consumer, ey[i].consumer);
    EXPECT_EQ(ex[i].bytes.count(), ey[i].bytes.count());
    EXPECT_EQ(ex[i].unique_addresses, ey[i].unique_addresses);
  }
  ASSERT_EQ(x.graph().function_count(), y.graph().function_count());
  for (FunctionId f = 0; f < x.graph().function_count(); ++f) {
    EXPECT_EQ(x.graph().function(f).reads, y.graph().function(f).reads);
    EXPECT_EQ(x.graph().function(f).writes, y.graph().function(f).writes);
    EXPECT_EQ(x.graph().function(f).calls, y.graph().function(f).calls);
    EXPECT_EQ(x.graph().function(f).work_units,
              y.graph().function(f).work_units);
    EXPECT_EQ(x.unique_bytes_read(f), y.unique_bytes_read(f));
    EXPECT_EQ(x.unique_bytes_written(f), y.unique_bytes_written(f));
  }
  EXPECT_EQ(x.call_order(), y.call_order());
}

TEST(QuadReference, EagerMatchesPerByteReference) {
  QuadProfiler q;
  ReferenceOracle reference{q};
  run_workload(reference);
  reference.expect_matches();
}

// The one-entry edge memo must never charge a run to the previous edge:
// consumers and producers alternate read by read, scopes nest, reads hit
// never-written bytes and straddle a shadow page, and a write changes the
// producer in the middle of a range between two reads of it.
TEST(QuadReference, EdgeMemoFollowsEveryPairChange) {
  QuadProfiler q;
  ReferenceOracle reference{q};
  const FunctionId p1 = reference.declare("p1");
  const FunctionId p2 = reference.declare("p2");
  const FunctionId c1 = reference.declare("c1");
  const FunctionId c2 = reference.declare("c2");
  constexpr std::uint64_t kPage = ShadowMemory::kPageBytes;
  const std::uint64_t base = q.allocate(4 * kPage, kPage);

  reference.enter(p1);
  reference.record_write(base, 2 * kPage);
  reference.leave();
  reference.enter(p2);
  reference.record_write(base + 2 * kPage, kPage);
  reference.leave();

  // Straddles the page 0/1 boundary; all p1.
  reference.enter(c1);
  reference.record_read(base + kPage - 96, 200);
  reference.leave();
  // One read, two producers: 92 bytes of p1 then 108 of p2.
  reference.enter(c2);
  reference.record_read(base + 2 * kPage - 92, 200);
  reference.leave();
  // Alternating consumers on the same bytes.
  for (int i = 0; i < 4; ++i) {
    reference.enter(c1);
    reference.record_read(base, 16);
    reference.leave();
    reference.enter(c2);
    reference.record_read(base, 16);
    reference.leave();
  }
  // Nested scopes: the inner read is c2's, the outer c1's.
  reference.enter(c1);
  reference.enter(c2);
  reference.record_read(base + 16, 16);
  reference.leave();
  reference.record_read(base + 32, 16);
  reference.leave();
  // Never-written page, then a read running off written data into it.
  reference.enter(c1);
  reference.record_read(base + 3 * kPage, 64);
  reference.record_read(base + 3 * kPage - 8, 20);
  reference.leave();
  // p2 overwrites the middle of a range c1 has read; the re-read splits.
  reference.enter(c1);
  reference.record_read(base + 100, 64);
  reference.leave();
  reference.enter(p2);
  reference.record_write(base + 120, 10);
  reference.leave();
  reference.enter(c1);
  reference.record_read(base + 100, 64);
  reference.leave();

  reference.expect_matches();
  const CommGraph& g = q.graph();
  EXPECT_EQ(g.bytes_between(p1, c1).count(), 200U + 64 + 16 + 64 + 54);
  EXPECT_EQ(g.bytes_between(p2, c1).count(), 8U + 10);
  EXPECT_EQ(g.bytes_between(p1, c2).count(), 92U + 64 + 16);
  EXPECT_EQ(g.bytes_between(p2, c2).count(), 108U);
  for (const CommEdge& edge : g.edges()) {
    if (edge.producer == p1 && edge.consumer == c1) {
      // 200 around the page edge, [0,16), [32,48) and [100,164).
      EXPECT_EQ(edge.unique_addresses, 200U + 16 + 16 + 64);
    }
  }
}

TEST(QuadSnapshot, RoundTripPreservesDownstreamView) {
  QuadProfiler q;
  run_workload(q);
  const ProfileSnapshot snap = q.snapshot();
  const std::unique_ptr<QuadProfiler> restored =
      QuadProfiler::from_snapshot(snap);
  ASSERT_NE(restored, nullptr);
  EXPECT_TRUE(restored->restored());
  expect_same_profile(q, *restored);
  EXPECT_EQ(q.memory_report(), restored->memory_report());
}

TEST(QuadSnapshot, RestoredProfilerRejectsNewAccesses) {
  QuadProfiler q;
  const FunctionId f = q.declare("f");
  q.enter(f);
  q.record_write(q.allocate(16), 16);
  q.leave();
  const std::unique_ptr<QuadProfiler> restored =
      QuadProfiler::from_snapshot(q.snapshot());
  restored->enter(f);
  EXPECT_THROW(restored->record_write(0x1000, 4), ConfigError);
  EXPECT_THROW(restored->record_read(0x1000, 4), ConfigError);
  restored->leave();
}

TEST(ScopedFunctionTest, RaiiEnterLeave) {
  QuadProfiler q;
  const FunctionId f = q.declare("f");
  {
    ScopedFunction scope{q, f};
    EXPECT_EQ(q.call_depth(), 1U);
  }
  EXPECT_EQ(q.call_depth(), 0U);
}

}  // namespace
}  // namespace hybridic::prof

#include "prof/quad.hpp"

#include "util/error.hpp"
#include "util/table.hpp"

namespace hybridic::prof {

FunctionId QuadProfiler::declare(std::string name) {
  const FunctionId id = graph_.add_function(std::move(name));
  write_footprint_.emplace_back();
  read_footprint_.emplace_back();
  return id;
}

void QuadProfiler::enter(FunctionId function) {
  require(function < graph_.function_count(),
          "enter() with undeclared function");
  stack_.push_back(function);
  if (graph_.function_mutable(function).calls == 0) {
    first_call_order_.push_back(function);
  }
  ++graph_.function_mutable(function).calls;
}

void QuadProfiler::leave() {
  require(!stack_.empty(), "leave() without matching enter()");
  stack_.pop_back();
}

FunctionId QuadProfiler::current() const {
  require(!stack_.empty(), "profiled memory access outside any function");
  return stack_.back();
}

std::uint64_t QuadProfiler::allocate(std::uint64_t bytes,
                                     std::uint64_t alignment) {
  require(alignment > 0, "allocation alignment must be non-zero");
  next_addr_ = (next_addr_ + alignment - 1) / alignment * alignment;
  const std::uint64_t base = next_addr_;
  next_addr_ += bytes == 0 ? alignment : bytes;
  return base;
}

void QuadProfiler::record_write(std::uint64_t addr, std::uint64_t size) {
  require(!restored_, "record_write on a profiler restored from a snapshot");
  const FunctionId writer = current();
  graph_.function_mutable(writer).writes += size;
  write_footprint_[writer].insert_range(addr, size);
  shadow_.write(addr, size, writer);
}

void QuadProfiler::record_read(std::uint64_t addr, std::uint64_t size) {
  require(!restored_, "record_read on a profiler restored from a snapshot");
  const FunctionId consumer = current();
  graph_.function_mutable(consumer).reads += size;
  read_footprint_[consumer].insert_range(addr, size);
  attribute_read(consumer, addr, size);
}

void QuadProfiler::attribute_read(FunctionId consumer, std::uint64_t addr,
                                  std::uint64_t size) {
  shadow_.scan(addr, size,
               [this, consumer](std::uint64_t run_start, std::uint64_t length,
                                FunctionId producer) {
                 if (producer == kNoWriter) {
                   return;  // Uninitialized data: no communication edge.
                 }
                 if (producer != memo_.producer ||
                     consumer != memo_.consumer) {
                   memo_ = EdgeMemo{
                       producer, consumer, &uma_[{producer, consumer}],
                       &graph_.edge_counters(producer, consumer)};
                 }
                 memo_.counters->bytes += length;
                 memo_.counters->unique_addresses +=
                     memo_.uma->insert_range(run_start, length);
               });
}

void QuadProfiler::add_work(std::uint64_t units) {
  graph_.function_mutable(current()).work_units += units;
}

std::uint64_t QuadProfiler::unique_bytes_written(FunctionId function) const {
  require(function < write_footprint_.size(),
          "footprint query for undeclared function");
  if (restored_) {
    return restored_unique_written_[function];
  }
  return write_footprint_[function].size();
}

std::uint64_t QuadProfiler::unique_bytes_read(FunctionId function) const {
  require(function < read_footprint_.size(),
          "footprint query for undeclared function");
  if (restored_) {
    return restored_unique_read_[function];
  }
  return read_footprint_[function].size();
}

std::string QuadProfiler::memory_report() const {
  Table table{"Memory profile"};
  table.set_header({"function", "calls", "work", "bytes read",
                    "unique read", "bytes written", "unique written"});
  for (FunctionId id = 0; id < graph_.function_count(); ++id) {
    const FunctionProfile& fn = graph_.function(id);
    table.add_row({fn.name, std::to_string(fn.calls),
                   std::to_string(fn.work_units),
                   std::to_string(fn.reads),
                   std::to_string(unique_bytes_read(id)),
                   std::to_string(fn.writes),
                   std::to_string(unique_bytes_written(id))});
  }
  return table.to_string();
}

ProfileSnapshot QuadProfiler::snapshot() const {
  require(stack_.empty(), "snapshot() with open function scopes");
  ProfileSnapshot snap;
  snap.functions.reserve(graph_.function_count());
  for (FunctionId id = 0; id < graph_.function_count(); ++id) {
    const FunctionProfile& fn = graph_.function(id);
    snap.functions.push_back(ProfileSnapshot::Function{
        fn.name, fn.work_units, fn.reads, fn.writes, fn.calls,
        unique_bytes_read(id), unique_bytes_written(id)});
  }
  for (const CommEdge& edge : graph_.edges()) {
    snap.edges.push_back(ProfileSnapshot::Edge{
        edge.producer, edge.consumer, edge.bytes.count(),
        edge.unique_addresses});
  }
  snap.call_order = first_call_order_;
  return snap;
}

std::unique_ptr<QuadProfiler> QuadProfiler::from_snapshot(
    const ProfileSnapshot& snap) {
  auto profiler = std::make_unique<QuadProfiler>();
  for (const ProfileSnapshot::Function& fn : snap.functions) {
    const FunctionId id = profiler->declare(fn.name);
    FunctionProfile& record = profiler->graph_.function_mutable(id);
    record.work_units = fn.work_units;
    record.reads = fn.reads;
    record.writes = fn.writes;
    record.calls = fn.calls;
    profiler->restored_unique_read_.push_back(fn.unique_bytes_read);
    profiler->restored_unique_written_.push_back(fn.unique_bytes_written);
  }
  for (const ProfileSnapshot::Edge& edge : snap.edges) {
    require(edge.producer < profiler->graph_.function_count() &&
                edge.consumer < profiler->graph_.function_count(),
            "snapshot edge references undeclared function");
    profiler->graph_.add_transfer(edge.producer, edge.consumer,
                                  Bytes{edge.bytes}, edge.unique_addresses);
  }
  for (const FunctionId id : snap.call_order) {
    require(id < profiler->graph_.function_count(),
            "snapshot call order references undeclared function");
  }
  profiler->first_call_order_ = snap.call_order;
  // Flag restored *after* rebuild so the loop above could use declare().
  profiler->restored_ = true;
  return profiler;
}

std::uint64_t QuadProfiler::approx_memory_bytes() const {
  std::uint64_t total = sizeof(QuadProfiler);
  total += shadow_.page_count() *
           (ShadowMemory::kPageBytes * sizeof(FunctionId) + 64);
  constexpr std::uint64_t kBitmapPageBytes = PagedByteSet::kPageBytes / 8 + 64;
  for (const PagedByteSet& set : write_footprint_) {
    total += set.page_count() * kBitmapPageBytes;
  }
  for (const PagedByteSet& set : read_footprint_) {
    total += set.page_count() * kBitmapPageBytes;
  }
  for (const auto& [key, set] : uma_) {
    (void)key;
    total += set.page_count() * kBitmapPageBytes + 64;
  }
  for (FunctionId id = 0; id < graph_.function_count(); ++id) {
    total += graph_.function(id).name.size() + 128;
  }
  return total;
}

}  // namespace hybridic::prof

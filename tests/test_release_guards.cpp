// Error paths that must survive NDEBUG builds. These guards used to be
// assert()-only, which meant a Release build would erase end() iterators
// or return understated costs instead of failing; they are now real
// checks with typed exceptions, and this suite runs in both the Debug and
// the Release CI jobs (the latter with asserts compiled out).
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/dispatcher.hpp"
#include "core/event.hpp"
#include "core/policies/registry.hpp"
#include "core/pool.hpp"
#include "core/simulator.hpp"

namespace dvbp {
namespace {

TEST(ReleaseGuards, UsagePoolEraseUnknownItemThrows) {
  UsagePool pool;
  UsagePool::List list;
  pool.append(list, 0, 2.0);
  EXPECT_THROW(pool.erase(list, 1), std::logic_error);
  // The failed erase must leave the list intact.
  EXPECT_EQ(list.size, 1u);
  ASSERT_EQ(list.head, list.tail);
  EXPECT_EQ(pool[list.head].item, 0u);
}

TEST(ReleaseGuards, UsagePoolEraseTwiceThrows) {
  UsagePool pool;
  UsagePool::List list;
  pool.append(list, 0, 2.0);
  pool.append(list, 1, 3.0);
  EXPECT_DOUBLE_EQ(pool.erase(list, 0), 2.0);
  EXPECT_THROW(pool.erase(list, 0), std::logic_error);
  EXPECT_EQ(list.size, 1u);
}

TEST(ReleaseGuards, DispatcherDepartUnknownJobThrows) {
  PolicyPtr policy = make_policy("FirstFit");
  Dispatcher dispatcher(1, *policy);
  dispatcher.arrive(0.0, RVec{0.5}, 10.0);
  EXPECT_THROW(dispatcher.depart(1.0, 42), std::invalid_argument);
}

TEST(ReleaseGuards, DispatcherDepartTwiceThrows) {
  PolicyPtr policy = make_policy("FirstFit");
  Dispatcher dispatcher(1, *policy);
  const auto admission = dispatcher.arrive(0.0, RVec{0.5}, 10.0);
  dispatcher.depart(1.0, admission.job);
  EXPECT_THROW(dispatcher.depart(2.0, admission.job),
               std::invalid_argument);
}

TEST(ReleaseGuards, TruncatedEventStreamThrows) {
  // Dropping trailing departures leaves bins open when the stream drains;
  // silently accepting that would understate the packing's cost.
  Instance inst(1);
  inst.add(0.0, 4.0, RVec{0.6});
  inst.add(1.0, 5.0, RVec{0.6});
  std::vector<Event> events = build_event_stream(inst);
  ASSERT_EQ(events.size(), 4u);
  events.resize(2);  // both arrivals only
  PolicyPtr policy = make_policy("FirstFit");
  EXPECT_THROW(simulate_events(inst, events, *policy), std::logic_error);
}

TEST(ReleaseGuards, DepartureBeforeArrivalThrows) {
  Instance inst(1);
  inst.add(0.0, 4.0, RVec{0.6});
  std::vector<Event> events = build_event_stream(inst);
  std::swap(events[0], events[1]);  // departure first
  PolicyPtr policy = make_policy("FirstFit");
  EXPECT_THROW(simulate_events(inst, events, *policy), std::logic_error);
}

TEST(ReleaseGuards, DuplicateDepartureThrows) {
  Instance inst(1);
  inst.add(0.0, 4.0, RVec{0.6});
  inst.add(1.0, 5.0, RVec{0.2});
  std::vector<Event> events = build_event_stream(inst);
  // Duplicate item 0's departure; its bin already closed the first time.
  for (const Event& ev : build_event_stream(inst)) {
    if (ev.kind == EventKind::kDeparture && ev.item == 0) {
      events.push_back(ev);
    }
  }
  PolicyPtr policy = make_policy("FirstFit");
  EXPECT_THROW(simulate_events(inst, events, *policy), std::logic_error);
}

TEST(ReleaseGuards, EventBeyondInstanceThrows) {
  Instance inst(1);
  inst.add(0.0, 4.0, RVec{0.6});
  std::vector<Event> events = build_event_stream(inst);
  events.push_back(Event{5.0, EventKind::kArrival, 7});
  PolicyPtr policy = make_policy("FirstFit");
  EXPECT_THROW(simulate_events(inst, events, *policy),
               std::invalid_argument);
}

TEST(ReleaseGuards, OutOfOrderInstanceThrows) {
  // Item ids must be the arrival order: the placement engine numbers jobs
  // as they arrive, and the packing is reported by those numbers.
  Instance inst(1);
  inst.add(3.0, 6.0, RVec{0.6});
  inst.add(1.0, 5.0, RVec{0.6});
  PolicyPtr policy = make_policy("FirstFit");
  EXPECT_THROW(simulate(inst, *policy), std::invalid_argument);
  inst.sort_by_arrival();
  EXPECT_NO_THROW(simulate(inst, *policy));
}

TEST(ReleaseGuards, ArrivalsOutOfIdOrderThrow) {
  Instance inst(1);
  inst.add(0.0, 4.0, RVec{0.6});
  inst.add(0.0, 5.0, RVec{0.6});
  std::vector<Event> events = build_event_stream(inst);
  ASSERT_EQ(events[0].item, 0u);
  std::swap(events[0], events[1]);  // item 1 arrives first
  PolicyPtr policy = make_policy("FirstFit");
  EXPECT_THROW(simulate_events(inst, events, *policy), std::invalid_argument);
}

TEST(ReleaseGuards, TimeRegressingStreamThrows) {
  // Every event is consistent on its own, but the clock runs backwards
  // between item 0's arrival and item 1's.
  Instance inst(1);
  inst.add(2.0, 6.0, RVec{0.6});
  inst.add(1.0, 5.0, RVec{0.6});
  const std::vector<Event> events = {
      {2.0, EventKind::kArrival, 0},
      {1.0, EventKind::kArrival, 1},
      {5.0, EventKind::kDeparture, 1},
      {6.0, EventKind::kDeparture, 0},
  };
  PolicyPtr policy = make_policy("FirstFit");
  EXPECT_THROW(simulate_events(inst, events, *policy), std::invalid_argument);
}

TEST(ReleaseGuards, CompleteEventStreamMatchesSimulate) {
  Instance inst(2);
  inst.add(0.0, 4.0, RVec{0.6, 0.1});
  inst.add(1.0, 5.0, RVec{0.6, 0.2});
  inst.add(2.0, 3.0, RVec{0.3, 0.3});
  const auto events = build_event_stream(inst);
  PolicyPtr a = make_policy("FirstFit");
  PolicyPtr b = make_policy("FirstFit");
  const SimResult via_events = simulate_events(inst, events, *a);
  const SimResult direct = simulate(inst, *b);
  EXPECT_EQ(via_events.packing.assignment(), direct.packing.assignment());
  EXPECT_DOUBLE_EQ(via_events.cost, direct.cost);
}

}  // namespace
}  // namespace dvbp

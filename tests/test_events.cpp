// Event type registry (interning), typed Event attributes, EventTuple.
#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

#include "events/event.hpp"

namespace mk::ev {
namespace {

TEST(EventRegistry, InternIsIdempotent) {
  EventTypeId a = etype("TEST_EVENT_A");
  EXPECT_EQ(etype("TEST_EVENT_A"), a);
  EXPECT_NE(etype("TEST_EVENT_B"), a);
}

TEST(EventRegistry, LookupWithoutIntern) {
  etype("TEST_EVENT_C");
  EXPECT_NE(EventTypeRegistry::instance().lookup("TEST_EVENT_C"),
            kInvalidEventType);
  EXPECT_EQ(EventTypeRegistry::instance().lookup("NEVER_INTERNED_XYZ"),
            kInvalidEventType);
}

TEST(EventRegistry, NameRoundTrip) {
  EventTypeId id = etype("TEST_EVENT_NAMED");
  EXPECT_EQ(EventTypeRegistry::instance().name(id), "TEST_EVENT_NAMED");
  EXPECT_EQ(EventTypeRegistry::instance().name(999999), "?");
}

TEST(Event, TypeFromName) {
  Event e("TEST_EVENT_D");
  EXPECT_EQ(e.type(), etype("TEST_EVENT_D"));
  EXPECT_EQ(e.type_name(), "TEST_EVENT_D");
}

TEST(Event, TypedAttributesFallBackWhenAbsent) {
  Event e(etype("TEST_EVENT_E"));
  e.set_attr(IntAttr::dest, 42);
  e.set_attr(RealAttr::quality, 2.5);
  EXPECT_EQ(e.attr(IntAttr::dest), 42);
  EXPECT_DOUBLE_EQ(e.attr(RealAttr::quality), 2.5);
  EXPECT_EQ(e.attr(IntAttr::src, -1), -1);
  EXPECT_DOUBLE_EQ(e.attr(RealAttr::battery, 1.0), 1.0);
  // A value of 0 is present, not absent.
  e.set_attr(IntAttr::up, 0);
  EXPECT_EQ(e.attr(IntAttr::up, 1), 0);
}

// The key fixes the value type: a real-keyed attribute reads as a double.
static_assert(std::is_same_v<decltype(std::declval<const Event&>().attr(
                                 RealAttr::battery)),
                             double>);

TEST(Event, CopyIsIndependent) {
  Event a(etype("TEST_EVENT_F"));
  a.set_attr(IntAttr::neighbor, 1);
  Event b = a;
  b.set_attr(IntAttr::neighbor, 2);
  EXPECT_EQ(a.attr(IntAttr::neighbor), 1);
  EXPECT_EQ(b.attr(IntAttr::neighbor), 2);
}

TEST(EventTuple, MembershipQueries) {
  EventTuple t;
  t.required = EventTuple::ids({"A1", "B1"});
  t.provided = EventTuple::ids({"C1"});
  EXPECT_TRUE(t.requires_type(etype("A1")));
  EXPECT_FALSE(t.requires_type(etype("C1")));
  EXPECT_TRUE(t.provides(etype("C1")));
  EXPECT_FALSE(t.provides(etype("A1")));
}

}  // namespace
}  // namespace mk::ev

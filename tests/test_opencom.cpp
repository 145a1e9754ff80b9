// OpenCom component model: the interface meta-model, component frameworks
// with integrity rules, replace, nesting, and the architecture meta-model.
#include <gtest/gtest.h>

#include <utility>

#include "opencom/cf.hpp"
#include "opencom/component.hpp"

namespace mk::oc {
namespace {

struct IGreeter : Interface {
  virtual std::string greet() const = 0;
};

struct IBogus : Interface {
  virtual void bogus() = 0;
};

class Greeter : public Component, public IGreeter {
 public:
  explicit Greeter(std::string word = "hello", std::string name = "Greeter")
      : Component(std::move(name)), word_(std::move(word)) {}
  std::string greet() const override { return word_; }

 private:
  std::string word_;
};

// The interface meta-model is the type system: a component provides exactly
// the interfaces it derives from.
TEST(Component, InterfaceMetaModel) {
  Greeter g;
  Component* c = &g;
  EXPECT_EQ(c->name(), "Greeter");
  EXPECT_NE(dynamic_cast<IGreeter*>(c), nullptr);
  EXPECT_EQ(dynamic_cast<IBogus*>(c), nullptr);
}

TEST(Cf, ViewCountsMembersByTypeAndInterface) {
  Greeter g1, g2;
  Component plain("Plain");
  const Component* members[] = {&g1, &plain, &g2};
  CfView view(members);
  EXPECT_EQ(view.count<IGreeter>(), 2u);
  EXPECT_EQ(view.count<Greeter>(), 2u);
  EXPECT_EQ(view.count<IBogus>(), 0u);
  EXPECT_EQ(view.count<Component>(), 3u);
}

TEST(Cf, InsertRemoveMembers) {
  ComponentFramework cf("test.CF");
  ComponentId id = cf.insert(std::make_unique<Greeter>());
  EXPECT_EQ(cf.member_count(), 1u);
  EXPECT_NE(cf.member(id), nullptr);
  cf.remove(id);
  EXPECT_EQ(cf.member_count(), 0u);
  EXPECT_THROW(cf.remove(id), std::logic_error);
}

TEST(Cf, IntegrityRuleBlocksIllegalInsert) {
  ComponentFramework cf("test.CF");
  cf.add_integrity_rule([](const CfView& view, std::string& err) {
    if (view.count<Greeter>() > 1) {
      err = "only one greeter";
      return false;
    }
    return true;
  });
  cf.insert(std::make_unique<Greeter>());
  EXPECT_THROW(cf.insert(std::make_unique<Greeter>()), std::logic_error);
  EXPECT_EQ(cf.member_count(), 1u);  // rejected insert did not apply
}

TEST(Cf, IntegrityRuleBlocksIllegalRemove) {
  ComponentFramework cf("test.CF");
  cf.add_integrity_rule([](const CfView& view, std::string& err) {
    if (view.count<Greeter>() < 1) {
      err = "greeter is mandatory";
      return false;
    }
    return true;
  });
  ComponentId id = cf.insert(std::make_unique<Greeter>());
  EXPECT_THROW(cf.remove(id), std::logic_error);
  EXPECT_EQ(cf.member_count(), 1u);
}

TEST(Cf, ReplaceSwapsMemberUnlessARuleRejectsIt) {
  ComponentFramework cf("test.CF");
  cf.add_integrity_rule([](const CfView& view, std::string& err) {
    if (view.count<IGreeter>() != 1) {
      err = "exactly one greeter";
      return false;
    }
    return true;
  });
  ComponentId g = cf.insert(std::make_unique<Greeter>("old"));

  // A legal swap lands under a fresh id; the old member is gone.
  ComponentId g2 = cf.replace(g, std::make_unique<Greeter>("new"));
  EXPECT_NE(g2, g);
  EXPECT_EQ(cf.member(g), nullptr);
  ASSERT_NE(cf.member(g2), nullptr);
  EXPECT_EQ(dynamic_cast<IGreeter*>(cf.member(g2))->greet(), "new");

  // A swap the rule rejects throws and leaves the current member in place.
  EXPECT_THROW(
      cf.replace(g2, std::make_unique<Component>("NotAGreeter")),
      std::logic_error);
  EXPECT_EQ(cf.members(), std::vector<ComponentId>{g2});
  EXPECT_EQ(dynamic_cast<IGreeter*>(cf.member(g2))->greet(), "new");
  EXPECT_THROW(cf.replace(g, std::make_unique<Greeter>()), std::logic_error);
}

TEST(Cf, ExtractReturnsOwnershipForStateTransfer) {
  ComponentFramework cf("test.CF");
  ComponentId g = cf.insert(std::make_unique<Greeter>("kept"));
  auto extracted = cf.extract(g);
  ASSERT_NE(extracted, nullptr);
  EXPECT_EQ(cf.member_count(), 0u);
  EXPECT_EQ(dynamic_cast<Greeter*>(extracted.get())->greet(), "kept");
}

TEST(Cf, NestsAsComponents) {
  ComponentFramework outer("test.Outer");
  auto inner = std::make_unique<ComponentFramework>("test.Inner");
  inner->insert(std::make_unique<Greeter>());
  ComponentId inner_id = outer.insert(std::move(inner));
  auto* nested = dynamic_cast<ComponentFramework*>(outer.member(inner_id));
  ASSERT_NE(nested, nullptr);
  EXPECT_EQ(nested->member_count(), 1u);
}

TEST(Cf, FindByInstanceName) {
  ComponentFramework cf("test.CF");
  cf.insert(std::make_unique<Greeter>("hello", "TheGreeter"));
  EXPECT_NE(cf.find("TheGreeter"), nullptr);
  EXPECT_EQ(cf.find("Missing"), nullptr);
}

// provider<T>() caches its answer per composition: every insert, replace,
// extract and remove must move composition() and be seen by the next call.
TEST(Cf, ProviderFollowsEveryCompositionChange) {
  ComponentFramework cf("test.CF");
  std::uint64_t seen = cf.composition();
  auto moved = [&] {
    const std::uint64_t before = std::exchange(seen, cf.composition());
    return before != seen;
  };
  EXPECT_EQ(cf.provider<IGreeter>(), nullptr);
  cf.insert(std::make_unique<Component>("Plain"));
  EXPECT_TRUE(moved());
  EXPECT_EQ(cf.provider<IGreeter>(), nullptr) << "insert of a non-provider";
  ComponentId id = cf.insert(std::make_unique<Greeter>("hi"));
  EXPECT_TRUE(moved());
  ASSERT_NE(cf.provider<IGreeter>(), nullptr) << "insert";
  EXPECT_EQ(cf.provider<IGreeter>()->greet(), "hi");
  EXPECT_EQ(cf.provider<Greeter>(), cf.member(id)) << "by class too";
  id = cf.replace(id, std::make_unique<Greeter>("ho"));
  EXPECT_TRUE(moved());
  EXPECT_EQ(cf.provider<IGreeter>()->greet(), "ho") << "replace";
  auto taken = cf.extract(id);
  EXPECT_TRUE(moved());
  EXPECT_EQ(cf.provider<IGreeter>(), nullptr) << "extract";
  id = cf.insert(std::move(taken));
  EXPECT_EQ(cf.provider<IGreeter>()->greet(), "ho");
  cf.remove(id);
  EXPECT_TRUE(moved());
  EXPECT_EQ(cf.provider<IGreeter>(), nullptr) << "remove";
  EXPECT_NE(cf.provider<Component>(), nullptr);
  EXPECT_FALSE(moved()) << "lookups leave the composition alone";
}

TEST(Cf, QuiesceIsReentrant) {
  ComponentFramework cf("test.CF");
  auto lock1 = cf.quiesce();
  auto lock2 = cf.quiesce();  // recursive: no deadlock
  SUCCEED();
}

}  // namespace
}  // namespace mk::oc

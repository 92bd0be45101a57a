// The typed Session API (the Figure 3 programming model).
#include <gtest/gtest.h>

#include "colony/cluster.hpp"
#include "colony/session.hpp"
#include "crdt/maps.hpp"
#include "crdt/or_set.hpp"
#include "crdt/registers.hpp"

namespace colony {
namespace {

class SessionApiTest : public ::testing::Test {
 protected:
  SessionApiTest()
      : cluster(ClusterConfig{}),
        node(cluster.add_edge(ClientMode::kClientCache, 0, 1)),
        session(node) {}

  Cluster cluster;
  EdgeNode& node;
  Session session;
};

TEST_F(SessionApiTest, Fig3StyleProgram) {
  // Mirrors the paper's example: increment a counter, then update a gmap
  // holding a register ("a" := 42) and a set ("e" += {1,2,3,4}) atomically.
  auto t1 = session.begin();
  session.increment(t1, {"app", "myCounter"}, 3);
  ASSERT_TRUE(session.commit(std::move(t1)).ok());

  auto t2 = session.begin();
  session.map_assign(t2, {"app", "myMap"}, "a", "42");
  for (const auto* e : {"1", "2", "3", "4"}) {
    session.map_add_to_set(t2, {"app", "myMap"}, "e", e);
  }
  ASSERT_TRUE(session.commit(std::move(t2)).ok());
  cluster.run_for(2 * kSecond);

  auto t3 = session.begin();
  std::vector<std::string> set_content;
  session.read_object(t3, {"app", "myMap"}, CrdtType::kGMap,
                      [&](Result<std::shared_ptr<Crdt>> r, ReadSource) {
                        ASSERT_TRUE(r.ok());
                        const auto* map =
                            dynamic_cast<const GMap*>(r.value().get());
                        ASSERT_NE(map, nullptr);
                        EXPECT_EQ(map->field_as<LwwRegister>("a")->value(),
                                  "42");
                        set_content = map->field_as<OrSet>("e")->elements();
                      });
  cluster.run_for(1 * kSecond);
  EXPECT_EQ(set_content, (std::vector<std::string>{"1", "2", "3", "4"}));
}

TEST_F(SessionApiTest, RegisterAssignLww) {
  auto txn = session.begin();
  session.assign(txn, {"app", "reg"}, "v1");
  session.assign(txn, {"app", "reg"}, "v2");
  ASSERT_TRUE(session.commit(std::move(txn)).ok());
  std::string value;
  auto t2 = session.begin();
  session.read_register(t2, {"app", "reg"},
                        [&](Result<std::string> r, ReadSource) {
                          ASSERT_TRUE(r.ok());
                          value = r.value();
                        });
  EXPECT_EQ(value, "v2");
}

TEST_F(SessionApiTest, SetAddRemove) {
  const ObjectKey key{"app", "set"};
  auto t1 = session.begin();
  session.add_to_set(t1, key, "a");
  session.add_to_set(t1, key, "b");
  ASSERT_TRUE(session.commit(std::move(t1)).ok());

  auto t2 = session.begin();
  session.remove_from_set(t2, key, "a");
  ASSERT_TRUE(session.commit(std::move(t2)).ok());

  std::vector<std::string> elements;
  auto t3 = session.begin();
  session.read_set(t3, key, [&](Result<std::vector<std::string>> r,
                                ReadSource) {
    ASSERT_TRUE(r.ok());
    elements = r.value();
  });
  EXPECT_EQ(elements, (std::vector<std::string>{"b"}));
}

TEST_F(SessionApiTest, SequenceAppendWithinTransactionChains) {
  const ObjectKey key{"app", "log"};
  auto txn = session.begin();
  session.append(txn, key, "one");
  session.append(txn, key, "two");
  session.append(txn, key, "three");
  ASSERT_TRUE(session.commit(std::move(txn)).ok());

  std::vector<std::string> values;
  auto t2 = session.begin();
  session.read_sequence(t2, key, [&](Result<std::vector<std::string>> r,
                                     ReadSource) {
    ASSERT_TRUE(r.ok());
    values = r.value();
  });
  EXPECT_EQ(values, (std::vector<std::string>{"one", "two", "three"}));
}

TEST_F(SessionApiTest, ReadOnlyCommitHasNoEffect) {
  auto txn = session.begin();
  const auto result = session.commit(std::move(txn));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().valid());  // no dot assigned
  EXPECT_EQ(node.unacked_count(), 0u);
}

TEST_F(SessionApiTest, CloudOnlyRejectsLocalCommit) {
  EdgeNode& cloud_node = cluster.add_edge(ClientMode::kCloudOnly, 0, 2);
  Session cloud_session(cloud_node);
  auto txn = cloud_session.begin();
  cloud_session.increment(txn, {"app", "c"}, 1);
  const auto result = cloud_session.commit(std::move(txn));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, Error::Code::kInvalidArgument);
}

TEST_F(SessionApiTest, GrantViaSession) {
  auto txn = session.begin();
  session.grant(txn, {"app", 7, security::Permission::kRead});
  ASSERT_TRUE(session.commit(std::move(txn)).ok());
  cluster.run_for(2 * kSecond);
  const auto* acl = cluster.dc(0).acl();
  ASSERT_NE(acl, nullptr);
  EXPECT_TRUE(acl->check("app", 7, security::Permission::kRead));
}

// An assignment is causally after the value it overwrites, so it must also
// win arbitration (TCC+: arbitration extends causality), even when the
// overwritten value was written by a node whose clock runs ahead.
class SkewedAssignTest : public ::testing::Test {
 protected:
  SkewedAssignTest()
      : cluster(ClusterConfig{}),
        ahead(cluster.add_edge(ClientMode::kClientCache, 0, 1)),
        behind(cluster.add_edge(ClientMode::kClientCache, 0, 2)),
        ahead_session(ahead),
        behind_session(behind) {
    cluster.network().set_clock_skew(ahead.id(), 10 * kSecond);
  }

  /// The register `key` as `session` reads it, or the field `field` of the
  /// map `key` when `field` is set.
  std::string read(Session& session, const ObjectKey& key,
                   const std::string& field = "") {
    auto txn = session.begin();
    std::string value = "<unread>";
    if (field.empty()) {
      session.read_register(txn, key, [&](Result<std::string> r, ReadSource) {
        ASSERT_TRUE(r.ok());
        value = r.value();
      });
    } else {
      session.read_object(
          txn, key, CrdtType::kGMap,
          [&](Result<std::shared_ptr<Crdt>> r, ReadSource) {
            ASSERT_TRUE(r.ok());
            const auto* map = dynamic_cast<const GMap*>(r.value().get());
            ASSERT_NE(map, nullptr);
            const auto* reg = map->field_as<LwwRegister>(field);
            value = reg != nullptr ? reg->value() : "<absent>";
          });
    }
    cluster.run_for(1 * kSecond);
    return value;
  }

  Cluster cluster;
  EdgeNode& ahead;
  EdgeNode& behind;
  Session ahead_session;
  Session behind_session;
};

TEST_F(SkewedAssignTest, RegisterAssignWinsOverTheValueItOverwrites) {
  const ObjectKey key{"app", "reg"};
  ASSERT_EQ(read(ahead_session, key), "");  // caches it at the writer
  auto t1 = ahead_session.begin();
  ahead_session.assign(t1, key, "from-a");
  ASSERT_TRUE(ahead_session.commit(std::move(t1)).ok());
  cluster.run_for(2 * kSecond);
  ASSERT_EQ(read(behind_session, key), "from-a");

  auto t2 = behind_session.begin();
  behind_session.assign(t2, key, "from-b");
  ASSERT_TRUE(behind_session.commit(std::move(t2)).ok());
  cluster.run_for(2 * kSecond);
  EXPECT_EQ(read(behind_session, key), "from-b");  // read-my-writes
  EXPECT_EQ(read(ahead_session, key), "from-b");
}

TEST_F(SkewedAssignTest, MapFieldAssignWinsOverTheValueItOverwrites) {
  const ObjectKey key{"app", "profile"};
  ASSERT_EQ(read(ahead_session, key, "name"), "<absent>");
  auto t1 = ahead_session.begin();
  ahead_session.map_assign(t1, key, "name", "from-a");
  ASSERT_TRUE(ahead_session.commit(std::move(t1)).ok());
  cluster.run_for(2 * kSecond);
  ASSERT_EQ(read(behind_session, key, "name"), "from-a");

  auto t2 = behind_session.begin();
  behind_session.map_assign(t2, key, "name", "from-b");
  ASSERT_TRUE(behind_session.commit(std::move(t2)).ok());
  cluster.run_for(2 * kSecond);
  EXPECT_EQ(read(behind_session, key, "name"), "from-b");
  EXPECT_EQ(read(ahead_session, key, "name"), "from-b");
}

}  // namespace
}  // namespace colony

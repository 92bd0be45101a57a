// The CRDT op and snapshot layouts, byte for byte. Op payloads ride inside
// every transaction and snapshots seed caches, base versions and
// checkpoints, so a change to any of them (field order, widths, prefixes,
// op kind values) must be deliberate. Expected bytes are spelled out field
// by field with the little-endian helpers below, which do not use the
// codec under test.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <string>

#include "crdt/counter.hpp"
#include "crdt/maps.hpp"
#include "crdt/or_set.hpp"
#include "crdt/registers.hpp"
#include "crdt/rga.hpp"
#include "security/acl.hpp"
#include "security/crypto_sim.hpp"
#include "security/sealed.hpp"

namespace colony {
namespace {

using security::AclObject;
using security::AclTuple;
using security::Permission;
using security::SealedObject;
using security::SealedPayload;

Bytes le(std::uint64_t v, int width) {
  Bytes out;
  for (int i = 0; i < width; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  return out;
}
Bytes u8(std::uint64_t v) { return le(v, 1); }
Bytes u32(std::uint64_t v) { return le(v, 4); }
Bytes u64(std::uint64_t v) { return le(v, 8); }
Bytes i64(std::int64_t v) { return le(static_cast<std::uint64_t>(v), 8); }

Bytes cat(std::initializer_list<Bytes> parts) {
  Bytes out;
  for (const Bytes& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}
/// u32 length prefix, then the raw bytes.
Bytes blob(const Bytes& b) { return cat({u32(b.size()), b}); }
Bytes str(const std::string& s) { return blob(Bytes(s.begin(), s.end())); }
Bytes dot(std::uint64_t origin, std::uint64_t counter) {
  return cat({u64(origin), u64(counter)});
}
Bytes arb(std::uint64_t ts, std::uint64_t origin, std::uint64_t counter) {
  return cat({u64(ts), dot(origin, counter)});
}

/// `built` snapshots to `expected`; restoring `expected` into a fresh
/// object and cloning both snapshot back to it.
template <typename T>
void expect_snapshot(const T& built, const Bytes& expected) {
  EXPECT_EQ(built.snapshot(), expected);
  T restored;
  restored.restore(expected);
  EXPECT_EQ(restored.snapshot(), expected);
  EXPECT_EQ(restored.clone()->snapshot(), expected);
  EXPECT_EQ(restored.clone()->type(), built.type());
}

TEST(WireRoundTrip, CrdtGoldenBytes) {
  // --- counters ------------------------------------------------------------
  const Bytes inc = i64(5);
  EXPECT_EQ(GCounter::prepare_increment(5), inc);
  GCounter g;
  g.apply(inc);
  expect_snapshot(g, i64(5));

  const Bytes add = i64(7);
  const Bytes sub = i64(-3);
  EXPECT_EQ(PnCounter::prepare_add(7), add);
  EXPECT_EQ(PnCounter::prepare_add(-3), sub);
  PnCounter pn;
  pn.apply(add);
  pn.apply(sub);
  expect_snapshot(pn, cat({i64(7), i64(3)}));
  EXPECT_EQ(pn.value(), 4);

  // --- registers -----------------------------------------------------------
  const Bytes lww = cat({str("v"), arb(5, 1, 2)});
  EXPECT_EQ(LwwRegister::prepare_assign("v", Arb{5, Dot{1, 2}}), lww);
  LwwRegister reg;
  reg.apply(lww);
  expect_snapshot(reg, cat({str("v"), arb(5, 1, 2)}));

  MvRegister mv;
  const Bytes mv_first = cat({str("a"), dot(1, 1), u32(0)});
  EXPECT_EQ(mv.prepare_assign("a", Dot{1, 1}), mv_first);
  mv.apply(mv_first);
  // Supersedes (1,1); a concurrent (2,5) survives it.
  const Bytes mv_second = cat({str("b"), dot(1, 2), u32(1), dot(1, 1)});
  EXPECT_EQ(mv.prepare_assign("b", Dot{1, 2}), mv_second);
  mv.apply(cat({str("c"), dot(2, 5), u32(0)}));
  mv.apply(mv_second);
  expect_snapshot(mv, cat({u32(2), dot(1, 2), str("b"), dot(2, 5), str("c")}));

  // --- sets ----------------------------------------------------------------
  EXPECT_EQ(GSet::prepare_add("b"), str("b"));
  GSet gs;
  gs.apply(str("b"));
  gs.apply(str("a"));
  expect_snapshot(gs, cat({u32(2), str("a"), str("b")}));

  const Bytes or_add = cat({u8(1), str("x"), dot(1, 1)});
  EXPECT_EQ(OrSet::prepare_add("x", Dot{1, 1}), or_add);
  OrSet os;
  os.apply(or_add);
  os.apply(cat({u8(1), str("x"), dot(2, 1)}));
  os.apply(cat({u8(1), str("y"), dot(1, 2)}));
  os.apply(cat({u8(1), str("z"), dot(1, 3)}));
  const Bytes or_remove = cat({u8(2), str("z"), u32(1), dot(1, 3)});
  EXPECT_EQ(os.prepare_remove("z"), or_remove);
  EXPECT_EQ(os.prepare_remove("absent"), cat({u8(2), str("absent"), u32(0)}));
  os.apply(or_remove);
  expect_snapshot(os, cat({u32(2),                                   //
                           str("x"), u32(2), dot(1, 1), dot(2, 1),  //
                           str("y"), u32(1), dot(1, 2)}));

  // --- maps (nested value: type tag, then the length-prefixed snapshot) ----
  const Bytes gmap_update =
      cat({str("c"), u8(2), blob(PnCounter::prepare_add(-2))});
  EXPECT_EQ(GMap::prepare_update("c", CrdtType::kPnCounter,
                                 PnCounter::prepare_add(-2)),
            gmap_update);
  GMap gm;
  gm.apply(gmap_update);
  gm.apply(cat({str("r"), u8(3), blob(lww)}));
  expect_snapshot(gm, cat({u32(2),                                     //
                           str("c"), u8(2), blob(cat({i64(0), i64(2)})),  //
                           str("r"), u8(3), blob(lww)}));
  EXPECT_EQ(gm.field_as<PnCounter>("c")->value(), -2);

  const Bytes aw_update =
      cat({u8(1), str("a"), u8(1), blob(i64(3)), dot(4, 4)});
  EXPECT_EQ(AwMap::prepare_update("a", CrdtType::kGCounter,
                                  GCounter::prepare_increment(3), Dot{4, 4}),
            aw_update);
  AwMap aw;
  aw.apply(aw_update);
  aw.apply(cat({u8(1), str("b"), u8(5), blob(str("e")), dot(4, 5)}));
  const Bytes aw_remove = cat({u8(2), str("b"), u32(1), dot(4, 5)});
  EXPECT_EQ(aw.prepare_remove("b"), aw_remove);
  aw.apply(aw_remove);
  // "b" keeps its nested value with no presence tags.
  expect_snapshot(aw, cat({u32(2),                                          //
                           str("a"), u8(1), blob(i64(3)), u32(1), dot(4, 4),  //
                           str("b"), u8(5), blob(cat({u32(1), str("e")})),
                           u32(0)}));
  EXPECT_EQ(aw.fields(), std::vector<std::string>{"a"});

  // --- RGA -----------------------------------------------------------------
  const Bytes rga_insert = cat({u8(1), dot(0, 0), str("A"), arb(1, 1, 1)});
  EXPECT_EQ(Rga::prepare_insert(Dot{}, "A", Arb{1, Dot{1, 1}}), rga_insert);
  const Bytes rga_remove = cat({u8(2), dot(1, 2)});
  EXPECT_EQ(Rga::prepare_remove(Dot{1, 2}), rga_remove);
  Rga rga;
  rga.apply(rga_insert);
  rga.apply(cat({u8(1), dot(1, 1), str("B"), arb(2, 1, 2)}));
  rga.apply(cat({u8(1), dot(0, 0), str("C"), arb(3, 2, 1)}));
  rga.apply(rga_remove);  // B becomes a tombstone
  // An insert after, and a remove of, elements never seen here.
  rga.apply(cat({u8(1), dot(9, 9), str("D"), arb(4, 3, 1)}));
  rga.apply(cat({u8(2), dot(8, 8)}));
  EXPECT_EQ(rga.values(), (std::vector<std::string>{"C", "A"}));
  EXPECT_EQ(rga.orphan_count(), 2u);
  // Edges (parent, child, value, arb, tombstone) with every parent before
  // its children; then orphan inserts (parent, id, value, arb); then
  // orphan removes.
  expect_snapshot(rga,
                  cat({u32(3),                                              //
                       dot(0, 0), dot(2, 1), str("C"), arb(3, 2, 1), u8(0),  //
                       dot(0, 0), dot(1, 1), str("A"), arb(1, 1, 1), u8(0),  //
                       dot(1, 1), dot(1, 2), str("B"), arb(2, 1, 2), u8(1),  //
                       u32(1), dot(9, 9), dot(3, 1), str("D"), arb(4, 3, 1),
                       u32(1), dot(8, 8)}));

  // --- ACL -----------------------------------------------------------------
  const Bytes tuple = cat({str("doc"), u64(5), u8(2)});
  const Bytes grant = cat({u8(1), tuple, dot(1, 1)});
  EXPECT_EQ(AclObject::prepare_grant({"doc", 5, Permission::kWrite},
                                     Dot{1, 1}),
            grant);
  const Bytes user_parent = cat({u8(3), u64(5), u64(7), arb(2, 1, 2)});
  EXPECT_EQ(AclObject::prepare_set_user_parent(5, 7, Arb{2, Dot{1, 2}}),
            user_parent);
  const Bytes object_parent =
      cat({u8(4), str("doc"), str("bin"), arb(3, 1, 3)});
  EXPECT_EQ(AclObject::prepare_set_object_parent("doc", "bin",
                                                 Arb{3, Dot{1, 3}}),
            object_parent);
  AclObject acl;
  acl.apply(grant);
  acl.apply(cat({u8(1), str("bin"), u64(7), u8(3), dot(1, 4)}));
  acl.apply(user_parent);
  acl.apply(object_parent);
  const Bytes revoke = cat({u8(2), str("bin"), u64(7), u8(3), u32(1),
                            dot(1, 4)});
  EXPECT_EQ(acl.prepare_revoke({"bin", 7, Permission::kOwn}), revoke);
  acl.apply(revoke);
  expect_snapshot(acl, cat({u32(1), tuple, u32(1), dot(1, 1),       //
                            u32(1), u64(5), u64(7), arb(2, 1, 2),  //
                            u32(1), str("doc"), str("bin"), arb(3, 1, 3)}));
  EXPECT_TRUE(acl.check("doc", 5, Permission::kRead));

  // --- sealed --------------------------------------------------------------
  const Bytes append =
      cat({str("bk"), u64(11), blob({0xAA, 0xBB}), u64(0x1234)});
  EXPECT_EQ(SealedObject::prepare_append(
                SealedPayload{"bk", 11, {0xAA, 0xBB}, 0x1234}),
            append);
  SealedObject sealed;
  sealed.apply(append);
  sealed.apply(cat({str("bk"), u64(4), blob({0x01}), u64(9)}));
  expect_snapshot(sealed, cat({u32(2),                                   //
                               str("bk"), u64(4), blob({0x01}), u64(9),  //
                               append}));
  // The plaintext envelope inside a sealed op: inner type, inner op.
  SealedObject envelope;
  envelope.apply(security::seal_op(ObjectKey{"bk", "n"}, 77, 3,
                                   CrdtType::kPnCounter, add)
                     .payload);
  EXPECT_EQ(security::open(envelope.entries().at(0), 77),
            cat({u8(2), blob(add)}));
}

}  // namespace
}  // namespace colony

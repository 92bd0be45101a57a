#include "crdt/crdt.hpp"

#include <map>

#include "crdt/counter.hpp"
#include "crdt/maps.hpp"
#include "crdt/or_set.hpp"
#include "crdt/registers.hpp"
#include "crdt/rga.hpp"
#include "util/assert.hpp"

namespace colony {

const char* to_string(CrdtType t) {
  switch (t) {
    case CrdtType::kGCounter: return "gcounter";
    case CrdtType::kPnCounter: return "pncounter";
    case CrdtType::kLwwRegister: return "lww-register";
    case CrdtType::kMvRegister: return "mv-register";
    case CrdtType::kGSet: return "gset";
    case CrdtType::kOrSet: return "orset";
    case CrdtType::kGMap: return "gmap";
    case CrdtType::kAwMap: return "awmap";
    case CrdtType::kRga: return "rga";
    case CrdtType::kAcl: return "acl";
    case CrdtType::kSealed: return "sealed";
  }
  return "unknown";
}

namespace {
// The only shared mutable state in the CRDT layer: written when nodes
// register their extension types at construction, read by make_crdt.
std::map<CrdtType, std::unique_ptr<Crdt> (*)()>& extension_factories() {
  static std::map<CrdtType, std::unique_ptr<Crdt> (*)()> factories;
  return factories;
}
}  // namespace

void register_crdt_factory(CrdtType type,
                           std::unique_ptr<Crdt> (*factory)()) {
  extension_factories()[type] = factory;
}

std::unique_ptr<Crdt> make_crdt(CrdtType type) {
  switch (type) {
    case CrdtType::kGCounter: return std::make_unique<GCounter>();
    case CrdtType::kPnCounter: return std::make_unique<PnCounter>();
    case CrdtType::kLwwRegister: return std::make_unique<LwwRegister>();
    case CrdtType::kMvRegister: return std::make_unique<MvRegister>();
    case CrdtType::kGSet: return std::make_unique<GSet>();
    case CrdtType::kOrSet: return std::make_unique<OrSet>();
    case CrdtType::kGMap: return std::make_unique<GMap>();
    case CrdtType::kAwMap: return std::make_unique<AwMap>();
    case CrdtType::kRga: return std::make_unique<Rga>();
    default: break;
  }
  const auto& factories = extension_factories();
  const auto it = factories.find(type);
  COLONY_ASSERT(it != factories.end(), "unknown CRDT type tag");
  return it->second();
}

}  // namespace colony

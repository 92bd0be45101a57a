#include "core/txn.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/codec.hpp"

namespace colony {

VersionVector TxnMeta::commit_vector_via(DcId dc) const {
  COLONY_ASSERT(accepted_by(dc), "no commit timestamp for this DC");
  VersionVector v = snapshot;
  v.set(dc, commit.at(dc));
  return v;
}

VersionVector TxnMeta::commit_lub() const {
  VersionVector v = snapshot;
  for_each_accepted([&](DcId dc) { v.set(dc, commit.at(dc)); });
  return v;
}

bool TxnStore::add(Transaction txn) {
  auto it = txns_.find(txn.meta.dot);
  if (it != txns_.end()) {
    // Duplicate delivery: merge commit knowledge, keep existing ops.
    TxnMeta& existing = it->second.meta;
    txn.meta.for_each_accepted([&](DcId dc) {
      if (!existing.accepted_by(dc)) {
        existing.mark_accepted(dc, txn.meta.commit.at(dc));
      }
    });
    // A concrete copy also carries the DC-resolved snapshot; adopt it so
    // pending deps disappear.
    if (txn.meta.concrete && !existing.pending_deps.empty() &&
        txn.meta.pending_deps.empty()) {
      existing.snapshot = txn.meta.snapshot;
      existing.pending_deps.clear();
    }
    return false;
  }
  txns_.emplace(txn.meta.dot, std::move(txn));
  return true;
}

const Transaction* TxnStore::find(const Dot& dot) const {
  const auto it = txns_.find(dot);
  return it == txns_.end() ? nullptr : &it->second;
}

Transaction* TxnStore::find_mutable(const Dot& dot) {
  const auto it = txns_.find(dot);
  return it == txns_.end() ? nullptr : &it->second;
}

void TxnStore::resolve(const Dot& dot, DcId dc, Timestamp ts) {
  Transaction* txn = find_mutable(dot);
  COLONY_ASSERT(txn != nullptr, "resolving unknown transaction");
  txn->meta.mark_accepted(dc, ts);
}

bool TxnStore::effective_snapshot(const Dot& dot, VersionVector& out) const {
  const Transaction* txn = find(dot);
  if (txn == nullptr) return false;
  out = txn->meta.snapshot;
  for (const Dot& dep : txn->meta.pending_deps) {
    const Transaction* d = find(dep);
    if (d == nullptr || !d->meta.concrete) return false;
    out.merge(d->meta.commit_lub());
  }
  return true;
}

bool TxnStore::visible_at(const Dot& dot, const VersionVector& cut) const {
  const Transaction* txn = find(dot);
  if (txn == nullptr || !txn->meta.concrete) return false;
  const TxnMeta& m = txn->meta;
  bool visible = false;
  m.for_each_accepted([&](DcId dc) {
    if (visible || m.commit.at(dc) > cut.at(dc)) return;
    // Snapshot components other than dc must also be within the cut.
    const DcId width = static_cast<DcId>(std::max(cut.size(),
                                                  m.snapshot.size()));
    for (DcId c = 0; c < width; ++c) {
      if (c == dc) continue;
      if (m.snapshot.at(c) > cut.at(c)) return;
    }
    visible = true;
  });
  return visible;
}

void TxnStore::encode(Encoder& enc) const {
  // checkpoint() is non-const so decode can read into it; writing does not
  // mutate.
  codec::write(enc, const_cast<TxnStore*>(this)->checkpoint());
}

void TxnStore::decode(Decoder& dec) {
  auto fields = checkpoint();
  codec::read_into(dec, fields);
}

}  // namespace colony

// Name interning with a lock-free read path.
//
// Wrappers intern their display name once (static local) but *read* names
// on hot paths: repeated intern_name of an existing name (PreparedKey
// setup races, dynamically named regions) and name_of during reporting and
// KTT resolution.  Reads therefore go through an immutable Snapshot
// published behind an atomic pointer; only genuinely-new names take the
// writer mutex and publish a fresh snapshot.
//
// The string storage is an append-only deque (stable addresses), and both
// the registry and retired snapshots are immortal — wrappers may still run
// during process teardown, after static destructors.
#include <atomic>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ipm/key.hpp"

namespace ipm {

namespace {

struct Snapshot {
  // id -> string (pointers into Registry::storage, stable forever).
  std::vector<const std::string*> names;
  // view into *names[id] -> id
  std::unordered_map<std::string_view, NameId> ids;
  const Snapshot* retired_next = nullptr;  // keeps old snapshots reachable
};

struct Registry {
  std::mutex write_mu;
  std::deque<std::string> storage;
  std::atomic<const Snapshot*> current;

  Registry() { current.store(new Snapshot(), std::memory_order_release); }
};

Registry& registry() {
  static Registry* r = new Registry();  // immortal: wrappers may run at exit
  return *r;
}

}  // namespace

NameId intern_name(const std::string& name) {
  Registry& r = registry();
  {
    const Snapshot* snap = r.current.load(std::memory_order_acquire);
    const auto it = snap->ids.find(std::string_view(name));
    if (it != snap->ids.end()) return it->second;
  }
  std::scoped_lock lk(r.write_mu);
  // Re-check under the lock: another writer may have published it.
  const Snapshot* old = r.current.load(std::memory_order_acquire);
  const auto it = old->ids.find(std::string_view(name));
  if (it != old->ids.end()) return it->second;

  r.storage.push_back(name);
  const std::string& stored = r.storage.back();
  const NameId id = static_cast<NameId>(old->names.size());

  auto* next = new Snapshot(*old);
  next->names.push_back(&stored);
  next->ids.emplace(std::string_view(stored), id);
  next->retired_next = old;  // immortal chain: readers may still hold `old`
  r.current.store(next, std::memory_order_release);
  return id;
}

const std::string& name_of(NameId id) {
  const Snapshot* snap = registry().current.load(std::memory_order_acquire);
  if (id >= snap->names.size()) throw std::out_of_range("ipm::name_of: unknown NameId");
  return *snap->names[id];
}

}  // namespace ipm

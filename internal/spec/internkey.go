package spec

import "github.com/mutiny-sim/mutiny/internal/cow"

// Storage-key interning.
//
// Key is on the floor of every request the apiserver serves: get and apply
// build the "/registry/<kind>/<ns>/<name>" key for each read and each write,
// and before interning every call allocated a fresh concatenation — the
// single largest remaining allocation site on the campaign hot path. The
// key space is tiny and endlessly recurring (a campaign names a few hundred
// objects, then touches them millions of times), so a process-wide table
// (see the cow package) resolves a (kind, namespace, name) triple to one
// canonical string. The table is keyed by the triple itself — the runtime
// hashes and compares three strings without assembling the key — so a hit
// allocates nothing, and an unexpected explosion of distinct keys degrades to
// the old allocate-per-call behavior once a shard fills.

// maxKeyShardEntries bounds retained keys at 64×1024; a campaign uses a few
// hundred distinct keys.
const maxKeyShardEntries = 1024

type keyID struct {
	kind            Kind
	namespace, name string
}

var keyTable cow.Sharded[keyID, string]

// internKey resolves the triple to its canonical key string, allocating only
// on the first sighting (or when the shard is full).
func internKey(kind Kind, namespace, name string) string {
	id := keyID{kind, namespace, name}
	s := keyTable.Shard(cow.Hash(name))
	if k, ok := s.Read()[id]; ok {
		return k
	}
	return s.Insert(id, "/registry/"+string(kind)+"/"+namespace+"/"+name, maxKeyShardEntries)
}

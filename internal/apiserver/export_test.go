package apiserver

import (
	"sort"

	"github.com/mutiny-sim/mutiny/internal/spec"
)

// DecodeCacheKeys returns the keys the decode cache holds entries for, sorted.
func (s *Server) DecodeCacheKeys() []string {
	keys := make([]string, 0, len(s.decoded.entries))
	for key := range s.decoded.entries {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}

// PrimedEncoding returns what a status update to key would splice onto: the
// decode-cache entry's sealed object, the array the server's store replica
// holds under key, and where the entry says that array's status record
// starts. ok is false unless the entry is valid for that very array at its
// revision and records an offset — the write path produced the array.
func (s *Server) PrimedEncoding(key string) (obj spec.Object, array []byte, statusOff int, ok bool) {
	e, cached := s.decoded.entries[key]
	kv, stored, err := s.store.GetFrom(s.origin, key)
	if !cached || !stored || err != nil || e.statusOff < 0 ||
		arrayOf(kv.Value) != e.src || e.obj.Meta().ResourceVersion != kv.Revision {
		return nil, nil, 0, false
	}
	return e.obj, kv.Value, e.statusOff, true
}

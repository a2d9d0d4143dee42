package apiserver

import (
	"sort"

	"github.com/mutiny-sim/mutiny/internal/codec"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// DecodeCacheKeys returns the keys the decode cache holds entries for, sorted.
func (s *Server) DecodeCacheKeys() []string {
	keys := make([]string, 0, len(s.decoded))
	for key := range s.decoded {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}

// PrimedEncoding returns what a status update to key would splice onto: the
// decode-cache entry's sealed object, the array the server's store replica
// holds under key, and where a scan of that array (codec.StatusOffset, as
// spliceStatus does it) finds its status record, -1 if the scan fails. ok is
// false unless the entry is valid for that very array at its revision and is
// written — the write path produced the array.
func (s *Server) PrimedEncoding(key string) (obj spec.Object, array []byte, off int, ok bool) {
	e, cached := s.decoded[key]
	kv, stored, err := s.store.GetFrom(s.origin, key)
	if !cached || !stored || err != nil || !e.written ||
		arrayOf(kv.Value) != e.src || e.obj.Meta().ResourceVersion != kv.Revision {
		return nil, nil, 0, false
	}
	off, scanned := codec.StatusOffset(kv.Value)
	if !scanned {
		off = -1
	}
	return e.obj, kv.Value, off, true
}

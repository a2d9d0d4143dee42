package codec

import "github.com/mutiny-sim/mutiny/internal/cow"

// Decode-side string interning.
//
// The wire traffic of a campaign is massively repetitive: every pod carries
// the same kind names, namespaces, node names, label keys and values, image
// strings, and command words, and the watch-cache path re-decodes them on
// every store event. Without interning each decode allocates a fresh copy of
// every string; with it, repeated strings resolve to one canonical instance,
// which both removes the allocation and deduplicates the retained heap
// (decoded objects are long-lived in the watch cache and in snapshots).
//
// The table is process-wide and shared by every campaign worker (see the cow
// package for the algorithm). Strings longer than maxInternLen pass through
// unpublished — they are unlikely to repeat: serialized payload blobs,
// corrupted values — and so does anything hashing to a full shard.

const (
	// maxInternLen bounds interned string length; hot identifiers (names,
	// namespaces, labels, images, IPs) are all far below it.
	maxInternLen = 64
	// maxShardEntries bounds one shard of the table.
	maxShardEntries = 4096
)

var internTable cow.Sharded[string, string]

// Intern returns a string equal to b, reusing a canonical instance when the
// same bytes were seen before. A hit allocates nothing (the compiler elides
// the []byte→string conversion for map lookups).
func Intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > maxInternLen {
		return string(b)
	}
	s := internTable.Shard(cow.Hash(b))
	if v, ok := s.Read()[string(b)]; ok {
		return v
	}
	str := string(b)
	return s.Insert(str, str, maxShardEntries)
}

package apiserver

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"github.com/mutiny-sim/mutiny/internal/codec"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// ChecksumAnnotation carries the redundancy code over an object's critical
// fields (§VI-B mitigation). The server stamps it as the last step before a
// transaction leaves for the store, so any later single-bit corruption of a
// dependency, identity, or networking field — in flight or at rest — makes
// the stored object fail verification and be deleted like an undecodable
// one, letting the level-triggered controllers rebuild it from its owner.
const ChecksumAnnotation = "mutiny.io/critical-checksum"

// stampChecksum computes and attaches the critical-field checksum. The
// annotations map is replaced, not mutated in place: status clones alias
// their sealed source's (possibly interned, shared) map, and scribbling on
// that would corrupt every object sharing it.
func stampChecksum(obj spec.Object) {
	sum := criticalChecksum(obj)
	meta := obj.Meta()
	ann := make(map[string]string, len(meta.Annotations)+1)
	for k, v := range meta.Annotations {
		ann[k] = v
	}
	ann[ChecksumAnnotation] = sum
	meta.Annotations = ann
}

// verifyChecksum reports whether the object's critical fields still match
// its stamped checksum. Objects without a stamp (created before the option
// was enabled, or built by tests) pass.
func verifyChecksum(obj spec.Object) bool {
	stamped, ok := obj.Meta().Annotations[ChecksumAnnotation]
	if !ok {
		return true
	}
	return stamped == criticalChecksum(obj)
}

// criticalChecksum hashes the (path, value) pairs of every critical field in
// deterministic order. The checksum annotation itself is skipped explicitly:
// spec.CriticalFieldPath does not count its path critical today, but a stamp
// must never hash itself, whatever the classifier comes to match.
func criticalChecksum(obj spec.Object) string {
	type entry struct{ path, value string }
	var entries []entry
	for _, f := range codec.Fields(obj) {
		if !spec.CriticalFieldPath(f.Path) {
			continue
		}
		if strings.Contains(f.Path, ChecksumAnnotation) {
			continue
		}
		val, err := codec.Get(obj, f.Path)
		if err != nil {
			continue
		}
		entries = append(entries, entry{path: f.Path, value: fmt.Sprint(val)})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].path < entries[j].path })
	h := fnv.New64a()
	for _, e := range entries {
		_, _ = h.Write([]byte(e.path))
		_, _ = h.Write([]byte{0})
		_, _ = h.Write([]byte(e.value))
		_, _ = h.Write([]byte{1})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

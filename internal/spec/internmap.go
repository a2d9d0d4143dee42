package spec

import (
	"unsafe"

	"github.com/mutiny-sim/mutiny/internal/cow"
)

// Label-map interning.
//
// Nearly every object in a campaign carries one of a handful of tiny label
// sets: {app: web}, {app: web, pod-template-hash: h}, {node-role: worker},
// the DaemonSet selectors, and so on. Before interning, every decode and
// every deep clone allocated a private copy of these maps, and the retained
// heap (watch caches, decode caches, snapshots across all workers) held
// thousands of identical two-entry maps. Interning resolves an equal map to
// one canonical instance at Seal time — the moment the object becomes
// immutable, so sharing the map is exactly as safe as sharing the object.
//
// The table is process-wide and shared by every campaign worker (see the cow
// package for the algorithm). Re-sealing an object that already carries
// canonical maps — the status-update hot path re-seals a shallow clone per
// write — never gets here: Seal skips interning for status clones.
//
// Only sealed objects ever alias a canonical map. CloneForWrite hands out
// deep copies (cloneStringMap), so the mutable-clone contract is unchanged:
// writers own their maps and may mutate them freely.

const (
	// maxInternMapEntries bounds interned map size; the label/selector sets
	// the resource model uses have 1–3 entries.
	maxInternMapEntries = 4
	// maxInternMapKVLen bounds interned key/value length (mirrors the codec
	// table's maxInternLen; longer values — e.g. ConfigMap payloads — are
	// unlikely to repeat).
	maxInternMapKVLen = 64
	// maxMapShardEntries bounds one shard of the table.
	maxMapShardEntries = 1024
)

// mapTable maps the serialized sorted entries of a map to its canonical
// instance.
var mapTable cow.Sharded[string, map[string]string]

// InternStringMap returns a map equal to m, reusing a canonical instance when
// an equal map was interned before. The caller must treat the result as
// immutable — it is only safe to install on objects that are about to be
// sealed. Maps that are too large, carry long entries, or land in a full
// shard are returned unchanged (uninterned maps are merely unshared, never
// wrong).
func InternStringMap(m map[string]string) map[string]string {
	n := len(m)
	if n == 0 || n > maxInternMapEntries {
		return m
	}
	// Serialize the sorted entries into a stack buffer. Length prefixes keep
	// the serialization injective (no separator-collision ambiguity), and the
	// fixed buffer bounds guarantee it fits: 2*maxInternMapEntries strings of
	// ≤ maxInternMapKVLen bytes, each with a one-byte length.
	var keys [maxInternMapEntries]string
	i := 0
	for k, v := range m {
		if len(k) > maxInternMapKVLen || len(v) > maxInternMapKVLen {
			return m
		}
		keys[i] = k
		i++
	}
	sortSmall(keys[:n])
	var buf [2 * maxInternMapEntries * (maxInternMapKVLen + 1)]byte
	b := buf[:0]
	for _, k := range keys[:n] {
		v := m[k]
		b = append(b, byte(len(k)))
		b = append(b, k...)
		b = append(b, byte(len(v)))
		b = append(b, v...)
	}
	s := mapTable.Shard(cow.Hash(b))
	if v, ok := s.Read()[string(b)]; ok {
		return v
	}
	return s.Insert(string(b), m, maxMapShardEntries)
}

// SameMap reports whether a and b are one map instance (or both nil). Sealed
// objects never change their maps and Seal interns the small ones, so pods
// stamped from one template share one label map: a caller judging many label
// sets against one selector can keep the verdict of the last map it saw and
// reuse it for the same instance. Equal contents in different instances are
// not the same map; that only costs the reuse.
func SameMap(a, b map[string]string) bool {
	return *(*unsafe.Pointer)(unsafe.Pointer(&a)) == *(*unsafe.Pointer)(unsafe.Pointer(&b))
}

// sortSmall insertion-sorts a tiny string slice (≤ maxInternMapEntries) with
// no allocation.
func sortSmall(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// internObjectMaps canonicalizes every string map of o. Called by Seal while
// the object is still private: after this the maps may be shared with other
// sealed objects, which is safe because sealed objects are immutable.
func internObjectMaps(o Object) {
	m := o.Meta()
	m.Labels = InternStringMap(m.Labels)
	m.Annotations = InternStringMap(m.Annotations)
	if sel, tpl := TemplateOf(o); sel != nil {
		sel.MatchLabels = InternStringMap(sel.MatchLabels)
		tpl.Labels = InternStringMap(tpl.Labels)
		return
	}
	switch t := o.(type) {
	case *Pod:
		t.Spec.NodeSelector = InternStringMap(t.Spec.NodeSelector)
	case *Service:
		t.Spec.Selector = InternStringMap(t.Spec.Selector)
	case *ConfigMap:
		t.Data = InternStringMap(t.Data)
	}
}

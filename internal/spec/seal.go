package spec

// Copy-on-write object discipline.
//
// The campaign's hot loop moves the same decoded objects through the watch
// cache, watch dispatch (~13 watchers per cluster), component list scans, and
// bootstrap-snapshot forks. Deep-copying at every hand-off was ~30% of an
// experiment's CPU (runtime.mallocgc); instead, objects become *immutable by
// revision*: the API server seals an object when it enters the watch cache,
// and from then on every reader shares the same instance. Writers call
// CloneForWrite, which copies only when the object is sealed — a private,
// never-shared object passes through untouched.
//
// The contract, layer by layer:
//
//   - apiserver: seals decoded objects before caching/dispatching them;
//     Get/List/watch hand out sealed references with zero per-call copies.
//   - components: may read and retain sealed objects freely (immutability
//     makes retention safe); before mutating, they CloneForWrite and operate
//     on the clone. Clones are unsealed — sealing is per revision, and a
//     mutated clone is a new revision in the making.
//   - tests: RegisterSealHook observes every Seal call, so a guard test can
//     checksum sealed objects and prove nothing mutates them in place (run
//     under -race to cover cross-goroutine access too).

// sealHook, when non-nil, observes every sealed object (test instrumentation;
// see RegisterSealHook).
var sealHook func(Object)

// RegisterSealHook installs fn to be called with every object passed to Seal,
// or removes the hook when fn is nil. It exists for the seal-contract guard
// tests; the hook itself must be safe for use from multiple goroutines when
// experiments run in parallel. Not for production use.
func RegisterSealHook(fn func(Object)) { sealHook = fn }

// Seal marks o immutable and returns it. After sealing, the object must never
// be mutated — all writers go through CloneForWrite. Sealing an already
// sealed object is a no-op.
func Seal(o Object) Object {
	m := o.Meta()
	if !m.sealed {
		m.sealed = true
		// nsName doubles as the "already canonical" mark: only status clones
		// arrive with it set (Clone and decode clear it), a status write
		// cannot rename, and their maps alias the sealed source's. Everything
		// else gets its label/selector maps canonicalized while the object is
		// still private — from here on they may be shared with every other
		// sealed object carrying an equal set (see internmap.go) — and its
		// namespaced name cached while the fields are known-final, so every
		// consumer that keys state by object identity reads it back through
		// NamespacedName with zero allocations.
		if m.nsName == "" {
			internObjectMaps(o)
			m.nsName = m.Namespace + "/" + m.Name
		}
		if sealHook != nil {
			sealHook(o)
		}
	}
	return o
}

// Sealed reports whether the object carrying this metadata is immutable.
func (m *ObjectMeta) Sealed() bool { return m.sealed }

// CloneForWrite returns o itself when it is private (unsealed), or a deep,
// unsealed copy when o is sealed and therefore shared. It is the single
// mutation gate of the copy-on-write discipline: cheap for objects the caller
// already owns, safe for cache views, watch-event objects, and snapshots.
func CloneForWrite(o Object) Object {
	if o.Meta().sealed {
		return o.Clone()
	}
	return o
}

// CloneForWriteAs is CloneForWrite preserving the concrete type, so call
// sites skip the interface re-assertion.
func CloneForWriteAs[T Object](o T) T {
	return CloneForWrite(o).(T)
}

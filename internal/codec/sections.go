package codec

import "reflect"

// Sectioned access to encoded objects, for the apiserver's write-path encode
// elision. Every top-level object encoding is a sequence of length-delimited
// records in ascending field order — metadata (field 1), spec (field 2),
// status (field 3) — because the encoder walks the compiled plan in field
// number order and omits empty sections. That layout makes two surgical
// operations cheap and exact:
//
//   - AppendPrefixWithRV copies the metadata+spec prefix of stored bytes
//     (which carry the writer's RV, like an etcd txn payload) with the
//     resourceVersion varint inside the metadata record patched to the
//     committed revision — the canonical encoding of those two sections of
//     the sealed object, written straight into the caller's buffer.
//   - StatusOffset finds where the status section starts, so a status-only
//     update can splice a freshly encoded status record onto the cached
//     prefix instead of re-marshalling metadata and spec. The encoder is
//     deterministic (sorted map keys, fixed field order), so the splice is
//     byte-identical to a full Marshal of the merged object.
//
// Both report not-ok on anything unexpected rather than
// guessing: callers fall back to a full encode, which is always correct.

// objectMetaField is the top-level field number of ObjectMeta on every kind.
const objectMetaField = 1

// ObjectStatusField is the top-level field number of the status section on
// the kinds that carry one (Pod, ReplicaSet, Deployment, DaemonSet, Node).
const ObjectStatusField = 3

// metaRVField is the field number of ResourceVersion within ObjectMeta.
const metaRVField = 4

// StatusOffset returns the byte offset in data where the top-level status
// record (field ObjectStatusField) begins — len(data) when the status section
// is empty or absent — and whether the scan succeeded. Records with larger
// field numbers also stop the scan: the encoder emits fields in ascending
// order, so everything from the first such record on belongs after the
// spec section.
func StatusOffset(data []byte) (int, bool) {
	off := 0
	rest := data
	for len(rest) > 0 {
		tag, n, err := readVarint(rest)
		if err != nil || tag&7 != wireBytes {
			return 0, false
		}
		if int(tag>>3) >= ObjectStatusField {
			return off, true
		}
		rest = rest[n:]
		length, m, err := readVarint(rest)
		if err != nil || length > uint64(len(rest)-m) {
			return 0, false
		}
		skip := n + m + int(length)
		rest = rest[m+int(length):]
		off += skip
	}
	return off, true
}

// AppendPrefixWithRV appends prefix — the leading records of an object
// encoding, metadata first: in practice everything before the status record —
// to dst with the metadata record's resourceVersion replaced by rv, and reports
// whether prefix parsed that way. Stored bytes carry the RV their writer saw,
// like an etcd txn payload; patched to the revision the write committed at, the
// prefix is what encoding the sealed object's metadata and spec would produce.
// On failure dst is returned as it came; prefix is never modified.
func AppendPrefixWithRV(dst, prefix []byte, rv int64) ([]byte, bool) {
	tag, n, err := readVarint(prefix)
	if err != nil || tag>>3 != objectMetaField || tag&7 != wireBytes {
		return dst, false
	}
	length, m, err := readVarint(prefix[n:])
	if err != nil || length > uint64(len(prefix)-n-m) {
		return dst, false
	}
	meta := prefix[n+m : n+m+int(length)]
	rest := prefix[n+m+int(length):]

	// Locate the RV record inside the metadata body: [i:j) spans the old
	// record (i == j at the insertion point when the field is absent, which
	// is how RV 0 — a create — is encoded).
	i, j, ok := findVarintField(meta, metaRVField)
	if !ok {
		return dst, false
	}
	var rvRec []byte
	var rvBuf [12]byte
	if rv != 0 {
		rvRec = appendTag(rvBuf[:0], metaRVField, wireVarint)
		rvRec = appendVarint(rvRec, uint64(rv))
	}
	dst = appendTag(dst, objectMetaField, wireBytes)
	dst = appendVarint(dst, uint64(len(meta)-(j-i)+len(rvRec)))
	dst = append(dst, meta[:i]...)
	dst = append(dst, rvRec...)
	dst = append(dst, meta[j:]...)
	dst = append(dst, rest...)
	return dst, true
}

// findVarintField scans a struct body for the varint record with field
// number num, returning its [start, end) span. When the field is absent the
// span is empty and sits where the record would be inserted (fields are
// encoded in ascending order). Reports failure on malformed bytes or a
// wire-type mismatch for num.
func findVarintField(body []byte, num int) (int, int, bool) {
	off := 0
	rest := body
	for len(rest) > 0 {
		tag, n, err := readVarint(rest)
		if err != nil {
			return 0, 0, false
		}
		fieldNum, wt := int(tag>>3), int(tag&7)
		if fieldNum > num {
			return off, off, true
		}
		var size int
		switch wt {
		case wireVarint:
			_, vn, err := readVarint(rest[n:])
			if err != nil {
				return 0, 0, false
			}
			size = n + vn
		case wireBytes:
			length, m, err := readVarint(rest[n:])
			if err != nil || length > uint64(len(rest)-n-m) {
				return 0, 0, false
			}
			size = n + m + int(length)
		default:
			return 0, 0, false
		}
		if fieldNum == num {
			if wt != wireVarint {
				return 0, 0, false
			}
			return off, off + size, true
		}
		rest = rest[size:]
		off += size
	}
	return off, off, true
}

// AppendStructField appends msg encoded as one length-delimited record with
// field number num — nothing at all when the encoding is empty, mirroring
// how the full encoder omits empty sections. Combined with a cached prefix
// from StatusOffset this reproduces a full Marshal byte for byte.
func (a *Arena) AppendStructField(b []byte, num int, msg any) ([]byte, error) {
	return a.enc.appendStructField(b, num, msg)
}

func (e *encoder) appendStructField(b []byte, num int, msg any) ([]byte, error) {
	v, err := structValue(msg)
	if err != nil {
		return nil, err
	}
	return e.appendField(b, &fieldDesc{number: num, kind: reflect.Struct}, v)
}

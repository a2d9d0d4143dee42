package codec

// RewriteObjectRV is the test reference for AppendPrefixWithRV: the
// implementation the write path used until the status splice started copying
// the stored array's prefix. It returns a fresh, exactly sized slice holding data
// with the metadata record's resourceVersion replaced by rv, or nil when data
// does not parse as an object encoding. Kept independent of AppendPrefixWithRV
// (it sizes its result up front and assembles it itself) so that holding one
// against the other means something.
func RewriteObjectRV(data []byte, rv int64) []byte {
	tag, n, err := readVarint(data)
	if err != nil || tag>>3 != objectMetaField || tag&7 != wireBytes {
		return nil
	}
	length, m, err := readVarint(data[n:])
	if err != nil || length > uint64(len(data)-n-m) {
		return nil
	}
	meta := data[n+m : n+m+int(length)]
	rest := data[n+m+int(length):]
	i, j, ok := findVarintField(meta, metaRVField)
	if !ok {
		return nil
	}
	var rvRec []byte
	var rvBuf [12]byte
	if rv != 0 {
		rvRec = appendTag(rvBuf[:0], metaRVField, wireVarint)
		rvRec = appendVarint(rvRec, uint64(rv))
	}
	newMetaLen := len(meta) - (j - i) + len(rvRec)
	out := make([]byte, 0, 1+varintSize(uint64(newMetaLen))+newMetaLen+len(rest))
	out = appendTag(out, objectMetaField, wireBytes)
	out = appendVarint(out, uint64(newMetaLen))
	out = append(out, meta[:i]...)
	out = append(out, rvRec...)
	out = append(out, meta[j:]...)
	out = append(out, rest...)
	return out
}

// varintSize returns the encoded size of v.
func varintSize(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

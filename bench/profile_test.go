package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
)

// Hand encoders for the few protobuf shapes a CPU profile uses, so the
// reader is tested against bytes it did not produce itself.
func pbVarint(v uint64) []byte {
	var b []byte
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func pbInt(num int, v uint64) []byte { return append(pbVarint(uint64(num)<<3), pbVarint(v)...) }

func pbBytes(num int, body []byte) []byte {
	b := append(pbVarint(uint64(num)<<3|2), pbVarint(uint64(len(body)))...)
	return append(b, body...)
}

func pbPacked(num int, vs ...uint64) []byte {
	var body []byte
	for _, v := range vs {
		body = append(body, pbVarint(v)...)
	}
	return pbBytes(num, body)
}

// testProfile builds a gzip-compressed profile whose function i+1 is called
// names[i], with one location per function, and the given samples (stacks of
// location ids, leaf first, and a tick count each).
func testProfile(t *testing.T, names []string, stacks [][]uint64, counts []uint64) []byte {
	t.Helper()
	var raw []byte
	raw = append(raw, pbBytes(profileStringTable, nil)...) // string 0 is ""
	for _, n := range names {
		raw = append(raw, pbBytes(profileStringTable, []byte(n))...)
	}
	for i := range names {
		id := uint64(i + 1)
		raw = append(raw, pbBytes(profileFunction, append(pbInt(functionID, id), pbInt(functionName, id)...))...)
		line := pbBytes(locationLine, pbInt(lineFunctionID, id))
		raw = append(raw, pbBytes(profileLocation, append(pbInt(locationID, id), line...))...)
	}
	for i, stack := range stacks {
		// Value 0 is the tick count, value 1 the nanoseconds.
		sample := append(pbPacked(sampleLocationID, stack...), pbPacked(sampleValue, counts[i], counts[i]*4_000_000)...)
		raw = append(raw, pbBytes(profileSample, sample)...)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestProfileAttribution(t *testing.T) {
	names := []string{
		"runtime.mallocgc", // 1
		internalPrefix + "codec.(*encoder).appendStruct",    // 2
		internalPrefix + "apiserver.(*Server).persistWrite", // 3
		internalPrefix + "sim.(*Loop).Step",                 // 4
		"runtime.gcBgMarkWorker",                            // 5
		"runtime.scanobject",                                // 6
		"github.com/mutiny-sim/mutiny/bench.runPass",        // 7
		internalPrefix + "report.Table3",                    // 8
	}
	stacks := [][]uint64{
		{1, 2, 3, 4, 7}, // an allocation made by codec, called from apiserver: codec's
		{3, 4, 7},       // apiserver's own frame
		{4, 7},          // the loop itself
		{6, 5},          // background mark worker
		{7},             // the benchmark's own code
		{8, 7},          // a product package outside the reported layers
	}
	counts := []uint64{3, 2, 1, 2, 1, 1}
	samples, err := parseProfile(testProfile(t, names, stacks, counts))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) || samples[0].count != 3 || samples[0].stack[0] != "runtime.mallocgc" || len(samples[0].stack) != 5 {
		t.Fatalf("parsed samples = %+v", samples)
	}

	shares, ticks := cpuShares(samples)
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
	want := map[string]float64{"codec": 0.3, "apiserver": 0.2, "sim": 0.1, bucketGCBackground: 0.2, bucketOther: 0.2}
	var sum float64
	for layer, share := range shares {
		sum += share
		if math.Abs(share-want[layer]) > 1e-9 {
			t.Errorf("share of %s = %v, want %v", layer, share, want[layer])
		}
	}
	if len(shares) != len(want) || math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares = %v, sum %v", shares, sum)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("no error for bytes that are not gzip")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte{0x12, 0x7f, 0x01}) // a sample record longer than the message
	zw.Close()
	if _, err := parseProfile(buf.Bytes()); err == nil {
		t.Error("no error for a truncated message")
	}
}

package codec

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

type inner struct {
	Name  string `pb:"1"`
	Count int64  `pb:"2"`
	On    bool   `pb:"3"`
}

type outer struct {
	ID      string            `pb:"1"`
	N       int64             `pb:"2"`
	Flag    bool              `pb:"3"`
	Nested  inner             `pb:"4"`
	Items   []inner           `pb:"5"`
	Tags    []string          `pb:"6"`
	Numbers []int64           `pb:"7"`
	Labels  map[string]string `pb:"8"`
}

func sample() outer {
	return outer{
		ID:      "web-0",
		N:       42,
		Flag:    true,
		Nested:  inner{Name: "n", Count: 7, On: true},
		Items:   []inner{{Name: "a", Count: 1}, {Name: "b", Count: 2, On: true}},
		Tags:    []string{"x", "", "z"},
		Numbers: []int64{3, 0, 9},
		Labels:  map[string]string{"app": "web", "tier": "front"},
	}
}

func TestRoundTrip(t *testing.T) {
	in := sample()
	b, err := Marshal(&in)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var out outer
	if err := Unmarshal(b, &out); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	// Numbers contains a zero element which is encoded (repeated fields emit
	// all elements), so full equality should hold.
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestMarshalDeterministic(t *testing.T) {
	in := sample()
	a, err := Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		b, err := Marshal(&in)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("marshal not deterministic on attempt %d", i)
		}
	}
}

func TestZeroValuesOmitted(t *testing.T) {
	var in outer
	b, err := Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 0 {
		t.Fatalf("zero struct encoded to %d bytes, want 0", len(b))
	}
}

func TestUnknownFieldsSkipped(t *testing.T) {
	in := sample()
	b, err := Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	// Append an unknown varint field (number 60) and an unknown bytes field.
	b = appendTag(b, 60, wireVarint)
	b = appendVarint(b, 12345)
	b = appendTag(b, 61, wireBytes)
	b = appendVarint(b, 3)
	b = append(b, "xyz"...)
	var out outer
	if err := Unmarshal(b, &out); err != nil {
		t.Fatalf("Unmarshal with unknown fields: %v", err)
	}
	if out.ID != in.ID || out.N != in.N {
		t.Fatal("known fields lost while skipping unknown fields")
	}
}

func TestTruncatedVarintIsCorrupt(t *testing.T) {
	var out outer
	err := Unmarshal([]byte{0x80}, &out)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestOverlongLengthIsCorrupt(t *testing.T) {
	b := appendTag(nil, 1, wireBytes)
	b = appendVarint(b, 100) // length 100, but no payload
	var out outer
	if err := Unmarshal(b, &out); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestInvalidUTF8IsCorrupt(t *testing.T) {
	b := appendTag(nil, 1, wireBytes)
	b = appendVarint(b, 2)
	b = append(b, 0xff, 0xfe)
	var out outer
	if err := Unmarshal(b, &out); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestGroupWireTypeIsCorrupt(t *testing.T) {
	b := appendVarint(nil, uint64(1)<<3|3) // field 1, wire type 3 (group start)
	var out outer
	if err := Unmarshal(b, &out); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestFixedWidthFieldsSkipped(t *testing.T) {
	b := appendTag(nil, 50, wire64Bit)
	b = append(b, 1, 2, 3, 4, 5, 6, 7, 8)
	b = appendTag(b, 51, wire32Bit)
	b = append(b, 1, 2, 3, 4)
	b = appendTag(b, 2, wireVarint)
	b = appendVarint(b, 9)
	var out outer
	if err := Unmarshal(b, &out); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if out.N != 9 {
		t.Fatalf("N = %d, want 9", out.N)
	}
}

func TestVarintContinuationBit(t *testing.T) {
	// Values < 128 must encode to a single byte whose 8th bit is clear: the
	// paper's bit-flip model (flip bits 1 and 5, not 8) depends on this.
	for _, v := range []uint64{0, 1, 16, 42, 127} {
		b := appendVarint(nil, v)
		if len(b) != 1 {
			t.Fatalf("varint(%d) = %d bytes, want 1", v, len(b))
		}
		if b[0]&0x80 != 0 {
			t.Fatalf("varint(%d) has continuation bit set", v)
		}
	}
	b := appendVarint(nil, 128)
	if len(b) != 2 || b[0]&0x80 == 0 {
		t.Fatalf("varint(128) = %x, want 2 bytes with continuation", b)
	}
}

func TestNegativeIntRoundTrip(t *testing.T) {
	in := outer{N: -5}
	b, err := Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out outer
	if err := Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.N != -5 {
		t.Fatalf("N = %d, want -5", out.N)
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	prop := func(id string, n int64, flag bool, tag string, k, v string) bool {
		in := outer{ID: id, N: n, Flag: flag, Tags: []string{tag}}
		if k != "" {
			in.Labels = map[string]string{k: v}
		}
		b, err := Marshal(&in)
		if err != nil {
			return false
		}
		var out outer
		if err := Unmarshal(b, &out); err != nil {
			return false
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: single-bit corruption of the encoded bytes either fails to decode
// (undecodable, detected) or decodes without panicking (silently wrong) — it
// must never panic or hang. This is the serialization-protocol injection of
// §IV-C, which "usually causes the resource instance to become undecryptable
// ... but in some cases the resource instance remains decryptable and wrong".
func TestPropertyBitFlipNeverPanics(t *testing.T) {
	in := sample()
	enc, err := Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	decodable, corrupt := 0, 0
	for off := 0; off < len(enc); off++ {
		for bit := 0; bit < 8; bit++ {
			mut := bytes.Clone(enc)
			mut[off] ^= 1 << bit
			var out outer
			if err := Unmarshal(mut, &out); err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("off=%d bit=%d: non-corrupt error %v", off, bit, err)
				}
				corrupt++
			} else {
				decodable++
			}
		}
	}
	if corrupt == 0 {
		t.Fatal("no bit flip produced a corrupt message; decoder is too lax")
	}
	if decodable == 0 {
		t.Fatal("every bit flip produced a corrupt message; decoder is too strict")
	}
	t.Logf("bit flips: %d decodable-but-possibly-wrong, %d detected corrupt", decodable, corrupt)
}

// A pb tag must carry a field number from 1 to maxFieldNumber: planFor panics
// on anything else, a number too large for the dense decode index included.
func TestPlanForRejectsBadFieldNumbers(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		bad  bool
		name string
	}{
		{reflect.TypeOf(struct {
			A int64 `pb:"1"`
		}{}), false, "1"},
		{reflect.TypeOf(struct {
			A int64 `pb:"127"`
		}{}), false, "127"},
		{reflect.TypeOf(struct {
			A int64 `pb:"128"`
		}{}), true, "128"},
		{reflect.TypeOf(struct {
			A int64 `pb:"100000"`
		}{}), true, "100000"},
		{reflect.TypeOf(struct {
			A int64 `pb:"0"`
		}{}), true, "0"},
		{reflect.TypeOf(struct {
			A int64 `pb:"-3"`
		}{}), true, "-3"},
		{reflect.TypeOf(struct {
			A int64 `pb:"x"`
		}{}), true, "x"},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); (r != nil) != c.bad {
					t.Errorf("pb:%q: panic %v, want a panic: %v", c.name, r, c.bad)
				}
			}()
			planFor(c.typ)
		})
	}
}

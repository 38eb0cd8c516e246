package rangecoder

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// op is one coder call of a differential program.
type op struct {
	kind  byte // 0 adaptive bit, 1 raw bits, 2 unary run
	ctx   int  // adaptive: context index; unary: number of contexts used
	bit   int
	v     uint32
	width uint
	k     int
}

const (
	bitContexts   = 4
	unaryContexts = 8
)

// parseOps reads a program from fuzz bytes: adaptive bits over a few
// contexts, raw widths 0..32, and unary runs over a prefix of a context
// array (k up to the prefix length, so both terminated and unterminated
// runs occur).
func parseOps(data []byte) []op {
	var ops []op
	for len(data) >= 2 {
		sel, arg := data[0], data[1]
		data = data[2:]
		switch sel % 3 {
		case 0:
			ops = append(ops, op{kind: 0, ctx: int(arg % bitContexts), bit: int(arg>>7) & 1})
		case 1:
			var buf [4]byte
			n := copy(buf[:], data)
			data = data[n:]
			ops = append(ops, op{kind: 1, width: uint(arg % 33), v: binary.LittleEndian.Uint32(buf[:])})
		case 2:
			m := 1 + int(arg%unaryContexts)
			ops = append(ops, op{kind: 2, ctx: m, k: int(arg>>4) % (m + 1)})
		}
	}
	return ops
}

// coderState is the adaptive state a program leaves behind.
type coderState struct {
	bits  [bitContexts]Prob
	unary [unaryContexts]Prob
}

func newCoderState() *coderState {
	var s coderState
	for i := range s.bits {
		s.bits[i] = NewProb()
	}
	for i := range s.unary {
		s.unary[i] = NewProb()
	}
	return &s
}

// encoder and decoder are the coder surface a program exercises; the
// production coder and the reference both provide it.
type encoder interface {
	EncodeBit(p *Prob, b int)
	EncodeBitsRaw(v uint32, n uint)
	EncodeUnary(probs []Prob, k int)
	Finish() []byte
}

type decoder interface {
	DecodeBit(p *Prob) int
	DecodeBitsRaw(n uint) uint32
	DecodeUnary(probs []Prob) int
}

func encodeOps(e encoder, ops []op) ([]byte, *coderState) {
	s := newCoderState()
	for _, o := range ops {
		switch o.kind {
		case 0:
			e.EncodeBit(&s.bits[o.ctx], o.bit)
		case 1:
			e.EncodeBitsRaw(o.v, o.width)
		case 2:
			e.EncodeUnary(s.unary[:o.ctx], o.k)
		}
	}
	return e.Finish(), s
}

// decodeOps runs the decode side of the program's shape and returns every
// decoded value in order.
func decodeOps(d decoder, ops []op) ([]uint32, *coderState) {
	s := newCoderState()
	out := make([]uint32, 0, len(ops))
	for _, o := range ops {
		switch o.kind {
		case 0:
			out = append(out, uint32(d.DecodeBit(&s.bits[o.ctx])))
		case 1:
			out = append(out, d.DecodeBitsRaw(o.width))
		case 2:
			out = append(out, uint32(d.DecodeUnary(s.unary[:o.ctx])))
		}
	}
	return out, s
}

// checkMatchesReference runs one program through both coders and fails on
// any difference: encoder bytes, final probabilities, decoded values (of
// the program's own stream and of the raw program bytes read as a corrupt
// stream), and the round trip itself.
func checkMatchesReference(t *testing.T, data []byte) {
	t.Helper()
	ops := parseOps(data)
	got, gotState := encodeOps(NewEncoder(), ops)
	want, wantState := encodeOps(newRefEncoder(), ops)
	if !bytes.Equal(got, want) {
		t.Fatalf("encoder output differs from the reference over %d ops:\n got %x\nwant %x", len(ops), got, want)
	}
	if *gotState != *wantState {
		t.Fatalf("encoder probabilities differ: got %v want %v", *gotState, *wantState)
	}
	for _, stream := range [][]byte{want, data} {
		vals, state := decodeOps(NewDecoder(stream), ops)
		refVals, refState := decodeOps(newRefDecoder(stream), ops)
		for i := range refVals {
			if vals[i] != refVals[i] {
				t.Fatalf("op %d (%+v) over stream %x: decoded %#x, reference %#x", i, ops[i], stream, vals[i], refVals[i])
			}
		}
		if *state != *refState {
			t.Fatalf("decoder probabilities differ over stream %x: got %v want %v", stream, *state, *refState)
		}
	}
	vals, _ := decodeOps(NewDecoder(want), ops)
	for i, o := range ops {
		var enc uint32
		switch o.kind {
		case 0:
			enc = uint32(o.bit)
		case 1:
			enc = o.v
			if o.width < 32 {
				enc &= 1<<o.width - 1
			}
		case 2:
			enc = uint32(o.k)
		}
		if vals[i] != enc {
			t.Fatalf("op %d (%+v): round trip gave %#x", i, o, vals[i])
		}
	}
}

// FuzzCoderMatchesReference checks the production coder against the
// bit-at-a-time reference coder on arbitrary programs of adaptive bits, raw
// bit fields and unary runs. (Runs its seed corpus under plain `go test`;
// use `go test -fuzz=FuzzCoderMatchesReference ./internal/rangecoder` to
// explore further.)
func FuzzCoderMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0x80, 0, 0x81, 1, 32, 0xff, 0xff, 0xff, 0xff, 2, 0x77})
	// Read as a stream, this starts with code == range, and its first op
	// is a raw field: a corrupt stream whose code exceeds the halved range
	// by more than 2^31, where a 32-bit borrow reads the wrong bit.
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 0x20, 0x12, 0x34, 0x56, 0x78})
	f.Add(bytes.Repeat([]byte{1, 31, 0x55, 0xaa, 0x0f, 0xf0}, 40))
	f.Add(bytes.Repeat([]byte{2, 0x77, 2, 0x07, 0, 0x83}, 60))
	f.Fuzz(checkMatchesReference)
}

// TestCoderMatchesReferenceRandom runs the differential check over seeded
// random programs, biased toward long unary runs and wide raw fields as
// fpzip issues them.
func TestCoderMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 300; i++ {
		data := make([]byte, rng.Intn(600))
		rng.Read(data)
		if i%2 == 1 {
			if i%4 == 3 && len(data) >= 6 {
				copy(data[1:5], []byte{0xff, 0xff, 0xff, 0xff}) // code == range: corrupt
			}
			for j := 6; j+1 < len(data); j += 2 {
				if rng.Intn(3) > 0 {
					data[j] = 1 + byte(rng.Intn(2))
					data[j+1] |= 0xe0
				}
			}
		}
		checkMatchesReference(t, data)
	}
}

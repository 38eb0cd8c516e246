// Package rangecoder implements an adaptive binary range coder (arithmetic
// coder) in the style used by fpzip and LZMA: a 32-bit range with 11-bit
// adaptive bit probabilities. The fpzip-family compressor uses it to entropy
// code residual magnitude classes.
//
// The hot loops keep the range state in locals and code equiprobable bits
// without data-dependent branches (LZMA's direct bits). The output is
// defined by the bit-at-a-time reference coder the tests keep beside it:
// every stream and every decoded value must match it exactly.
package rangecoder

const (
	probBits  = 11
	probInit  = 1 << (probBits - 1) // 0.5
	probMoves = 5                   // adaptation rate
	topValue  = 1 << 24
)

// Prob is an adaptive probability state for a single binary context.
type Prob uint16

// NewProb returns an unbiased probability state.
func NewProb() Prob { return probInit }

// Encoder writes bits into a byte buffer using range coding. The carry
// propagation follows the classic LZMA scheme: the first emitted byte is a
// spurious zero the decoder skips during initialization.
type Encoder struct {
	low      uint64
	rng      uint32
	cacheSz  int64
	cache    byte
	out      []byte
	finished bool
}

// NewEncoder returns an Encoder ready for use.
func NewEncoder() *Encoder {
	return &Encoder{rng: 0xFFFFFFFF, cacheSz: 1}
}

// shiftLow moves the top byte of low out through the one-byte carry cache
// and returns the shifted low.
func (e *Encoder) shiftLow(low uint64) uint64 {
	if uint32(low) < 0xFF000000 || low>>32 != 0 {
		carry := byte(low >> 32)
		temp := e.cache
		for {
			e.out = append(e.out, temp+carry)
			temp = 0xFF
			e.cacheSz--
			if e.cacheSz == 0 {
				break
			}
		}
		e.cache = byte(low >> 24)
	}
	e.cacheSz++
	return uint64(uint32(low) << 8)
}

//pressio:hotpath measured by the perf ledger
// EncodeBit encodes bit b (0 or 1) with the adaptive probability p,
// updating p toward the observed bit.
func (e *Encoder) EncodeBit(p *Prob, b int) {
	bound := (e.rng >> probBits) * uint32(*p)
	if b == 0 {
		e.rng = bound
		*p += (1<<probBits - *p) >> probMoves
	} else {
		e.low += uint64(bound)
		e.rng -= bound
		*p -= *p >> probMoves
	}
	for e.rng < topValue {
		e.rng <<= 8
		e.low = e.shiftLow(e.low)
	}
}

//pressio:hotpath measured by the perf ledger
// EncodeUnary encodes k one-bits against probs[0..k-1] followed, when
// k < len(probs), by a zero bit against probs[k]: the same bits as that
// sequence of EncodeBit calls. It panics if k > len(probs).
func (e *Encoder) EncodeUnary(probs []Prob, k int) {
	low, rng := e.low, e.rng
	for i := range probs[:k] {
		p := &probs[i]
		bound := (rng >> probBits) * uint32(*p)
		low += uint64(bound)
		rng -= bound
		*p -= *p >> probMoves
		for rng < topValue {
			rng <<= 8
			low = e.shiftLow(low)
		}
	}
	if k < len(probs) {
		p := &probs[k]
		rng = (rng >> probBits) * uint32(*p)
		*p += (1<<probBits - *p) >> probMoves
		for rng < topValue {
			rng <<= 8
			low = e.shiftLow(low)
		}
	}
	e.low, e.rng = low, rng
}

//pressio:hotpath measured by the perf ledger
// EncodeBitsRaw encodes the n (≤ 32) low bits of v as equiprobable bits,
// MSB first. Each bit halves the range and, when set, adds the new range
// to low through a mask instead of a branch. The range is at least 2^24
// before the halving, so a single 8-bit shift always renormalises it.
func (e *Encoder) EncodeBitsRaw(v uint32, n uint) {
	low, rng := e.low, e.rng
	for n > 0 {
		n--
		rng >>= 1
		low += uint64(rng & -(v >> n & 1))
		if rng < topValue {
			rng <<= 8
			low = e.shiftLow(low)
		}
	}
	e.low, e.rng = low, rng
}

// Finish flushes the coder and returns the encoded bytes. The Encoder must
// not be used afterwards.
func (e *Encoder) Finish() []byte {
	if !e.finished {
		for i := 0; i < 5; i++ {
			e.low = e.shiftLow(e.low)
		}
		e.finished = true
	}
	return e.out
}

// Decoder reads bits encoded by Encoder.
type Decoder struct {
	code uint32
	rng  uint32
	in   []byte
	pos  int
}

// NewDecoder wraps the encoded bytes for decoding.
func NewDecoder(b []byte) *Decoder {
	d := &Decoder{rng: 0xFFFFFFFF, in: b}
	// Read 5 bytes: the first is the encoder's spurious initial byte and
	// shifts out of the 32-bit code register entirely.
	for i := 0; i < 5; i++ {
		d.code = d.code<<8 | uint32(d.nextByte())
	}
	return d
}

func (d *Decoder) nextByte() byte {
	if d.pos < len(d.in) {
		b := d.in[d.pos]
		d.pos++
		return b
	}
	return 0
}

//pressio:hotpath measured by the perf ledger
// DecodeBit decodes one bit with the adaptive probability p.
func (d *Decoder) DecodeBit(p *Prob) int {
	bound := (d.rng >> probBits) * uint32(*p)
	var bit int
	if d.code < bound {
		d.rng = bound
		*p += (1<<probBits - *p) >> probMoves
		bit = 0
	} else {
		d.code -= bound
		d.rng -= bound
		*p -= *p >> probMoves
		bit = 1
	}
	for d.rng < topValue {
		d.rng <<= 8
		d.code = d.code<<8 | uint32(d.nextByte())
	}
	return bit
}

//pressio:hotpath measured by the perf ledger
// DecodeUnary decodes one-bits against probs[0], probs[1], ... until it
// decodes a zero bit or has decoded len(probs) one-bits, and returns the
// number of one-bits: the inverse of EncodeUnary.
func (d *Decoder) DecodeUnary(probs []Prob) int {
	code, rng := d.code, d.rng
	k := 0
	for ; k < len(probs); k++ {
		p := &probs[k]
		bound := (rng >> probBits) * uint32(*p)
		zero := code < bound
		if zero {
			rng = bound
			*p += (1<<probBits - *p) >> probMoves
		} else {
			code -= bound
			rng -= bound
			*p -= *p >> probMoves
		}
		for rng < topValue {
			rng <<= 8
			code = code<<8 | uint32(d.nextByte())
		}
		if zero {
			break
		}
	}
	d.code, d.rng = code, rng
	return k
}

//pressio:hotpath measured by the perf ledger
// DecodeBitsRaw decodes n (≤ 32) equiprobable bits, MSB first. Each bit
// is the borrow of code minus the halved range, taken from a 64-bit
// subtraction; it selects through a mask whether the range is subtracted.
// LZMA reads the borrow from bit 31 of a 32-bit subtraction instead, which
// agrees only while code < range. A corrupt stream can push code above the
// range, and there only the full borrow decodes what the bit-at-a-time
// coder did.
func (d *Decoder) DecodeBitsRaw(n uint) uint32 {
	code, rng := d.code, d.rng
	var v uint32
	for ; n > 0; n-- {
		rng >>= 1
		zero := uint32((uint64(code) - uint64(rng)) >> 63) // 1 when code < rng
		code -= rng & (zero - 1)
		v = v<<1 | (zero ^ 1)
		if rng < topValue {
			rng <<= 8
			code = code<<8 | uint32(d.nextByte())
		}
	}
	d.code, d.rng = code, rng
	return v
}

package rangecoder

// refEncoder and refDecoder are the original bit-at-a-time coder, kept as
// the reference the production coder is compared against: every branch of
// the range arithmetic is written out literally, one bit per step. Any
// stream or decoded value the two disagree on is a format change.
type refEncoder struct {
	low      uint64
	rng      uint32
	cacheSz  int64
	cache    byte
	out      []byte
	finished bool
}

func newRefEncoder() *refEncoder {
	return &refEncoder{rng: 0xFFFFFFFF, cacheSz: 1}
}

func (e *refEncoder) shiftLow() {
	if uint32(e.low) < 0xFF000000 || (e.low>>32) != 0 {
		temp := e.cache
		for {
			e.out = append(e.out, temp+byte(e.low>>32))
			temp = 0xFF
			e.cacheSz--
			if e.cacheSz == 0 {
				break
			}
		}
		e.cache = byte(e.low >> 24)
	}
	e.cacheSz++
	e.low = (e.low << 8) & 0xFFFFFFFF
}

func (e *refEncoder) EncodeBit(p *Prob, b int) {
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
		e.shiftLow()
	}
}

func (e *refEncoder) EncodeBitsRaw(v uint32, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		e.rng >>= 1
		bit := (v >> uint(i)) & 1
		if bit != 0 {
			e.low += uint64(e.rng)
		}
		for e.rng < topValue {
			e.rng <<= 8
			e.shiftLow()
		}
	}
}

func (e *refEncoder) Finish() []byte {
	if !e.finished {
		for i := 0; i < 5; i++ {
			e.shiftLow()
		}
		e.finished = true
	}
	return e.out
}

type refDecoder struct {
	code uint32
	rng  uint32
	in   []byte
	pos  int
}

func newRefDecoder(b []byte) *refDecoder {
	d := &refDecoder{rng: 0xFFFFFFFF, in: b}
	for i := 0; i < 5; i++ {
		d.code = d.code<<8 | uint32(d.nextByte())
	}
	return d
}

func (d *refDecoder) nextByte() byte {
	if d.pos < len(d.in) {
		b := d.in[d.pos]
		d.pos++
		return b
	}
	return 0
}

func (d *refDecoder) DecodeBit(p *Prob) int {
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

func (d *refDecoder) DecodeBitsRaw(n uint) uint32 {
	var v uint32
	for i := uint(0); i < n; i++ {
		d.rng >>= 1
		var bit uint32
		if d.code >= d.rng {
			d.code -= d.rng
			bit = 1
		}
		v = v<<1 | bit
		for d.rng < topValue {
			d.rng <<= 8
			d.code = d.code<<8 | uint32(d.nextByte())
		}
	}
	return v
}

// The unary run is, in the reference, nothing but its bits.

func (e *refEncoder) EncodeUnary(probs []Prob, k int) {
	for i := 0; i < k; i++ {
		e.EncodeBit(&probs[i], 1)
	}
	if k < len(probs) {
		e.EncodeBit(&probs[k], 0)
	}
}

func (d *refDecoder) DecodeUnary(probs []Prob) int {
	k := 0
	for k < len(probs) && d.DecodeBit(&probs[k]) == 1 {
		k++
	}
	return k
}

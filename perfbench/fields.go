package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"pressio/internal/core"
	"pressio/internal/launch"
	"pressio/internal/meta"
	"pressio/internal/sdrbench"

	_ "pressio/internal/fpzip"
	_ "pressio/internal/sz"
	_ "pressio/internal/zfp"
)

// relBound is the value-range-relative error bound of every lossy codec in
// the benchmark: max|x-x'| <= relBound*(max-min). A relative bound keeps the
// check about the codec; an absolute 1e-4 on scale-letkf (values near 1e5)
// is below float32 resolution there.
const relBound = 1e-4

// fieldsScale sizes the sdrbench generators: 1 to 4 MiB per field.
const fieldsScale = 4

// fieldParts is how many independent realisations each field is stacked
// from along its slowest dimension. How well a field compresses, and with
// it how fast every codec runs, depends on where its seed puts its
// features; over 20 seeds four parts halve the spread of the batch's
// compression ratio (IQR/median 0.071 to 0.033).
const fieldParts = 4

// generateField returns the named sdrbench field with the extents
// sdrbench.Generate gives it at fieldsScale, stacked from fieldParts
// realisations.
func generateField(name string, seed int64) (*core.Data, error) {
	const s = fieldsScale
	var raw []byte
	var dims []uint64
	for i := 0; i < fieldParts; i++ {
		ps := subSeed(seed, i)
		var d *core.Data
		switch name {
		case sdrbench.NameHurricane:
			d = sdrbench.HurricaneCloud(16*s/fieldParts, 32*s, 32*s, ps)
		case sdrbench.NameScaleLetKF:
			d = sdrbench.ScaleLetKF(8*s/fieldParts, 32*s, 32*s, ps)
		case sdrbench.NameNYX:
			d = sdrbench.NYXDensity(16*s/fieldParts, 16*s, 16*s, ps)
		case sdrbench.NameHACC:
			d = sdrbench.HACCParticles(64*1024*s/fieldParts, ps)
		default:
			return nil, fmt.Errorf("no generator %q", name)
		}
		raw = append(raw, d.Bytes()...)
		dims = append([]uint64(nil), d.Dims()...)
	}
	dims[0] *= fieldParts
	return core.NewMove(core.DTypeFloat32, raw, dims...)
}

// codecSpec is one codec configuration of the fields workload.
type codecSpec struct {
	name     string
	opts     map[string]string
	lossless bool
}

var fieldCodecs = []codecSpec{
	{name: "sz_threadsafe", opts: map[string]string{core.KeyRel: "1e-4"}},
	{name: "zfp", opts: map[string]string{core.KeyRel: "1e-4"}},
	{name: "fpzip", opts: map[string]string{"fpzip:prec": "0"}, lossless: true},
}

func newCodec(spec codecSpec) (*core.Compressor, error) {
	c, err := core.NewCompressor(spec.name)
	if err != nil {
		return nil, err
	}
	if err := launch.ApplyStringOptions(c, spec.opts); err != nil {
		return nil, fmt.Errorf("%s options: %w", spec.name, err)
	}
	return c, nil
}

// subSeed derives the seed of input i from the run seed (splitmix64), so
// inputs differ from each other and from run to run.
func subSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// checkBound verifies that dec is within relBound of orig's value range.
func checkBound(orig, dec *core.Data) error {
	x, y := orig.Float32s(), dec.Float32s()
	if len(x) != len(y) || len(x) == 0 {
		return fmt.Errorf("decoded %d values, want %d", len(y), len(x))
	}
	lo, hi := float64(x[0]), float64(x[0])
	for _, v := range x {
		lo, hi = math.Min(lo, float64(v)), math.Max(hi, float64(v))
	}
	bound := relBound * (hi - lo)
	for i := range x {
		if d := math.Abs(float64(x[i]) - float64(y[i])); !(d <= bound) {
			return fmt.Errorf("value %d off by %g, bound %g", i, d, bound)
		}
	}
	return nil
}

// checkEqual verifies a byte-exact output.
func checkEqual(what string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: got %d bytes that differ from the expected %d", what, len(got), len(want))
	}
	return nil
}

// fieldsInst is the in-process batch workload: meta.CompressMany and
// DecompressMany over the four sdrbench fields through each codec.
type fieldsInst struct {
	e      *env
	inputs []*core.Data
	hints  []*core.Data
	codecs []*core.Compressor
	slab   int // index of the field read back alone by slab operations
	warm   bool
	req    int64 // operations so far; span request ids
	// answered is when the last operation returned; zero before the first
	// operation of a measure call.
	answered time.Time
}

func setupFields(e *env) (instance, error) {
	f := &fieldsInst{e: e}
	for i, name := range sdrbench.Names() {
		d, err := generateField(name, subSeed(e.seed, i))
		if err != nil {
			return nil, err
		}
		if name == sdrbench.NameNYX {
			f.slab = i
		}
		f.inputs = append(f.inputs, d)
		f.hints = append(f.hints, core.NewEmpty(d.DType(), d.Dims()...))
	}
	for _, spec := range fieldCodecs {
		c, err := newCodec(spec)
		if err != nil {
			return nil, err
		}
		f.codecs = append(f.codecs, c)
	}
	return f, nil
}

func (f *fieldsInst) probeInputs() []*core.Data { return f.inputs }

func (f *fieldsInst) finish() (map[string]endValue, error) { return nil, nil }

// check verifies codec ci's decode of field i.
func (f *fieldsInst) check(ci, i int, dec *core.Data) error {
	spec := fieldCodecs[ci]
	var err error
	if spec.lossless {
		err = checkEqual("lossless decode", dec.Bytes(), f.inputs[i].Bytes())
	} else {
		err = checkBound(f.inputs[i], dec)
	}
	if err != nil {
		return fmt.Errorf("%s field %d: %w", spec.name, i, err)
	}
	return nil
}

// begin starts an operation: it logs the benchmark's own time since the
// previous answer and returns the steal counter for done.
func (f *fieldsInst) begin(log *opLog) time.Duration {
	if !f.answered.IsZero() {
		log.addLag(time.Since(f.answered))
	}
	return stolen()
}

// done ends the span of an operation begun when the steal counter read s0
// and returns its latency, less the CPU time withheld from the machine
// meanwhile.
func (f *fieldsInst) done(sp span, s0 time.Duration) time.Duration {
	d := sp.end()
	f.answered = time.Now()
	return unstolen(d, s0, f.e.nproc)
}

// iteration runs one put, get and slab operation, each through every
// codec, checks every decoded field, and returns the operations' total
// latency, or 0 if one failed.
func (f *fieldsInst) iteration(req int64, tr *tracer, log *opLog) (busy time.Duration) {
	root := tr.start("fields.iteration", 0, req)
	defer root.end()
	nin := int64(0)
	for _, d := range f.inputs {
		nin += int64(d.ByteLen())
	}

	comps := make([][]*core.Data, len(f.codecs))
	runtime.GC()
	s0 := f.begin(log)
	put := tr.start("fields.put", root.id, req)
	var nout int64
	for ci, c := range f.codecs {
		sp := tr.start("meta.CompressMany."+fieldCodecs[ci].name, put.id, req)
		out, err := meta.CompressMany(c, f.inputs, f.e.nproc)
		sp.end()
		if err != nil {
			log.fail(fmt.Errorf("%s CompressMany: %w", fieldCodecs[ci].name, err))
			return 0
		}
		comps[ci] = out
		for _, o := range out {
			nout += int64(o.ByteLen())
		}
	}
	lat := f.done(put, s0)
	busy += lat
	log.add(opPut, lat, nin*int64(len(f.codecs)), nout)

	decs := make([][]*core.Data, len(f.codecs))
	runtime.GC()
	s0 = f.begin(log)
	get := tr.start("fields.get", root.id, req)
	for ci, c := range f.codecs {
		sp := tr.start("meta.DecompressMany."+fieldCodecs[ci].name, get.id, req)
		out, err := meta.DecompressMany(c, comps[ci], f.hints, f.e.nproc)
		sp.end()
		if err != nil {
			log.fail(fmt.Errorf("%s DecompressMany: %w", fieldCodecs[ci].name, err))
			return 0
		}
		decs[ci] = out
	}
	lat = f.done(get, s0)
	busy += lat
	for ci := range decs {
		for i, d := range decs[ci] {
			if err := f.check(ci, i, d); err != nil {
				log.fail(err)
				return 0
			}
		}
	}
	log.add(opGet, lat, nout, nin*int64(len(f.codecs)))

	k := f.slab
	singles := make([]*core.Data, len(f.codecs))
	runtime.GC()
	s0 = f.begin(log)
	slab := tr.start("fields.slab", root.id, req)
	for ci, c := range f.codecs {
		sp := tr.start("meta.DecompressMany.one."+fieldCodecs[ci].name, slab.id, req)
		out, err := meta.DecompressMany(c, comps[ci][k:k+1], f.hints[k:k+1], f.e.nproc)
		sp.end()
		if err != nil {
			log.fail(fmt.Errorf("%s single-field decode: %w", fieldCodecs[ci].name, err))
			return 0
		}
		singles[ci] = out[0]
	}
	lat = f.done(slab, s0)
	busy += lat
	for ci, d := range singles {
		if err := f.check(ci, k, d); err != nil {
			log.fail(err)
			return 0
		}
	}
	log.add(opSlab, lat, 0, int64(f.inputs[k].ByteLen())*int64(len(f.codecs)))
	return busy
}

// measure is a closed loop of one caller: iterations back to back, each
// operation using nproc workers.
func (f *fieldsInst) measure(d time.Duration, tr *tracer, log *opLog) {
	if !f.warm {
		f.iteration(0, nil, newOpLog())
		f.warm = true
	}
	deadline := time.Now().Add(d)
	f.answered = time.Time{}
	for first := true; first || time.Now().Before(deadline); first = false {
		f.req++
		// One caller: capacity counts operation time only, so the checks
		// between operations do not count against the program.
		if busy := f.iteration(f.req, tr, log); busy > 0 {
			log.addRate(numKinds/busy.Seconds(), fmt.Sprintf("iterations of %d operations / their operation time", numKinds))
		}
	}
}

package fpzip

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"pressio/internal/sdrbench"
)

// formatGolden pins the FPZ1 bitstream: the SHA-256 and length of
// CompressSlice output, as the bit-at-a-time reference coder (kept in the
// rangecoder tests) produces it. A change to the coder or the residual
// model that alters any stream fails here; such a change needs a new format
// version, not new values in this table.
var formatGolden = []struct {
	name   string
	prec   uint
	sha256 string
	length int
}{
	{sdrbench.NameHurricane, 0, "23b823f997fd3d17414ce7e179fb260fc48fa23b9cc1e90ef5391521baa6e7d0", 24044},
	{sdrbench.NameHurricane, 16, "a1a6cc01bba454b3f7fdd0cae0dd150d338ec39f598579d2558cb81d14b5af79", 8667},
	{sdrbench.NameScaleLetKF, 0, "92cc0331ff9d91ef624636cf8b30945f5ece7ac5518e4324dc0bc59a8528fb6f", 11345},
	{sdrbench.NameScaleLetKF, 16, "26ccc4cc276542756cd6ceef563885cc5e8ae842042076bb080fedd7d24ac58d", 785},
	{sdrbench.NameNYX, 0, "b8a003880158f25c8eecea17a79d00d1922a3e19b901a3e92bf9057b0025ebcf", 11605},
	{sdrbench.NameNYX, 16, "b791cc075578e8bf9a887e713a4e0ee0f49776fbdf48bbe277f8c9a2f7dcb7a6", 3205},
	{sdrbench.NameHACC, 0, "7f468863a1860775ba36d4a17c0ebe9272e8fb7c4c4f3bce8661b4d4d01343fa", 213508},
	{sdrbench.NameHACC, 16, "0acad1fd841e9bd4efa8863989704f58f2e0daa90998ad9f6ba02a1741ede04a", 79611},
	{"float64", 0, "00938550ac4640b0895a08aaad659a0600d92c527ce79b0beb3beab307b44ac4", 45923},
}

// goldenFloat64 is a 10×20×30 float64 field mixing a smooth trend, noise
// over many decades, and arbitrary bit patterns (NaNs and infinities
// included), so classes up to 64 and both raw-bit halves are exercised.
func goldenFloat64() []float64 {
	rng := rand.New(rand.NewSource(31))
	vals := make([]float64, 10*20*30)
	for i := range vals {
		switch i % 5 {
		case 0:
			vals[i] = math.Float64frombits(rng.Uint64())
		case 1:
			vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		default:
			vals[i] = math.Sin(float64(i)/50)*1e3 + rng.NormFloat64()
		}
	}
	return vals
}

func TestFormatGolden(t *testing.T) {
	for _, g := range formatGolden {
		var stream []byte
		var err error
		if g.name == "float64" {
			stream, err = CompressSlice(goldenFloat64(), []uint64{10, 20, 30}, Params{Precision: g.prec})
		} else {
			d, ok := sdrbench.Generate(g.name, 1, 2021)
			if !ok {
				t.Fatalf("unknown field %s", g.name)
			}
			stream, err = CompressSlice(d.Float32s(), d.Dims(), Params{Precision: g.prec})
		}
		if err != nil {
			t.Fatalf("%s prec %d: %v", g.name, g.prec, err)
		}
		sum := sha256.Sum256(stream)
		if got := hex.EncodeToString(sum[:]); got != g.sha256 || len(stream) != g.length {
			t.Errorf("%s prec %d: FPZ1 stream changed: sha256 %s length %d, want %s length %d",
				g.name, g.prec, got, len(stream), g.sha256, g.length)
		}
	}
}

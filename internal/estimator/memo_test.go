package estimator

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/model"
	"repro/internal/units"
)

// fresh returns an estimator that has never memoized anything, carrying
// m's online corrections, so its predictions are the uncached reference.
func fresh(m *Estimator) *Estimator {
	f := New(m.cfg, m.spec, m.params)
	f.prefillCorr, f.decodeCorr = m.prefillCorr, m.decodeCorr
	return f
}

func sameBits(t *testing.T, what string, got, want units.Seconds) {
	t.Helper()
	if math.Float64bits(got.Float()) != math.Float64bits(want.Float()) {
		t.Fatalf("%s: memoized %v (%#x), fresh %v (%#x)", what,
			got, math.Float64bits(got.Float()), want, math.Float64bits(want.Float()))
	}
}

// collidingKeys returns n distinct packable prefill argument tuples that
// all land in one memo slot, so alternating them evicts each other.
func collidingKeys(n int) [][3]int {
	var out [][3]int
	var slot uint64
	for tok := 1; len(out) < n; tok++ {
		key, ok := prefillKey(tok, 0, 54, true)
		if !ok {
			panic("unpackable test key")
		}
		if len(out) == 0 {
			slot = prefillSlot(key)
		}
		if prefillSlot(key) == slot {
			out = append(out, [3]int{tok, 0, 54})
		}
	}
	return out
}

// TestPrefillMemoBitIdentical drives one memoized estimator through
// random prediction sequences — repeated keys, forced slot collisions,
// keys too wide to pack, SM counts past the device, feedback between
// calls and correction resets — and checks every prediction against a
// fresh estimator bit for bit.
func TestPrefillMemoBitIdentical(t *testing.T) {
	spec := gpusim.A100()
	m := New(model.Llama31_8B(), spec, Params{DC: 0.83, DB: 0.91, PC: 0.87, PB: 0.79})
	rng := rand.New(rand.NewSource(7))
	coll := collidingKeys(3)
	pick := func() (tok, hist, sms int, coloc bool) {
		switch r := rng.Intn(10); {
		case r < 2: // forced collisions in one slot
			k := coll[rng.Intn(len(coll))]
			return k[0], k[1], k[2], true
		case r < 6: // a small hot set that hits
			return 256 * (1 + rng.Intn(4)), 0, 6 * (1 + rng.Intn(18)), rng.Intn(2) == 0
		case r < 7: // beyond the packed widths: uncached path
			return 1<<memoTokenBits + rng.Intn(64), rng.Intn(2) << (memoTokenBits + 1), 1 + rng.Intn(spec.NumSMs), false
		case r < 8: // more SMs than the device: the LM-head memo is bypassed
			return 1 + rng.Intn(4096), 0, spec.NumSMs + 1 + rng.Intn(32), rng.Intn(2) == 0
		default:
			return 1 + rng.Intn(16384), rng.Intn(8192), 1 + rng.Intn(spec.NumSMs), rng.Intn(2) == 0
		}
	}
	for i := 0; i < 4000; i++ {
		tok, hist, sms, coloc := pick()
		ref := fresh(m)
		switch rng.Intn(4) {
		case 0:
			sameBits(t, "PrefillLayerTime", m.PrefillLayerTime(tok, hist, sms, coloc), ref.PrefillLayerTime(tok, hist, sms, coloc))
		case 1:
			layers := rng.Intn(33)
			sameBits(t, "PrefillRemainingTime", m.PrefillRemainingTime(tok, hist, layers, sms, coloc),
				ref.PrefillRemainingTime(tok, hist, layers, sms, coloc))
		case 2:
			sameBits(t, "PrefillTotalTime", m.PrefillTotalTime(tok, hist, sms, coloc), ref.PrefillTotalTime(tok, hist, sms, coloc))
		default:
			batch, ctx := 1+rng.Intn(4), units.Tokens(512*(1+rng.Intn(2)))
			sameBits(t, "DecodeStepTime", m.DecodeStepTime(batch, ctx, sms, coloc), ref.DecodeStepTime(batch, ctx, sms, coloc))
		}
		switch rng.Intn(20) {
		case 0:
			m.ObservePrefill(m.PrefillLayerTime(tok, hist, sms, coloc), units.Seconds(1e-3*(0.5+rng.Float64())))
		case 1:
			m.ObserveDecode(m.DecodeStepTime(8, 1024, sms, coloc), units.Seconds(1e-2*(0.5+rng.Float64())))
		case 2:
			m.ResetCorrections()
		}
	}
}

// TestPrefillMemoInvalidStillPanics checks that calls which panic
// uncached are never memoized: they panic on every repetition.
func TestPrefillMemoInvalidStillPanics(t *testing.T) {
	m := testEstimator()
	for _, c := range []struct {
		name string
		call func()
	}{
		{"zero tokens", func() { m.PrefillLayerTime(0, 0, 54, false) }},
		{"negative tokens", func() { m.PrefillTotalTime(-3, 0, 54, true) }},
		{"zero SMs", func() { m.PrefillLayerTime(512, 0, 0, false) }},
		{"zero SMs total", func() { m.PrefillTotalTime(512, 0, 0, true) }},
	} {
		for rep := 0; rep < 3; rep++ {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s: call %d did not panic", c.name, rep)
					}
				}()
				c.call()
			}()
		}
	}
}

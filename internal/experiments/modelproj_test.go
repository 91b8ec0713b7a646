package experiments

import (
	"fmt"
	"math"
	"testing"

	"resilience/internal/core"
	"resilience/internal/model"
)

// TestTab6CRFitPinned pins tab6's CR-M and CR-D fits at tiny scale to the
// bit: the baseline and failure rate, each level's t_C, I_C and power
// fraction, and the prediction. The values are the ones the model gave
// when it priced a scalar t_C and I_C per scheme; the leveled model must
// reproduce them.
func TestTab6CRFitPinned(t *testing.T) {
	cfg := tinyCfg()
	want := map[core.SchemeKind]string{
		core.CRM: "tbase=3f74ff73ae9c8d58 pbase=4053ffffffffffb8 lambda=40902ffafe7d9053 tc=3ebc9a0f6c4bdc0c ic=3f651a76d614fa1d pfrac=3ff0000000000000 tres=3f7c089ef2eced7f eres=3fe1856357d41431 t=3f88840950c4bd6c e=3feea50ba4f5ec59 p=4053ffffffffffb8",
		core.CRD: "tbase=3f74ff73ae9c8d58 pbase=4053ffffffffffb8 lambda=4086a3f190113748 tc=3f410e1a4a032e5e ic=3f651a76d614fa1d pfrac=3fe7ae147ae147ae tres=3f77d65739a55a8d eres=3fdc6af42b8fdb80 t=3f866ae57420f3f2 e=3feb552262e9c5e8 p=405382098c4c24e3",
	}
	b := math.Float64bits
	for _, kind := range []core.SchemeKind{core.CRM, core.CRD} {
		out, err := cfg.run(cell{matrix: "x104", scheme: core.SchemeSpec{Kind: kind, CkptEvery: 100}})
		if err != nil {
			t.Fatal(err)
		}
		p, err := model.FitCR(out[0].ff, out[0].rep, cfg.Plat)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := model.PredictCR(p)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("tbase=%016x pbase=%016x lambda=%016x", b(p.TBase), b(p.PBase), b(p.Lambda))
		for _, lv := range p.Levels {
			got += fmt.Sprintf(" tc=%016x ic=%016x pfrac=%016x", b(lv.TC), b(lv.IC), b(lv.PFrac))
		}
		got += fmt.Sprintf(" tres=%016x eres=%016x t=%016x e=%016x p=%016x",
			b(pred.TRes), b(pred.ERes), b(pred.T), b(pred.E), b(pred.P))
		if got != want[kind] {
			t.Errorf("%s fit moved:\n got %s\nwant %s", kind, got, want[kind])
		}
	}
}

package experiments_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"spirvfuzz/internal/experiments"
)

// TestExperimentsOutputPinned pins the text of gfauto's paper tables — Table
// 3, Figure 7, RQ2, Table 4 and the bisection RQ — at a fixed scale and at
// 1 and 4 workers: the digest must not move when the code that runs the
// campaigns is rebuilt. Regenerate the constant only for a deliberate
// change to what the experiments measure.
func TestExperimentsOutputPinned(t *testing.T) {
	const want = "80e56fb85e123b626dc57a55523f1146577bdf6e6055052cebec9726c381d0de"
	for _, workers := range []int{1, 4} {
		c, err := experiments.RunCampaigns(experiments.Config{Tests: 120, Groups: 6, CapPerSignature: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		// gfauto runs the bisection RQ first.
		b, err := experiments.BisectRQ(c)
		if err != nil {
			t.Fatal(err)
		}
		text := experiments.RenderTable3(experiments.Table3(c)) +
			experiments.RenderFigure7(experiments.Figure7(c)) +
			experiments.RenderRQ2(experiments.RQ2(c)) +
			experiments.RenderTable4(experiments.Table4(c)) +
			experiments.RenderBisectRQ(b)
		sum := sha256.Sum256([]byte(text))
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("workers=%d: output digest %s, want %s\n%s", workers, got, want, text)
		}
	}
}

package bench

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// resultsFile is the committed output of `go run ./cmd/megabench`: the
// numbers EXPERIMENTS.md quotes. It is the only copy of them; this test
// reads its expectations out of it, and ci.sh diffs the whole file against
// a fresh full run.
const resultsFile = "../../results_full.txt"

var update = flag.Bool("update", false, "rewrite the golden experiments' blocks of results_full.txt from this run")

// goldenIDs are the experiments that finish in seconds at paper scale on one
// shared Context (≈ 4 s together), so tier-1 pins them; the rest take up to
// 20 s each and are pinned by ci.sh's full diff only.
var goldenIDs = []string{"fig3", "fig4", "fig5", "table5", "ablation-uarch"}

// goldenBlock returns the span of text holding every table of experiment id:
// from its first "== id:" header up to the next header of another
// experiment (an experiment's tables are contiguous).
func goldenBlock(text, id string) (start, end int) {
	start = strings.Index("\n"+text, "\n== "+id+":")
	if start < 0 {
		return -1, -1
	}
	end = len(text)
	for at := start; ; {
		next := strings.Index(text[at:], "\n== ")
		if next < 0 {
			break
		}
		at += next + 1
		if !strings.HasPrefix(text[at:], "== "+id+":") {
			end = at
			break
		}
	}
	return start, end
}

// TestGoldenResults runs each cheap experiment exactly as megabench does and
// demands its text equal the block of results_full.txt under the same
// header, byte for byte: the simulators are deterministic (simulated cycles,
// no wall clock), so any difference is a change to the model, and
// `go test ./internal/bench -run TestGoldenResults -update` is how such a
// change is made on purpose.
func TestGoldenResults(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale experiments in -short mode")
	}
	data, err := os.ReadFile(resultsFile)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	c := NewContext()
	for _, id := range goldenIDs {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
		}
		tables, err := e.Run(c)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var got strings.Builder
		for i := range tables {
			tables[i].Fprint(&got)
		}
		start, end := goldenBlock(text, id)
		if start < 0 {
			t.Fatalf("%s: no \"== %s:\" block in %s", id, id, resultsFile)
		}
		if got.String() == text[start:end] {
			continue
		}
		if *update {
			text = text[:start] + got.String() + text[end:]
			continue
		}
		t.Errorf("%s differs from %s (rerun with -update if the model was meant to change)\n--- committed\n%s--- this run\n%s",
			id, resultsFile, text[start:end], got.String())
	}
	if *update && text != string(data) {
		if err := os.WriteFile(resultsFile, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

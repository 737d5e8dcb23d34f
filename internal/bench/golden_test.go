package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// fastGoldens are the pinned experiments quick enough for go test; CI
// diffs every file under testdata/golden. Regenerate one with
//
//	go run ./cmd/gimbalbench -exp <id> -format json | grep -v '"wall_seconds"' > internal/bench/testdata/golden/<id>.json
var fastGoldens = []string{"fig2", "fig4", "fig15", "fig18", "fig19", "chaos-disconnect", "slo-attrib", "volume-churn"}

// normalizedJSON is the report as gimbalbench -format json prints it, with
// the wall_seconds line (the one field that varies between runs) dropped.
func normalizedJSON(t *testing.T, rp *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rp.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var out bytes.Buffer
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if !strings.Contains(line, `"wall_seconds"`) {
			out.WriteString(line)
		}
	}
	return out.Bytes()
}

// TestGoldens pins the simulated output of the fast experiments byte for
// byte: a refactor of the simulator, device stack, or switch must not move
// a paper figure. A deliberate change regenerates the golden and explains
// the diff.
func TestGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full-size experiments; skipped in -short")
	}
	reports, err := RunAll(fastGoldens, runtime.GOMAXPROCS(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rp := range reports {
		want, err := os.ReadFile(filepath.Join("testdata", "golden", rp.Experiment+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if got := normalizedJSON(t, rp); !bytes.Equal(got, want) {
			t.Errorf("%s differs from testdata/golden/%s.json; rerun it with gimbalbench and diff", rp.Experiment, rp.Experiment)
		}
	}
}

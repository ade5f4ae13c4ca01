package lint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"extdict/internal/cluster"
)

// TestRooflineGolden pins the static roofline report: the rows derived from
// the shipped rank functions, classified against the default platform's
// machine balance, must match the checked-in artifact byte for byte. Any
// change to a kernel's flop or byte polynomial — or to the platform cost
// model — shows up as a diff here (and in scripts/ci.sh, which performs the
// same comparison through the CLI).
func TestRooflineGolden(t *testing.T) {
	prog, _ := loadModuleProgram(t)
	var rows []RooflineRow
	for _, path := range []string{"extdict/internal/dist", "extdict/internal/solver"} {
		if pkg := prog.packageByPath(path); pkg != nil {
			rows = append(rows, Roofline(pkg)...)
		}
	}
	if len(rows) == 0 {
		t.Fatal("no roofline rows derived from the shipped tree")
	}
	report := NewRooflineReport(cluster.NewPlatform(1, 1).MachineBalance(), rows)
	got, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	goldenPath := filepath.Join("testdata", "roofline.golden.json")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("roofline report drifted from %s; regenerate with\n\tgo run ./cmd/extdict-lint -roofline %s ./...\ngot:\n%s", goldenPath, goldenPath, got)
	}
}

// TestRooflineAgreesWithRuntimeCounters closes the loop the roofline report
// stands on: the paired flop/byte claim terms of ExDGram.applyCase1 and
// of each dictionary hop's steps, evaluated at a real instance's
// dimensions, must reproduce the simulator's TotalFlops and TotalBytes
// exactly — so the static arithmetic intensity is the runtime intensity,
// not an estimate of it. The bandwidth-bound verdicts pinned in the golden
// for applyCase1 and the hop's steps must then also hold for the runtime
// ratio.
func TestRooflineAgreesWithRuntimeCounters(t *testing.T) {
	pkg := distPackage(t)
	tr, plat, insts := case1Instances(t)
	balance := plat.MachineBalance()
	for _, in := range insts {
		costs, bytes := deriveCosts(pkg), deriveBytes(pkg)
		st := in.op.Apply(make([]float64, symN), make([]float64, symN))
		if st.TotalFlops == 0 || st.TotalBytes == 0 {
			t.Fatalf("%s: runtime counters empty: flops=%d bytes=%d", in.hop, st.TotalFlops, st.TotalBytes)
		}
		var staticFlops, staticBytes int64
		for i := 0; i < symP; i++ {
			bind := rankBind(tr, plat, in, i)
			staticFlops += case1Claims(t, costs, in.hop, bind, i)
			staticBytes += case1Claims(t, bytes, in.hop, bind, i)
		}
		if staticFlops != st.TotalFlops {
			t.Fatalf("%s: static flops %d, runtime counted %d", in.hop, staticFlops, st.TotalFlops)
		}
		if staticBytes != st.TotalBytes {
			t.Fatalf("%s: static bytes %d, runtime counted %d", in.hop, staticBytes, st.TotalBytes)
		}

		runtimeAI := float64(st.TotalFlops) / float64(st.TotalBytes)
		if runtimeAI >= balance {
			t.Fatalf("%s: runtime intensity %.4f at or above machine balance %.4f; golden says bandwidth-bound", in.hop, runtimeAI, balance)
		}
		for _, row := range Roofline(pkg) {
			if row.Func != "ExDGram.applyCase1" && !strings.HasPrefix(row.Func, in.hop+".") {
				continue
			}
			report := NewRooflineReport(balance, []RooflineRow{row})
			if report.Kernels[0].Bound != "bandwidth" {
				t.Fatalf("region %d of %s classified %q, runtime says bandwidth", row.Region, row.Func, report.Kernels[0].Bound)
			}
		}
	}
}

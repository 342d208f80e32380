package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchmarkSpec is the part of BENCHMARK.json the A-A check needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec() (benchmarkSpec, error) {
	var spec benchmarkSpec
	root, err := checkoutRoot()
	if err != nil {
		return spec, err
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// runAA runs every workload n times as set A and n times as set B,
// interleaved (A B A B ...), with a different seed each run, and compares
// each end-to-end metric's two medians against its bound: the same code
// must agree with itself before any difference between two commits can be
// believed.
func runAA(n int, seed int64, seconds int, dataRoot string) error {
	spec, err := readSpec()
	if err != nil {
		return err
	}
	excess := 0
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			res, err := runEndToEnd(w, seed+int64(i), seconds, dataRoot)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if res.Failed > 0 {
				return fmt.Errorf("%s: %d of %d requests failed", w.name, res.Failed, res.Attempted)
			}
			for name, mt := range res.Metrics {
				sets[i%2][name] = append(sets[i%2][name], mt.Value)
			}
		}
		for _, e := range spec.EndToEnd {
			a, b := medianFloat(sets[0][e.Name]), medianFloat(sets[1][e.Name])
			worse := (b - a) / a // B relative to A, positive = larger
			if e.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > e.Bound {
				verdict = "EXCESS"
				excess++
			}
			fmt.Printf("aa %-16s %-22s A=%14.4f B=%14.4f %s worse by %+.4f bound %.2f %s\n",
				w.name, e.Name, a, b, e.Unit, worse, e.Bound, verdict)
		}
	}
	if excess > 0 {
		return fmt.Errorf("A-A: %d metric(s) differ between two sets of the same code by more than their bound", excess)
	}
	return nil
}

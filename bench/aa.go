package main

import (
	"fmt"
	"math"
	"os"
)

// runAA runs the end-to-end set twice in one invocation — A in
// declaration order, B reversed, so no workload always follows the same
// neighbour — and prints, per workload and metric, B's difference from A
// as a share of A next to the metric's bound. It reports whether every
// difference stayed inside its bound: two runs of the same code must.
// The table is markdown; README.md keeps a copy as the evidence for the
// bounds.
func runAA(seed int64, seconds float64) bool {
	run := func(order []*workload) (map[string]*result, bool) {
		out := map[string]*result{}
		ok := true
		for _, w := range order {
			res, err := runPlain(w, seed, seconds)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%s seed=%d seconds=%g\n", w.name, seed, seconds)
			res.print(os.Stdout, w)
			out[w.name] = res
			ok = ok && res.correct
		}
		return out, ok
	}
	reversed := make([]*workload, len(workloads))
	for i, w := range workloads {
		reversed[len(workloads)-1-i] = w
	}
	a, okA := run(workloads)
	b, okB := run(reversed)
	ok := okA && okB

	fmt.Printf("\n| workload | metric | A | B | (B-A)/A | bound | |\n|---|---|---|---|---|---|---|\n")
	for _, w := range workloads {
		for _, d := range endToEndDecls {
			va, vb := a[w.name].metrics[d.name].Value, b[w.name].metrics[d.name].Value
			diff := (vb - va) / va
			verdict := "ok"
			if math.Abs(diff) > d.bound {
				verdict = "EXCEEDS"
				ok = false
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %+.4f | %.2f | %s |\n", w.name, d.name, va, vb, diff, d.bound, verdict)
		}
	}
	return ok
}

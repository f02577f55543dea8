// Fbtrace: the §V trace-driven experiment end to end — synthesize an
// FB-2009-like day of jobs, run it on the hybrid architecture and on the
// THadoop/RHadoop baselines, and print the per-class execution-time
// statistics behind Figure 10.
package main

import (
	"fmt"
	"log"
	"time"

	"hybridmr/internal/figures"
	"hybridmr/internal/mapreduce"
	"hybridmr/internal/workload"
)

func main() {
	cal := mapreduce.DefaultCalibration()
	cfg := workload.DefaultConfig()
	cfg.Jobs = 3000 // half a day keeps the example quick
	cfg.Duration = 12 * time.Hour

	tr, err := figures.RunTrace(cal, cfg)
	if err != nil {
		log.Fatal(err)
	}
	upCount := 0
	for _, up := range tr.Up {
		if up {
			upCount++
		}
	}
	fmt.Printf("trace: %d jobs, %d scale-up / %d scale-out\n\n",
		len(tr.Jobs), upCount, len(tr.Jobs)-upCount)

	for _, class := range []struct {
		name string
		up   bool
	}{{"scale-up jobs (Fig. 10a)", true}, {"scale-out jobs (Fig. 10b)", false}} {
		fmt.Printf("== %s\n", class.name)
		for _, arch := range []struct {
			name string
			exec []float64
		}{
			{"Hybrid", tr.Hybrid},
			{"THadoop", tr.THadoop},
			{"RHadoop", tr.RHadoop},
		} {
			cdf := tr.ClassCDF(arch.exec, class.up)
			fmt.Printf("  %-8s p50=%7.1fs p90=%7.1fs p99=%7.1fs max=%7.1fs\n",
				arch.name, cdf.Quantile(0.5), cdf.Quantile(0.9), cdf.Quantile(0.99), cdf.Max())
		}
	}
	fmt.Println("\npaper maxima — scale-up: 48.53/83.37/68.17s; scale-out: 1207/3087/2734s")
	fmt.Println("(see EXPERIMENTS.md for the scale-out-class discussion)")
}

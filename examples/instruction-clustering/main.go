// Instruction clustering: the paper's strategy for scaling SAVAT beyond
// pairwise measurement (Sections III and VII): measure the 11×11 matrix,
// then cluster instructions with SAVAT as the distance metric so large
// instruction sets can be explored via class representatives.
//
// Running the full campaign takes ~10 s in fast mode; it then recovers
// the paper's four Section V groups from the *measured* matrix.
//
//	go run ./examples/instruction-clustering
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/report"
	"repro/internal/savat"
)

func main() {
	spec := savat.DefaultCampaignSpec()
	spec.Config = savat.FastConfig()
	spec.Repeats = 2
	monitor := func(ev engine.ProgressEvent) {
		fmt.Fprintf(os.Stderr, "\rmeasuring %d/%d cells", ev.Stats.Done, ev.Stats.Total)
	}
	res, err := savat.RunSpecContext(context.Background(), spec, engine.Options{Monitor: monitor})
	fmt.Fprintln(os.Stderr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(report.Heatmap(res.Mean))

	d, err := cluster.Cluster(res.Mean)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("agglomeration order (floor-adjusted average-linkage distance):")
	for i, m := range d.Merges {
		fmt.Printf("  merge %2d at %6.2f zJ\n", i+1, m.Distance*1e21)
	}

	for _, k := range []int{2, 4, 6} {
		groups, err := d.CutK(k)
		if err != nil {
			log.Fatal(err)
		}
		sil, err := cluster.Silhouette(res.Mean, groups)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nk=%d (silhouette %.2f):\n", k, sil)
		for i, g := range groups {
			names := make([]string, len(g))
			for j, e := range g {
				names[j] = e.String()
			}
			fmt.Printf("  class %d: %s\n", i+1, strings.Join(names, ", "))
		}
	}
	fmt.Println("\nexpect at k=4 the paper's Section V groups:")
	fmt.Println("  {LDM, STM}  {LDL2, STL2}  {LDL1, STL1, NOI, ADD, SUB, MUL}  {DIV}")
}

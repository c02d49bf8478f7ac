// Campaign service: submit overlapping campaigns to an embedded
// service.Server and watch in-flight deduplication do the work once.
//
// The savatd daemon (cmd/savatd) wraps exactly this server in an HTTP
// API; here it is driven in-process. Two tenants submit campaigns over
// the same 3×3 grid at the same time — one of them a strict superset
// of the other — and the shared content-addressed cache plus in-flight
// dedup mean every overlapping cell is computed exactly once, no
// matter who asked first.
//
//	go run ./examples/campaign-service
package main

import (
	"fmt"
	"log"

	"repro/internal/savat"
	"repro/internal/service"
)

func main() {
	// An in-process campaign server: 2 campaigns at a time, in-memory
	// cache (pass StateDir to persist results on disk).
	srv, err := service.New(service.Options{MaxActive: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// One serializable description per campaign — the same
	// savat.CampaignSpec that cmd/savat -emit-spec writes and savatd
	// accepts over HTTP.
	spec := savat.DefaultCampaignSpec()
	spec.Config = savat.FastConfig()
	spec.Events = []savat.Event{savat.ADD, savat.LDM, savat.DIV}
	spec.Repeats = 3

	subset := spec
	subset.Events = []savat.Event{savat.ADD, savat.LDM}

	// Submit both at once for different tenants. Their grids overlap in
	// 2×2×3 = 12 cells; those are computed once between the two jobs.
	jobA, err := srv.Submit(spec, service.SubmitOptions{Tenant: "alice"})
	if err != nil {
		log.Fatal(err)
	}
	jobB, err := srv.Submit(subset, service.SubmitOptions{Tenant: "bob"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted %s (alice, 3×3) and %s (bob, 2×2 subset)\n", jobA.ID, jobB.ID)

	// Stream alice's per-cell progress while both campaigns run.
	events, stop, err := srv.Subscribe(jobA.ID)
	if err != nil {
		log.Fatal(err)
	}
	defer stop()
	for ev := range events {
		fmt.Printf("  cell (%d,%d) rep %d: cached=%v deduped=%v  %d/%d done\n",
			ev.Row, ev.Col, ev.Rep, ev.Cached, ev.Deduped, ev.Stats.Done, ev.Stats.Total)
	}

	for _, id := range []string{jobA.ID, jobB.ID} {
		<-mustDone(srv, id)
		jb, err := srv.Get(id)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s (%s): %s — %d computed, %d cached, %d deduped\n",
			jb.ID, jb.Tenant, jb.State, jb.Stats.Computed, jb.Stats.Cached, jb.Stats.Deduped)
	}

	// Fetch alice's finished matrix; equal specs would give
	// bit-identical results from a direct savat.RunSpecContext.
	res, err := srv.Result(jobA.ID)
	if err != nil {
		log.Fatal(err)
	}
	add, err := res.Mean.At(savat.ADD, savat.LDM)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ADD/LDM from the service: %.2f zJ\n", add*1e21)
}

func mustDone(srv *service.Server, id string) <-chan struct{} {
	done, err := srv.Done(id)
	if err != nil {
		log.Fatal(err)
	}
	return done
}

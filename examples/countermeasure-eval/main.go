// Countermeasure evaluation: how much of the attacker's signal do the
// classic software and hardware mitigations actually remove?
//
// The paper's methodology (Section III) measures the signal *available*
// to the attacker, which makes it the right yardstick for defenses: a
// countermeasure is worth its overhead exactly in proportion to the
// SAVAT it removes. This example scores four mitigations on the Core 2
// Duo model — random no-op insertion, execution shuffling, an additive
// on-die noise generator, and supply-rail filtering (the latter two on
// the conducted power channel, where they physically live) — by running
// the matched campaign pair (with and without the chain) and comparing
// the matrices.
//
// The punchline mirrors the side-channel folklore: deterministic-rate
// padding barely moves the per-pair energy (the alternation still
// happens, just slower), while the *timing randomness* that comes with
// the padding smears the alternation line out of the measurement band,
// and a supply filter attenuates everything the power rail carries.
//
//	go run ./examples/countermeasure-eval
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/counter"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/savat"
)

func main() {
	// A 4-event grid spanning the matrix's dynamic range keeps the eight
	// campaigns (4 chains × matched pair) quick while still exercising
	// loud (LDM/NOI) and quiet (ADD/SUB-like) pairings.
	events := []savat.Event{savat.LDM, savat.NOI, savat.ADD, savat.MUL}

	cases := []struct {
		channel string
		chain   counter.Chain
		note    string
	}{
		{"em", counter.Chain{{Name: counter.NoopInsert, Param: 0.10}},
			"random no-op insertion, p=0.10"},
		{"em", counter.Chain{{Name: counter.Shuffle, Param: 8}},
			"execution shuffling, window 8"},
		{"power", counter.Chain{{Name: counter.NoiseGen, Param: 5e-16}},
			"additive noise generator on the rail"},
		{"power", counter.Chain{{Name: counter.SupplyFilter, Param: 20e3}},
			"supply filter, 20 kHz corner"},
	}

	fmt.Println("countermeasure effectiveness, Core2Duo, fast captures:")
	fmt.Println()
	for _, c := range cases {
		ch, err := machine.ChannelByName(c.channel)
		if err != nil {
			log.Fatal(err)
		}
		spec := savat.DefaultCampaignSpec()
		spec.Config = savat.FastConfig()
		spec.Config.Channel = c.channel
		if c.channel != "em" {
			spec.Config.Environment = ch.Environment()
		}
		spec.Config.Countermeasures = c.chain
		spec.Events = events
		spec.Repeats = 2
		spec.Seed = 7

		rep, err := savat.RunCountermeasureReport(context.Background(), spec, engine.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-34s (%s channel): mean attenuation %+6.2f dB, distinguishability %5.2f -> %5.2f dB\n",
			c.note, c.channel, rep.MeanAttenuationDB,
			rep.DistinguishabilityBeforeDB, rep.DistinguishabilityAfterDB)
	}

	// One full report, rendered the way cmd/savat does, for the chain a
	// defender would actually deploy on the power rail.
	fmt.Println()
	spec := savat.DefaultCampaignSpec()
	spec.Config = savat.FastConfig()
	spec.Config.Channel = "power"
	spec.Config.Environment = machine.Channels()["power"].Environment()
	spec.Config.Countermeasures = counter.Chain{
		{Name: counter.NoopInsert, Param: 0.10},
		{Name: counter.SupplyFilter, Param: 20e3},
	}
	spec.Events = events
	spec.Repeats = 2
	spec.Seed = 7
	rep, err := savat.RunCountermeasureReport(context.Background(), spec, engine.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if err := rep.WriteTable(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

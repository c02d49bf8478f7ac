// Command savatspec records and plots the received spectrum around the
// alternation frequency for one instruction pair — the views of the
// paper's Figure 7 (ADD/LDM: a strong, slightly shifted and dispersed
// alternation line) and Figure 8 (ADD/ADD: the measurement floor with a
// weak external radio carrier).
//
//	savatspec -machine Core2Duo -pair ADD/LDM
//	savatspec -pair ADD/ADD
//
// The plot's -span is a half-span around the alternation frequency and
// may not exceed the analyzed one (2 kHz, the paper's 4 kHz display):
// a wider -span is a usage error, exit status 2.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/savat"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "savatspec:", err)
		os.Exit(1)
	}
}

// spanFlag is the plot half-span in Hz. Set rejects a span the
// measurement's trace cannot serve: wider than the analyzed half-span.
type spanFlag float64

func (s *spanFlag) String() string { return strconv.FormatFloat(float64(*s), 'g', -1, 64) }

func (s *spanFlag) Set(v string) error {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return err
	}
	if max := savat.DefaultConfig().AnalysisHalfSpan(); !(f > 0 && f <= max) {
		return fmt.Errorf("half-span %g Hz outside (0, %g]: the trace holds the band %g Hz either side of the alternation frequency", f, max, max)
	}
	*s = spanFlag(f)
	return nil
}

func run() error {
	span := spanFlag(savat.DisplayHalfSpan)
	var (
		machineName = flag.String("machine", "Core2Duo", "system to simulate")
		distance    = flag.Float64("distance", 0.10, "antenna distance in metres")
		pairFlag    = flag.String("pair", "ADD/LDM", "pair to alternate, e.g. ADD/LDM")
		seed        = flag.Int64("seed", 1, "random seed")
	)
	flag.Var(&span, "span", "plot half-span around the alternation frequency in `Hz`, at most the analyzed half-span")
	flag.Parse()

	mc, err := machine.ConfigByName(*machineName)
	if err != nil {
		return err
	}
	parts := strings.Split(*pairFlag, "/")
	if len(parts) != 2 {
		return fmt.Errorf("pair %q must be A/B", *pairFlag)
	}
	a, err := savat.EventByName(parts[0])
	if err != nil {
		return err
	}
	b, err := savat.EventByName(parts[1])
	if err != nil {
		return err
	}

	cfg := savat.DefaultConfig()
	cfg.Distance = *distance
	rng := rand.New(rand.NewSource(*seed))
	m, err := savat.NewMeasurer(mc, cfg).Measure(a, b, rng)
	if err != nil {
		return err
	}

	fmt.Printf("%s %v/%v alternation at %.2f m (intended %.0f kHz, loop count %d)\n",
		mc.Name, a, b, cfg.Distance, cfg.Frequency/1e3, m.LoopCount)
	plot, err := report.SpectrumPlot(m.Trace, cfg.Frequency, float64(span), 78, 16)
	if err != nil {
		return err
	}
	fmt.Print(plot)

	peakF, peakPSD, err := m.Trace.Peak(cfg.Frequency, cfg.BandHalfWidth)
	if err != nil {
		return err
	}
	fmt.Printf("peak: %.1f Hz (shift %+.0f Hz from intended), %.3g W/Hz\n",
		peakF, peakF-cfg.Frequency, peakPSD)
	fmt.Printf("band power %.0f kHz ± %.0f kHz: %.3g W over %.3g pairs/s\n",
		cfg.Frequency/1e3, cfg.BandHalfWidth/1e3, m.BandPower, m.PairsPerSecond)
	fmt.Printf("SAVAT = %.2f zJ per %v/%v instruction pair\n", m.ZJ(), a, b)
	return nil
}

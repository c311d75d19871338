package bench

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"mcio/internal/cliutil"
	"mcio/internal/collio"
	"mcio/internal/machine"
	"mcio/internal/obs"
	"mcio/internal/obs/timeline"
)

// Experiment declares one experiment of the paper's evaluation and what
// the mcio subcommands can do with it. Each capability is a function
// that is nil when the experiment lacks it; a subcommand runs exactly
// the entries that have its capability.
type Experiment struct {
	Name string
	// Engines lists the pricing engines `mcio bench -engine` may pick,
	// the default first. Every entry with a Ledger declares at least
	// one; the rest leave it nil.
	Engines []string

	// Text renders the experiment as `mcio -exp` prints it.
	Text func(w io.Writer, a Args) error
	// Ledger fills the run record `mcio bench` writes.
	Ledger func(rec *obs.RunRecord, a Args) error
	// Figure builds the platform and workload `mcio observe` instruments.
	Figure figureFunc
	// Profile records the run `mcio profile` renders and writes its
	// summary header.
	Profile func(rec *timeline.Recorder, summary *strings.Builder, a Args) error
	// Campaign runs the chaos campaign `mcio chaos` reports; clean is
	// false on any invariant violation or undetected corruption.
	Campaign func(c ChaosConfig) (summary string, clean bool, err error)
}

// Args carries the run parameters of one experiment run. Each
// capability reads the fields its subcommand has flags for.
type Args struct {
	Scale int64
	Seed  uint64
	// Engine is the pricing engine; "" keeps each config's own.
	Engine string
	// Details and JSONPath are `mcio -exp`'s per-point aggregator
	// accounting and figure-JSON export.
	Details  bool
	JSONPath string
	// MemMB and Op pick the sweep point and direction `mcio profile`
	// records.
	MemMB int
	Op    collio.Op
}

// figureFunc builds a figure's platform, workload and workload name.
type figureFunc func(scale int64, seed uint64) (Config, Workload, string, error)

// experiments is the registry: the only place an experiment is
// declared. Every subcommand lists its entries in this order, which is
// also the order `mcio -exp all` runs them in.
var experiments = []Experiment{
	{Name: "table1", Text: func(w io.Writer, _ Args) error {
		fmt.Fprintln(w, "Table 1: potential exascale design vs 2010 HPC design")
		fmt.Fprintln(w, machine.RenderTable1())
		return nil
	}},
	{Name: "fig2", Text: fig2},
	{Name: "fig4", Text: fig4},
	{Name: "fig5", Text: fig5},
	figure("fig6", fig6),
	figure("fig7", fig7),
	figure("fig8", fig8),
	{Name: "fig-exa", Engines: []string{EngineFast, EngineBytes}, Ledger: sweepLedger(figExa, "fig-exa/")},
	{Name: "fig-exa-faults", Engines: []string{EngineFast, EngineBytes}, Ledger: exaFaultsLedger},
	{Name: "motivation", Text: tableText(Motivation)},
	{Name: "comparison", Text: tableText(StrategyComparison)},
	{Name: "random", Text: tableText(func(scale int64, seed uint64) (*Table, error) {
		return RandomVsInterleaved(scale, seed, 16)
	})},
	{Name: "plan", Text: planText},
	{Name: "scaling", Text: tableText(func(scale int64, seed uint64) (*Table, error) {
		return ScalingSweep(scale, seed, 16)
	})},
	{Name: "trajectory", Engines: []string{EngineBytes}, Text: tableText(Trajectory), Ledger: trajectoryLedger},
	{Name: "blame", Text: tableText(TrajectoryBlame)},
	{Name: "trace", Text: func(w io.Writer, a Args) error {
		out, err := RoundTrace(a.Scale, a.Seed, 8)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, out)
		return nil
	}},
	{Name: "tune", Text: tuneText},
	{Name: "ablation", Text: tableText(AblationGrouping, AblationNah, AblationSigma, AblationOverlap, AblationAggsPerNode)},
	{Name: "faults", Engines: Engines, Text: tableText(FaultSweep), Ledger: faultsLedger},
	// The chaos campaigns execute real byte-level collectives —
	// checksums, hedges, repairs — so there is nothing the analytical
	// engine could price.
	{Name: "chaos", Engines: []string{EngineBytes}, Ledger: chaosLedger},
	{Name: "chaos-gray", Engines: []string{EngineBytes}, Ledger: grayLedger},
	{Name: "corruption", Campaign: corruptionCampaign},
	{Name: "gray", Campaign: grayCampaign, Profile: profileGray},
}

// figure declares one of the paper's bandwidth figures: every
// capability derives from its platform and workload.
func figure(name string, fig figureFunc) Experiment {
	return Experiment{
		Name:    name,
		Engines: Engines,
		Text: func(w io.Writer, a Args) error {
			s, err := runFigure(fig, a)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, Render(s))
			if a.Details {
				fmt.Fprintln(w, RenderDetails(s))
			}
			if a.JSONPath != "" {
				if err := s.SaveJSON(a.JSONPath); err != nil {
					return err
				}
				fmt.Fprintf(w, "saved %s\n", a.JSONPath)
			}
			return nil
		},
		Ledger: sweepLedger(fig, ""),
		Figure: fig,
		Profile: func(rec *timeline.Recorder, summary *strings.Builder, a Args) error {
			return profileFigure(rec, summary, name, fig, a)
		},
	}
}

// runFigure runs fig's full sweep on a.Engine.
func runFigure(fig figureFunc, a Args) (*Series, error) {
	cfg, wl, name, err := fig(a.Scale, a.Seed)
	if err != nil {
		return nil, err
	}
	if a.Engine != "" {
		cfg.Engine = a.Engine
	}
	return RunSweep(cfg, wl, name)
}

// tableText renders experiments that each produce one table, in order.
func tableText(runs ...func(scale int64, seed uint64) (*Table, error)) func(io.Writer, Args) error {
	return func(w io.Writer, a Args) error {
		for _, run := range runs {
			t, err := run(a.Scale, a.Seed)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, t.Render())
		}
		return nil
	}
}

// corruptionCampaign is the silent-corruption soak.
func corruptionCampaign(c ChaosConfig) (string, bool, error) {
	rep, err := Chaos(c)
	if err != nil {
		return "", false, err
	}
	return rep.String(), len(rep.Violations) == 0 && rep.Undetected() == 0, nil
}

// grayCampaign is the gray-failure campaign.
func grayCampaign(c ChaosConfig) (string, bool, error) {
	rep, err := Gray(GrayConfig{Seed: c.Seed, Ops: c.Ops, Rate: c.Rate, Repair: c.Repair, Obs: c.Obs})
	if err != nil {
		return "", false, err
	}
	return rep.String(), len(rep.Violations) == 0 && rep.Undetected() == 0, nil
}

// resolveEngine maps a requested pricing engine onto e's: "" picks the
// default, and an engine e does not declare is rejected.
func (e *Experiment) resolveEngine(name string) (string, error) {
	switch {
	case name == "" && len(e.Engines) > 0:
		return e.Engines[0], nil
	case name == "" || slices.Contains(e.Engines, name):
		return name, nil
	case !slices.Contains(Engines, name):
		return "", cliutil.UnknownChoice("engine", name, Engines)
	}
	return "", fmt.Errorf("experiment %s cannot run on engine %q (supported: %s)",
		e.Name, name, strings.Join(e.Engines, ", "))
}

// Subcommand is one mcio entry point into the registry: it runs the
// entries that have its capability.
type Subcommand struct {
	Name string // as the usage banner shows it
	noun string // what the unknown-name error calls an entry
	all  bool   // also accepts "all": every entry, in registry order
	has  func(*Experiment) bool
}

// The subcommands that dispatch through the registry.
var (
	ExpCmd     = Subcommand{Name: "-exp", noun: "experiment", all: true, has: func(e *Experiment) bool { return e.Text != nil }}
	BenchCmd   = Subcommand{Name: "bench", noun: "experiment", has: func(e *Experiment) bool { return e.Ledger != nil }}
	ObserveCmd = Subcommand{Name: "observe", noun: "figure", has: func(e *Experiment) bool { return e.Figure != nil }}
	ProfileCmd = Subcommand{Name: "profile", noun: "profile experiment", has: func(e *Experiment) bool { return e.Profile != nil }}
	ChaosCmd   = Subcommand{Name: "chaos", noun: "chaos campaign", has: func(e *Experiment) bool { return e.Campaign != nil }}
)

// Entries returns every entry s runs, in registry order.
func (s Subcommand) Entries() []*Experiment {
	var out []*Experiment
	for i := range experiments {
		if s.has(&experiments[i]) {
			out = append(out, &experiments[i])
		}
	}
	return out
}

// Names lists every name s accepts, in registry order — the values its
// usage text and unknown-name error show.
func (s Subcommand) Names() []string {
	var names []string
	for _, e := range s.Entries() {
		names = append(names, e.Name)
	}
	if s.all {
		names = append(names, "all")
	}
	return names
}

// Lookup returns the entry s runs under name, or the error listing
// every name s accepts.
func (s Subcommand) Lookup(name string) (*Experiment, error) {
	for _, e := range s.Entries() {
		if e.Name == name {
			return e, nil
		}
	}
	return nil, cliutil.UnknownChoice(s.noun, name, s.Names())
}

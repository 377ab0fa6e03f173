// Command speedctx regenerates the paper's tables and figures from the
// synthetic datasets and runs the BST pipeline on demand.
//
// Usage:
//
//	speedctx table  <1|2|3|4|5|6|7|ablate-gmm|ablate-upload|ablate-bw|tcp|vendorgap|bbr|challenge|significance|assoc> [flags]
//	speedctx figure <1|2|4|5|6|7|8|9a|9b|9c|9d|10|11|12|13|14|15|16> [flags]
//	speedctx generate -city A -out DIR [flags]
//	speedctx bst -city A [flags]
//	speedctx all [flags]
//	speedctx load [-addr HOST:PORT] [-rows N] [-conns N] [-batch N] [-min-rate R]
//	speedctx tiles [-city A] [-zoom N] [-bbox ...] [-metric M] [-format json|csv] [-snapshot-dir DIR [-cluster-zoom N]]
//
// Common flags: -scale (fraction of the paper's dataset sizes, default
// 0.02), -seed, -ascii (render figures as terminal charts), -par (worker
// parallelism for the BST fits and the `all` fan-out; 0 = all CPUs, 1 =
// serial — output is identical at every setting), -fast (binned KDE +
// histogram-EM fast paths for large slices; approximate but likewise
// identical at every -par) and -snapshot-dir (a .sxc snapshot cache
// directory: cities load from it instead of regenerating, and misses write
// back — output is byte-identical with or without it; DESIGN.md §10).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"speedctx/internal/challenge"
	"speedctx/internal/core"
	"speedctx/internal/dataset"
	"speedctx/internal/experiments"
	"speedctx/internal/parallel"
	"speedctx/internal/plans"
	"speedctx/internal/report"
	"speedctx/internal/tilequery"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "speedctx:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return usageError()
	}
	cmd, rest := args[0], args[1:]
	if cmd == "load" {
		// The load generator has its own flag surface (connections,
		// batch size, rate floor) — dispatch before the common flags.
		return runLoad(rest, out)
	}
	if cmd == "tiles" {
		// The tile query layer owns its flags (zoom, bbox, metric).
		return runTiles(rest, out)
	}
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	scale := fs.Float64("scale", 0.02, "fraction of the paper's dataset sizes")
	seed := fs.Int64("seed", 2021, "generation seed")
	par := fs.Int("par", 0, "worker parallelism: 0 = all CPUs, 1 = serial (output is identical at every setting)")
	fast := fs.Bool("fast", false, "binned KDE + histogram-EM fast paths for large slices (approximate; see DESIGN.md §8)")
	ascii := fs.Bool("ascii", false, "render figures as terminal charts")
	city := fs.String("city", "A", "city identifier (A-D)")
	outDir := fs.String("out", "speedctx-data", "output directory for generate")
	input := fs.String("input", "", "Ookla CSV to analyze (challenge command); empty generates synthetic data")
	snapDir := fs.String("snapshot-dir", "", "directory of .sxc city snapshots: load cities from it instead of generating, writing snapshots back on a miss (output is identical either way; see DESIGN.md §10)")

	var positional []string
	for len(rest) > 0 && rest[0] != "" && rest[0][0] != '-' {
		positional = append(positional, rest[0])
		rest = rest[1:]
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}
	s := experiments.NewSuite(*scale, *seed)
	s.Parallelism = *par
	s.FastFit = *fast
	s.SnapshotDir = *snapDir

	switch cmd {
	case "table":
		if len(positional) != 1 {
			return fmt.Errorf("table: want one table id")
		}
		return emitTable(s, positional[0], out)
	case "figure":
		if len(positional) != 1 {
			return fmt.Errorf("figure: want one figure id")
		}
		return emitFigure(s, positional[0], *ascii, out)
	case "generate":
		return generate(s, *city, *outDir, out)
	case "bst":
		return bstSummary(s, *city, out)
	case "challenge":
		return challengeFile(s, *city, *input, out)
	case "all":
		return emitAll(s, *ascii, out)
	default:
		return usageError()
	}
}

func usageError() error {
	return fmt.Errorf("usage: speedctx <table|figure|generate|bst|challenge|all|load|tiles> [args] [flags]")
}

// challengeFile runs the FCC challenge-evidence screen over an Ookla CSV
// (or the suite's synthetic data when no input is given), so real exported
// datasets can be screened directly.
func challengeFile(s *experiments.Suite, city, input string, out io.Writer) error {
	var (
		recs    []dataset.OoklaRecord
		samples []core.Sample
	)
	if input == "" {
		b, err := s.City(city)
		if err != nil {
			return err
		}
		recs = b.Ookla
		// Reuse the bundle's shared sample view so this fit hits the same
		// cache entry as every suite table/figure over the city slice.
		samples = b.OoklaSampleView()
	} else {
		f, err := os.Open(input)
		if err != nil {
			return err
		}
		defer f.Close()
		cols, err := dataset.ReadOoklaColumns(f, s.Parallelism)
		if err != nil {
			return err
		}
		samples = make([]core.Sample, cols.Len())
		for i := range samples {
			samples[i] = core.Sample{Download: cols.Download[i], Upload: cols.Upload[i]}
		}
		recs = cols.Records()
	}
	cat, ok := plans.ByCity(city)
	if !ok {
		return fmt.Errorf("unknown city %q", city)
	}
	res, err := core.Fit(samples, cat, s.BSTConfig())
	if err != nil {
		return err
	}
	rep, err := challenge.BuildReport(recs, res, cat, challenge.DefaultPolicy())
	if err != nil {
		return err
	}
	return rep.Write(out)
}

func emitTable(s *experiments.Suite, id string, out io.Writer) error {
	var (
		t   *report.Table
		err error
	)
	switch id {
	case "1":
		t, err = s.Table1()
	case "2":
		t, err = s.Table2()
	case "3":
		t, err = s.Table3()
	case "4":
		t, err = s.Table4()
	case "5", "6", "7":
		ts, e := s.Tables567()
		if e != nil {
			return e
		}
		t = ts[int(id[0]-'5')]
	case "ablate-gmm":
		t, err = s.AblationGMMvsKMeans()
	case "ablate-upload":
		t, err = s.AblationUploadFirst()
	case "ablate-bw":
		t, err = s.AblationBandwidthRule()
	case "tcp":
		t = experiments.TCPModelValidation()
	case "vendorgap":
		t = experiments.VendorGapSweep()
	case "bbr":
		t = experiments.RecommendationBBR()
	case "challenge":
		t, err = s.ChallengeTable("A")
	case "significance":
		t, err = s.VendorSignificance()
	case "tiles":
		t, err = s.AggregationLoss()
	case "census":
		t, err = s.BottleneckCensus("A", 0)
	case "sweep":
		t = experiments.RobustnessSweep(2021, s.Parallelism, s.BSTConfig())
	case "assoc":
		t, err = s.MLabAssociationStats("A")
	default:
		return fmt.Errorf("unknown table %q", id)
	}
	if err != nil {
		return err
	}
	return t.Write(out)
}

func emitFigure(s *experiments.Suite, id string, ascii bool, out io.Writer) error {
	var figs []*report.Figure
	appendFig := func(f *report.Figure, err error) error {
		if err != nil {
			return err
		}
		figs = append(figs, f)
		return nil
	}
	var err error
	switch id {
	case "1":
		err = appendFig(s.Figure1())
	case "2":
		err = appendFig(s.Figure2())
	case "4":
		err = appendFig(s.Figure4())
	case "5":
		err = appendFig(s.Figure5())
	case "6":
		err = appendFig(s.Figure6())
	case "7":
		err = appendFig(s.Figure7())
	case "8":
		err = appendFig(s.Figure8())
	case "9a", "9b", "9c", "9d":
		err = appendFig(s.Figure9(id[1:]))
	case "10":
		err = appendFig(s.Figure10())
	case "11":
		err = appendFig(s.Figure11())
	case "12":
		if err = appendFig(s.Figure12(1)); err == nil {
			err = appendFig(s.Figure12(2))
		}
	case "13":
		figs, err = s.Figure13()
	case "joint":
		hm, herr := s.JointDensity("A")
		if herr != nil {
			return herr
		}
		if ascii {
			return hm.ASCII(out, 78, 22)
		}
		return hm.Write(out)
	case "14":
		figs, err = s.Figure14()
	case "15":
		figs, err = s.Figure15()
	case "16":
		figs, err = s.Figures161718()
	default:
		return fmt.Errorf("unknown figure %q", id)
	}
	if err != nil {
		return err
	}
	for _, f := range figs {
		if ascii {
			if err := f.ASCIIPlot(out, 72, 18); err != nil {
				return err
			}
			continue
		}
		if err := f.Write(out); err != nil {
			return err
		}
	}
	return nil
}

func generate(s *experiments.Suite, city, outDir string, out io.Writer) error {
	b, err := s.City(city)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(io.Writer) error) error {
		path := filepath.Join(outDir, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := fn(f); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", path)
		return nil
	}
	if err := write("ookla-"+city+".csv", func(w io.Writer) error {
		return dataset.WriteOoklaCSV(w, b.OoklaCols())
	}); err != nil {
		return err
	}
	if err := write("mlab-"+city+".csv", func(w io.Writer) error {
		return dataset.WriteMLabCSV(w, dataset.ColumnizeMLabRows(b.MLabRows))
	}); err != nil {
		return err
	}
	if err := write("mba-"+city+".csv", func(w io.Writer) error {
		return dataset.WriteMBACSV(w, b.MBACols())
	}); err != nil {
		return err
	}
	// Also emit the public-aggregate view: the context-free tile fold,
	// placed around the city's own centre.
	c := b.OoklaCols()
	tiles, err := tilequery.Aggregate(&tilequery.Rows{
		UserID: c.UserID, Download: c.Download, Upload: c.Upload, Latency: c.Latency,
	}, tilequery.Config{City: city, Parallelism: s.Parallelism}, tilequery.Query{})
	if err != nil {
		return err
	}
	return write("tiles-"+city+".csv", func(w io.Writer) error {
		return tilequery.WriteTilesCSV(w, tiles)
	})
}

func bstSummary(s *experiments.Suite, city string, out io.Writer) error {
	b, err := s.City(city)
	if err != nil {
		return err
	}
	samples := b.OoklaSampleView()
	res, err := core.Fit(samples, b.Catalog, s.BSTConfig())
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   fmt.Sprintf("BST stage-1 summary, City %s Ookla (%d tests)", city, len(samples)),
		Headers: []string{"Upload tier", "Offered up (Mbps)", "#Tests", "Cluster mean (Mbps)"},
	}
	tiers := b.Catalog.UploadTiers()
	for i, tc := range res.UploadClusterSummary() {
		t.AddRow(tc.Label, float64(tiers[i].Upload), tc.Measurements, tc.MeanMbps)
	}
	if err := t.Write(out); err != nil {
		return err
	}
	counts := res.TierCounts()
	t2 := &report.Table{
		Title:   "Final plan-tier assignment",
		Headers: []string{"Plan tier", "Plan", "#Tests"},
	}
	t2.AddRow(0, "(unassigned/off-catalog)", counts[0])
	for tier := 1; tier < len(counts); tier++ {
		plan, _ := b.Catalog.PlanByTier(tier)
		t2.AddRow(tier, plan.String(), counts[tier])
	}
	return t2.Write(out)
}

// allTableIDs and allFigureIDs are the paper-order job lists of the `all`
// command.
var allTableIDs = []string{"1", "2", "3", "4", "5", "6", "7", "assoc",
	"ablate-gmm", "ablate-upload", "ablate-bw", "tcp", "vendorgap",
	"bbr", "challenge", "significance", "tiles", "census", "sweep"}

var allFigureIDs = []string{"1", "2", "4", "5", "6", "7", "8",
	"9a", "9b", "9c", "9d", "10", "11", "12", "13", "14", "15", "16", "joint"}

// emitAll regenerates every table and figure. The jobs fan out across the
// suite's worker pool — each renders into its own buffer, the suite's
// sync.Once memoization dedupes the shared BST fits — and the buffers are
// flushed in fixed paper order, so the output is byte-identical to a serial
// run at every -par setting.
func emitAll(s *experiments.Suite, ascii bool, out io.Writer) error {
	type job struct {
		id    string
		table bool
	}
	var jobs []job
	for _, id := range allTableIDs {
		jobs = append(jobs, job{id: id, table: true})
	}
	for _, id := range allFigureIDs {
		jobs = append(jobs, job{id: id})
	}
	type rendered struct {
		buf bytes.Buffer
		err error
	}
	results := parallel.Map(s.Parallelism, len(jobs), func(i int) *rendered {
		r := &rendered{}
		if jobs[i].table {
			r.err = emitTable(s, jobs[i].id, &r.buf)
		} else {
			r.err = emitFigure(s, jobs[i].id, ascii, &r.buf)
		}
		return r
	})
	for i, r := range results {
		if r.err != nil {
			return fmt.Errorf("%s: %w", jobs[i].id, r.err)
		}
		if _, err := out.Write(r.buf.Bytes()); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	return nil
}

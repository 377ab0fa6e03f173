// Command perfbench is speedctx's end-to-end benchmark. One invocation runs
// one workload in a fresh process and prints one line per metric, then a
// JSON result object as its last line:
//
//	perfbench --workload ingest|tiles --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of an untraced run. With
// --trace 1 it runs the workload untraced and then traced, and reports the
// per-layer metrics derived from the spans it recorded around every call
// into a layer, plus the tracing overhead. Build it with run.sh, which also
// keeps the Go build cache inside the checkout. README.md documents the
// workloads, metrics and noise controls.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// env is one run's configuration.
type env struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string // scratch directory for segments and traces, removed at exit
	size     sizes
}

// procs is GOMAXPROCS for every workload: the client, the handler, the
// sealer, the set-up's generation and the GC share one core instead of
// contending for the cores of a shared machine, which more than tripled
// the run-to-run spread of ingest (README.md, "Noise controls").
const procs = 1

// sizes fixes the amount of work per operation and per fixture. The
// benchmark's sizes are fullSizes; the tests run tinySizes.
type sizes struct {
	setupRepeats int // set-ups per run; setup_s is their median

	users      int // distinct subscribers per city
	batch      int // rows per ingest request
	ringBodies int // pre-rendered request bodies the ingest client cycles
	roundRows  int // rows acked per ingest round
	warmRows   int // rows of the untimed warm-up round
	segRows    int // Pipeline BatchRows (0 = the program default, 65536)

	storeRows int // rows compacted into the tiles store
	freshRows int // rows sealed beside it, unclustered
	freshSegs int // number of fresh segments
	perClass  int // distinct queries per tiles class
	clusterZ  int // compaction cluster zoom
}

var fullSizes = sizes{
	setupRepeats: 3,
	users:        5000,
	batch:        64,
	ringBodies:   1000,
	roundRows:    4 * 65536,
	warmRows:     64 * 1024,
	storeRows:    983040,
	freshRows:    65536,
	freshSegs:    2,
	perClass:     8,
	clusterZ:     16,
}

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "ingest or tiles")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "seconds of measurement")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return 2, fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	work, ok := workloads[*workload]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q (want ingest or tiles)", *workload)
	}
	runtime.GOMAXPROCS(procs)

	root := os.Getenv("CARGO_TARGET_DIR")
	if root == "" {
		root = ".bench_build"
	}
	dir := filepath.Join(root, "work-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 1, err
	}
	defer os.RemoveAll(dir)
	e := &env{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		dir: dir, size: fullSizes,
	}
	fmt.Printf("segment directory %s on %s; segments and stores are renamed into place without fsync\n", dir, fsType(dir))
	r, err := work(e)
	if err != nil {
		return 1, fmt.Errorf("%s: %w", *workload, err)
	}
	defs := endToEnd
	if e.trace {
		defs = perLayer
	}
	if err := r.print(os.Stdout, *workload, defs); err != nil {
		return 1, err
	}
	return 0, nil
}

// workloads maps --workload names to their drivers. A driver returns an
// error only when it cannot run at all; failed operations and failed
// correctness checks go into the report.
var workloads = map[string]func(*env) (*result, error){
	"ingest": runIngest,
	"tiles":  runTiles,
}

// path returns a fresh path under the run's scratch directory.
func (e *env) path(name string) string { return filepath.Join(e.dir, name) }

// phases splits the measurement budget: an untraced run measures for the
// whole budget; a traced run measures an untraced half (the overhead
// baseline) and a traced half.
func (e *env) phaseSeconds() float64 {
	if e.trace {
		return e.seconds / 2
	}
	return e.seconds
}

// writeTrace stores the traced run's spans next to the build output and
// names the file on stdout.
func (e *env) writeTrace(t *tracer) error {
	root := filepath.Dir(e.dir)
	path := filepath.Join(root, fmt.Sprintf("trace-%s-seed%d.jsonl", e.workload, e.seed))
	if err := t.write(path); err != nil {
		return err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(t.snapshot()), path)
	return nil
}

// fsType names the filesystem holding path, from /proc/self/mountinfo
// ("unknown" elsewhere): seal and compaction costs depend on it, so a run
// records it beside the flush policy.
func fsType(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		// mount-id parent major:minor root mount-point options ... - fstype source
		f := strings.Fields(line)
		sep := -1
		for i, x := range f {
			if x == "-" {
				sep = i
				break
			}
		}
		if len(f) < 5 || sep < 0 || sep+1 >= len(f) {
			continue
		}
		mp := f[4]
		inside := abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")
		if inside && len(mp) > len(best) {
			best, typ = mp, f[sep+1]
		}
	}
	return typ
}

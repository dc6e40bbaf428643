// Command perfbench is the repository's benchmark. One invocation runs one
// workload in its own process and prints, as its last line, a JSON object
// with the verdict check and the metrics:
//
//	perfbench --workload batch-poly --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics of untraced passes; --trace 1
// runs one untraced pass, then traced passes that replay every unit
// through the analyzer's layers, and reports the per-layer metrics. See
// README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

const (
	// An untraced run measures its set-up this many times before its
	// first pass and again after every pass, so that the samples span the
	// run as the passes do.
	setupProbes = 3
	// minPasses is the fewest measured passes of a run; a traced run
	// counts its untraced baseline pass.
	minPasses = 2
	// minUnits is the fewest units a run pools, so that at least ten lie
	// beyond the 90th percentile.
	minUnits = 110
	// hardStop ends a run's passes early enough to exit within the time
	// the benchmark is allowed.
	hardStop = 120 * time.Second
)

func main() {
	var o runOpts
	var trace int
	var probe bool
	flag.StringVar(&o.workload, "workload", "", "batch-poly, tiered-certify or edit-session")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&o.dir, "bench-dir", "perfbench", "directory holding reference.json and corpus/")
	flag.StringVar(&o.work, "out", filepath.Join(".bench_build", "perfbench"), "directory for session caches, traces and result records")
	flag.BoolVar(&probe, "setup-probe", false, "set up, print ready, exit (used to time set-up)")
	flag.Parse()
	o.trace = trace == 1
	o.probes = setupProbes
	// One analysis worker on one processor: the collector shares the
	// worker's processor instead of a second CPU a neighbour may hold, so
	// wall time tracks the work done.
	runtime.GOMAXPROCS(1)

	if probe {
		if _, err := setup(o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println("ready")
		return
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp records the environment and the sample counts of a result.
type stamp struct {
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Traced     bool           `json:"traced"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	Workers    int            `json:"workers"`
	Passes     int            `json:"passes"`
	Samples    map[string]int `json:"samples"`
	// Untraced holds, for a traced run, the end-to-end figures of the same
	// run's untraced pass, beside which trace.overhead_ratio is read.
	Untraced map[string]float64 `json:"untraced,omitempty"`
	Failures []string           `json:"failures,omitempty"`
	// UnitSeconds lists each pass's unit times (result records only).
	UnitSeconds [][]float64 `json:"unit_seconds,omitempty"`
}

func run(o runOpts) error {
	b, err := setup(o)
	if err != nil {
		return err
	}
	passes, setups, err := b.measure()
	if err != nil {
		return err
	}
	res := result{Metrics: map[string]metric{}}
	st := stamp{
		Workload: o.workload, Seed: o.seed, Traced: o.trace,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Workers: b.w.cfg.Workers,
		Passes: len(passes), Samples: map[string]int{},
	}
	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
		st.Failures = append(st.Failures, p.failures...)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if o.trace {
		layerMetrics(passes, res.Metrics, &st)
	} else {
		endToEnd(passes, setups, res.Metrics, &st)
	}
	if b.tr != nil {
		name := fmt.Sprintf("trace-%s-seed%d.jsonl", o.workload, o.seed)
		if err := b.tr.write(filepath.Join(o.work, name)); err != nil {
			return err
		}
	}
	rec := st
	for _, p := range passes {
		rec.UnitSeconds = append(rec.UnitSeconds, p.units)
	}
	if err := record(o, rec, res); err != nil {
		return err
	}
	for i, f := range st.Failures {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more failures\n", len(st.Failures)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", f)
	}
	line, err := json.Marshal(st)
	if err != nil {
		return err
	}
	fmt.Printf("stamp %s\n", line)
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measure runs passes until the next one would end after --seconds, and
// at least minPasses passes and minUnits units. A traced run starts with
// one untraced pass; an untraced run also returns its set-up times.
func (b *bench) measure() ([]*passResult, []float64, error) {
	var passes []*passResult
	var walls, setups []float64
	units := 0
	start := time.Now()
	for k := 0; ; k++ {
		if b.opts.probes > 0 && !b.opts.trace {
			t, err := probeSetup(b.opts)
			if err != nil {
				return nil, nil, err
			}
			setups = append(setups, t...)
		}
		if n := b.opts.passes; n > 0 {
			if k == n {
				break
			}
		} else if k >= minPasses && units >= minUnits {
			elapsed := time.Since(start)
			if elapsed > hardStop || elapsed.Seconds()+median(walls) > b.opts.seconds {
				break
			}
		}
		traced := b.opts.trace && k > 0
		p, err := b.runPass(k, traced)
		if err != nil {
			return nil, nil, err
		}
		passes = append(passes, p)
		walls = append(walls, p.wall)
		units += len(p.units)
	}
	return passes, setups, nil
}

// probeSetup times set-up in fresh processes: from starting this binary
// until it is ready to run its first unit.
func probeSetup(o runOpts) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var times []float64
	for i := 0; i < o.probes; i++ {
		cmd := exec.Command(exe, "--setup-probe", "--workload", o.workload,
			"--seed", strconv.FormatUint(o.seed, 10), "--bench-dir", o.dir, "--out", o.work)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		elapsed := time.Since(start)
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		if rerr != nil || line != "ready\n" {
			return nil, fmt.Errorf("set-up probe: no ready line")
		}
		times = append(times, elapsed.Seconds())
	}
	return times, nil
}

// endToEnd fills the end-to-end metrics: medians over passes, unit
// percentiles over the units of every pass pooled.
func endToEnd(passes []*passResult, setups []float64, m map[string]metric, st *stamp) {
	var corpus, cpu, alloc, units []float64
	for _, p := range passes {
		corpus = append(corpus, p.corpus())
		cpu = append(cpu, p.cpu)
		alloc = append(alloc, p.allocMB)
		units = append(units, p.units...)
	}
	m["corpus_s"] = metric{median(corpus), "s"}
	m["unit_p50_s"] = metric{quantile(units, 0.5), "s"}
	m["unit_p90_s"] = metric{quantile(units, 0.9), "s"}
	m["cpu_s"] = metric{median(cpu), "s"}
	m["alloc_mb"] = metric{median(alloc), "MiB"}
	m["setup_s"] = metric{median(setups), "s"}
	for _, name := range []string{"corpus_s", "cpu_s", "alloc_mb"} {
		st.Samples[name] = len(passes)
	}
	st.Samples["unit_p50_s"] = len(units)
	st.Samples["unit_p90_s"] = len(units)
	st.Samples["unit_p90_s.beyond"] = len(units) - 1 - int(0.9*float64(len(units)-1))
	st.Samples["setup_s"] = len(setups)
}

// layerMetrics fills the per-layer metrics of a traced run: seconds are
// medians over the traced passes, counts come from the first traced pass
// (they repeat exactly), runtime figures from the untraced pass.
func layerMetrics(passes []*passResult, m map[string]metric, st *stamp) {
	base, traced := passes[0], passes[1:]
	med := func(f func(p *passResult) float64) float64 {
		var xs []float64
		for _, p := range traced {
			xs = append(xs, f(p))
		}
		return median(xs)
	}
	layer := func(name string) float64 {
		return med(func(p *passResult) float64 { return p.layers[name] })
	}
	secs := map[string]float64{
		"frontend.s":         layer(spFrontend),
		"inline.s":           layer(spInline),
		"pointer.s":          layer(spPointer),
		"ppt.s":              layer(spPPT),
		"c2ip.s":             layer(spC2IP),
		"analysis.poly_s":    layer(spPoly),
		"analysis.cascade_s": layer(tierFixpoints),
		"reduce.s": med(func(p *passResult) float64 {
			return p.layers[spCascade] - p.layers[tierFixpoints]
		}),
		"certify.verify_s": layer(spVerify),
		"certify.replay_s": layer(spReplay),
		"certify.export_s": layer(spExport),
		"core.self_s":      med(func(p *passResult) float64 { return p.coreSelf }),
		"cache.self_s":     med(func(p *passResult) float64 { return p.cacheSelf }),
	}
	for name, v := range secs {
		m[name] = metric{v, "s"}
		st.Samples[name] = len(traced)
	}
	m["cache.latency_slope_s"] = metric{med(func(p *passResult) float64 { return mean(p.slopes) }), "s/edit"}

	c := traced[0].counts
	for _, name := range []string{"analysis.iterations", "c2ip.ip_size", "c2ip.ip_vars",
		"certify.certified", "certify.failed", "certify.witnessed", "certify.potential",
		"cache.hits", "cache.revalidated", "cache.misses", "cache.stores", "cache.bad",
		"cache.entries"} {
		m[name] = metric{c[name], "count"}
	}
	m["cache.bytes"] = metric{c["cache.bytes"], "bytes"}
	for _, tier := range []string{"interval", "zone", "polyhedra"} {
		pre := "analysis.tier." + tier
		m[pre+".attempted"] = metric{c[pre+".attempted"], "count"}
		m[pre+".discharged"] = metric{c[pre+".discharged"], "count"}
		m[pre+".ratio"] = metric{ratio(c[pre+".discharged"], c[pre+".attempted"]), "ratio"}
	}
	m["reduce.kept_ratio"] = metric{ratio(c["reduce.residual_stmts"], c["reduce.ip_stmts"]), "ratio"}
	reuse := 0.0
	if c["cache.hits"]+c["cache.revalidated"]+c["cache.misses"] > 0 {
		reuse = ratio(c["cache.hits"]+c["cache.revalidated"], c["procedures"])
	}
	m["cache.reuse_ratio"] = metric{reuse, "ratio"}
	m["runtime.peak_rss_mb"] = metric{base.peakRSSMB, "MiB"}
	m["runtime.gc_cpu_s"] = metric{base.gcCPU, "s"}
	m["runtime.gc_cycles"] = metric{base.gcCycles, "count"}
	tracedCorpus := med(func(p *passResult) float64 { return p.corpus() })
	m["trace.overhead_ratio"] = metric{tracedCorpus/base.corpus() - 1, "ratio"}
	st.Untraced = map[string]float64{
		"corpus_s": base.corpus(), "cpu_s": base.cpu, "alloc_mb": base.allocMB,
		"traced_corpus_s": tracedCorpus,
	}
}

// record writes the result with its stamp under the output directory.
func record(o runOpts, st stamp, res result) error {
	dir := filepath.Join(o.work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(struct {
		Stamp  stamp  `json:"stamp"`
		Result result `json:"result"`
	}{st, res}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, map[bool]int{false: 0, true: 1}[o.trace])
	return os.WriteFile(filepath.Join(dir, name), raw, 0o644)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

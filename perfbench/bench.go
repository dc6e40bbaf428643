package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	cssv "repro"
	"repro/internal/core"
)

// runOpts configures one benchmark run.
type runOpts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// dir holds reference.json and corpus/; work is where session caches
	// live while a pass runs.
	dir, work string
	// probes is how many set-up probes run before the first pass and
	// after each pass (0 in tests, whose binary cannot probe).
	probes int
	// Test hooks: passes > 0 runs exactly that many measured passes
	// (ignoring seconds), only restricts the batch corpus to the named
	// files, maxEdits truncates each edit script.
	passes   int
	only     []string
	maxEdits int
}

// bench is a set-up run: corpus loaded, pass planned.
type bench struct {
	opts     runOpts
	w        workload
	sessions []session
	tr       *tracer
	rep      *replica
}

// setup loads the corpus and reference and plans the pass. It runs no
// analysis.
func setup(o runOpts) (*bench, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	files, err := loadCorpus(o.dir)
	if err != nil {
		return nil, err
	}
	if len(o.only) > 0 {
		var kept []*corpusFile
		for _, name := range o.only {
			f, err := fileByCorpus(files, name)
			if err != nil {
				return nil, err
			}
			kept = append(kept, f)
		}
		files = kept
	}
	sessions, err := planPass(files, w, o.seed, o.maxEdits)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	b := &bench{opts: o, w: w, sessions: sessions}
	if o.trace {
		b.tr = &tracer{t0: time.Now()}
		b.rep = newReplica(b.tr, w)
	}
	return b, nil
}

// passResult is what one pass measured.
type passResult struct {
	wall      float64 // the pass, bookkeeping included
	peakRSSMB float64 // the process's peak resident set so far
	// The rest sums over the pass's units, each measured around its
	// cssv.Analyze call alone.
	units     []float64 // seconds per unit, in plan order
	cpu       float64   // process user+sys seconds
	allocMB   float64   // heap MiB allocated
	gcCPU     float64   // GC CPU seconds
	gcCycles  float64
	attempted int
	failed    int
	failures  []string

	// Counters the end-to-end reports carry, summed over the pass.
	counts map[string]float64
	// Edit-session only: cacheSeq lists per unit (hits, revalidated,
	// misses, stores, bad); entries counts each session's cache files
	// when it ends; slopes fits each session's edit latency against the
	// edit index.
	cacheSeq [][5]int
	entries  []int
	slopes   []float64

	// Traced passes only. layers sums span seconds by span name, plus
	// tierFixpoints; coreSelf and cacheSelf sum the unit time no layer
	// span covers.
	layers    map[string]float64
	coreSelf  float64
	cacheSelf float64
}

func (r *passResult) corpus() float64 {
	s := 0.0
	for _, u := range r.units {
		s += u
	}
	return s
}

// runPass runs every session of the plan once. traced passes replay each
// unit through the layers after timing it.
func (b *bench) runPass(k int, traced bool) (*passResult, error) {
	r := &passResult{counts: map[string]float64{}, layers: map[string]float64{}}
	tiers0 := 0.0
	if traced {
		b.tr.pass = k
		tiers0 = b.rep.tierCPU
	}
	start := time.Now()
	for si, s := range b.sessions {
		if err := b.runSession(k, si, s, traced, r); err != nil {
			return nil, err
		}
	}
	r.wall = time.Since(start).Seconds()
	r.peakRSSMB = peakRSSMB()
	if traced {
		for _, s := range b.tr.spans {
			if s.Pass == k && s.Parent != 0 {
				r.layers[s.Name] += s.seconds()
			}
		}
		r.layers[tierFixpoints] = b.rep.tierCPU - tiers0
	}
	return r, nil
}

func (b *bench) runSession(k, si int, s session, traced bool, r *passResult) error {
	// Each session starts cold: no pointer memo, and for edit-session an
	// empty cache directory of its own.
	core.FlushCaches()
	if traced {
		b.rep.reset()
	}
	cfg := b.w.cfg
	if b.w.edit {
		cfg.CacheDir = filepath.Join(b.opts.work, fmt.Sprintf("cache-p%d-s%d", k, si))
		if err := os.RemoveAll(cfg.CacheDir); err != nil {
			return err
		}
		defer os.RemoveAll(cfg.CacheDir)
	}
	// Batch units are checked per file once the pass has all of a file's
	// procedures; edit units each analyze the whole file.
	byFile := map[*corpusFile][]cssv.Procedure{}
	unitsOf := map[*corpusFile]int{}
	var editTimes []float64
	for _, u := range s.units {
		if u.proc != "" {
			cfg.Procedures = []string{u.proc}
		}
		// Every unit starts from a collected heap, so the collections it
		// pays for are its own.
		runtime.GC()
		cpu0, alloc0 := cpuSeconds(), heapAllocBytes()
		gc0, cyc0 := gcStats()
		t0 := time.Now()
		rep, err := cssv.Analyze(u.file.ref.Label, u.src, cfg)
		dt := time.Since(t0)
		gc1, cyc1 := gcStats()
		r.cpu += cpuSeconds() - cpu0
		r.allocMB += float64(heapAllocBytes()-alloc0) / (1 << 20)
		r.gcCPU += gc1 - gc0
		r.gcCycles += float64(cyc1 - cyc0)
		r.units = append(r.units, dt.Seconds())
		r.attempted++
		if err != nil {
			r.failed++
			r.failures = append(r.failures, fmt.Sprintf("%s %s: %v", u.file.ref.Label, u.proc, err))
			continue
		}
		addCounts(r.counts, rep)
		if b.w.edit {
			if why := checkProcs(u.file, rep.Procedures); why != "" {
				r.failed++
				r.failures = append(r.failures, fmt.Sprintf("%s after %s edit: %s", u.file.ref.Label, u.kind, why))
			}
			if u.kind != kindCold {
				editTimes = append(editTimes, dt.Seconds())
			}
			st := rep.Stats
			r.cacheSeq = append(r.cacheSeq, [5]int{st.CacheHits, st.CacheRevalidated,
				st.CacheMisses, st.CacheStores, st.CacheBadEntries})
		} else {
			byFile[u.file] = append(byFile[u.file], rep.Procedures...)
			unitsOf[u.file]++
		}
		if traced {
			if err := b.traceUnit(u, rep, t0, dt, r); err != nil {
				return err
			}
		}
	}
	for f, procs := range byFile {
		if why := checkProcs(f, procs); why != "" {
			r.failed += unitsOf[f]
			r.failures = append(r.failures, fmt.Sprintf("%s: %s", f.ref.Label, why))
		}
	}
	if b.w.edit {
		n, size, err := dirUsage(cfg.CacheDir)
		if err != nil {
			return err
		}
		r.entries = append(r.entries, n)
		r.counts["cache.entries"] += float64(n)
		r.counts["cache.bytes"] += float64(size)
		r.slopes = append(r.slopes, slope(editTimes))
	}
	return nil
}

// traceUnit records the unit's span, replays it through the layers, and
// attributes the time the layer spans do not cover.
func (b *bench) traceUnit(u unit, rep *cssv.Report, t0 time.Time, dt time.Duration, r *passResult) error {
	id := b.tr.record("unit", 0, t0)
	b.tr.spans[id-1].End = b.tr.spans[id-1].Start + int64(dt)
	first := len(b.tr.spans)
	if err := b.rep.unit(id, u.file.ref.Label, u.src, rep.Procedures); err != nil {
		return fmt.Errorf("replaying %s %s: %w", u.file.ref.Label, u.proc, err)
	}
	layers := 0.0
	for _, s := range b.tr.spans[first:] {
		layers += s.seconds()
	}
	self := dt.Seconds() - layers
	r.coreSelf += self
	if b.w.edit && u.kind != kindCold {
		r.cacheSelf += self
	}
	return nil
}

// addCounts sums the counters an end-to-end report carries.
func addCounts(c map[string]float64, rep *cssv.Report) {
	st := rep.Stats
	c["analysis.iterations"] += float64(st.FixpointIterations)
	c["cache.hits"] += float64(st.CacheHits)
	c["cache.revalidated"] += float64(st.CacheRevalidated)
	c["cache.misses"] += float64(st.CacheMisses)
	c["cache.stores"] += float64(st.CacheStores)
	c["cache.bad"] += float64(st.CacheBadEntries)
	for _, p := range rep.Procedures {
		c["procedures"]++
		c["c2ip.ip_size"] += float64(p.IPSize)
		c["c2ip.ip_vars"] += float64(p.IPVars)
		if cs := p.Cascade; cs != nil {
			c["reduce.residual_stmts"] += float64(cs.ResidualStmts)
			c["reduce.ip_stmts"] += float64(p.IPSize)
			for _, t := range cs.Tiers {
				c["analysis.tier."+t.Domain+".attempted"] += float64(t.Asserts)
				c["analysis.tier."+t.Domain+".discharged"] += float64(t.Discharged)
			}
		}
		if ce := p.Certification; ce != nil {
			c["certify.certified"] += float64(ce.Certified)
			c["certify.failed"] += float64(ce.Failed)
			c["certify.witnessed"] += float64(ce.Witnessed)
			c["certify.potential"] += float64(ce.Potential)
		}
	}
}

// dirUsage counts the regular files under dir and their bytes.
func dirUsage(dir string) (n int, size int64, err error) {
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n++
		size += info.Size()
		return nil
	})
	return n, size, err
}

// slope is the least-squares slope of ys against their index.
func slope(ys []float64) float64 {
	n := float64(len(ys))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i, y := range ys {
		x := float64(i)
		sx, sy, sxx, sxy = sx+x, sy+y, sxx+x*x, sxy+x*y
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// peakRSSMB is the process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func readMetrics(names ...string) []metrics.Sample {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func heapAllocBytes() uint64 {
	return readMetrics("/gc/heap/allocs:bytes")[0].Value.Uint64()
}

func gcStats() (cpu float64, cycles uint64) {
	s := readMetrics("/cpu/classes/gc/total:cpu-seconds", "/gc/cycles/total:gc-cycles")
	return s[0].Value.Float64(), s[1].Value.Uint64()
}

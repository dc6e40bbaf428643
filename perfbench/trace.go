package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	cssv "repro"
	"repro/internal/analysis"
	"repro/internal/arena"
	"repro/internal/c2ip"
	"repro/internal/cast"
	"repro/internal/certify"
	"repro/internal/corec"
	"repro/internal/cparse"
	"repro/internal/ctypes"
	"repro/internal/inline"
	"repro/internal/ip"
	"repro/internal/libc"
	"repro/internal/pointer"
	"repro/internal/polyhedra"
	"repro/internal/ppt"
	"repro/internal/zone"
)

// span is one timed call at a layer boundary. Times are nanoseconds since
// the run started. A unit span times the end-to-end cssv.Analyze call; the
// layer spans that follow it replay the same work through the layers'
// public functions and name the unit span as their parent.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for unit spans
	Pass   int    `json:"pass"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	pass  int
	spans []span
}

// record appends a span that ran from start to now.
func (t *tracer) record(name string, parent int, start time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Pass: t.pass, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(time.Since(t.t0)),
	})
	return id
}

func (t *tracer) write(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			out.Close()
			return err
		}
	}
	return out.Close()
}

// Layer span names; layerMetrics maps each to its per-layer metric.
const (
	spFrontend = "frontend"         // cparse + corec: parse and normalize the file
	spInline   = "inline"           // contract inlining + renormalization
	spPointer  = "pointer"          // whole-program points-to (memoized as the driver does)
	spPPT      = "ppt"              // procedural points-to
	spC2IP     = "c2ip"             // C → integer program
	spPoly     = "analysis.poly"    // one polyhedra fixpoint
	spCascade  = "analysis.cascade" // reduction + tiered fixpoints
	spVerify   = "certify.verify"   // Fourier–Motzkin certificate checking
	spReplay   = "certify.replay"   // directed counter-example replay
	spExport   = "certify.export"   // certificate export for the cache

	// tierFixpoints keys, in a pass's layer seconds, the fixpoint time
	// the replayed cascades reported for their tiers.
	tierFixpoints = "analysis.tiers"
)

// ptMemoMax mirrors the driver's default pointer-memo bound.
const ptMemoMax = 128

// replica drives one unit's procedures through the layers' public
// functions in the driver's order (internal/core's analyzeProc), timing
// each call. It mirrors what the end-to-end call did, as the call's own
// report tells: exact cache hits skip the pipeline, revalidated
// procedures re-run the front end and re-prove their certificates, the
// rest analyze.
type replica struct {
	tr      *tracer
	w       workload
	pt      map[[sha256.Size]byte]*pointer.Result
	ptOrder [][sha256.Size]byte
	// certs keeps each procedure's certificates from its last full
	// analysis in this session: what a revalidation re-proves.
	certs map[string][]*certify.Certificate
	// tierCPU sums the fixpoint time the cascade reported per replayed
	// unit; the rest of the cascade span is reduction and slicing.
	tierCPU float64
}

func newReplica(tr *tracer, w workload) *replica {
	r := &replica{tr: tr, w: w}
	r.reset()
	return r
}

// reset starts a session: the driver's pointer memo is flushed too.
func (r *replica) reset() {
	r.pt = map[[sha256.Size]byte]*pointer.Result{}
	r.ptOrder = nil
	r.certs = map[string][]*certify.Certificate{}
}

// unit replays one end-to-end call whose span is parent.
func (r *replica) unit(parent int, label, src string, procs []cssv.Procedure) error {
	start := time.Now()
	layout := ctypes.NewEngine(ctypes.Paper32)
	pre, err := libc.Prelude()
	if err != nil {
		return err
	}
	file, err := cparse.ParseFilesWithLayout(pre, []cparse.NamedSource{{Name: label, Src: src}}, layout)
	if err != nil {
		return err
	}
	prog, err := corec.NormalizeWith(file, layout)
	if err != nil {
		return err
	}
	r.tr.record(spFrontend, parent, start)
	for _, p := range procs {
		if p.CacheStatus == "hit" {
			continue
		}
		if err := r.proc(parent, prog, p); err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
	}
	return nil
}

func (r *replica) proc(parent int, prog *corec.Program, p cssv.Procedure) error {
	name := p.Name
	start := time.Now()
	inlined, err := inline.File(prog, name)
	if err != nil {
		return err
	}
	nprog, err := corec.Renormalize(prog, inlined)
	if err != nil {
		return err
	}
	fd := nprog.File.Lookup(name)
	if fd == nil || fd.Body == nil {
		return fmt.Errorf("no body")
	}
	if err := corec.Validate(fd); err != nil {
		return err
	}
	r.tr.record(spInline, parent, start)

	start = time.Now()
	g := r.pointer(nprog)
	r.tr.record(spPointer, parent, start)

	start = time.Now()
	pt := ppt.Build(nprog, fd, g, ppt.Options{})
	r.tr.record(spPPT, parent, start)

	start = time.Now()
	res, err := c2ip.Transform(nprog, fd, pt, c2ip.Options{})
	if err != nil {
		return err
	}
	r.tr.record(spC2IP, parent, start)

	if p.CacheStatus == "revalidated" {
		start = time.Now()
		certify.VerifyAll(r.certs[name])
		r.tr.record(spVerify, parent, start)
		return nil
	}

	ar := arena.New()
	pcfg := &polyhedra.Config{Arena: ar}
	zcfg := &zone.Config{Arena: ar}
	cacheable := r.w.edit
	aopts := analysis.Options{
		Domain:     analysis.WithSubstrate(analysis.PolyDomain{}, pcfg, zcfg),
		Certify:    r.w.cfg.Certify || cacheable,
		ZoneConfig: zcfg,
	}
	if r.w.cfg.Cascade {
		start = time.Now()
		cres, err := analysis.AnalyzeCascade(res.Prog, aopts)
		if err != nil {
			return err
		}
		r.tr.record(spCascade, parent, start)
		for _, t := range cres.Tiers {
			r.tierCPU += t.CPU.Seconds()
		}
		if r.w.cfg.Certify {
			r.certify(parent, res.Prog, cres)
		}
		return nil
	}
	start = time.Now()
	ares, err := analysis.Analyze(res.Prog, aopts)
	if err != nil {
		return err
	}
	r.tr.record(spPoly, parent, start)
	if cacheable {
		start = time.Now()
		r.certs[name] = analysis.CertifyResult(ares, aopts)
		r.tr.record(spExport, parent, start)
	}
	return nil
}

// certify mirrors the driver's certifyProc: verify every certificate,
// replay every violation against the full integer program.
func (r *replica) certify(parent int, p *ip.Program, cres *analysis.CascadeResult) {
	start := time.Now()
	certify.VerifyAll(cres.Certificates)
	r.tr.record(spVerify, parent, start)
	start = time.Now()
	tierOf := map[int]string{}
	for _, c := range cres.Checks {
		if c.Violated {
			tierOf[c.Index] = c.Tier
		}
	}
	for _, v := range cres.Violations {
		req := certify.ReplayRequest{
			Index: v.Index, Pos: v.Pos, Msg: v.Msg,
			Tier: tierOf[v.Index], Unverifiable: v.Unverifiable,
		}
		if v.CounterExampleIntegral {
			req.Hints = v.CounterExample
		}
		certify.Replay(p, req, ip.DirectedOptions{})
	}
	r.tr.record(spReplay, parent, start)
}

// pointer memoizes pointer.Analyze on the same key the driver uses (the
// rendered program and its string table), FIFO-bounded like the driver's
// default memo, so the replica pays for a points-to analysis exactly when
// the end-to-end call did.
func (r *replica) pointer(prog *corec.Program) *pointer.Result {
	h := sha256.New()
	io.WriteString(h, cast.Fprint(prog.File))
	names := make([]string, 0, len(prog.Strings))
	for name := range prog.Strings {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		io.WriteString(h, name)
		h.Write([]byte{0})
		io.WriteString(h, prog.Strings[name])
		h.Write([]byte{0})
	}
	var k [sha256.Size]byte
	h.Sum(k[:0])
	if g, ok := r.pt[k]; ok {
		return g
	}
	for len(r.pt) >= ptMemoMax {
		delete(r.pt, r.ptOrder[0])
		r.ptOrder = r.ptOrder[1:]
	}
	g := pointer.Analyze(prog, pointer.Mode(0))
	r.pt[k] = g
	r.ptOrder = append(r.ptOrder, k)
	return g
}

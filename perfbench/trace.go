package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one recorded interval at a benchmark call site. Times are
// milliseconds since the recorder's epoch.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// recorder keeps spans in memory until the run writes them out. A nil
// recorder records nothing, which is how untraced runs stay untraced.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its ID (0 from a nil recorder).
func (r *recorder) add(parent int, name string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.epoch).Seconds() * 1e3,
		End:   end.Sub(r.epoch).Seconds() * 1e3,
	})
	return id
}

// reserve allocates an ID for a span whose children end before it does;
// finish fills it in.
func (r *recorder) reserve(parent int, name string) int {
	if r == nil {
		return 0
	}
	now := time.Now()
	return r.add(parent, name, now, now)
}

func (r *recorder) finish(id int, start, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.Start = start.Sub(r.epoch).Seconds() * 1e3
	s.End = end.Sub(r.epoch).Seconds() * 1e3
}

// durationsMS returns the durations of every span with the given name.
func (r *recorder) durationsMS(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// meter accounts the ops of an in-process workload: attempts, failures,
// work units, user-visible latencies and, when traced, spans and
// allocations. It is used from one goroutine.
type meter struct {
	rec       *recorder
	attempted int
	failed    int
	units     float64
	latencyMS []float64

	// Allocation deltas, read only when traced (ReadMemStats stops the
	// world).
	allocBytes, allocCount uint64
	allocOps               int
}

// memStats reads the allocation counters when traced.
func (m *meter) memStats() runtime.MemStats {
	var ms runtime.MemStats
	if m.rec != nil {
		runtime.ReadMemStats(&ms)
	}
	return ms
}

// addAllocs charges the allocations since before to ops ops.
func (m *meter) addAllocs(before runtime.MemStats, ops int) {
	if m.rec == nil {
		return
	}
	after := m.memStats()
	m.allocBytes += after.TotalAlloc - before.TotalAlloc
	m.allocCount += after.Mallocs - before.Mallocs
	m.allocOps += ops
}

// op runs fn as one op named name: it times it, records a span under
// parent, and counts it failed when fn returns an error. fn returns the
// work units it completed.
func (m *meter) op(parent int, name string, fn func() (float64, error)) {
	before := m.memStats()
	start := time.Now()
	units, err := fn()
	end := time.Now()
	m.addAllocs(before, 1)
	m.rec.add(parent, name, start, end)
	m.attempted++
	m.units += units
	if err != nil {
		m.failed++
	}
}

// layers are the per-layer attribution buckets: this repository's
// packages, with internal/sim split by file, plus the Go runtime.
var layers = []string{
	"sim.queue", "sim.proc", "sim.ps", "fabric", "mpi", "vmm", "pci",
	"symvirt", "crs", "ninja", "storage", "hw", "faults", "workloads",
	"scheduler", "metrics", "fleet", "churn", "simfarm", "experiments",
	"jobs", "runtime.gc", "runtime.other",
}

const reproPrefix = "repro/internal/"

// layerOf maps a profile frame to its layer; "" for a frame outside the
// repository's packages.
func layerOf(fn, file string) string {
	if !strings.HasPrefix(fn, reproPrefix) {
		return ""
	}
	pkg := fn[len(reproPrefix):]
	if i := strings.IndexByte(pkg, '.'); i >= 0 {
		pkg = pkg[:i]
	}
	if i := strings.IndexByte(pkg, '/'); i >= 0 {
		pkg = pkg[:i] // mpi/btl belongs to mpi
	}
	if pkg != "sim" {
		return pkg
	}
	switch filepath.Base(file) {
	case "ps.go":
		return "sim.ps"
	case "proc.go", "sync.go":
		return "sim.proc"
	}
	return "sim.queue" // kernel.go, wheel.go and the time.go helpers
}

// isGCFrame reports whether a runtime frame belongs to the collector's
// background work.
func isGCFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
		strings.HasPrefix(fn, "runtime.bgscavenge")
}

// profileFrame is one (possibly inlined) frame of a profile location.
type profileFrame struct{ fn, file string }

// foldProfile folds a CPU profile into per-layer sample shares using the
// toolchain's pprof: each sample goes to its innermost repro frame, and
// a sample with none to runtime.gc or runtime.other.
func foldProfile(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-raw", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -raw: %w", err)
	}
	return foldRaw(out)
}

// foldRaw parses `pprof -raw` output. Sample lines read
// "<count> <value>: <location ids, innermost first>"; location lines read
// "<id>: 0x<addr> M=<m> <func> <file>:<line>:<col> s=<n>", followed by one
// indented "<func> <file>:..." line per inlined caller.
func foldRaw(raw []byte) (map[string]float64, error) {
	type sample struct {
		count float64
		locs  []int
	}
	var samples []sample
	locs := map[int][]profileFrame{}
	section := ""
	lastLoc := 0
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		trim := strings.TrimSpace(line)
		switch {
		case trim == "Samples:" || trim == "Locations" || trim == "Mappings":
			section = trim
			continue
		case trim == "":
			continue
		}
		switch section {
		case "Samples:":
			head, ids, ok := strings.Cut(trim, ":")
			if !ok {
				continue // the column header
			}
			f := strings.Fields(head)
			if len(f) == 0 {
				continue
			}
			n, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				continue // a label line
			}
			var s sample
			s.count = n
			for _, id := range strings.Fields(ids) {
				v, err := strconv.Atoi(id)
				if err != nil {
					return nil, fmt.Errorf("pprof sample %q: %w", trim, err)
				}
				s.locs = append(s.locs, v)
			}
			samples = append(samples, s)
		case "Locations":
			fr, id, ok := parseLocationLine(trim)
			if id > 0 {
				lastLoc = id
			}
			if ok {
				locs[lastLoc] = append(locs[lastLoc], fr)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		total += s.count
		shares[chargeSample(s.locs, locs)] += s.count
	}
	if total == 0 {
		return shares, nil
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// chargeSample returns the layer a sample's stack is charged to.
func chargeSample(ids []int, locs map[int][]profileFrame) string {
	gc := false
	for _, id := range ids {
		for _, fr := range locs[id] {
			if l := layerOf(fr.fn, fr.file); l != "" {
				return l
			}
			gc = gc || isGCFrame(fr.fn)
		}
	}
	if gc {
		return "runtime.gc"
	}
	return "runtime.other"
}

// parseLocationLine parses a location line, returning the frame and the
// location ID (0 for an inlined-caller continuation line). Function names
// may contain spaces (generic shapes), so the line is parsed from the
// right: "... <func> <file>:<line>:<col> s=<n>".
func parseLocationLine(line string) (profileFrame, int, bool) {
	id := 0
	if head, rest, ok := strings.Cut(line, ": 0x"); ok {
		v, err := strconv.Atoi(head)
		if err != nil {
			return profileFrame{}, 0, false
		}
		id = v
		// Drop "<addr> M=<m> ".
		f := strings.SplitN(rest, " ", 3)
		if len(f) < 3 {
			return profileFrame{}, id, false // an unsymbolized address
		}
		line = f[2]
	}
	if i := strings.LastIndex(line, " s="); i >= 0 {
		line = line[:i]
	}
	i := strings.LastIndex(line, " ")
	if i < 0 {
		return profileFrame{fn: line}, id, true
	}
	file := line[i+1:]
	if j := strings.Index(file, ".go:"); j >= 0 {
		file = file[:j+3]
	}
	return profileFrame{fn: line[:i], file: file}, id, true
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// hostBlock is the provenance every output carries: a number without its
// host and workload settings is not comparable to anything.
type hostBlock struct {
	NumCPU           int     `json:"num_cpu"`
	GOMAXPROCS       int     `json:"gomaxprocs"`        // of the load generator
	ServerGOMAXPROCS int     `json:"server_gomaxprocs"` // what megaserve inherits
	GoVersion        string  `json:"go_version"`
	Kernel           string  `json:"kernel"`
	Clients          int     `json:"clients"`
	Seed             int64   `json:"seed"`
	RoundSeconds     float64 `json:"round_seconds"`
	GitCommit        string  `json:"git_commit"`
	StateDirFS       string  `json:"state_dir_fs"`
}

func (b *bench) hostInfo() hostBlock {
	h := hostBlock{
		NumCPU:           runtime.NumCPU(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		ServerGOMAXPROCS: runtime.NumCPU(),
		GoVersion:        runtime.Version(),
		Kernel:           "unknown",
		Clients:          b.clients,
		Seed:             b.seed,
		RoundSeconds:     b.seconds / rounds,
		GitCommit:        "unknown",
		StateDirFS:       fsType(b.workdir),
	}
	// The child inherits the environment, so GOMAXPROCS there means the
	// same as here.
	if n, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && n > 0 {
		h.ServerGOMAXPROCS = n
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(raw))
	}
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = b.root
	if raw, err := cmd.Output(); err == nil {
		h.GitCommit = strings.TrimSpace(string(raw))
	}
	return h
}

// fsType names the filesystem holding dir (where durable-pk's state
// directory lives), or its magic number when the name is not known here.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch magic := uint64(st.Type) & 0xffffffff; magic {
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x6969:
		return "nfs"
	default:
		return fmt.Sprintf("%#x", magic)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// roundSummary is one gated round, kept so a result shows how far its
// rounds disagreed.
type roundSummary struct {
	QPS     float64 `json:"qps"`
	P50Ms   float64 `json:"p50_ms"`
	P90Ms   float64 `json:"p90_ms"`
	RSSMB   float64 `json:"rss_mb"`
	SetupS  float64 `json:"setup_s"`
	ReadyS  float64 `json:"ready_s"`
	Samples int     `json:"samples"`
	// HostSpeed is the calibration kernel's speed around the round, in
	// units/s over all CPUs.
	HostSpeed float64 `json:"host_speed"`
}

// runResult is one run's full record (-out appends it as one JSON line).
// The driver's last-line object is the four keys of contractLine.
type runResult struct {
	Workload    string                 `json:"workload"`
	Trace       int                    `json:"trace"`
	Host        hostBlock              `json:"host"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	BitVerified int                    `json:"bit_verified"`
	Metrics     map[string]metricValue `json:"metrics"`
	Samples     map[string]int         `json:"samples"`
	// HostSpeed is the calibration kernel's mean speed during the run
	// (units/s over all CPUs). A gated run's timing metrics are reported at
	// the reference speed calRef; Raw holds them as the clock read them.
	HostSpeed  float64            `json:"host_speed"`
	Raw        map[string]float64 `json:"raw,omitempty"`
	Rounds     []roundSummary     `json:"rounds,omitempty"`
	Notes      []string           `json:"notes,omitempty"`    // each one makes the run incorrect
	Warnings   []string           `json:"warnings,omitempty"` // reported, not fatal
	TraceFile  string             `json:"trace_file,omitempty"`
	NotCovered []string           `json:"not_covered"`
}

func (b *bench) newResult(wl workload, trace int) *runResult {
	return &runResult{
		Workload: wl.Name, Trace: trace, Host: b.host,
		Metrics: map[string]metricValue{}, Samples: map[string]int{},
		NotCovered: notCovered,
	}
}

// set records a metric under the unit its spec declares; a name outside
// the spec is a programming error.
func (r *runResult) set(list []metricSpec, name string, v float64, samples int) {
	m, ok := findMetric(list, name)
	if !ok {
		panic("benchmark: metric " + name + " is not in the spec")
	}
	r.Metrics[name] = metricValue{Value: v, Unit: m.Unit}
	r.Samples[name] = samples
}

// contractLine is the object the driver reads from the last stdout line.
func (r *runResult) contractLine() string {
	raw, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	return string(raw)
}

// print writes the human-readable report: host block, every metric by
// name with unit and sample count, what moved it should move, the rounds,
// and what is not covered.
func (r *runResult) print(w io.Writer) {
	h := r.Host
	fmt.Fprintf(w, "== %s  trace=%d  seed=%d ==\n", r.Workload, r.Trace, h.Seed)
	if wl, ok := findWorkload(r.Workload); ok {
		fmt.Fprintf(w, "why: %s\n", wl.Why)
	}
	fmt.Fprintf(w, "host: num_cpu=%d gomaxprocs=%d server_gomaxprocs=%d %s kernel=%s commit=%s\n",
		h.NumCPU, h.GOMAXPROCS, h.ServerGOMAXPROCS, h.GoVersion, h.Kernel, h.GitCommit)
	fmt.Fprintf(w, "load: closed loop, clients=%d, round=%.2fs, state_dir_fs=%s\n", h.Clients, h.RoundSeconds, h.StateDirFS)
	if r.Trace == 0 {
		fmt.Fprintf(w, "host speed: %.1f calibration units/s during the run; timing metrics are reported at the reference speed %.0f (x%.3f)\n",
			r.HostSpeed, calRef, speedFactor(r.HostSpeed))
	} else {
		fmt.Fprintf(w, "host speed: %.1f calibration units/s during the rounds (reference %.0f); per-layer numbers are as the clock read them\n",
			r.HostSpeed, calRef)
	}

	list := endToEnd
	if r.Trace == 1 {
		list = perLayer
	}
	for _, m := range list {
		v, ok := r.Metrics[m.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-30s %14.4f %-10s n=%-6d", m.Name, v.Value, v.Unit, r.Samples[m.Name])
		if r.Trace == 1 {
			line += " -> " + m.Moves
		} else {
			line += fmt.Sprintf(" %s is better, bound %.0f%%", m.Better, m.Bound*100)
			if raw, ok := r.Raw[m.Name]; ok {
				line += fmt.Sprintf("; as the clock read it: %.4f", raw)
			}
		}
		fmt.Fprintln(w, line)
	}
	for i, rd := range r.Rounds {
		fmt.Fprintf(w, "  round %d as the clock read it: qps=%.2f p50=%.3fms p90=%.3fms rss=%.1fMB setup=%.3fs (ready %.3fs) n=%d host_speed=%.1f\n",
			i+1, rd.QPS, rd.P50Ms, rd.P90Ms, rd.RSSMB, rd.SetupS, rd.ReadyS, rd.Samples, rd.HostSpeed)
	}
	if len(r.Rounds) > 1 {
		var q, p50, p90 []float64
		for _, rd := range r.Rounds {
			q, p50, p90 = append(q, rd.QPS), append(p50, rd.P50Ms), append(p90, rd.P90Ms)
		}
		fmt.Fprintf(w, "  round spread (max-min)/median: qps %.3f, p50 %.3f, p90 %.3f\n", spread(q), spread(p50), spread(p90))
	}
	fmt.Fprintf(w, "requests: attempted=%d failed=%d fail_share=%.6f bit-verified=%d (the rest shape-checked)\n",
		r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)), r.BitVerified)
	if r.TraceFile != "" {
		fmt.Fprintf(w, "spans: %s\n", r.TraceFile)
	}
	for _, n := range r.Warnings {
		fmt.Fprintf(w, "warning: %s\n", n)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "INCORRECT: %s\n", n)
	}
	fmt.Fprintln(w, "not covered, on purpose:")
	for _, n := range r.NotCovered {
		fmt.Fprintf(w, "  - %s\n", n)
	}
}

// appendJSONL appends the full record to path as one line.
func (r *runResult) appendJSONL(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	raw, err := json.Marshal(r)
	if err == nil {
		_, err = f.Write(append(raw, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// readJSONL reads the records -out wrote.
func readJSONL(path string) ([]runResult, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []runResult
	for i, line := range strings.Split(string(raw), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var r runResult
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, i+1, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Fingerprint identifies where and on what a result was measured.
// Results are comparable only when everything but Commit matches: the
// same host, the same toolchain and the same benchmark code.
type Fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	// Bench hashes the benchmark's own sources; Commit hashes the rest
	// of the program's sources (the checkout the benchmark runs in is not
	// a git repository, so its content stands in for the revision).
	Bench  string `json:"bench"`
	Commit string `json:"commit"`
}

func fingerprint(root string) (Fingerprint, error) {
	fp := Fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
	}
	bench, prog := sha256.New(), sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == ".git" || rel == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".mod", ".c", ".sh":
		default:
			return nil
		}
		h := prog
		if strings.HasPrefix(rel, "perfbench"+string(filepath.Separator)) {
			h = bench
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return fp, fmt.Errorf("fingerprinting sources: %w", err)
	}
	fp.Bench = hex.EncodeToString(bench.Sum(nil))[:16]
	fp.Commit = "tree:" + hex.EncodeToString(prog.Sum(nil))[:16]
	return fp, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// comparable refuses a pair of fingerprints that were not measured on
// the same host, toolchain and benchmark code.
func (fp Fingerprint) comparable(o Fingerprint) error {
	a, b := fp, o
	a.Commit, b.Commit = "", ""
	if a != b {
		return fmt.Errorf("fingerprints differ: %+v vs %+v", a, b)
	}
	return nil
}

// Record is one run's stamped result, kept under the output directory.
type Record struct {
	Fingerprint Fingerprint `json:"fingerprint"`
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Seconds     int         `json:"seconds"`
	Trace       bool        `json:"trace"`
	Result      Result      `json:"result"`
	// Notes carries what the metrics alone do not say: sample counts,
	// the percentile a tail metric used, per-layer shares.
	Notes map[string]any `json:"notes,omitempty"`
}

func writeRecord(dir string, rec Record) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", rec.Workload, rec.Seed, b2i(rec.Trace))
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// loadRecords reads record files; a directory argument contributes every
// *.json file in it.
func loadRecords(paths []string) ([]Record, error) {
	var files []string
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if st.IsDir() {
			m, _ := filepath.Glob(filepath.Join(p, "*.json"))
			files = append(files, m...)
			continue
		}
		files = append(files, p)
	}
	var recs []Record
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r Record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// groupKey separates records that must never be pooled.
type groupKey struct {
	Workload string
	Trace    bool
	Seconds  int
}

// summary is the medians and quartile spread of one group of records.
type summary struct {
	Workload    string                   `json:"workload"`
	Trace       bool                     `json:"trace"`
	Seconds     int                      `json:"seconds"`
	Runs        int                      `json:"runs"`
	Seeds       []int64                  `json:"seeds"`
	Fingerprint Fingerprint              `json:"fingerprint"`
	Metrics     map[string]metricSummary `json:"metrics"`
	// LayerShares is, for traced runs, the median share of the traced
	// wall each layer's self time took.
	LayerShares map[string]float64 `json:"layer_shares,omitempty"`
}

type metricSummary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Spread is (Q3 − Q1) / |median|, the figure a run-to-run bound is
	// judged against.
	Spread float64 `json:"spread"`
}

// summarize pools records by workload, trace mode and run length,
// refusing to pool results whose fingerprints are not comparable.
func summarize(recs []Record) ([]summary, error) {
	groups := map[groupKey][]Record{}
	for _, r := range recs {
		k := groupKey{r.Workload, r.Trace, r.Seconds}
		if g := groups[k]; len(g) > 0 {
			if err := g[0].Fingerprint.comparable(r.Fingerprint); err != nil {
				return nil, fmt.Errorf("%s: %w", r.Workload, err)
			}
			if g[0].Fingerprint.Commit != r.Fingerprint.Commit {
				return nil, fmt.Errorf("%s: results from two program versions (%s, %s); compare them instead of pooling",
					r.Workload, g[0].Fingerprint.Commit, r.Fingerprint.Commit)
			}
		}
		groups[k] = append(groups[k], r)
	}
	var out []summary
	for k, g := range groups {
		s := summary{Workload: k.Workload, Trace: k.Trace, Seconds: k.Seconds, Runs: len(g),
			Fingerprint: g[0].Fingerprint, Metrics: map[string]metricSummary{}}
		vals := map[string][]float64{}
		units := map[string]string{}
		shares := map[string][]float64{}
		for _, r := range g {
			s.Seeds = append(s.Seeds, r.Seed)
			for name, m := range r.Result.Metrics {
				vals[name] = append(vals[name], m.Value)
				units[name] = m.Unit
			}
			ls, _ := r.Notes["layer_shares"].(map[string]any)
			for layer, v := range ls {
				if f, ok := v.(float64); ok {
					shares[layer] = append(shares[layer], f)
				}
			}
		}
		for layer, v := range shares {
			if s.LayerShares == nil {
				s.LayerShares = map[string]float64{}
			}
			s.LayerShares[layer] = median(v)
		}
		sort.Slice(s.Seeds, func(i, j int) bool { return s.Seeds[i] < s.Seeds[j] })
		for name, v := range vals {
			med := median(v)
			q1, q3 := quartiles(v)
			ms := metricSummary{Unit: units[name], Median: med, Q1: q1, Q3: q3}
			if med != 0 {
				ms.Spread = (q3 - q1) / abs(med)
			}
			s.Metrics[name] = ms
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		return !out[i].Trace && out[j].Trace
	})
	return out, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// compare prints, for every workload and metric present on both sides,
// the two medians and their ratio. It refuses sides whose fingerprints
// are not comparable.
func compare(w io.Writer, a, b []Record) error {
	sa, err := summarize(a)
	if err != nil {
		return err
	}
	sb, err := summarize(b)
	if err != nil {
		return err
	}
	idx := map[groupKey]summary{}
	for _, s := range sb {
		idx[groupKey{s.Workload, s.Trace, s.Seconds}] = s
	}
	for _, x := range sa {
		y, ok := idx[groupKey{x.Workload, x.Trace, x.Seconds}]
		if !ok {
			continue
		}
		if err := x.Fingerprint.comparable(y.Fingerprint); err != nil {
			return fmt.Errorf("%s: refusing to compare: %w", x.Workload, err)
		}
		fmt.Fprintf(w, "%s (trace %v, %d vs %d runs, %s vs %s)\n", x.Workload, x.Trace, x.Runs, y.Runs,
			x.Fingerprint.Commit, y.Fingerprint.Commit)
		names := make([]string, 0, len(x.Metrics))
		for n := range x.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			mb, ok := y.Metrics[n]
			if !ok {
				continue
			}
			ma := x.Metrics[n]
			ratio := 0.0
			if ma.Median != 0 {
				ratio = mb.Median / ma.Median
			}
			fmt.Fprintf(w, "  %-32s %14.6g -> %14.6g %-6s x%.4f  (spread %.3f / %.3f)\n",
				n, ma.Median, mb.Median, ma.Unit, ratio, ma.Spread, mb.Spread)
		}
	}
	return nil
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

// A stamp describes the conditions of one run, so a noisy figure can be
// explained rather than discarded.
type stamp struct {
	Workload   string     `json:"workload"`
	Seed       int64      `json:"seed"`
	Seconds    float64    `json:"seconds"`
	Trace      bool       `json:"trace"`
	Spin       string     `json:"spin,omitempty"`
	GoVersion  string     `json:"go_version"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	NProc      int        `json:"nproc"`
	Commit     string     `json:"commit"`
	SourceSHA  string     `json:"source_sha256"`
	Tmpfs      bool       `json:"tmpfs"`
	LoadAvg    [3]float64 `json:"loadavg_at_start"`
}

func makeStamp(o options) stamp {
	st := stamp{
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      nproc(),
		Commit:     "unknown",
		SourceSHA:  sourceHash("."),
		Tmpfs:      onTmpfs(o.work),
		LoadAvg:    loadAvg(),
	}
	if o.spin > 0 {
		st.Spin = o.spin.String()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				st.Commit = s.Value
			}
		}
	}
	return st
}

// onTmpfs reports whether dir — where the workloads put their trace
// file and disk cache — lives on a tmpfs.
func onTmpfs(dir string) bool {
	const tmpfsMagic = 0x01021994
	var fs syscall.Statfs_t
	if err := syscall.Statfs(dir, &fs); err != nil {
		return false
	}
	return fs.Type == tmpfsMagic
}

// loadAvg is the 1, 5 and 15 minute load average.
func loadAvg() [3]float64 {
	var si syscall.Sysinfo_t
	var out [3]float64
	if err := syscall.Sysinfo(&si); err != nil {
		return out
	}
	for i, l := range si.Loads {
		out[i] = float64(l) / (1 << 16)
	}
	return out
}

// sourceHash identifies the code under test when the checkout carries
// no version-control metadata: a SHA-256 over the path and content of
// every Go source and module file below root, build outputs excluded.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

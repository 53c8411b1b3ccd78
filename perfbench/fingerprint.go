package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// Fingerprint identifies what produced a result: the machine, the
// toolchain, the code and the input seed. Timings are comparable only
// between results whose machine and toolchain fields agree.
type Fingerprint struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

// TakeFingerprint records the running environment. root is the module
// tree whose sources identify the code when the build carries no VCS
// revision (a checkout without git metadata).
func TakeFingerprint(root string, seed int64) Fingerprint {
	return Fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commitID(root),
		Seed:       seed,
	}
}

// Mismatch lists the fields that make two results' timings not
// comparable: machine shape and toolchain. Commit and seed are what a
// comparison varies, so they never make results incomparable.
func (f Fingerprint) Mismatch(o Fingerprint) []string {
	var diff []string
	if f.NumCPU != o.NumCPU {
		diff = append(diff, "nproc")
	}
	if f.GOMAXPROCS != o.GOMAXPROCS {
		diff = append(diff, "gomaxprocs")
	}
	if f.CPUModel != o.CPUModel {
		diff = append(diff, "cpu_model")
	}
	if f.GoVersion != o.GoVersion {
		diff = append(diff, "go_version")
	}
	return diff
}

// hostSteal reads the CPU time the hypervisor gave to other guests
// (steal) and the total, in clock ticks, from /proc/stat; zeros where
// unavailable. Steal stretches wall-clock timings while the process's
// own CPU time stays put, so a run reports its steal share beside its
// results.
func hostSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user and nice.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commitID is the build's VCS revision when the toolchain stamped one,
// otherwise "src-" plus a digest of every Go source and go.mod under
// root (dot-directories skipped), so two checkouts of one commit agree.
func commitID(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
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
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(b)
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}

package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// meta is the run metadata stored in every JSON file the harness writes.
type meta struct {
	GitSHA          string  `json:"git_sha"`
	GitDirty        bool    `json:"git_dirty"`
	GoVersion       string  `json:"go_version"`
	NProc           int     `json:"nproc"`
	HarnessMaxProcs int     `json:"harness_gomaxprocs"`
	DaemonMaxProcs  int     `json:"daemon_gomaxprocs"`
	Kernel          string  `json:"kernel"`
	DataDirFS       string  `json:"datadir_fs"`
	Conns           int     `json:"closed_loop_conns"`
	Seed            int64   `json:"seed"`
	Slices          int     `json:"slices"`
	SliceSeconds    float64 `json:"slice_seconds"`
	WarmSeconds     float64 `json:"warm_seconds"`
	SetupReps       int     `json:"setup_reps"`
	RestartReps     int     `json:"restart_reps"`
	RestartWrites   int     `json:"restart_writes"`
}

func collectMeta(h *harness, sp shape) meta {
	md := meta{
		GitSHA: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		HarnessMaxProcs: runtime.GOMAXPROCS(0), DaemonMaxProcs: daemonProcs,
		Kernel: "unknown", DataDirFS: fsKind(h.scratch), Conns: nConns,
		Seed: sp.seed, Slices: sp.slices, SliceSeconds: sp.sliceLen.Seconds(), WarmSeconds: sp.warm.Seconds(),
		SetupReps: sp.setupReps, RestartReps: sp.restartReps, RestartWrites: sp.restartWrites,
	}
	// The driver's checkout is not a git repository; "unknown" is the
	// honest answer there.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		md.GitSHA = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			md.GitDirty = len(strings.TrimSpace(string(st))) > 0
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		md.Kernel = strings.TrimSpace(string(b))
	}
	return md
}

// fsKind names the filesystem under dir: "tmpfs" means a flush is a
// memory operation, anything else that it reaches a (virtual) device.
func fsKind(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	const tmpfsMagic = 0x01021994
	if st.Type == tmpfsMagic {
		return "tmpfs"
	}
	return "disk"
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Env is the header stamped on every run, so a figure can be read against
// the code and machine that produced it.
type Env struct {
	Workload   string  `json:"workload"`
	Commit     string  `json:"commit"`
	SourceHash string  `json:"source_sha256"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Workers    int     `json:"engine_workers"`
	Seed       int64   `json:"seed"`
	HeldOut    int64   `json:"held_out_seed"`
	Seconds    float64 `json:"seconds"`
	WarmUp     float64 `json:"warm_up_seconds"`
	Traced     bool    `json:"traced"`

	Stocks        int `json:"stocks"`
	Composites    int `json:"composites"`
	CompsListRows int `json:"comps_list_rows"`
	Options       int `json:"options"`
	TraceQuotes   int `json:"trace_quotes"`
}

// printEnv writes the header as one JSON line on standard output.
func printEnv(workload string, in *Inputs, d time.Duration, traced bool) {
	env := Env{
		Workload:      workload,
		Commit:        commit(),
		SourceHash:    sourceHash(),
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		Workers:       runtime.NumCPU(),
		Seed:          in.Seed,
		HeldOut:       heldOutSeed,
		Seconds:       d.Seconds(),
		WarmUp:        warmUp.Seconds(),
		Traced:        traced,
		Stocks:        in.Cfg.Feed.NumStocks,
		Composites:    in.Cfg.NumComposites,
		CompsListRows: in.Cfg.NumComposites * in.Cfg.CompSize,
		Options:       in.Cfg.NumOptions,
		TraceQuotes:   len(in.Trace.Quotes),
	}
	if kinds[workload].virtual {
		env.Workers = 0 // the replay loop runs tasks itself
	}
	out, err := json.Marshal(map[string]Env{"env": env})
	if err != nil {
		panic(err) // a struct of plain fields always marshals
	}
	fmt.Println(string(out))
}

// commit is the checked-out commit, or "unknown" outside a git work tree.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every Go source and module file under the working
// directory, so runs of checkouts without git history can still be told
// apart.
func sourceHash() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == ".git" || path == ".bench_build") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || filepath.Base(path) == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

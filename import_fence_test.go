package aisebmt

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// reproductionStack lists the packages of the paper reproduction: the
// cycle simulator and its models, the experiment drivers and the attack
// demonstrations. Everything else under internal/ is the service stack.
var reproductionStack = []string{
	"sim", "cache", "bus", "engine", "trace", "experiments", "report", "paper", "attack", "hide", "cli",
}

// serviceCommands are the service front ends outside internal/. The
// reproduction's commands (attacksim, experiments, secmemsim, tracegen)
// and examples/ may import either stack.
var serviceCommands = []string{"cmd/secmemd", "cmd/secmemadmin", "cmd/metricslint", "bench"}

// packageImports parses the non-test files of the package in dir and
// returns its module-relative imports, and whether it has any files.
func packageImports(t *testing.T, dir string) ([]string, bool) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	found := false
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		found = true
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, name), nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if rel, ok := strings.CutPrefix(p, "aisebmt/"); ok {
				out = append(out, rel)
			}
		}
	}
	return out, found
}

// TestServiceCryptoImportFence fences the two stacks apart at the
// import graph.
//
// The controller's engines stay on the standard library ciphers: no
// non-test file in internal/encrypt or internal/integrity may import the
// from-scratch internal/crypto packages, which serve those packages'
// tests as the differential oracle.
//
// No service package (internal/ outside reproductionStack, plus
// serviceCommands) may import a reproduction package. A direct-edge
// check suffices: any path from the service stack into the reproduction
// stack crosses one such edge. Test files are outside the fence: the
// chaos matrix, for one, replays the attack package's tamper primitives
// against a live durable pool.
//
// The acked-write history checker, internal/history, serves tests only:
// no non-test file anywhere in the module may import it.
func TestServiceCryptoImportFence(t *testing.T) {
	for _, dir := range []string{"internal/encrypt", "internal/integrity"} {
		imps, found := packageImports(t, dir)
		if !found {
			t.Errorf("%s: no package files found", dir)
		}
		for _, p := range imps {
			if p == "internal/crypto" || strings.HasPrefix(p, "internal/crypto/") {
				t.Errorf("%s imports %s; the service engines bind the standard library ciphers", dir, p)
			}
		}
	}

	repro := func(pkg string) bool {
		for _, r := range reproductionStack {
			if pkg == "internal/"+r || strings.HasPrefix(pkg, "internal/"+r+"/") {
				return true
			}
		}
		return false
	}
	service := append([]string(nil), serviceCommands...)
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && !repro(filepath.ToSlash(path)) {
			service = append(service, filepath.ToSlash(path))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, pkg := range service {
		imps, found := packageImports(t, pkg)
		if found {
			checked++
		}
		for _, p := range imps {
			if repro(p) {
				t.Errorf("service package %s imports reproduction package %s", pkg, p)
			}
		}
	}
	if checked < len(serviceCommands)+10 {
		t.Errorf("only %d service packages found; is the test running from the module root?", checked)
	}

	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		imps, _ := packageImports(t, path)
		for _, p := range imps {
			if p == "internal/history" {
				t.Errorf("%s imports internal/history outside its tests; the checker is test-only", filepath.ToSlash(path))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

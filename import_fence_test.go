package aisebmt

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestServiceCryptoImportFence keeps the controller's engines on the
// standard library ciphers: no non-test file in internal/encrypt or
// internal/integrity may import the from-scratch internal/crypto packages,
// which serve those packages' tests as the differential oracle.
func TestServiceCryptoImportFence(t *testing.T) {
	for _, dir := range []string{"internal/encrypt", "internal/integrity"} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if p == "aisebmt/internal/crypto" || strings.HasPrefix(p, "aisebmt/internal/crypto/") {
					t.Errorf("%s imports %s; the service engines bind the standard library ciphers", path, p)
				}
			}
			checked++
		}
		if checked == 0 {
			t.Errorf("%s: no package files found", dir)
		}
	}
}

package subseq_test

import (
	"bytes"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/api.golden")

// TestPublicSurfaceGolden pins the public surface: every exported identifier
// of this package (read from subseq.go) and every exported method of the
// reference net and its session (read from internal/refnet). An export added
// or removed shows as a diff against testdata/api.golden, so each one is a
// deliberate change (DESIGN.md §5 item 20 records what keeps each). Run with
// -update to accept a new surface.
func TestPublicSurfaceGolden(t *testing.T) {
	fset := token.NewFileSet()
	var lines []string
	f, err := parser.ParseFile(fset, "subseq.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				lines = append(lines, "func subseq."+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						lines = append(lines, "type subseq."+s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							lines = append(lines, d.Tok.String()+" subseq."+n.Name)
						}
					}
				}
			}
		}
	}

	files, err := filepath.Glob(filepath.Join("internal", "refnet", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || !fd.Name.IsExported() {
				continue
			}
			if recv := receiverName(fd.Recv.List[0].Type); recv == "Net" || recv == "Session" {
				lines = append(lines, "method refnet."+recv+"."+fd.Name.Name)
			}
		}
	}
	slices.Sort(lines)
	got := []byte(strings.Join(lines, "\n") + "\n")

	golden := filepath.Join("testdata", "api.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test . -run TestPublicSurfaceGolden -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the public surface drifted from %s (run with -update to accept it):\n--- got ---\n%s\n--- want ---\n%s",
			golden, got, want)
	}
}

// receiverName is the type name of a method receiver such as *Net[T].
func receiverName(e ast.Expr) string {
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ix.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

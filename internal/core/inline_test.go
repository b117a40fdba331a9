package core

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestRequestPathInlines: the calls Cache.Access makes on every request —
// the learner's Epoch, Arrive and EndRequest, the summary's Slot and Bump
// inside Arrive, and the page table's probe (find) — inline into it, and
// so do find in warm and admit and the learner's Priority in admit and
// appendToGroup. An edit that pushes one over the inliner's budget fails
// here instead of quietly slowing the request path. The call sites are
// found in the source, and the compiler's -m report must say "inlining
// call to" at each one: the same call inlining somewhere else does not
// stand in for it. The inliner's verdicts belong to the toolchain, so the
// build runs the go command of the toolchain under runtime.GOROOT().
func TestRequestPathInlines(t *testing.T) {
	cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "build", "-gcflags=-m", ".")
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	// inlined maps a file:line:column to the callees inlined there; a call
	// inlined into an inlined body is reported at the outer call.
	inlined := map[string][]string{}
	for _, m := range regexp.MustCompile(`(?m)^(.+\.go):(\d+):(\d+): inlining call to (.+)$`).FindAllStringSubmatch(string(out), -1) {
		at := filepath.Base(m[1]) + ":" + m[2] + ":" + m[3]
		inlined[at] = append(inlined[at], m[4])
	}

	// methods maps each of Cache's methods to its declaration.
	methods := map[string]*ast.FuncDecl{}
	fset := token.NewFileSet()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || len(fn.Recv.List) != 1 {
				continue
			}
			if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok {
				if id, ok := star.X.(*ast.Ident); ok && id.Name == "Cache" {
					methods[fn.Name.Name] = fn
				}
			}
		}
	}

	learner := func(m string) string { return `^clicstats\.\(\*Learner\)\.` + m + `$` }
	summary := func(m string) string { return `^spacesaving\.\(\*Summary\[.*\]\)\.` + m + `$` }
	find := `^\(\*Cache\)\.find$`
	for _, want := range []struct {
		in, call string
		callees  []string // what must be inlined at each call to call in in
	}{
		{"Access", "Epoch", []string{learner("Epoch")}},
		{"Access", "find", []string{find}},
		{"Access", "Arrive", []string{learner("Arrive"), summary("Slot"), summary("Bump")}},
		{"Access", "EndRequest", []string{learner("EndRequest")}},
		{"warm", "find", []string{find}},
		{"admit", "find", []string{find}},
		{"admit", "Priority", []string{learner("Priority")}},
		{"appendToGroup", "Priority", []string{learner("Priority")}},
	} {
		fn := methods[want.in]
		if fn == nil {
			t.Errorf("no method (*Cache).%s", want.in)
			continue
		}
		calls := 0
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != want.call {
				return true
			}
			calls++
			pos := fset.Position(call.Lparen)
			at := fmt.Sprintf("%s:%d:%d", pos.Filename, pos.Line, pos.Column)
			for _, callee := range want.callees {
				if !slices.ContainsFunc(inlined[at], regexp.MustCompile(callee).MatchString) {
					t.Errorf("(*Cache).%s's call to %s at %s: no %q inlined there (the compiler inlined %q)", want.in, want.call, at, callee, inlined[at])
				}
			}
			return true
		})
		if calls == 0 {
			t.Errorf("(*Cache).%s calls no method named %s", want.in, want.call)
		}
	}
}

package timecache_test

// TestEveryFunctionIsLinked keeps the module free of code that only tests
// reach: every function and method declared in a non-test, non-main file
// must be linked into at least one binary the repository ships (the CLIs
// under cmd/, the programs under examples/ and the perfbench benchmark).
// Code that backs no binary backs no result, so it is either wired into a
// binary or deleted; the few deliberate exceptions live in linkAllowlist,
// each with its reason.
//
// Run it alone with:
//
//	go test -run TestEveryFunctionIsLinked -count=1 -v .

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// linkAllowlist names the code no binary links that stays on purpose, each
// entry with its reason. A key is a function's linker symbol (methods in
// the pointer-receiver spelling, pkg.(*T).M) or a type, pkg.T, which
// covers every method of T.
var linkAllowlist = map[string]string{
	"timecache/internal/bitserial.ReferenceGT":             "reference model: the plain Tc > Ts compare the gate-level array is checked against",
	"timecache/internal/bitserial.NewShiftRegister":        "gate-level piece: the Ts shift register of Figure 6, tested on its own",
	"timecache/internal/bitserial.(*Array).CompareGT":      "gate-level piece: the allocating comparison the property tests drive",
	"timecache/internal/bitserial.(*Array).Load":           "gate-level piece: the read-back half of the transpose interface",
	"timecache/internal/bitserial.(*Array).Iterations":     "gate-level piece: the fixed iteration count the constant-time test asserts",
	"timecache/internal/cache.(*Hierarchy).CheckCoherence": "invariant checker the coherence tests run; it grows into the whole-hierarchy auditor",
	"timecache/internal/clock.NewFake":                     "test double: the manually advanced wall clock",
	"timecache/internal/clock.Fake":                        "test double: the manually advanced wall clock",
	"timecache/internal/clock.fakeTimer":                   "test double: the timers the fake clock hands out",
	"timecache/internal/jobstore.NewMem":                   "test double: the in-memory job store",
	"timecache/internal/jobstore.Mem":                      "test double: the in-memory job store",
}

// modulePath is the import-path prefix of every package the guard checks.
const modulePath = "timecache"

func TestEveryFunctionIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary of the repository")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go command not available")
	}
	reached := map[string]bool{}
	for _, b := range linkedBinaries(t) {
		linkerReach(t, b, reached)
	}
	declared := declaredFuncs(t)

	var missing []string
	excused := map[string]bool{}
	for sym, d := range declared {
		linked := false
		for _, alt := range d.syms {
			linked = linked || reached[alt]
		}
		switch {
		case linked:
		case linkAllowlist[sym] != "":
			excused[sym] = true
		case d.typ != "" && linkAllowlist[d.typ] != "":
			excused[d.typ] = true
		default:
			missing = append(missing, sym)
		}
	}
	for key := range linkAllowlist {
		if !excused[key] {
			t.Errorf("linkAllowlist entry %s excuses nothing: it is linked now, or gone", key)
		}
	}
	sort.Strings(missing)
	for _, sym := range missing {
		t.Errorf("no binary links %s", sym)
	}
	if len(missing) > 0 {
		t.Logf("%d functions unlinked: wire each into a binary, delete it, or move it into a _test.go file", len(missing))
	}
}

// binary is one main package to link: dir is the go command's working
// directory and pkg the package pattern built there.
type binary struct{ name, dir, pkg string }

func linkedBinaries(t *testing.T) []binary {
	t.Helper()
	var bins []binary
	for _, parent := range []string{"cmd", "examples"} {
		ents, err := os.ReadDir(parent)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if e.IsDir() {
				bins = append(bins, binary{parent + "-" + e.Name(), ".", "./" + parent + "/" + e.Name()})
			}
		}
	}
	// perfbench is its own module; it reaches the simulator through a
	// replace directive, so it is built from its own directory.
	return append(bins, binary{"perfbench", "perfbench", "."})
}

// linkerReach builds b without inlining in this module's packages (so a
// called function keeps its own symbol) and adds every symbol of this
// module that the linker's dependency dump names to reached.
func linkerReach(t *testing.T, b binary, reached map[string]bool) {
	t.Helper()
	cmd := exec.Command("go", "build", "-buildvcs=false",
		"-gcflags="+modulePath+"/...=-l", "-ldflags=-dumpdep",
		"-o", filepath.Join(t.TempDir(), b.name), b.pkg)
	cmd.Dir = b.dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var tail []string // the last non-dump lines, for a build error
	sc := bufio.NewScanner(stderr)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		from, to, ok := strings.Cut(sc.Text(), " -> ")
		if !ok {
			tail = append(tail[max(0, len(tail)-20):], sc.Text())
			continue
		}
		for _, s := range [2]string{from, to} {
			if strings.HasPrefix(s, modulePath) {
				reached[stripTypeArgs(s)] = true
			}
		}
	}
	_, _ = io.Copy(io.Discard, stderr)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("building %s: %v\n%s", b.name, err, strings.Join(tail, "\n"))
	}
}

// stripTypeArgs drops every bracketed type-argument list from a linker
// symbol, so that each instantiation of a generic function or type counts
// under its declared name.
func stripTypeArgs(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var sb strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// declaredFunc is one declared function or method: the linker symbols
// that count as linking it (a method with a value receiver counts under
// T.M and under (*T).M) and, for a method, its type's key pkg.T.
type declaredFunc struct {
	syms []string
	typ  string
}

// declaredFuncs maps every function and method declared in a non-test file
// of a non-main package, keyed by its linker symbol in the pointer-receiver
// spelling.
func declaredFuncs(t *testing.T) map[string]declaredFunc {
	t.Helper()
	fset := token.NewFileSet()
	out := map[string]declaredFunc{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (name == "perfbench" || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if f.Name.Name == "main" {
			return nil
		}
		pkg := modulePath
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			if fn.Recv == nil {
				sym := pkg + "." + fn.Name.Name
				out[sym] = declaredFunc{syms: []string{sym}}
				continue
			}
			typ, ptr := receiverType(fn.Recv.List[0].Type)
			sym := pkg + ".(*" + typ + ")." + fn.Name.Name
			d := declaredFunc{syms: []string{sym}, typ: pkg + "." + typ}
			if !ptr {
				d.syms = append(d.syms, pkg+"."+typ+"."+fn.Name.Name)
			}
			out[sym] = d
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// receiverType returns the receiver's type name without type parameters,
// and whether the receiver is a pointer.
func receiverType(e ast.Expr) (string, bool) {
	ptr := false
	if s, ok := e.(*ast.StarExpr); ok {
		ptr, e = true, s.X
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	return e.(*ast.Ident).Name, ptr
}

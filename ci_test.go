package timecache_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ciWorkflow is the CI definition whose go test steps TestCIPatternsMatch
// checks.
const ciWorkflow = ".github/workflows/ci.yml"

// TestCIPatternsMatch keeps every CI test step from silently running
// nothing: for each go test command in the workflow, every alternative of
// every -run, -bench and -fuzz pattern other than ^$ must match a test
// function of the matching kind (-run: Test, Example or Fuzz; -bench:
// Benchmark; -fuzz: Fuzz) in one of the packages the command names. A test
// that CI names by pattern cannot be deleted or renamed without updating
// the workflow.
func TestCIPatternsMatch(t *testing.T) {
	data, err := os.ReadFile(ciWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string][]string{} // package dir -> test-file function names
	names := func(dir string) []string {
		if got, ok := funcs[dir]; ok {
			return got
		}
		got := testFuncs(t, dir)
		funcs[dir] = got
		return got
	}
	kinds := map[string][]string{
		"-run":   {"Test", "Example", "Fuzz"},
		"-bench": {"Benchmark"},
		"-fuzz":  {"Fuzz"},
	}
	checked := 0
	for n, line := range strings.Split(string(data), "\n") {
		i := strings.Index(line, "go test ")
		if i < 0 {
			continue
		}
		patterns, pkgs := goTestArgs(shellWords(line[i+len("go test "):]))
		var dirs []string
		for _, p := range pkgs {
			dirs = append(dirs, packageDirs(t, p)...)
		}
		for flagName, pattern := range patterns {
			if pattern == "^$" {
				continue
			}
			for _, alt := range alternatives(strings.SplitN(pattern, "/", 2)[0]) {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s:%d: %s %q: %v", ciWorkflow, n+1, flagName, alt, err)
					continue
				}
				checked++
				if !anyMatch(re, kinds[flagName], dirs, names) {
					t.Errorf("%s:%d: %s alternative %q matches no %v function in %v",
						ciWorkflow, n+1, flagName, alt, kinds[flagName], pkgs)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatalf("%s: found no -run/-bench/-fuzz patterns to check", ciWorkflow)
	}
}

func anyMatch(re *regexp.Regexp, prefixes, dirs []string, names func(string) []string) bool {
	for _, dir := range dirs {
		for _, name := range names(dir) {
			for _, p := range prefixes {
				if strings.HasPrefix(name, p) && re.MatchString(name) {
					return true
				}
			}
		}
	}
	return false
}

// shellWords splits a command line on blanks, honoring single and double
// quotes, and stops at the first pipe, redirection or command separator.
func shellWords(s string) []string {
	var words []string
	var cur strings.Builder
	inWord := false
	var quote rune
	for _, r := range s {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			cur.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		case strings.ContainsRune("|&;>", r) && !inWord:
			return words
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

// goTestArgs returns a go test command's -run/-bench/-fuzz patterns and its
// package arguments.
func goTestArgs(words []string) (patterns map[string]string, pkgs []string) {
	valued := map[string]bool{"-run": true, "-bench": true, "-fuzz": true, "-benchtime": true,
		"-fuzztime": true, "-count": true, "-timeout": true, "-cpu": true, "-p": true, "-tags": true}
	patterns = map[string]string{}
	for i := 0; i < len(words); i++ {
		w := words[i]
		name, value, hasValue := strings.Cut(w, "=")
		switch {
		case !strings.HasPrefix(w, "-"):
			pkgs = append(pkgs, w)
			continue
		case !valued[name]:
			continue
		case !hasValue && i+1 < len(words):
			i++
			value = words[i]
		}
		if name == "-run" || name == "-bench" || name == "-fuzz" {
			patterns[name] = value
		}
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	return patterns, pkgs
}

// alternatives splits a regular expression at its top-level '|'.
func alternatives(re string) []string {
	var out []string
	depth, start := 0, 0
	for i, r := range re {
		switch r {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				out = append(out, re[start:i])
				start = i + 1
			}
		}
	}
	return append(out, re[start:])
}

// packageDirs resolves a package argument ("." "./internal/x/" or a
// "/..." wildcard) to directories of this module.
func packageDirs(t *testing.T, pkg string) []string {
	root, recursive := strings.CutSuffix(pkg, "/...")
	root = filepath.Clean(root)
	if !recursive {
		return []string{root}
	}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
			return filepath.SkipDir // another module
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// testFuncs lists the top-level functions declared in dir's _test.go files.
func testFuncs(t *testing.T, dir string) []string {
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, f := range files {
		file, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				names = append(names, fd.Name.Name)
			}
		}
	}
	return names
}

package alvc_test

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestSourceSizeRatchet holds the module's size to
// testdata/size_ratchet.txt: it fails when a count rises above its line.
// A change that lowers a count lowers its line with it; one that must
// raise a count raises the line and says why. `make loc` prints the
// counts (go test -count=1 -run '^TestSourceSizeRatchet$' -v .).
func TestSourceSizeRatchet(t *testing.T) {
	counts, err := sourceSizes(".")
	if err != nil {
		t.Fatal(err)
	}
	limits, err := readRatchet("testdata/size_ratchet.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range counts {
		if c.name == testLinesName {
			t.Logf("%-40s %6d (not ratcheted)", c.name+":", c.n)
			continue
		}
		limit, ok := limits[c.name]
		delete(limits, c.name)
		switch {
		case !ok:
			t.Errorf("%q has no line in the ratchet file", c.name)
		case c.n > limit:
			t.Errorf("%s: %d, above the ratchet's %d", c.name, c.n, limit)
		case c.n < limit:
			t.Logf("%-40s %6d (ratchet %d: lower it)", c.name+":", c.n, limit)
		default:
			t.Logf("%-40s %6d", c.name+":", c.n)
		}
	}
	for name := range limits {
		t.Errorf("the ratchet file names %q, which is not counted", name)
	}
}

const testLinesName = "test Go lines"

type sourceCount struct {
	name string
	n    int
}

var (
	shardedMethod       = regexp.MustCompile(`func \(s \*Sharded\)`)
	exportedShardMethod = regexp.MustCompile(`(?m)^func \([a-z]* \*shard\) [A-Z]`)
	exportedArchMethod  = regexp.MustCompile(`(?m)^func \([a-z]* \*Architecture\) [A-Z]`)
	exportedFunc        = regexp.MustCompile(`(?m)^func (\([^)]*\) )?[A-Z]`)
	nodeKeyedMap        = regexp.MustCompile(`(?m)^.*map\[(topology\.)?NodeID\].*$`)
	mutexField          = regexp.MustCompile(`(?m)^\s+\w+(, *\w+)*\s+\*?sync\.(RW)?Mutex\b`)
)

// sourceSizes counts the Go files under root, skipping testdata and
// hidden directories: lines of non-test code outside and inside
// benchmark/, lines of tests, methods on the shard set over
// internal/orch's files (tests included), exported methods on a shard
// and on the facade's Architecture, exported functions and methods in
// internal/graph's non-test files, the lines of non-test code outside
// benchmark/ that name a node-keyed map (node IDs are dense: per-node
// state is a table by ID), and the sync.Mutex and sync.RWMutex fields
// declared there.
func sourceSizes(root string) ([]sourceCount, error) {
	var prod, bench, tests, sharded, shardMethods, archMethods, graphFuncs, nodeMaps, mutexes int
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		dir, isTest := filepath.ToSlash(filepath.Dir(rel)), strings.HasSuffix(path, "_test.go")
		lines := bytes.Count(data, []byte("\n"))
		switch {
		case isTest:
			tests += lines
		case dir == "benchmark" || strings.HasPrefix(dir, "benchmark/"):
			bench += lines
		default:
			prod += lines
			nodeMaps += len(nodeKeyedMap.FindAll(data, -1))
			mutexes += len(mutexField.FindAll(data, -1))
		}
		if dir == "internal/orch" {
			sharded += len(shardedMethod.FindAll(data, -1))
			if !isTest {
				shardMethods += len(exportedShardMethod.FindAll(data, -1))
			}
		}
		if dir == "." && !isTest {
			archMethods += len(exportedArchMethod.FindAll(data, -1))
		}
		if dir == "internal/graph" && !isTest {
			graphFuncs += len(exportedFunc.FindAll(data, -1))
		}
		return nil
	})
	return []sourceCount{
		{"non-test Go lines outside benchmark/", prod},
		{"non-test Go lines in benchmark/", bench},
		{testLinesName, tests},
		{"func (s *Sharded) methods", sharded},
		{"exported shard methods", shardMethods},
		{"exported Architecture methods", archMethods},
		{"exported funcs in internal/graph", graphFuncs},
		{"node-keyed maps in non-test Go", nodeMaps},
		{"sync mutex fields in non-test Go", mutexes},
	}, err
}

// readRatchet reads "name: limit" lines; # starts a comment line.
func readRatchet(path string) (map[string]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	limits := map[string]int{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndex(line, ":")
		if i < 0 {
			return nil, fmt.Errorf("%s:%d: want \"name: limit\"", path, n)
		}
		limit, err := strconv.Atoi(strings.TrimSpace(line[i+1:]))
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, n, err)
		}
		limits[strings.TrimSpace(line[:i])] = limit
	}
	return limits, sc.Err()
}

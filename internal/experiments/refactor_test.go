package experiments

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// refactor_test.go pins the complete rendered output of every catalogued
// experiment across refactors of the execution engine. Where the golden
// files in testdata/ pin a handful of full renderings, this test pins a
// 64-bit FNV-1a hash of the text, JSON and CSV renderings of the whole
// catalogue (minus the host-clock-dependent "overhead" experiment) — so a
// refactor of the operator layer (the vectorized pipeline, the plan compiler) must leave
// every experiment byte-identical, not just the ones with full goldens.
//
// The signature files were generated BEFORE the vectorized-operator
// refactor; the test iterates the names recorded in the file, so newly
// registered experiments don't silently self-bless — they get pinned by
// their own golden files and a signature entry on the next -update.
// Regenerate with `go test ./internal/experiments -run TestOperatorRefactor
// -update` only after an intentional output change.

// signatureExcluded lists experiments whose output depends on the host
// clock and therefore cannot be byte-pinned.
var signatureExcluded = map[string]bool{"overhead": true}

// renderSignature hashes one rendering of a metadata-normalized result.
func renderSignature(t *testing.T, res *Result, format string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Render(&buf, format); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return fmt.Sprintf("%016x", h.Sum64())
}

// collectSignatures runs every non-excluded registered experiment at the
// golden config and returns "name<TAB>format<TAB>hash" lines.
func collectSignatures(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, e := range All() {
		if signatureExcluded[e.Name] {
			continue
		}
		res, err := e.Run(context.Background(), goldenConfig(), nil)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		res.Meta.WallTime = 0
		res.Meta.Version = "golden"
		for _, format := range []string{"text", "json", "csv"} {
			lines = append(lines, fmt.Sprintf("%s\t%s\t%s",
				e.Name, format, renderSignature(t, res, format)))
		}
	}
	sort.Strings(lines)
	return lines
}

// checkSignatures compares freshly computed signatures against the
// recorded file: every recorded entry must still be produced bit-for-bit.
// Entries for experiments no longer registered fail (a silently dropped
// experiment is a regression too); new experiments are only pinned once
// recorded via -update.
func checkSignatures(t *testing.T, path string) {
	t.Helper()
	got := map[string]string{}
	for _, line := range collectSignatures(t) {
		key := line[:strings.LastIndexByte(line, '\t')]
		got[key] = line
	}
	if *updateGolden {
		var lines []string
		for _, l := range got {
			lines = append(lines, l)
		}
		sort.Strings(lines)
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("missing signature file (run with -update): %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	checked := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		key := line[:strings.LastIndexByte(line, '\t')]
		if g, ok := got[key]; !ok {
			t.Errorf("recorded experiment rendering %q no longer produced", key)
		} else if g != line {
			t.Errorf("output drifted for %s:\n  recorded %s\n  got      %s", key, line, g)
		}
		checked++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatalf("signature file %s is empty", path)
	}
}

// TestOperatorRefactorSignatures: the whole catalogue must render
// byte-identically to the pre-refactor recording.
func TestOperatorRefactorSignatures(t *testing.T) {
	checkSignatures(t, filepath.Join("testdata", "signatures.golden"))
}

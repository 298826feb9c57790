package main

import (
	"bytes"
	"strings"
	"testing"
)

// avrstore runs one subcommand and returns its exit status and report.
func avrstore(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var out bytes.Buffer
	code := run(args, &out)
	return code, out.String()
}

// TestSubcommandsExitZero runs every offline subcommand over one packed
// store, in the order the store smoke does.
func TestSubcommandsExitZero(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"pack", "-dir", dir, "-keys", "5", "-values", "5000", "-dist", "mixed-all"},
		{"verify", "-dir", dir},
		{"query", "-dir", dir, "-check"},
		{"query", "-dir", dir, "-key", "pack-0000"},
		{"inspect", "-dir", dir, "-blocks"},
		{"compact", "-dir", dir},
	} {
		if code, out := avrstore(t, args...); code != 0 {
			t.Fatalf("avrstore %s: exit %d, want 0\n%s", strings.Join(args, " "), code, out)
		}
	}
}

// TestVerifyFailureExitsOne: a key whose values are not what the
// manifest says fails verify with exit status 1 (not bad usage's 2), and
// the report names the key.
func TestVerifyFailureExitsOne(t *testing.T) {
	dir := t.TempDir()
	if code, out := avrstore(t, "pack", "-dir", dir, "-keys", "3", "-values", "5000"); code != 0 {
		t.Fatalf("pack: exit %d\n%s", code, out)
	}
	m, err := readManifest(manifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	m.Entries[0].Seed += 1000
	if err := m.write(manifestPath(dir)); err != nil {
		t.Fatal(err)
	}
	code, out := avrstore(t, "verify", "-dir", dir)
	if code != 1 {
		t.Fatalf("verify against a doctored manifest: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "FAIL "+m.Entries[0].Key) {
		t.Fatalf("verify report does not name %s:\n%s", m.Entries[0].Key, out)
	}
	for _, e := range m.Entries[1:] {
		if !strings.Contains(out, "ok   "+e.Key) {
			t.Fatalf("verify report does not pass %s:\n%s", e.Key, out)
		}
	}
}

// TestBadUsageExitsTwo: a missing subcommand or flag, an unknown flag
// and a bad flag value exit 2.
func TestBadUsageExitsTwo(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"unpack"},
		{"verify"},
		{"pack", "-dir", t.TempDir(), "-width", "16"},
		{"pack", "-dir", t.TempDir(), "-sync"},
	} {
		if code, out := avrstore(t, args...); code != 2 {
			t.Errorf("avrstore %q: exit %d, want 2\n%s", args, code, out)
		}
	}
}

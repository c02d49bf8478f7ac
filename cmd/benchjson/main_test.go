package main

import (
	"os"
	"path/filepath"
	"runtime/debug"
	"testing"
)

func TestRevision(t *testing.T) {
	for _, tc := range []struct {
		settings []debug.BuildSetting
		want     string
	}{
		{nil, ""},
		{[]debug.BuildSetting{{Key: "vcs.revision", Value: "abc"}, {Key: "vcs.modified", Value: "false"}}, "abc"},
		{[]debug.BuildSetting{{Key: "vcs.modified", Value: "true"}, {Key: "vcs.revision", Value: "abc"}}, "abc-dirty"},
		{[]debug.BuildSetting{{Key: "vcs.modified", Value: "true"}}, ""},
	} {
		if got := revision(tc.settings); got != tc.want {
			t.Errorf("revision(%v) = %q, want %q", tc.settings, got, tc.want)
		}
	}
}

// A snapshot never replaces another: the default name moves on to the
// first free BENCH_<date>-N.json, and an explicit -out that exists fails.
func TestCreateNeverOverwrites(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	for _, want := range []string{"BENCH_20261020.json", "BENCH_20261020-2.json", "BENCH_20261020-3.json"} {
		got, err := create("", "20261020", []byte(want))
		if err != nil || got != want {
			t.Fatalf("create = %q, %v; want %q", got, err, want)
		}
	}
	for _, name := range []string{"BENCH_20261020.json", "BENCH_20261020-2.json"} {
		if data, _ := os.ReadFile(name); string(data) != name {
			t.Errorf("%s holds %q, written over", name, data)
		}
	}
	explicit := filepath.Join(".", "snap.json")
	if _, err := create(explicit, "20261020", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, err := create(explicit, "20261020", []byte("two")); err == nil {
		t.Error("create wrote over an existing -out file")
	}
	if data, _ := os.ReadFile(explicit); string(data) != "one" {
		t.Errorf("%s holds %q", explicit, data)
	}
}

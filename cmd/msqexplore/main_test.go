package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"metricdb/internal/dataset"
)

func TestRunAllTasks(t *testing.T) {
	for _, task := range []string{"dbscan", "classify", "explore", "trends", "rules"} {
		for _, engine := range []string{"scan", "xtree", "vafile"} {
			if err := run(task, "", 400, 6, 3, engine, 8, 0.12, 3, 5, 2, 2, 1); err != nil {
				t.Errorf("task %s on %s: %v", task, engine, err)
			}
		}
	}
}

func TestRunWithDataDir(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.dir")
	items, err := dataset.Clustered(dataset.ClusteredConfig{Seed: 1, N: 300, Dim: 4, Clusters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.SaveDir(path, items, dataset.SaveOptions{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	if err := run("dbscan", path, 0, 0, 0, "scan", 4, 0.1, 3, 1, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	// A regular file — what the removed single-file format produced — is
	// refused with the way out, not with a decoder's complaint.
	file := filepath.Join(dir, "d.gob")
	if err := os.WriteFile(file, []byte("gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run("dbscan", file, 0, 0, 0, "scan", 4, 0.1, 3, 1, 1, 1, 1)
	if err == nil || !strings.Contains(err.Error(), "regenerate it with msqgen") {
		t.Fatalf("-data with a regular file returned %v", err)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if err := run("fly", "", 100, 4, 2, "scan", 4, 0.1, 3, 1, 1, 1, 1); err == nil {
		t.Error("unknown task accepted")
	}
	if err := run("dbscan", "/does/not/exist", 0, 0, 0, "scan", 4, 0.1, 3, 1, 1, 1, 1); err == nil {
		t.Error("missing data file accepted")
	}
	if err := run("dbscan", "", 100, 4, 2, "btree", 4, 0.1, 3, 1, 1, 1, 1); err == nil {
		t.Error("unknown engine accepted")
	}
}

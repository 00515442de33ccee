package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteCSV(t *testing.T) {
	dir := t.TempDir()
	if err := writeCSV(dir, "unit", "a,b\n1,2\n"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "unit.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "a,b\n1,2\n" {
		t.Errorf("csv content = %q", data)
	}
	// Nested directory creation.
	if err := writeCSV(filepath.Join(dir, "x", "y"), "z", "q\n"); err != nil {
		t.Fatal(err)
	}
}

func TestRunReturnsErrors(t *testing.T) {
	if err := run([]string{"-no-such-flag"}, io.Discard); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-exp", "no-such-experiment"}, io.Discard); err == nil {
		t.Error("unknown experiment accepted")
	}
}
